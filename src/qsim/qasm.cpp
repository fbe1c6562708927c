#include "qsim/qasm.h"

#include <cctype>
#include <iomanip>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include "qsim/transpile.h"
#include "util/contracts.h"
#include "util/parse.h"

namespace quorum::qsim {

namespace {

/// qelib1.inc mnemonic for a gate kind.
const char* qasm_gate_name(gate_kind kind) {
    switch (kind) {
    case gate_kind::id:
        return "id";
    case gate_kind::x:
        return "x";
    case gate_kind::y:
        return "y";
    case gate_kind::z:
        return "z";
    case gate_kind::h:
        return "h";
    case gate_kind::s:
        return "s";
    case gate_kind::sdg:
        return "sdg";
    case gate_kind::t:
        return "t";
    case gate_kind::tdg:
        return "tdg";
    case gate_kind::sx:
        return "sx";
    case gate_kind::rx:
        return "rx";
    case gate_kind::ry:
        return "ry";
    case gate_kind::rz:
        return "rz";
    case gate_kind::u3:
        return "u3";
    case gate_kind::cx:
        return "cx";
    case gate_kind::cz:
        return "cz";
    case gate_kind::swap_q:
        return "swap";
    case gate_kind::ccx:
        return "ccx";
    case gate_kind::cswap:
        return "cswap";
    }
    return "id";
}

void write_operands(std::ostream& out, const operation& op) {
    for (std::size_t i = 0; i < op.qubits.size(); ++i) {
        out << (i ? "," : "") << "q[" << op.qubits[i] << "]";
    }
}

} // namespace

void write_qasm(std::ostream& out, const circuit& c) {
    // QASM 2.0 has no initialize statement: synthesise first.
    const circuit expanded = expand_initialize(c);

    out << "OPENQASM 2.0;\n";
    out << "include \"qelib1.inc\";\n";
    out << "qreg q[" << expanded.num_qubits() << "];\n";
    if (expanded.num_clbits() > 0) {
        out << "creg c[" << expanded.num_clbits() << "];\n";
    }
    out << std::setprecision(17);
    for (const operation& op : expanded.ops()) {
        switch (op.kind) {
        case op_kind::gate:
            out << qasm_gate_name(op.gate);
            if (!op.params.empty()) {
                out << "(";
                for (std::size_t p = 0; p < op.params.size(); ++p) {
                    out << (p ? "," : "") << op.params[p];
                }
                out << ")";
            }
            out << " ";
            write_operands(out, op);
            out << ";\n";
            break;
        case op_kind::reset:
            out << "reset q[" << op.qubits[0] << "];\n";
            break;
        case op_kind::measure:
            out << "measure q[" << op.qubits[0] << "] -> c[" << op.cbit
                << "];\n";
            break;
        case op_kind::barrier:
            out << "barrier q;\n";
            break;
        case op_kind::initialize:
            throw util::contract_error("initialize survived expansion");
        }
    }
}

std::string to_qasm(const circuit& c) {
    std::ostringstream out;
    write_qasm(out, c);
    return out.str();
}

namespace {

[[noreturn]] void parse_fail(std::size_t line, const std::string& message) {
    throw util::contract_error("QASM parse error at line " +
                               std::to_string(line) + ": " + message);
}

/// Gate-kind lookup by qelib1 mnemonic.
const std::map<std::string, gate_kind>& gate_by_name() {
    static const std::map<std::string, gate_kind> table{
        {"id", gate_kind::id},     {"x", gate_kind::x},
        {"y", gate_kind::y},       {"z", gate_kind::z},
        {"h", gate_kind::h},       {"s", gate_kind::s},
        {"sdg", gate_kind::sdg},   {"t", gate_kind::t},
        {"tdg", gate_kind::tdg},   {"sx", gate_kind::sx},
        {"rx", gate_kind::rx},     {"ry", gate_kind::ry},
        {"rz", gate_kind::rz},     {"u3", gate_kind::u3},
        {"cx", gate_kind::cx},     {"cz", gate_kind::cz},
        {"swap", gate_kind::swap_q}, {"ccx", gate_kind::ccx},
        {"cswap", gate_kind::cswap}};
    return table;
}

/// Evaluates a QASM angle expression: numeric literal, optionally using
/// `pi` with the forms [k*]pi[/m], -pi, pi/2, 3*pi/4, ...
double parse_angle(std::string expr, std::size_t line) {
    // Strip whitespace.
    std::string compact;
    for (const char ch : expr) {
        if (!std::isspace(static_cast<unsigned char>(ch))) {
            compact += ch;
        }
    }
    if (compact.empty()) {
        parse_fail(line, "empty angle expression");
    }
    double sign = 1.0;
    std::size_t pos = 0;
    if (compact[pos] == '-') {
        sign = -1.0;
        ++pos;
    } else if (compact[pos] == '+') {
        ++pos;
    }
    const std::string body = compact.substr(pos);
    const std::size_t pi_at = body.find("pi");
    if (pi_at == std::string::npos) {
        // Plain literal.
        double value = 0.0;
        if (!util::parse_real(body, value)) {
            parse_fail(line, "bad numeric literal '" + body + "'");
        }
        return sign * value;
    }
    // [k*]pi[/m]
    double factor = 1.0;
    if (pi_at > 0) {
        if (body[pi_at - 1] != '*') {
            parse_fail(line, "expected '*' before pi in '" + body + "'");
        }
        const std::string coefficient = body.substr(0, pi_at - 1);
        if (!util::parse_real(coefficient, factor)) {
            parse_fail(line, "bad pi coefficient '" + coefficient + "'");
        }
    }
    double divisor = 1.0;
    const std::size_t after_pi = pi_at + 2;
    if (after_pi < body.size()) {
        if (body[after_pi] != '/') {
            parse_fail(line, "expected '/' after pi in '" + body + "'");
        }
        const std::string denominator = body.substr(after_pi + 1);
        if (!util::parse_real(denominator, divisor) || divisor == 0.0) {
            parse_fail(line, "bad pi divisor '" + denominator + "'");
        }
    }
    return sign * factor * pi / divisor;
}

/// Strictly parses a register-index token (`what` names it in errors).
/// std::atoi/strtoul would quietly read "x" as 0 and "2x" as 2; here the
/// whole token must be digits, with a length cap so absurd indices fail
/// as parse errors instead of overflowing.
std::size_t parse_index_token(const std::string& token, std::size_t line,
                              const std::string& what) {
    std::size_t index = 0;
    if (token.size() > 9 || !util::parse_count(token, index)) {
        parse_fail(line, "bad " + what + " index '" + token + "'");
    }
    return index;
}

/// Parses "q[K]" and returns K.
qubit_t parse_qubit_ref(const std::string& token, std::size_t line) {
    if (token.size() < 4 || token[0] != 'q' || token[1] != '[' ||
        token.back() != ']') {
        parse_fail(line, "expected q[<index>], got '" + token + "'");
    }
    return static_cast<qubit_t>(parse_index_token(
        token.substr(2, token.size() - 3), line, "qubit"));
}

/// Splits "a,b,c" at top level (no nesting in this grammar).
std::vector<std::string> split_commas(const std::string& text) {
    std::vector<std::string> parts;
    std::string current;
    for (const char ch : text) {
        if (ch == ',') {
            parts.push_back(current);
            current.clear();
        } else if (!std::isspace(static_cast<unsigned char>(ch))) {
            current += ch;
        }
    }
    if (!current.empty()) {
        parts.push_back(current);
    }
    return parts;
}

} // namespace

circuit parse_qasm(std::istream& in) {
    std::string line_text;
    std::size_t line_number = 0;
    bool saw_version = false;
    std::size_t num_qubits = 0;
    std::size_t num_clbits = 0;
    // Statements seen before qreg are rejected; gate statements buffered
    // until we can construct the circuit.
    std::unique_ptr<circuit> result;

    while (std::getline(in, line_text)) {
        ++line_number;
        // Strip comments and whitespace.
        const std::size_t comment = line_text.find("//");
        if (comment != std::string::npos) {
            line_text.resize(comment);
        }
        std::string statement;
        for (const char ch : line_text) {
            statement += ch;
        }
        // Trim.
        const auto first = statement.find_first_not_of(" \t\r");
        if (first == std::string::npos) {
            continue;
        }
        const auto last = statement.find_last_not_of(" \t\r");
        statement = statement.substr(first, last - first + 1);
        if (statement.empty()) {
            continue;
        }
        if (statement.back() != ';') {
            parse_fail(line_number, "missing ';'");
        }
        statement.pop_back();

        if (statement.rfind("OPENQASM", 0) == 0) {
            saw_version = true;
            continue;
        }
        if (statement.rfind("include", 0) == 0) {
            continue;
        }
        if (statement.rfind("qreg", 0) == 0) {
            const auto open = statement.find('[');
            const auto close = statement.find(']');
            if (open == std::string::npos || close == std::string::npos) {
                parse_fail(line_number, "malformed qreg");
            }
            num_qubits = parse_index_token(
                statement.substr(open + 1, close - open - 1), line_number,
                "qreg size");
            continue;
        }
        if (statement.rfind("creg", 0) == 0) {
            const auto open = statement.find('[');
            const auto close = statement.find(']');
            if (open == std::string::npos || close == std::string::npos) {
                parse_fail(line_number, "malformed creg");
            }
            num_clbits = parse_index_token(
                statement.substr(open + 1, close - open - 1), line_number,
                "creg size");
            continue;
        }

        if (!result) {
            if (num_qubits == 0) {
                parse_fail(line_number, "statement before qreg");
            }
            result = std::make_unique<circuit>(num_qubits, num_clbits);
        }

        if (statement.rfind("barrier", 0) == 0) {
            result->barrier();
            continue;
        }
        if (statement.rfind("reset", 0) == 0) {
            const std::string operand = statement.substr(5);
            const auto qubits = split_commas(operand);
            if (qubits.size() != 1) {
                parse_fail(line_number, "reset takes one qubit");
            }
            result->reset(parse_qubit_ref(qubits[0], line_number));
            continue;
        }
        if (statement.rfind("measure", 0) == 0) {
            const auto arrow = statement.find("->");
            if (arrow == std::string::npos) {
                parse_fail(line_number, "measure needs '->'");
            }
            std::string lhs = statement.substr(7, arrow - 7);
            std::string rhs = statement.substr(arrow + 2);
            const auto lhs_parts = split_commas(lhs);
            const auto rhs_parts = split_commas(rhs);
            if (lhs_parts.size() != 1 || rhs_parts.size() != 1) {
                parse_fail(line_number, "measure takes q[i] -> c[j]");
            }
            const qubit_t q = parse_qubit_ref(lhs_parts[0], line_number);
            const std::string& cref = rhs_parts[0];
            if (cref.size() < 4 || cref[0] != 'c' || cref[1] != '[' ||
                cref.back() != ']') {
                parse_fail(line_number, "expected c[<index>]");
            }
            const std::size_t cbit = parse_index_token(
                cref.substr(2, cref.size() - 3), line_number,
                "classical-bit");
            if (cbit >= num_clbits) {
                parse_fail(line_number,
                           "classical-bit index " + std::to_string(cbit) +
                               " out of range for creg c[" +
                               std::to_string(num_clbits) + "]");
            }
            result->measure(q, static_cast<int>(cbit));
            continue;
        }

        // Gate statement: name[(params)] operands.
        std::size_t name_end = 0;
        while (name_end < statement.size() &&
               (std::isalnum(static_cast<unsigned char>(
                    statement[name_end])) != 0)) {
            ++name_end;
        }
        const std::string name = statement.substr(0, name_end);
        const auto it = gate_by_name().find(name);
        if (it == gate_by_name().end()) {
            parse_fail(line_number, "unknown gate '" + name + "'");
        }
        std::vector<double> params;
        std::size_t operand_start = name_end;
        if (operand_start < statement.size() &&
            statement[operand_start] == '(') {
            const auto close = statement.find(')', operand_start);
            if (close == std::string::npos) {
                parse_fail(line_number, "unterminated parameter list");
            }
            for (const std::string& token : split_commas(
                     statement.substr(operand_start + 1,
                                      close - operand_start - 1))) {
                params.push_back(parse_angle(token, line_number));
            }
            operand_start = close + 1;
        }
        const auto operand_tokens =
            split_commas(statement.substr(operand_start));
        std::vector<qubit_t> qubits;
        qubits.reserve(operand_tokens.size());
        for (const std::string& token : operand_tokens) {
            qubits.push_back(parse_qubit_ref(token, line_number));
        }
        if (qubits.size() != gate_arity(it->second) ||
            params.size() != gate_param_count(it->second)) {
            parse_fail(line_number, "wrong operand count for '" + name + "'");
        }
        result->append_gate(it->second, qubits, params);
    }

    if (!saw_version) {
        throw util::contract_error("QASM parse error: missing OPENQASM header");
    }
    if (!result) {
        QUORUM_EXPECTS_MSG(num_qubits > 0, "QASM program declared no qubits");
        result = std::make_unique<circuit>(num_qubits, num_clbits);
    }
    return std::move(*result);
}

circuit from_qasm(const std::string& text) {
    std::istringstream in(text);
    return parse_qasm(in);
}

} // namespace quorum::qsim
