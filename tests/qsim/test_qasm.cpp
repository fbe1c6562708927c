#include <sstream>

#include <gtest/gtest.h>

#include "util/contracts.h"

#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/qasm.h"
#include "qsim/statevector_runner.h"
#include "qsim/transpile.h"
#include "util/rng.h"

namespace {

using namespace quorum::qsim;

TEST(Qasm, HeaderAndRegisters) {
    circuit c(3, 1);
    c.h(0).measure(0, 0);
    const std::string qasm = to_qasm(c);
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("include \"qelib1.inc\";"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(qasm.find("creg c[1];"), std::string::npos);
}

TEST(Qasm, NoClassicalRegisterWhenUnused) {
    circuit c(2);
    c.x(0);
    const std::string qasm = to_qasm(c);
    EXPECT_EQ(qasm.find("creg"), std::string::npos);
}

TEST(Qasm, GateStatements) {
    circuit c(3, 1);
    c.h(0).cx(0, 1).rz(0.5, 2).cswap(0, 1, 2).reset(1).measure(2, 0)
        .barrier();
    const std::string qasm = to_qasm(c);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("rz(0.5) q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("cswap q[0],q[1],q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("reset q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[2] -> c[0];"), std::string::npos);
    EXPECT_NE(qasm.find("barrier q;"), std::string::npos);
}

TEST(Qasm, AnglesRoundTripPrecision) {
    circuit c(1);
    const double theta = 1.2345678901234567;
    c.rx(theta, 0);
    const std::string qasm = to_qasm(c);
    // 17 significant digits preserve the double exactly.
    EXPECT_NE(qasm.find("1.2345678901234567"), std::string::npos);
}

TEST(Qasm, InitializeIsSynthesised) {
    circuit c(2);
    const qubit_t reg[] = {0, 1};
    const std::vector<double> amps{0.5, 0.5, 0.5, 0.5};
    c.initialize(reg, std::span<const double>(amps));
    const std::string qasm = to_qasm(c);
    // No raw initialize; RY tree instead.
    EXPECT_EQ(qasm.find("initialize"), std::string::npos);
    EXPECT_NE(qasm.find("ry("), std::string::npos);
}

TEST(Qasm, FullQuorumCircuitExports) {
    quorum::util::rng gen(3);
    const auto params = quorum::qml::random_ansatz_params(3, 2, gen);
    std::vector<double> features(7, 0.2);
    const auto amps = quorum::qml::to_amplitudes(features, 3);
    const circuit c = quorum::qml::build_autoencoder_circuit(amps, params, 1);
    const std::string qasm = to_qasm(c);
    EXPECT_NE(qasm.find("qreg q[7];"), std::string::npos);
    EXPECT_NE(qasm.find("cswap"), std::string::npos);
    EXPECT_NE(qasm.find("reset"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[6] -> c[0];"), std::string::npos);
    // Should be a substantial program.
    EXPECT_GT(qasm.size(), 500u);
}

TEST(Qasm, TranspiledCircuitUsesBasisGatesOnly) {
    circuit c(2, 1);
    c.h(0).cz(0, 1).measure(1, 0);
    const std::string qasm = to_qasm(transpile_for_hardware(c));
    EXPECT_EQ(qasm.find("h q"), std::string::npos);
    EXPECT_EQ(qasm.find("cz"), std::string::npos);
    EXPECT_NE(qasm.find("sx q"), std::string::npos);
    EXPECT_NE(qasm.find("cx q"), std::string::npos);
}

TEST(Qasm, StreamOverloadMatchesString) {
    circuit c(1);
    c.h(0);
    std::ostringstream out;
    write_qasm(out, c);
    EXPECT_EQ(out.str(), to_qasm(c));
}


TEST(QasmParse, RoundTripPreservesSemantics) {
    quorum::util::rng gen(7);
    for (int trial = 0; trial < 8; ++trial) {
        circuit original(3);
        for (int g = 0; g < 10; ++g) {
            const auto q = static_cast<qubit_t>(gen.uniform_index(3));
            const auto q2 =
                static_cast<qubit_t>((q + 1 + gen.uniform_index(2)) % 3);
            switch (gen.uniform_index(5)) {
            case 0:
                original.rx(gen.angle(), q);
                break;
            case 1:
                original.u3(gen.angle(), gen.angle(), gen.angle(), q);
                break;
            case 2:
                original.cx(q, q2);
                break;
            case 3:
                original.h(q);
                break;
            default:
                original.t(q);
                break;
            }
        }
        const circuit restored = from_qasm(to_qasm(original));
        EXPECT_EQ(restored.num_qubits(), original.num_qubits());
        EXPECT_TRUE(circuit_unitary(restored).equals_up_to_phase(
            circuit_unitary(original), 1e-9));
    }
}

TEST(QasmParse, RoundTripWithResetAndMeasure) {
    circuit original(2, 1);
    original.h(0).cx(0, 1).reset(0).ry(0.7, 0).measure(1, 0);
    const circuit restored = from_qasm(to_qasm(original));
    quorum::util::rng gen(9);
    const double p_original =
        statevector_runner::run_exact(original).cbit_probability_one(0);
    const double p_restored =
        statevector_runner::run_exact(restored).cbit_probability_one(0);
    EXPECT_NEAR(p_original, p_restored, 1e-12);
}

TEST(QasmParse, PiExpressions) {
    const circuit c = from_qasm("OPENQASM 2.0;\n"
                                "include \"qelib1.inc\";\n"
                                "qreg q[1];\n"
                                "rz(pi/2) q[0];\n"
                                "rx(-pi) q[0];\n"
                                "ry(3*pi/4) q[0];\n");
    ASSERT_EQ(c.gate_count(), 3u);
    EXPECT_NEAR(c.ops()[0].params[0], pi / 2.0, 1e-12);
    EXPECT_NEAR(c.ops()[1].params[0], -pi, 1e-12);
    EXPECT_NEAR(c.ops()[2].params[0], 3.0 * pi / 4.0, 1e-12);
}

TEST(QasmParse, CommentsAndBlankLinesIgnored)  {
    const circuit c = from_qasm("OPENQASM 2.0;\n"
                                "// a comment line\n"
                                "\n"
                                "qreg q[2];\n"
                                "x q[0]; // trailing comment\n");
    EXPECT_EQ(c.gate_count(), 1u);
}

TEST(QasmParse, ErrorsCarryLineNumbers) {
    try {
        (void)from_qasm("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n");
        FAIL() << "expected parse error";
    } catch (const quorum::util::contract_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    }
}

TEST(QasmParse, RejectsMalformedPrograms) {
    EXPECT_THROW((void)from_qasm("qreg q[2];\n"),
                 quorum::util::contract_error); // no header
    EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nx q[0];\n"),
                 quorum::util::contract_error); // statement before qreg
    EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nqreg q[1];\nx q[0]\n"),
                 quorum::util::contract_error); // missing semicolon
    EXPECT_THROW((void)from_qasm(
                     "OPENQASM 2.0;\nqreg q[1];\nrx(nonsense) q[0];\n"),
                 quorum::util::contract_error); // bad angle
    EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n"),
                 quorum::util::contract_error); // wrong arity
}

TEST(QasmParse, RejectsEmptyAndOverflowingAngles) {
    // Angle literals use util::parse_real: a bare sign or an empty pi
    // coefficient is no number, and 1e999 overflows binary64.
    const std::string head = "OPENQASM 2.0;\nqreg q[1];\nrz(";
    for (const char* angle : {"-", "*pi", "1e999", "-1e999*pi"}) {
        SCOPED_TRACE(angle);
        EXPECT_THROW((void)from_qasm(head + angle + ") q[0];\n"),
                     quorum::util::contract_error);
    }
}

TEST(QasmParse, WrongOperandCountRejected) {
    EXPECT_THROW(
        (void)from_qasm("OPENQASM 2.0;\nqreg q[3];\nrx q[0];\n"),
        quorum::util::contract_error); // rx needs a parameter
}

TEST(QasmParse, RejectsNonNumericIndices) {
    // Regression: register indices used to go through std::atoi, which
    // silently turned "x" into 0 — `creg c[x]` parsed as an empty
    // classical register. All index tokens are now strictly parsed.
    EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nqreg q[x];\n"),
                 quorum::util::contract_error); // qreg size
    EXPECT_THROW((void)from_qasm("OPENQASM 2.0;\nqreg q[2x];\n"),
                 quorum::util::contract_error); // trailing garbage
    EXPECT_THROW(
        (void)from_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[x];\n"),
        quorum::util::contract_error); // creg size
    EXPECT_THROW(
        (void)from_qasm("OPENQASM 2.0;\nqreg q[2];\nx q[banana];\n"),
        quorum::util::contract_error); // qubit operand
    EXPECT_THROW(
        (void)from_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
                        "measure q[0] -> c[x];\n"),
        quorum::util::contract_error); // classical-bit index
}

TEST(QasmParse, IndexErrorsNameTheOffendingToken) {
    try {
        (void)from_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
                        "measure q[0] -> c[x];\n");
        FAIL() << "expected parse error";
    } catch (const quorum::util::contract_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'x'"), std::string::npos)
            << "diagnostic should quote the bad token: " << what;
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    }
}

TEST(QasmParse, RejectsOutOfRangeClassicalBit) {
    try {
        (void)from_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\n"
                        "measure q[0] -> c[5];\n");
        FAIL() << "expected parse error";
    } catch (const quorum::util::contract_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("classical-bit index 5"), std::string::npos)
            << what;
        EXPECT_NE(what.find("creg c[1]"), std::string::npos) << what;
    }
}

} // namespace
