// Strict flag/number parsing shared by the tools, the CSV reader and the
// QSRV1 protocol.
//
// Every helper consumes the WHOLE string or reports failure — no
// std::atoi-style silent truncation ("banana" → 0) and no unsigned
// wraparound ("-1" → 2^64 - 1). Callers decide what failure means
// (usage error, contract_error, ...); these helpers never throw.
// flag_cursor walks a command line on top of them and turns every
// failure into one util::contract_error message form.
#ifndef QUORUM_UTIL_PARSE_H
#define QUORUM_UTIL_PARSE_H

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "util/contracts.h"

namespace quorum::util {

/// Parses a non-negative integer from a plain digit string. Rejects
/// empty strings, signs, whitespace, trailing garbage, and values that
/// overflow unsigned long long.
inline bool parse_unsigned(std::string_view text,
                           unsigned long long& out) noexcept {
    if (text.empty()) {
        return false;
    }
    unsigned long long value = 0;
    constexpr auto max = std::numeric_limits<unsigned long long>::max();
    for (const char c : text) {
        if (c < '0' || c > '9') {
            return false;
        }
        const auto digit = static_cast<unsigned long long>(c - '0');
        if (value > (max - digit) / 10) {
            return false; // would overflow
        }
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

/// Parses a non-negative count into any integer type T, rejecting
/// values that do not fit. Negative inputs fail the digit scan, so
/// T may be signed (e.g. an `int retries` that must be >= 0).
template <typename T>
bool parse_count(std::string_view text, T& out) noexcept {
    unsigned long long value = 0;
    if (!parse_unsigned(text, value) ||
        value > static_cast<unsigned long long>(
                    std::numeric_limits<T>::max())) {
        return false;
    }
    out = static_cast<T>(value);
    return true;
}

/// Strict double parse with strtod's grammar: the whole string must be
/// consumed (std::stod silently accepts trailing garbage like "0.5abc").
/// An underflow to a subnormal or to zero is a value; an overflow to
/// ±HUGE_VAL is not (a literal "inf" still is).
inline bool parse_real(std::string_view text, double& out) noexcept {
    const std::string copy(text); // strtod needs a terminator
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(copy.c_str(), &end);
    if (end == copy.c_str() || end != copy.c_str() + copy.size() ||
        (errno == ERANGE && std::isinf(value))) {
        return false;
    }
    out = value;
    return true;
}

/// Strict int parse for flags where negatives are meaningful
/// (e.g. --label-column: -1 = no labels).
inline bool parse_int(std::string_view text, int& out) noexcept {
    const std::string copy(text);
    char* end = nullptr;
    const long value = std::strtol(copy.c_str(), &end, 10);
    if (end == copy.c_str() || *end != '\0' ||
        value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
        return false;
    }
    out = static_cast<int>(value);
    return true;
}

/// A command line walked flag by flag. Every failure throws
/// util::contract_error in one of three forms: "unknown option: --x",
/// "missing value for --x" or "invalid value for --x: v (choices)".
class flag_cursor {
public:
    flag_cursor(int argc, const char* const* argv) noexcept
        : argc_(argc), argv_(argv) {}

    /// Steps to the next flag (the first call reaches argv[1]); false
    /// past the end.
    bool next() noexcept {
        flag_at_ = ++at_;
        return at_ < argc_;
    }

    [[nodiscard]] std::string_view flag() const noexcept {
        return argv_[flag_at_];
    }

    /// Consumes the current flag's value.
    [[nodiscard]] std::string_view value() {
        if (at_ + 1 >= argc_) {
            throw contract_error("missing value for " + std::string(flag()));
        }
        return argv_[++at_];
    }

    template <typename T>
    void count(T& out) {
        const std::string_view text = value();
        if (!parse_count(text, out)) {
            reject(text);
        }
    }

    void real(double& out) {
        const std::string_view text = value();
        if (!parse_real(text, out)) {
            reject(text);
        }
    }

    void integer(int& out) {
        const std::string_view text = value();
        if (!parse_int(text, out)) {
            reject(text);
        }
    }

    /// Rejects `text` as the current flag's value, listing `choices`.
    [[noreturn]] void reject(std::string_view text,
                             std::string_view choices = {}) const {
        std::string message = "invalid value for " + std::string(flag()) +
                              ": " + std::string(text);
        if (!choices.empty()) {
            message += " (" + std::string(choices) + ")";
        }
        throw contract_error(message);
    }

    [[noreturn]] void unknown() const {
        throw contract_error("unknown option: " + std::string(flag()));
    }

private:
    int argc_;
    const char* const* argv_;
    int at_ = 0;
    int flag_at_ = 0;
};

} // namespace quorum::util

#endif // QUORUM_UTIL_PARSE_H
