// util/parse.h: the strict parsing helpers behind every tool flag. The
// regression of record is CLI flags silently mis-parsing via std::atoi
// ("--retry banana" → 0 retries, "--workers -1" → 2^64 - 1 workers);
// these tests pin the strict behaviour for garbage, negatives, overflow
// and trailing junk.
#include "util/parse.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace {

using namespace quorum;

TEST(Parse, UnsignedAcceptsPlainDigits) {
    unsigned long long value = 99;
    EXPECT_TRUE(util::parse_unsigned("0", value));
    EXPECT_EQ(value, 0u);
    EXPECT_TRUE(util::parse_unsigned("42", value));
    EXPECT_EQ(value, 42u);
    EXPECT_TRUE(util::parse_unsigned("18446744073709551615", value));
    EXPECT_EQ(value, std::numeric_limits<unsigned long long>::max());
}

TEST(Parse, UnsignedRejectsGarbageSignsAndOverflow) {
    unsigned long long value = 7;
    EXPECT_FALSE(util::parse_unsigned("", value));
    EXPECT_FALSE(util::parse_unsigned("banana", value));
    EXPECT_FALSE(util::parse_unsigned("12banana", value));
    EXPECT_FALSE(util::parse_unsigned("-1", value));
    EXPECT_FALSE(util::parse_unsigned("+1", value));
    EXPECT_FALSE(util::parse_unsigned(" 1", value));
    EXPECT_FALSE(util::parse_unsigned("1 ", value));
    // One past max: must report overflow, not wrap.
    EXPECT_FALSE(util::parse_unsigned("18446744073709551616", value));
    EXPECT_EQ(value, 7u) << "failed parses must not clobber the output";
}

TEST(Parse, CountFitsTargetType) {
    int retries = -1;
    EXPECT_TRUE(util::parse_count("3", retries));
    EXPECT_EQ(retries, 3);
    EXPECT_TRUE(util::parse_count("2147483647", retries));
    EXPECT_EQ(retries, std::numeric_limits<int>::max());
    // INT_MAX + 1 fits unsigned long long but not int.
    EXPECT_FALSE(util::parse_count("2147483648", retries));
    EXPECT_FALSE(util::parse_count("-1", retries));
    EXPECT_FALSE(util::parse_count("banana", retries));

    std::size_t wide = 0;
    EXPECT_TRUE(util::parse_count("2147483648", wide));
    EXPECT_EQ(wide, 2147483648u);

    std::uint8_t tiny = 0;
    EXPECT_TRUE(util::parse_count("255", tiny));
    EXPECT_EQ(tiny, 255u);
    EXPECT_FALSE(util::parse_count("256", tiny));
}

TEST(Parse, RealConsumesWholeString) {
    double value = 0.0;
    EXPECT_TRUE(util::parse_real("0.75", value));
    EXPECT_DOUBLE_EQ(value, 0.75);
    EXPECT_TRUE(util::parse_real("-2.5e-3", value));
    EXPECT_DOUBLE_EQ(value, -2.5e-3);
    EXPECT_FALSE(util::parse_real("", value));
    EXPECT_FALSE(util::parse_real("banana", value));
    EXPECT_FALSE(util::parse_real("0.5abc", value));
    EXPECT_FALSE(util::parse_real("0.5 ", value));
    EXPECT_FALSE(util::parse_real(std::string("0.5\0", 4), value));
    // Subnormals and an underflow to zero are values (strtod flags them
    // with ERANGE all the same).
    for (const char* text :
         {"5e-324", "1e-310", "2.2250738585072009e-308", "-4.9e-324"}) {
        EXPECT_TRUE(util::parse_real(text, value)) << text;
        EXPECT_EQ(value, std::strtod(text, nullptr)) << text;
        EXPECT_NE(value, 0.0) << text;
    }
    EXPECT_TRUE(util::parse_real("1e-400", value));
    EXPECT_EQ(value, 0.0);
    // An overflow to ±HUGE_VAL is not; a literal infinity still is.
    double untouched = 0.25;
    EXPECT_FALSE(util::parse_real("1e999", untouched));
    EXPECT_FALSE(util::parse_real("-1e999", untouched));
    EXPECT_EQ(untouched, 0.25);
    EXPECT_TRUE(util::parse_real("inf", value));
    EXPECT_TRUE(std::isinf(value));
    EXPECT_TRUE(util::parse_real("1.7976931348623157e308", value));
    EXPECT_EQ(value, std::numeric_limits<double>::max());
}

TEST(Parse, FlagCursorReportsOneMessageForm) {
    const char* argv[] = {"tool", "--n", "7", "--x", "4y", "--last"};
    util::flag_cursor args(6, argv);
    ASSERT_TRUE(args.next());
    EXPECT_EQ(args.flag(), "--n");
    std::size_t n = 0;
    args.count(n);
    EXPECT_EQ(n, 7u);
    ASSERT_TRUE(args.next());
    const auto message = [&](auto&& step) {
        try {
            step();
        } catch (const util::contract_error& error) {
            return std::string(error.what());
        }
        return std::string("no error");
    };
    EXPECT_EQ(message([&] { args.count(n); }), "invalid value for --x: 4y");
    ASSERT_TRUE(args.next());
    EXPECT_EQ(args.flag(), "--last");
    EXPECT_EQ(message([&] { (void)args.value(); }), "missing value for --last");
    EXPECT_EQ(message([&] { args.reject("v", "a | b"); }),
              "invalid value for --last: v (a | b)");
    EXPECT_EQ(message([&] { args.unknown(); }), "unknown option: --last");
    EXPECT_FALSE(args.next());
}

TEST(Parse, IntAcceptsNegativesButNotGarbage) {
    int value = 0;
    EXPECT_TRUE(util::parse_int("-1", value));
    EXPECT_EQ(value, -1);
    EXPECT_TRUE(util::parse_int("2147483647", value));
    EXPECT_EQ(value, std::numeric_limits<int>::max());
    EXPECT_TRUE(util::parse_int("-2147483648", value));
    EXPECT_EQ(value, std::numeric_limits<int>::min());
    EXPECT_FALSE(util::parse_int("2147483648", value));
    EXPECT_FALSE(util::parse_int("-2147483649", value));
    EXPECT_FALSE(util::parse_int("banana", value));
    EXPECT_FALSE(util::parse_int("3banana", value));
    EXPECT_FALSE(util::parse_int("", value));
}

} // namespace
