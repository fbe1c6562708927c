// Deterministic mutation fuzzing of the QSRV1 request parser
// (exec/serve_client.h), the decoder quorum_serve runs on every byte a
// client sends. The shared seeded mutator (tests/fuzz_mutator.h) derives
// a fixed budget of inputs from valid request headers and feature rows.
// Every input must either parse into counts and values that honour the
// protocol's limits or be rejected with `false` — never a crash, an
// exception or an out-of-range result. The sanitizer CI jobs run this
// suite instrumented.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "exec/serve_client.h"
#include "util/rng.h"

#include "fuzz_mutator.h"

namespace {

using namespace quorum;
using fuzz::bytes;

/// Mutated inputs per seed line.
constexpr int fuzz_budget = 2000;

std::vector<std::string> lines(std::string_view text) {
    std::vector<std::string> out;
    std::istringstream in{std::string(text)};
    for (std::string line; std::getline(in, line);) {
        out.push_back(line);
    }
    return out;
}

std::vector<bytes> corpus_of(const std::vector<std::string>& seeds) {
    std::vector<bytes> corpus;
    for (const std::string& seed : seeds) {
        corpus.emplace_back(seed.begin(), seed.end());
    }
    return corpus;
}

constexpr std::string_view header_seeds = R"(QSRV1 SCORE 24 8
QSRV1 SCORE 1 1
QSRV1 SCORE 100000 4096)";

/// Feature rows as serve_client writes them (%.17g). A mutant of a seed
/// is parsed at the seed's width.
constexpr std::string_view row_seeds = R"(0.5
4.9406564584124654e-324,1.7976931348623157e+308,-0
0.10000000000000001,0.33333333333333331,-2.5e-05
1,2,3,4,5,6,7,8)";

std::size_t width_of(const std::string& row) {
    return 1 + static_cast<std::size_t>(std::ranges::count(row, ','));
}

TEST(ServeFuzz, MutatedHeadersParseWithinLimitsOrAreRejected) {
    const std::vector<bytes> corpus = corpus_of(lines(header_seeds));
    for (std::size_t s = 0; s < corpus.size(); ++s) {
        fuzz::mutator mutate(util::derive_seed(31, s), corpus);
        for (int round = 0; round < fuzz_budget; ++round) {
            const bytes input = mutate.mutate(corpus[s]);
            const std::string line(input.begin(), input.end());
            std::size_t rows = 0;
            std::size_t cols = 0;
            try {
                if (exec::serve_parse_request_header(line, rows, cols)) {
                    EXPECT_GE(rows, 1u) << line;
                    EXPECT_LE(rows, exec::serve_max_rows) << line;
                    EXPECT_GE(cols, 1u) << line;
                    EXPECT_LE(cols, exec::serve_max_cols) << line;
                }
            } catch (const std::exception& error) {
                ADD_FAILURE() << "seed " << s << " round " << round
                              << ": header parse threw: " << error.what();
            }
        }
    }
}

TEST(ServeFuzz, MutatedRowsParseToTheirWidthOrAreRejected) {
    const std::vector<std::string> seeds = lines(row_seeds);
    const std::vector<bytes> corpus = corpus_of(seeds);
    std::vector<double> row;
    for (std::size_t s = 0; s < corpus.size(); ++s) {
        const std::size_t cols = width_of(seeds[s]);
        fuzz::mutator mutate(util::derive_seed(37, s), corpus);
        for (int round = 0; round < fuzz_budget; ++round) {
            const bytes input = mutate.mutate(corpus[s]);
            const std::string line(input.begin(), input.end());
            try {
                if (exec::serve_parse_feature_row(line, cols, row)) {
                    EXPECT_EQ(row.size(), cols) << line;
                }
            } catch (const std::exception& error) {
                ADD_FAILURE() << "seed " << s << " round " << round
                              << ": row parse threw: " << error.what();
            }
        }
    }
}

TEST(ServeFuzz, TheUnmutatedSeedsParse) {
    // Guards the fuzzer itself: seeds that already fail would only ever
    // exercise the parser's first check.
    std::size_t rows = 0;
    std::size_t cols = 0;
    for (const std::string& seed : lines(header_seeds)) {
        EXPECT_TRUE(exec::serve_parse_request_header(seed, rows, cols));
    }
    EXPECT_EQ(rows, exec::serve_max_rows);
    EXPECT_EQ(cols, exec::serve_max_cols);
    std::vector<double> row;
    for (const std::string& seed : lines(row_seeds)) {
        EXPECT_TRUE(exec::serve_parse_feature_row(seed, width_of(seed), row));
    }
    // The subnormal seed keeps every bit.
    const std::string subnormal = lines(row_seeds)[1];
    ASSERT_TRUE(exec::serve_parse_feature_row(subnormal, 3, row));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(row[0]), 1u);
}

constexpr std::string_view bad_headers = R"(QSRV1 SCORE 0 5
QSRV1 SCORE 100001 5
QSRV1 SCORE 5 4097
QSRV1 SCORE 5
QSRV1 SCORE 5 5 5
QSRV1 SCORE -5 5
HELLO)";

/// Rows the server rejects, each after the width it expects.
constexpr std::string_view bad_rows = R"(3 1.0,2.0
3 1.0,2.0,3.0,4.0
3 1.0,,3.0
2 1.0,2.0,
2 1.0,nonsense
2 1e999,0)";

TEST(ServeRequestParse, LimitsAndRowWidthsAreExact) {
    std::size_t rows = 0;
    std::size_t cols = 0;
    for (const std::string& line : lines(bad_headers)) {
        EXPECT_FALSE(exec::serve_parse_request_header(line, rows, cols));
    }
    std::vector<double> row;
    for (const std::string& line : lines(bad_rows)) {
        const std::size_t width = std::stoul(line);
        const std::string text = line.substr(line.find(' ') + 1);
        EXPECT_FALSE(exec::serve_parse_feature_row(text, width, row)) << text;
    }
    EXPECT_TRUE(exec::serve_parse_feature_row("1e-310,-0", 2, row));
}

} // namespace
