// Deterministic mutation fuzzing of the CSV reader. The shared seeded
// mutator (tests/fuzz_mutator.h) derives a fixed budget of inputs from
// valid CSV texts with and without a header row and with and without a
// label column. Every input must either parse into a dataset or fail
// with a structured util::contract_error — never a crash or another
// exception type. The sanitizer CI jobs run this suite instrumented.
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "util/contracts.h"
#include "util/rng.h"

#include "fuzz_mutator.h"

namespace {

using namespace quorum;
using fuzz::bytes;

/// Mutated inputs per seed text.
constexpr int fuzz_budget = 1000;

struct csv_seed {
    std::string text;
    data::csv_options options;
};

bytes to_bytes(const std::string& text) {
    return bytes(text.begin(), text.end());
}

std::vector<csv_seed> all_seeds() {
    data::csv_options header;
    data::csv_options header_label;
    header_label.label_column = 2;
    data::csv_options bare;
    bare.has_header = false;
    data::csv_options bare_label = bare;
    bare_label.label_column = 0;
    return {
        {"alpha,beta\n0.125,0.25\n-1e-3,7\n0.5,\n", header},
        {"x,y,label\n0.1,0.33333333333333331,0\n2.5e2,cat,1\n"
         "0.75,0.5,1\n",
         header_label},
        {"0.5,1.5,2.5\n3,4,5\n6, 7 ,8\n", bare},
        {"1,0.10000000000000001,red\n0,12,blue\n1,-0,green\n", bare_label},
    };
}

TEST(CsvFuzz, MutatedInputsParseOrThrowContractErrors) {
    const std::vector<csv_seed> seeds = all_seeds();
    std::vector<bytes> corpus;
    for (const csv_seed& seed : seeds) {
        corpus.push_back(to_bytes(seed.text));
    }
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        fuzz::mutator mutate(util::derive_seed(23, s), corpus);
        for (int round = 0; round < fuzz_budget; ++round) {
            const bytes input = mutate.mutate(corpus[s]);
            std::istringstream in(std::string(input.begin(), input.end()));
            try {
                (void)data::read_csv(in, seeds[s].options);
            } catch (const util::contract_error&) {
                // The structured failure every malformed input must give.
            } catch (const std::exception& error) {
                ADD_FAILURE() << "seed " << s << " round " << round
                              << ": unstructured failure: " << error.what();
            }
        }
    }
}

TEST(CsvFuzz, TheUnmutatedSeedsParse) {
    // Guards the fuzzer itself: seeds that already fail would only ever
    // exercise the reader's first check.
    for (const csv_seed& seed : all_seeds()) {
        std::istringstream in(seed.text);
        const data::dataset d = data::read_csv(in, seed.options);
        EXPECT_EQ(d.num_samples(), 3u) << seed.text;
        EXPECT_EQ(d.has_labels(), seed.options.label_column >= 0)
            << seed.text;
    }
}

} // namespace
