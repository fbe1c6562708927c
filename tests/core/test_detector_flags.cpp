// core::parse_detector_flag: the one parser behind the detector flags of
// quorum_cli, quorum_stream and quorum_serve. A malformed value fails at
// parse time with one message form; a value that parses but makes an
// inconsistent configuration is left to validate(). A seeded mutation
// fuzz over real command lines (the CI smokes and perfbench's daemon
// flags) checks that every input yields a config or a contract_error.
#include <bit>
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "util/contracts.h"
#include "util/parse.h"
#include "util/rng.h"

#include "fuzz_mutator.h"

namespace {

using namespace quorum;
using fuzz::bytes;

/// Mutated command lines per seed.
constexpr int fuzz_budget = 1000;

/// Runs `args` through the shared parser the way the tools do. Flags it
/// does not own are a tool's; --threads and --workers are parsed as
/// quorum_serve does, any other one is skipped.
core::quorum_config parse(const std::vector<std::string>& args,
                          std::size_t* workers = nullptr) {
    std::vector<const char*> argv{"tool"};
    for (const std::string& arg : args) {
        argv.push_back(arg.c_str());
    }
    core::quorum_config config;
    util::flag_cursor cursor(static_cast<int>(argv.size()), argv.data());
    while (cursor.next()) {
        if (core::parse_detector_flag(cursor, config)) {
            continue;
        }
        if (cursor.flag() == "--threads") {
            cursor.count(config.threads);
        } else if (cursor.flag() == "--workers" && workers != nullptr) {
            cursor.count(*workers);
        }
    }
    return config;
}

/// Splits text into its non-empty lines.
std::vector<std::string> lines(std::string_view text) {
    std::vector<std::string> out;
    std::istringstream in{std::string(text)};
    for (std::string line; std::getline(in, line);) {
        if (!line.empty()) {
            out.push_back(line);
        }
    }
    return out;
}

/// Splits a command line at spaces.
std::vector<std::string> words(std::string_view line) {
    std::vector<std::string> out;
    std::istringstream in{std::string(line)};
    for (std::string word; in >> word;) {
        out.push_back(word);
    }
    return out;
}

std::string error_of(std::string_view command_line) {
    try {
        (void)parse(words(command_line));
    } catch (const util::contract_error& error) {
        return error.what();
    }
    return "no error";
}

/// The flag list perfbench/serve.cpp `daemon_args` starts quorum_serve
/// with, at the values of its serve_open workload.
std::vector<std::string> perfbench_daemon_args() {
    return words("--workers 2 --threads 1 --schedule static --backend "
                 "statevector --mode sampled --groups 4 --shots 4096 --rate "
                 "0.083333333333333329 --bucket-prob 0.75 --seed 2025");
}

/// Command lines of the CI smoke runs, one a line, less their --demo and
/// --out flags.
constexpr std::string_view ci_smoke_lines = R"(--groups 40
--groups 10 --mode exact --backend statevector
--groups 10 --backend sharded:statevector --shards 2
--groups 10 --backend remote:statevector --workers 2 --schedule dynamic:4
--groups 10 --encoding angle --mode exact --backend sharded --shards 2
--samples 48 --anomalies 4 --groups 8 --backend sharded --schedule dynamic
--groups 2 --mode noisy --backend density
--groups 2 --mode per_shot)";

/// The CI smoke command lines plus perfbench's daemon flags.
std::vector<std::vector<std::string>> seed_command_lines() {
    std::vector<std::vector<std::string>> seeds;
    for (const std::string& line : lines(ci_smoke_lines)) {
        seeds.push_back(words(line));
    }
    seeds.push_back(perfbench_daemon_args());
    return seeds;
}

/// argv as one byte string, arguments separated by NUL, so mutations can
/// also split, join, drop and reorder arguments.
bytes to_bytes(const std::vector<std::string>& args) {
    bytes out;
    for (const std::string& arg : args) {
        out.insert(out.end(), arg.begin(), arg.end());
        out.push_back(0);
    }
    return out;
}

std::vector<std::string> to_args(const bytes& input) {
    std::vector<std::string> args(1);
    for (const std::uint8_t byte : input) {
        if (byte == 0) {
            args.emplace_back();
        } else {
            args.back().push_back(static_cast<char>(byte));
        }
    }
    if (args.back().empty()) {
        args.pop_back();
    }
    return args;
}

TEST(DetectorFlags, PerfbenchDaemonArgsParseFieldByField) {
    std::size_t workers = 0;
    const core::quorum_config config = parse(perfbench_daemon_args(), &workers);
    EXPECT_EQ(workers, 2u);
    EXPECT_EQ(config.threads, 1u);
    EXPECT_EQ(config.schedule, "static");
    EXPECT_EQ(config.backend, "statevector");
    EXPECT_EQ(config.mode, core::exec_mode::sampled);
    EXPECT_EQ(config.ensemble_groups, 4u);
    EXPECT_EQ(config.shots, 4096u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(config.estimated_anomaly_rate),
              std::bit_cast<std::uint64_t>(2.0 / 24.0));
    EXPECT_EQ(config.bucket_probability, 0.75);
    EXPECT_EQ(config.seed, 2025u);
    // Fields no flag names keep their defaults.
    const core::quorum_config defaults;
    EXPECT_EQ(config.n_qubits, defaults.n_qubits);
    EXPECT_EQ(config.encoding, defaults.encoding);
    EXPECT_EQ(config.shards, defaults.shards);
    EXPECT_EQ(config.fused_levels, defaults.fused_levels);
    EXPECT_NO_THROW(config.validate());
}

/// Command lines, each followed by the message it fails with.
constexpr std::string_view malformed = R"(--mode bogus
invalid value for --mode: bogus (exact | sampled | per_shot | noisy)
--schedule bogus
invalid value for --schedule: bogus (static | dynamic[:grain])
--schedule dynamic:0
invalid value for --schedule: dynamic:0 (static | dynamic[:grain])
--encoding Angle
invalid value for --encoding: Angle (amplitude | angle)
--rate 0.5x
invalid value for --rate: 0.5x
--rate 1e999
invalid value for --rate: 1e999
--groups -1
invalid value for --groups: -1
--groups 10 --seed
missing value for --seed)";

TEST(DetectorFlags, MalformedValuesFailAtParseTimeInOneForm) {
    const std::vector<std::string> cases = lines(malformed);
    for (std::size_t i = 0; i + 1 < cases.size(); i += 2) {
        EXPECT_EQ(error_of(cases[i]), cases[i + 1]);
    }
}

TEST(DetectorFlags, ValuesThatParseAreLeftToValidate) {
    for (const std::string& line :
         lines("--qubits 99\n--backend nope\n--rate 1.5")) {
        core::quorum_config config;
        ASSERT_NO_THROW(config = parse(words(line))) << line;
        EXPECT_THROW(config.validate(), util::contract_error) << line;
    }
}

TEST(DetectorFlags, ModeNamesRoundTrip) {
    for (const core::exec_mode mode :
         {core::exec_mode::exact, core::exec_mode::sampled,
          core::exec_mode::per_shot, core::exec_mode::noisy}) {
        core::exec_mode parsed = core::exec_mode::exact;
        EXPECT_TRUE(core::parse_exec_mode(core::exec_mode_name(mode), parsed));
        EXPECT_EQ(parsed, mode);
    }
    core::exec_mode untouched = core::exec_mode::noisy;
    EXPECT_FALSE(core::parse_exec_mode("Exact", untouched));
    EXPECT_FALSE(core::parse_exec_mode("", untouched));
    EXPECT_EQ(untouched, core::exec_mode::noisy);
}

/// quorum_cli's shared usage lines, less the registered backend names.
constexpr std::string_view cli_help = R"(
  --groups N            ensemble groups (default 300)
  --shots N             shots per circuit (default 4096)
  --qubits N            data-register qubits (default 3)
  --rate R              estimated anomaly rate (default 0.03)
  --bucket-prob P       bucket containment probability (default 0.75)
  --mode M              exact | sampled | per_shot | noisy (default sampled)
  --encoding E          amplitude | angle (default amplitude)
  --backend B           auto | NAME | sharded[:NAME] | remote[:NAME] (default auto)
  --schedule S          lane spans: static | dynamic[:grain] (default static)
  --seed S              master seed (default 2025)
)";

TEST(DetectorFlags, HelpListsEveryFlagWithTheToolsDefaults) {
    core::quorum_config defaults;
    defaults.ensemble_groups = 300;
    defaults.mode = core::exec_mode::sampled;
    std::ostringstream out;
    core::print_detector_flags(out, defaults);
    const std::string help = "\n" + out.str();
    for (const std::string& line : lines(cli_help)) {
        EXPECT_NE(help.find("\n" + line + "\n"), std::string::npos) << line;
    }
}

TEST(DetectorFlagsFuzz, MutatedCommandLinesYieldAConfigOrAContractError) {
    const std::vector<std::vector<std::string>> seeds = seed_command_lines();
    std::vector<bytes> corpus;
    for (const std::vector<std::string>& seed : seeds) {
        corpus.push_back(to_bytes(seed));
    }
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        fuzz::mutator mutate(util::derive_seed(41, s), corpus);
        for (int round = 0; round < fuzz_budget; ++round) {
            const std::vector<std::string> args =
                to_args(mutate.mutate(corpus[s]));
            try {
                (void)parse(args);
            } catch (const util::contract_error&) {
                // The structured failure every malformed value must give.
            } catch (const std::exception& error) {
                ADD_FAILURE() << "seed " << s << " round " << round
                              << ": unstructured failure: " << error.what();
            }
        }
    }
}

TEST(DetectorFlagsFuzz, TheUnmutatedSeedsParse) {
    for (const std::vector<std::string>& seed : seed_command_lines()) {
        EXPECT_NO_THROW((void)parse(seed)) << seed[1];
        EXPECT_EQ(to_args(to_bytes(seed)), seed);
    }
}

} // namespace
