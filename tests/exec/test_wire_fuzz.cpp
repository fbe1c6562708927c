// Deterministic mutation fuzzing of the wire decoders. A seeded mutator
// (bit/byte flips, boundary values, truncation, splices from the other
// seed messages) derives a fixed budget of inputs from valid encoded
// requests (hello, run_span, run_levels_span) and replies (result,
// error). Requests go to exec::worker_session::handle, replies to the
// shared reply decoder (wire::decode_result_reply). Every input must end
// in a well-formed reply or a structured util::contract_error — never a
// crash, a hang, or another exception type. The sanitizer CI jobs run
// this suite instrumented, which is where "never UB" is actually proven.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/serialise.h"
#include "exec/transport.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "util/contracts.h"
#include "util/rng.h"

#include "fuzz_mutator.h"

namespace {

using namespace quorum;
using fuzz::bytes;
using fuzz::mutator;

/// Mutated inputs per seed message.
constexpr int fuzz_budget = 1000;

constexpr auto hello_ack_byte =
    static_cast<std::uint8_t>(exec::wire::message::hello_ack);
constexpr auto result_byte =
    static_cast<std::uint8_t>(exec::wire::message::result);

exec::program analytic_program(const qml::ansatz_params& params,
                               std::size_t level) {
    exec::program program;
    program.circuit = qsim::compiled_program::compile(
        qml::autoencoder_reg_a_template(params, level));
    program.readout.kind = exec::readout_kind::prep_overlap_p1;
    return program;
}

/// Valid seed messages for one engine configuration.
struct seed_messages {
    bytes hello;
    bytes run_span;
    bytes run_levels_span;
};

seed_messages make_seeds(const exec::engine_config& config) {
    constexpr std::size_t samples = 4;
    const bool with_rng = config.sampling_mode != exec::sampling::exact;
    util::rng gen(2026);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    std::vector<std::vector<double>> amplitudes(samples);
    for (auto& amps : amplitudes) {
        std::vector<double> features(7);
        for (double& f : features) {
            f = gen.uniform() / 7.0;
        }
        amps = qml::to_amplitudes(features, 3);
    }
    std::vector<util::rng> gens;
    for (std::size_t i = 0; i < samples * 2; ++i) {
        gens.emplace_back(util::derive_seed(5, i));
    }
    std::vector<util::rng*> gen_ptrs;
    for (util::rng& g : gens) {
        gen_ptrs.push_back(&g);
    }
    std::vector<exec::sample> batch(samples);
    std::vector<exec::sample> family_batch(samples);
    for (std::size_t i = 0; i < samples; ++i) {
        batch[i].amplitudes = amplitudes[i];
        family_batch[i].amplitudes = amplitudes[i];
        if (with_rng) {
            batch[i].gen = gen_ptrs[i];
            family_batch[i].level_gens =
                std::span<util::rng* const>(gen_ptrs.data() + i * 2, 2);
        }
    }
    const exec::shard_work span{0, 0, samples, nullptr, 0};

    seed_messages seeds;
    seeds.hello = exec::wire::encode_hello("statevector", config);
    exec::wire::writer single;
    exec::wire::encode_program(single, analytic_program(params, 1));
    seeds.run_span = exec::wire::encode_span_request(
        span, single.data(), batch, 0, with_rng);
    exec::wire::writer family;
    family.u32(2);
    exec::wire::encode_program(family, analytic_program(params, 1));
    exec::wire::encode_program(family, analytic_program(params, 2));
    seeds.run_levels_span = exec::wire::encode_span_request(
        span, family.data(), family_batch, 2, with_rng);
    return seeds;
}

std::vector<seed_messages> all_seeds() {
    exec::engine_config sampled;
    sampled.sampling_mode = exec::sampling::binomial;
    sampled.shots = 64;
    return {make_seeds(exec::engine_config{}), make_seeds(sampled)};
}

/// A worker reply must itself be a well-formed protocol message.
void expect_well_formed_reply(const exec::worker_session& session,
                              const bytes& reply, const std::string& where) {
    if (reply.empty()) {
        EXPECT_TRUE(session.shutdown_requested()) << where;
        return;
    }
    try {
        exec::wire::reader in(reply);
        const auto type = static_cast<exec::wire::message>(in.u8());
        if (type == exec::wire::message::error) {
            (void)in.str();
        } else if (type == exec::wire::message::result) {
            const std::uint64_t count = in.u64();
            in.expect_available(count, 8);
            for (std::uint64_t i = 0; i < count; ++i) {
                (void)in.f64();
            }
        } else {
            ASSERT_EQ(type, exec::wire::message::hello_ack) << where;
            (void)in.u32();
            (void)in.u32();
        }
        in.expect_done();
    } catch (const util::contract_error& error) {
        ADD_FAILURE() << where << ": malformed reply: " << error.what();
    }
}

/// Feeds every mutant of `seed` to a fresh session (handshaken with
/// `hello` first unless `hello` is empty).
void fuzz_requests(const bytes& seed, const bytes& hello,
                   std::uint64_t seed_id, const std::vector<bytes>& corpus) {
    mutator mutate(util::derive_seed(17, seed_id), corpus);
    for (int round = 0; round < fuzz_budget; ++round) {
        const bytes input = mutate.mutate(seed);
        const std::string where = "seed " + std::to_string(seed_id) +
                                  " round " + std::to_string(round);
        exec::worker_session session;
        if (!hello.empty()) {
            const bytes ack = session.handle(hello);
            ASSERT_FALSE(ack.empty());
            ASSERT_EQ(ack[0], hello_ack_byte);
        }
        expect_well_formed_reply(session, session.handle(input), where);
    }
}

TEST(WireFuzz, MutatedRequestsGetWellFormedRepliesNeverCrashes) {
    const std::vector<seed_messages> seeds = all_seeds();
    std::vector<bytes> corpus;
    for (const seed_messages& s : seeds) {
        corpus.insert(corpus.end(), {s.hello, s.run_span, s.run_levels_span});
    }
    std::uint64_t seed_id = 0;
    for (const seed_messages& s : seeds) {
        fuzz_requests(s.hello, {}, seed_id++, corpus);
        fuzz_requests(s.run_span, s.hello, seed_id++, corpus);
        fuzz_requests(s.run_levels_span, s.hello, seed_id++, corpus);
    }
}

TEST(WireFuzz, TheUnmutatedSeedsAreAccepted) {
    // Guards the fuzzer itself: seeds that already fail would only ever
    // exercise the first check of each decoder.
    for (const seed_messages& s : all_seeds()) {
        exec::worker_session session;
        EXPECT_EQ(session.handle(s.hello)[0], hello_ack_byte);
        for (const bytes* request : {&s.run_span, &s.run_levels_span}) {
            const bytes reply = session.handle(*request);
            ASSERT_FALSE(reply.empty());
            EXPECT_EQ(reply[0], result_byte);
        }
    }
}

TEST(WireFuzz, MutatedRepliesAreStructuredErrorsNeverCrashes) {
    const std::vector<double> values = {0.25, -0.0, 1.0, 0.5};
    const std::vector<bytes> seeds = {
        exec::wire::encode_result_reply(values),
        exec::wire::encode_error_reply("worker: engine contract violated"),
        exec::wire::encode_result_reply(std::vector<double>(8, 0.125))};
    std::uint64_t seed_id = 100;
    for (const bytes& seed : seeds) {
        mutator mutate(util::derive_seed(17, seed_id++), seeds);
        for (int round = 0; round < fuzz_budget; ++round) {
            const bytes input = mutate.mutate(seed);
            std::vector<double> out(values.size());
            try {
                exec::wire::decode_result_reply(input, out);
            } catch (const util::contract_error&) {
                // The structured failure every malformed reply must give.
            } catch (const std::exception& error) {
                ADD_FAILURE() << "round " << round
                              << ": unstructured failure: " << error.what();
            }
        }
    }
    // The unmutated seeds: the result decodes back to its values, the
    // error reply surfaces as a structured error.
    std::vector<double> out(values.size());
    exec::wire::decode_result_reply(seeds[0], out);
    EXPECT_EQ(out, values);
    EXPECT_THROW(exec::wire::decode_result_reply(seeds[1], out),
                 util::contract_error);
}

} // namespace
