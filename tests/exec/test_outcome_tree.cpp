// Per-shot outcome tree vs. a full replay of every shot. The statevector
// backend's per-shot mode walks a memoised tree of reset/measure outcomes
// instead of replaying the suffix per shot; these tests pin it, bit for
// bit and draw for draw, against a test-local copy of the shot-by-shot
// loop it replaced.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "exec/registry.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qml/swap_test.h"
#include "util/rng.h"

namespace {

using namespace quorum;
using qsim::amp;
using qsim::fused_op;
using qsim::qubit_t;
using qsim::statevector;

void apply_unitary(statevector& state, const fused_op& op,
                   std::span<amp> scratch) {
    if (op.qubits.size() == 1) {
        state.apply_1q(op.matrix, op.qubits[0]);
    } else {
        state.apply_matrix_prepared(op.matrix, op.sorted_qubits, op.offsets,
                                    scratch);
    }
}

/// The oracle: every shot copies the post-head state and replays the whole
/// fused suffix, drawing one Bernoulli per reset/measure.
std::vector<double> replay_every_shot(const exec::program& prog,
                                      std::size_t shots,
                                      std::span<const exec::sample> samples) {
    const qsim::compiled_program& c = prog.circuit;
    const std::vector<fused_op>& fused = c.fused_suffix();
    std::size_t head_end = 0;
    while (head_end < fused.size() &&
           fused[head_end].op == fused_op::kind::unitary) {
        ++head_end;
    }
    std::vector<amp> scratch(16);
    std::vector<bool> cbits(c.num_clbits(), false);
    const auto target = static_cast<std::size_t>(prog.readout.cbit);
    std::vector<double> out;
    for (const exec::sample& s : samples) {
        statevector base;
        base.assign_zero_state(c.num_qubits());
        const std::vector<amp> slot_amplitudes(s.amplitudes.begin(),
                                               s.amplitudes.end());
        for (const qsim::prep_slot& slot : c.slots()) {
            base.initialize_register_prepared(slot_amplitudes,
                                              slot.register_mask, slot.offsets);
        }
        std::size_t cursor = 0;
        for (const qsim::operation& op : c.prefix()) {
            const std::size_t count = qsim::gate_param_count(op.gate);
            base.apply_gate(op.gate, op.qubits,
                            s.prefix_params.subspan(cursor, count));
            cursor += count;
        }
        for (std::size_t k = 0; k < head_end; ++k) {
            apply_unitary(base, fused[k], scratch);
        }
        std::size_t ones = 0;
        for (std::size_t shot = 0; shot < shots; ++shot) {
            statevector work = base;
            std::fill(cbits.begin(), cbits.end(), false);
            for (std::size_t k = head_end; k < fused.size(); ++k) {
                const fused_op& op = fused[k];
                switch (op.op) {
                case fused_op::kind::unitary:
                    apply_unitary(work, op, scratch);
                    break;
                case fused_op::kind::reset:
                    if (work.measure_collapse(op.qubits[0], *s.gen)) {
                        const qubit_t operand[] = {op.qubits[0]};
                        work.apply_gate(qsim::gate_kind::x, operand);
                    }
                    break;
                case fused_op::kind::measure:
                    cbits[static_cast<std::size_t>(op.cbit)] =
                        work.measure_collapse(op.qubits[0], *s.gen);
                    break;
                }
            }
            ones += static_cast<std::size_t>(cbits[target]);
        }
        out.push_back(static_cast<double>(ones) / static_cast<double>(shots));
    }
    return out;
}

exec::program cbit_program(const qsim::circuit& c, int cbit) {
    exec::program program;
    program.circuit = qsim::compiled_program::compile(c);
    program.readout.cbit = cbit;
    return program;
}

/// Runs `prog` through the backend and through the oracle on identical
/// per-sample streams, then checks the scores and that every stream sits
/// at the same position afterwards (its next uniform() is equal).
void expect_matches_oracle(const exec::program& prog, std::size_t shots,
                           const std::vector<std::vector<double>>& amps,
                           std::uint64_t seed) {
    std::vector<util::rng> tree_gens;
    std::vector<util::rng> oracle_gens;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        tree_gens.emplace_back(util::derive_seed(seed, i));
        oracle_gens.emplace_back(util::derive_seed(seed, i));
    }
    std::vector<exec::sample> tree_samples(amps.size());
    std::vector<exec::sample> oracle_samples(amps.size());
    for (std::size_t i = 0; i < amps.size(); ++i) {
        tree_samples[i].amplitudes = amps[i];
        tree_samples[i].gen = &tree_gens[i];
        oracle_samples[i].amplitudes = amps[i];
        oracle_samples[i].gen = &oracle_gens[i];
    }
    exec::engine_config config;
    config.sampling_mode = exec::sampling::per_shot;
    config.shots = shots;
    std::vector<double> tree(amps.size());
    const auto engine = exec::make_executor("statevector", config);
    engine->run_batch(prog, tree_samples, tree);
    const auto oracle = replay_every_shot(prog, shots, oracle_samples);
    ASSERT_EQ(tree.size(), oracle.size());
    for (std::size_t i = 0; i < tree.size(); ++i) {
        EXPECT_EQ(tree[i], oracle[i]) << "sample=" << i;
        EXPECT_EQ(tree_gens[i].uniform(), oracle_gens[i].uniform())
            << "rng stream position differs after the batch, sample=" << i;
    }
}

TEST(OutcomeTree, AutoencoderLevelsMatchFullReplay) {
    util::rng gen(41);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    std::vector<std::vector<double>> amps(6);
    for (auto& a : amps) {
        std::vector<double> features(7);
        for (double& f : features) {
            f = gen.uniform() / 7.0;
        }
        a = qml::to_amplitudes(features, 3);
    }
    for (const std::size_t level : {1u, 2u}) {
        exec::program prog;
        prog.circuit = qsim::compiled_program::compile(
            qml::autoencoder_template(params, level));
        prog.readout.cbit = qml::swap_result_cbit;
        expect_matches_oracle(prog, 300, amps, 100 + level);
    }
}

TEST(OutcomeTree, CertainOutcomesConsumeNoDraws) {
    // Every collapse has p_one exactly 0 or 1: no shot draws at all, so
    // the streams are untouched and the score is exact.
    qsim::circuit c(3, 2);
    c.x(0).reset(0).reset(1).x(2).measure(2, 0).measure(1, 1);
    expect_matches_oracle(cbit_program(c, 0), 64, {{}}, 7);

    std::vector<util::rng> gens{util::rng(7)};
    util::rng untouched(7);
    std::vector<exec::sample> samples(1);
    samples[0].gen = &gens[0];
    exec::engine_config config;
    config.sampling_mode = exec::sampling::per_shot;
    config.shots = 64;
    std::vector<double> out(1);
    const auto engine = exec::make_executor("statevector", config);
    engine->run_batch(cbit_program(c, 0), samples, out);
    EXPECT_EQ(out[0], 1.0);
    EXPECT_EQ(gens[0].uniform(), untouched.uniform());
}

TEST(OutcomeTree, MixesCertainAndRandomOutcomes) {
    // A certain reset between two random ones: the walk must skip the
    // draw at the certain node and still draw at its children.
    qsim::circuit c(3, 1);
    c.h(0).reset(0).x(1).reset(1);
    c.ry(0.7, 2).cx(2, 0).reset(2).h(2).cx(0, 2).measure(2, 0);
    expect_matches_oracle(cbit_program(c, 0), 200, {{}}, 11);
}

TEST(OutcomeTree, TwoMeasuresWritingOneCbitKeepTheLast) {
    qsim::circuit c(2, 1);
    c.ry(1.1, 0).ry(0.4, 1).cx(0, 1).measure(0, 0).measure(1, 0);
    expect_matches_oracle(cbit_program(c, 0), 256, {{}}, 13);
    qsim::circuit reversed(2, 1);
    reversed.ry(1.1, 0).ry(0.4, 1).cx(0, 1).measure(1, 0).measure(0, 0);
    expect_matches_oracle(cbit_program(reversed, 0), 256, {{}}, 13);
}

TEST(OutcomeTree, NoCollapseAfterTheHeadReadsZero) {
    // No reset or measure at all: the root is a leaf, the target cbit is
    // never written, and no shot draws.
    qsim::circuit c(2, 1);
    c.h(0).cx(0, 1);
    expect_matches_oracle(cbit_program(c, 0), 32, {{}}, 17);
}

TEST(OutcomeTree, UnmeasuredTargetCbitAmongRandomMeasures) {
    qsim::circuit c(2, 2);
    c.h(0).h(1).measure(0, 0);
    expect_matches_oracle(cbit_program(c, 1), 128, {{}}, 19);
}

} // namespace
