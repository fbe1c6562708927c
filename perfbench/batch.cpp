// The closed-loop, batch-shaped workloads: batch_flagship (the paper's
// Table-I suite in sampled mode) and hw_modes (one small table in the
// two hardware modes, noisy density and per-shot replay). One caller
// scores the inputs back to back; the detector's group pool is pinned
// to detector_threads.
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/quorum.h"
#include "data/generators.h"
#include "exec/registry.h"
#include "metrics/roc.h"
#include "recompose.h"
#include "trace.h"

namespace perfbench {

namespace core = quorum::core;
namespace data = quorum::data;
namespace exec = quorum::exec;
namespace util = quorum::util;

namespace {

/// Setups per run; setup_s is their median.
constexpr int setup_reps = 3;
/// Rounds of (untraced, traced, real-group) passes in a traced run.
constexpr int traced_rounds = 3;

struct scored_input {
    std::string name;
    data::dataset table;
    core::quorum_config config;
    /// Replay span name in the traced run (one per execution mode).
    const char* replay_span = "exec.replay.sampled";
};

std::vector<scored_input> flagship_inputs(std::uint64_t seed) {
    std::vector<scored_input> inputs;
    for (data::benchmark_dataset& d : data::make_benchmark_suite(seed)) {
        scored_input in;
        in.name = d.name;
        in.config.mode = core::exec_mode::sampled;
        in.config.shots = 4096;
        in.config.ensemble_groups = 300;
        in.config.encoding = quorum::qml::encoding::amplitude;
        in.config.backend = "statevector";
        in.config.threads = detector_threads;
        in.config.bucket_probability = d.bucket_probability;
        in.config.estimated_anomaly_rate =
            static_cast<double>(d.data.num_anomalies()) /
            static_cast<double>(d.data.num_samples());
        in.table = std::move(d.data);
        inputs.push_back(std::move(in));
    }
    return inputs;
}

/// hw_modes input size: per circuit the density engine costs ~10^4x a
/// sampled replay, so the table stays small enough for many calls per
/// run while every detector thread still gets a group.
constexpr std::size_t hw_rows = 8;
constexpr std::size_t hw_groups = 4;

std::vector<scored_input> hw_inputs(std::uint64_t seed) {
    util::rng gen(seed);
    data::generator_spec spec;
    spec.name = "hw_clustered";
    spec.samples = hw_rows;
    spec.anomalies = 1;
    spec.features = 8;
    spec.anomaly_shift = 0.5;
    const data::dataset table = data::generate_clustered(spec, gen);

    std::vector<scored_input> inputs;
    for (const core::exec_mode mode :
         {core::exec_mode::noisy, core::exec_mode::per_shot}) {
        scored_input in;
        in.name = core::exec_mode_name(mode);
        in.table = table;
        in.config.mode = mode;
        in.config.shots = 4096;
        in.config.ensemble_groups = hw_groups;
        in.config.backend =
            mode == core::exec_mode::noisy ? "density" : "statevector";
        in.config.threads = detector_threads;
        in.config.estimated_anomaly_rate =
            static_cast<double>(spec.anomalies) /
            static_cast<double>(spec.samples);
        in.replay_span = mode == core::exec_mode::noisy
                             ? "exec.replay.noisy"
                             : "exec.replay.per_shot";
        inputs.push_back(std::move(in));
    }
    return inputs;
}

std::vector<double> score_once(const scored_input& in, std::size_t threads) {
    core::quorum_config config = in.config;
    config.threads = threads;
    const core::quorum_detector detector(config);
    return detector.score(in.table).scores;
}

/// Group-samples one pass over every input scores.
double pass_work(const std::vector<scored_input>& inputs) {
    double work = 0.0;
    for (const scored_input& in : inputs) {
        work += static_cast<double>(in.config.ensemble_groups *
                                    in.table.num_samples());
    }
    return work;
}

void note_settings(result& r, const std::vector<scored_input>& inputs) {
    r.note("detector_threads", static_cast<double>(detector_threads));
    r.note("loop", "\"closed, 1 caller\"");
    std::string shape = "\"";
    for (const scored_input& in : inputs) {
        shape += in.name + ":" + std::to_string(in.table.num_samples()) +
                 "x" + std::to_string(in.table.num_features()) + " " +
                 core::exec_mode_name(in.config.mode) + " groups=" +
                 std::to_string(in.config.ensemble_groups) +
                 " shots=" + std::to_string(in.config.shots) + " backend=" +
                 in.config.backend + "; ";
    }
    r.note("inputs", shape + "\"");
}

/// Untraced run: setup, oracles, then whole passes until the time is up.
result run_closed_loop(const run_options& options,
                       const std::vector<scored_input>& inputs) {
    result r;
    note_settings(r, inputs);

    // Setup: normalise, detector/engine construction and the first call
    // on every input. Repeated; the first repetition's scores are the
    // reference every later call must equal.
    std::vector<std::vector<double>> reference(inputs.size());
    std::vector<double> setup_s;
    for (int rep = 0; rep < setup_reps; ++rep) {
        const auto start = clock::now();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            std::vector<double> scores =
                score_once(inputs[i], detector_threads);
            if (rep == 0) {
                reference[i] = std::move(scores);
            } else {
                r.check(same_scores(scores, reference[i]),
                        inputs[i].name + ": setup repetition differs");
            }
        }
        setup_s.push_back(seconds_since(start));
    }
    // Determinism oracle: one thread gives the same bits.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        r.check(same_scores(score_once(inputs[i], 1), reference[i]),
                inputs[i].name + ": threads=1 differs");
    }

    // Calls are timed per input, so each input's fast tail is taken from
    // its own calls; a pass at those times is the run's fast pass.
    std::vector<std::vector<double>> call_ms(inputs.size());
    std::vector<double> pass_ms;
    const auto start = clock::now();
    while (seconds_since(start) < options.seconds) {
        const auto pass_start = clock::now();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const auto call_start = clock::now();
            const std::vector<double> scores =
                score_once(inputs[i], detector_threads);
            call_ms[i].push_back(1e3 * seconds_since(call_start));
            r.check(same_scores(scores, reference[i]),
                    inputs[i].name + ": repeated call differs");
        }
        pass_ms.push_back(1e3 * seconds_since(pass_start));
    }

    double fast_pass_ms = 0.0;
    double auc = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        fast_pass_ms += fast_latency(call_ms[i]);
        report_latency(r, inputs[i].name + "_call", call_ms[i]);
        auc += quorum::metrics::roc_auc(inputs[i].table.labels(),
                                        reference[i]);
    }
    r.set("setup_s", median(setup_s), "s");
    r.set("throughput_per_s", 1e3 * pass_work(inputs) / fast_pass_ms, "1/s");
    r.set("latency_fast_ms", fast_pass_ms, "ms");
    r.note("auc", auc / static_cast<double>(inputs.size()));
    r.note("throughput_unit", "\"group-samples per second over the fast "
                              "pass\"");
    r.note("latency_op", "\"one pass: detector.score() on every input; "
                         "the sum of each input's fast-tail call time\"");
    r.note("throughput_p50", 1e3 * pass_work(inputs) / median(pass_ms));
    report_latency(r, "pass", pass_ms);
    return r;
}

/// Traced run: untraced, traced and real-group passes interleaved, then
/// the threads=1 pass (parallel efficiency).
result run_closed_loop_traced(const std::vector<scored_input>& inputs) {
    result r;
    note_settings(r, inputs);
    std::vector<std::vector<double>> reference(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        reference[i] = score_once(inputs[i], detector_threads);
    }

    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    for (int round = 0; round < traced_rounds; ++round) {
        auto start = clock::now();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            r.check(same_scores(score_once(inputs[i], detector_threads),
                                reference[i]),
                    inputs[i].name + ": untraced call differs");
        }
        untraced_s.push_back(seconds_since(start));
        start = clock::now();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const core::score_report traced =
                traced_score(inputs[i].table, inputs[i].config,
                             inputs[i].replay_span);
            r.check(same_scores(traced.scores, reference[i]),
                    inputs[i].name + ": traced recomposition differs");
        }
        traced_s.push_back(seconds_since(start));
        // The real run_ensemble_group under the same conditions, for
        // core.group_us and the reconciliation.
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            r.check(traced_real_groups(inputs[i].table, inputs[i].config,
                                       reference[i]),
                    inputs[i].name + ": run_ensemble_group pass differs");
        }
    }

    const auto start = clock::now();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        r.check(same_scores(score_once(inputs[i], 1), reference[i]),
                inputs[i].name + ": threads=1 differs");
    }
    const double one_thread_s = seconds_since(start);

    const double untraced = median(untraced_s);
    r.set("core.parallel_efficiency",
          one_thread_s / (static_cast<double>(detector_threads) * untraced),
          "ratio");
    r.set("trace_overhead_share", median(traced_s) / untraced - 1.0,
          "ratio");
    r.note("untraced_pass_s", untraced);
    r.note("traced_pass_s", median(traced_s));
    r.note("one_thread_pass_s", one_thread_s);
    return r;
}

} // namespace

result run_batch_flagship(const run_options& options) {
    const std::vector<scored_input> inputs = flagship_inputs(options.seed);
    if (!options.trace) {
        return run_closed_loop(options, inputs);
    }
    result r = run_closed_loop_traced(inputs);
    const auto engine = exec::make_executor(
        inputs[0].config.resolved_backend(),
        inputs[0].config.to_engine_config());
    report_batch_layers(r, count_programs(inputs[0].config, *engine),
                        {"exec.replay.sampled"});
    return r;
}

result run_hw_modes(const run_options& options) {
    const std::vector<scored_input> inputs = hw_inputs(options.seed);
    if (!options.trace) {
        return run_closed_loop(options, inputs);
    }
    result r = run_closed_loop_traced(inputs);
    // Program counts of the noisy (density) family; the per-shot family
    // is noted alongside.
    const auto noisy_engine = exec::make_executor(
        inputs[0].config.resolved_backend(),
        inputs[0].config.to_engine_config());
    report_batch_layers(r, count_programs(inputs[0].config, *noisy_engine),
                        {"exec.replay.noisy", "exec.replay.per_shot"});
    const auto shot_engine = exec::make_executor(
        inputs[1].config.resolved_backend(),
        inputs[1].config.to_engine_config());
    const program_counts shot = count_programs(inputs[1].config, *shot_engine);
    r.note("per_shot_fused_unitaries_per_program", shot.fused_unitaries);
    r.note("per_shot_computed_bytes_per_circuit", shot.computed_bytes);
    return r;
}

} // namespace perfbench
