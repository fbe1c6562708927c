#include "recompose.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/ensemble.h"
#include "data/bucketing.h"
#include "data/feature_select.h"
#include "data/preprocess.h"
#include "exec/registry.h"
#include "qml/angle_encoding.h"
#include "qml/ansatz.h"
#include "trace.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace core = quorum::core;
namespace data = quorum::data;
namespace exec = quorum::exec;
namespace qml = quorum::qml;
namespace util = quorum::util;

namespace {

/// Rows and circuits each replay span covered, by span name.
struct replay_tally {
    double calls = 0.0;
    double rows = 0.0;
    double circuits = 0.0;
};
std::mutex tally_mutex;
std::map<std::string, replay_tally> tallies;

void tally_replay(const char* span_name, std::size_t rows,
                  std::size_t levels) {
    const std::lock_guard<std::mutex> lock(tally_mutex);
    replay_tally& t = tallies[span_name];
    t.calls += 1.0;
    t.rows += static_cast<double>(rows);
    t.circuits += static_cast<double>(rows * levels);
}

/// core::run_ensemble_group, fused-levels path, recomposed with spans.
core::group_result traced_group(const data::dataset& normalized,
                                const core::quorum_config& config,
                                std::size_t group_index,
                                const exec::executor& engine,
                                const char* replay_span,
                                std::uint64_t request) {
    const trace::span group_span("core.group", request);
    const std::size_t n_samples = normalized.num_samples();
    const std::size_t n_features = normalized.num_features();
    util::rng gen(util::derive_seed(config.seed, group_index));

    core::group_result result;
    result.abs_z_sum.assign(n_samples, 0.0);
    result.run_count.assign(n_samples, 0);

    std::vector<std::vector<std::size_t>> buckets;
    {
        const trace::span s("data.bucket_plan", request);
        const auto estimated = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(
                   config.estimated_anomaly_rate *
                   static_cast<double>(n_samples))));
        result.bucket_size = data::solve_bucket_size(
            n_samples, estimated, config.bucket_probability);
        buckets = data::make_buckets(n_samples, result.bucket_size, gen);
    }
    const std::size_t group_features =
        qml::encoded_feature_count(config.encoding, config.n_qubits);
    std::vector<std::size_t> features;
    {
        const trace::span s("data.feature_select", request);
        features = data::select_features(n_features, group_features, gen);
    }
    qml::ansatz_params params;
    {
        const trace::span s("qml.ansatz", request);
        params = qml::random_ansatz_params(config.n_qubits,
                                           config.ansatz_layers, gen);
    }
    std::vector<std::vector<double>> amplitudes(n_samples);
    {
        const trace::span s("qml.encode", request);
        for (std::size_t i = 0; i < n_samples; ++i) {
            const std::vector<double> selected =
                data::gather_features(normalized.row(i), features);
            amplitudes[i] = qml::to_encoded_amplitudes(
                config.encoding, selected, config.n_qubits);
        }
    }
    const std::vector<std::size_t> levels =
        config.effective_compression_levels();
    const std::size_t level_count = levels.size();
    std::vector<exec::program> family;
    {
        const trace::span s("qsim.compile", request);
        family.reserve(level_count);
        for (const std::size_t level : levels) {
            family.push_back(
                core::make_level_program(params, level, config, engine));
        }
    }

    const bool stochastic = config.mode != core::exec_mode::exact;
    std::vector<double> p_values(level_count * n_samples, 0.0);
    std::vector<exec::sample> batch;
    std::vector<double> batch_out;
    std::vector<util::rng> batch_gens;
    std::vector<util::rng*> batch_gen_ptrs;
    for (const std::vector<std::size_t>& bucket : buckets) {
        batch.clear();
        batch_gens.clear();
        batch_gen_ptrs.clear();
        batch.reserve(bucket.size());
        batch_gens.reserve(bucket.size() * level_count);
        batch_gen_ptrs.reserve(bucket.size() * level_count);
        batch_out.resize(bucket.size() * level_count);
        for (const std::size_t i : bucket) {
            exec::sample s;
            s.amplitudes = amplitudes[i];
            if (stochastic) {
                for (std::size_t k = 0; k < level_count; ++k) {
                    batch_gens.push_back(gen.child(k * n_samples + i));
                    batch_gen_ptrs.push_back(&batch_gens.back());
                }
                s.level_gens = std::span<util::rng* const>(
                    batch_gen_ptrs.data() + batch_gen_ptrs.size() -
                        level_count,
                    level_count);
            }
            batch.push_back(s);
        }
        {
            const trace::span s(replay_span, request);
            engine.run_batch_levels(family, batch, batch_out);
        }
        tally_replay(replay_span, bucket.size(), level_count);
        for (std::size_t k = 0; k < bucket.size(); ++k) {
            for (std::size_t level = 0; level < level_count; ++level) {
                p_values[level * n_samples + bucket[k]] =
                    batch_out[k * level_count + level];
            }
        }
    }

    {
        const trace::span s("core.zscore", request);
        for (std::size_t level = 0; level < level_count; ++level) {
            const double* level_p = p_values.data() + level * n_samples;
            for (const std::vector<std::size_t>& bucket : buckets) {
                util::welford_accumulator acc;
                for (const std::size_t i : bucket) {
                    acc.add(level_p[i]);
                }
                const double mu = acc.mean();
                const double sigma = acc.stddev_population();
                if (sigma < core::sigma_floor) {
                    continue;
                }
                for (const std::size_t i : bucket) {
                    result.abs_z_sum[i] +=
                        std::abs((level_p[i] - mu) / sigma);
                    ++result.run_count[i];
                }
            }
        }
    }
    return result;
}

data::dataset normalize_like_detector(const data::dataset& input,
                                      const core::quorum_config& config) {
    return config.encoding == qml::encoding::angle
               ? data::normalize_unit_range(input.without_labels())
               : data::normalize_for_quorum(input.without_labels());
}

/// The detector's group loop: the caller plus threads - 1 pool workers.
void for_each_group(const core::quorum_config& config,
                    const std::function<void(std::size_t)>& body) {
    const std::size_t threads =
        config.threads == 0 ? util::default_thread_count() : config.threads;
    if (threads <= 1 || config.ensemble_groups == 1) {
        for (std::size_t g = 0; g < config.ensemble_groups; ++g) {
            body(g);
        }
    } else {
        util::thread_pool pool(threads - 1);
        pool.parallel_for(config.ensemble_groups, body);
    }
}

} // namespace

core::score_report traced_score(const data::dataset& input,
                                const core::quorum_config& config,
                                const char* replay_span,
                                std::uint64_t request) {
    QUORUM_EXPECTS_MSG(config.fused_levels &&
                           config.features ==
                               core::feature_strategy::uniform_random,
                       "traced_score recomposes the default group path");
    data::dataset normalized;
    {
        const trace::span s("data.normalize", request);
        normalized = normalize_like_detector(input, config);
    }
    std::unique_ptr<exec::executor> engine;
    {
        const trace::span s("exec.make_executor", request);
        engine = exec::make_executor(config.resolved_backend(),
                                     config.to_engine_config());
    }
    std::vector<core::group_result> groups(config.ensemble_groups);
    for_each_group(config, [&](std::size_t g) {
        groups[g] = traced_group(normalized, config, g, *engine, replay_span,
                                 request);
    });
    const trace::span s("core.aggregate", request);
    return core::aggregate_groups(groups);
}

bool traced_real_groups(const data::dataset& input,
                        const core::quorum_config& config,
                        std::span<const double> reference_scores) {
    const data::dataset normalized = normalize_like_detector(input, config);
    const std::unique_ptr<exec::executor> engine = exec::make_executor(
        config.resolved_backend(), config.to_engine_config());
    std::vector<core::group_result> groups(config.ensemble_groups);
    for_each_group(config, [&](std::size_t g) {
        const trace::span s("core.run_ensemble_group");
        groups[g] = core::run_ensemble_group(normalized, config, g, *engine);
    });
    return same_scores(core::aggregate_groups(groups).scores,
                       reference_scores);
}

program_counts count_programs(const core::quorum_config& config,
                              const exec::executor& engine) {
    util::rng gen(util::derive_seed(config.seed, 0));
    const qml::ansatz_params params = qml::random_ansatz_params(
        config.n_qubits, config.ansatz_layers, gen);
    program_counts counts;
    const std::vector<std::size_t> levels =
        config.effective_compression_levels();
    for (const std::size_t level : levels) {
        const exec::program program =
            core::make_level_program(params, level, config, engine);
        const auto fused =
            static_cast<double>(program.circuit.fused_unitary_count());
        counts.suffix_gates +=
            static_cast<double>(program.circuit.suffix_gate_count());
        counts.fused_unitaries += fused;
        // One complex<double> (16 bytes) per amplitude; a density matrix
        // squares the amplitude count.
        const double amplitudes = std::ldexp(
            1.0, static_cast<int>(program.circuit.num_qubits()) *
                     (config.mode == core::exec_mode::noisy ? 2 : 1));
        counts.computed_bytes += 16.0 * amplitudes * (2.0 * fused + 1.0);
    }
    const auto n = static_cast<double>(levels.size());
    counts.suffix_gates /= n;
    counts.fused_unitaries /= n;
    counts.computed_bytes /= n;
    return counts;
}

void report_batch_layers(result& out, const program_counts& counts,
                         const std::vector<std::string>& replay_spans) {
    const auto spans = trace::recorder::instance().summarize();
    const auto mean_total = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() || it->second.count == 0
                   ? 0.0
                   : it->second.total_ns /
                         static_cast<double>(it->second.count);
    };
    out.set("data.normalize_ms", mean_total("data.normalize") / 1e6, "ms");
    out.set("data.bucket_plan_us", mean_total("data.bucket_plan") / 1e3,
            "us");
    out.set("qml.encode_us", mean_total("qml.encode") / 1e3, "us");
    out.set("qsim.compile_us", mean_total("qsim.compile") / 1e3, "us");
    out.set("core.zscore_us", mean_total("core.zscore") / 1e3, "us");
    out.set("core.aggregate_ms", mean_total("core.aggregate") / 1e6, "ms");
    const double real_group_ns = mean_total("core.run_ensemble_group");
    out.set("core.group_us", real_group_ns / 1e3, "us");

    const trace::span_totals group = spans.count("core.group") != 0
                                         ? spans.at("core.group")
                                         : trace::span_totals{};
    const double children_ns =
        group.count == 0 ? 0.0
                         : (group.total_ns - group.self_ns) /
                               static_cast<double>(group.count);
    out.set("core.unattributed_share",
            real_group_ns > 0.0 ? 1.0 - children_ns / real_group_ns : 0.0,
            "ratio");
    out.note("core_recomposed_group_us", mean_total("core.group") / 1e3);

    replay_tally tally;
    const double groups_seen = static_cast<double>(group.count);
    for (const std::string& name : replay_spans) {
        replay_tally one;
        {
            const std::lock_guard<std::mutex> lock(tally_mutex);
            one = tallies[name];
        }
        tally.calls += one.calls;
        tally.rows += one.rows;
        const auto replay = spans.find(name);
        if (replay != spans.end() && one.circuits > 0.0) {
            out.set("exec.replay_ns_per_circuit." +
                        name.substr(name.rfind('.') + 1),
                    replay->second.self_ns / one.circuits, "ns");
        }
    }
    out.set("exec.batch_calls_per_group",
            groups_seen > 0.0 ? tally.calls / groups_seen : 0.0, "count");
    out.set("exec.rows_per_batch",
            tally.calls > 0.0 ? tally.rows / tally.calls : 0.0, "count");
    out.set("qsim.suffix_gates_per_program", counts.suffix_gates, "count");
    out.set("qsim.fused_unitaries_per_program", counts.fused_unitaries,
            "count");
    out.set("qsim.computed_bytes_per_circuit", counts.computed_bytes,
            "bytes");
}

} // namespace perfbench
