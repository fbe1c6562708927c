// stream_drift: one producer pushes a drifting sensor stream through
// stream::stream_scorer, one arrival at a time (closed loop). Per push
// the window, normaliser and bucket statistics run, every group replays
// its level family through a persistent level session, and epoch
// boundaries re-plan the buckets.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "common.h"
#include "core/ensemble.h"
#include "data/feature_select.h"
#include "data/generators.h"
#include "exec/registry.h"
#include "metrics/roc.h"
#include "qml/angle_encoding.h"
#include "qml/ansatz.h"
#include "recompose.h"
#include "stream/bucket_stats.h"
#include "stream/stream_scorer.h"
#include "stream/window.h"
#include "trace.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace perfbench {

namespace core = quorum::core;
namespace data = quorum::data;
namespace exec = quorum::exec;
namespace qml = quorum::qml;
namespace stream = quorum::stream;
namespace util = quorum::util;

namespace {

/// Set-ups per run, spread over it; setup_s is their median.
constexpr int setup_reps = 9;
constexpr std::size_t stream_groups = 64;
constexpr std::size_t raw_features = 8;
/// Rows generated per run; pushes past the end wrap around.
constexpr std::size_t stream_rows = std::size_t{1} << 17;
/// Scores re-derived by a fresh scorer (and scored for AUC) per run.
constexpr std::size_t oracle_prefix = 16384;
/// Pushes in a traced run (after the warm-up epoch).
constexpr std::size_t traced_pushes = 2048;

stream::stream_config make_config() {
    stream::stream_config config;
    config.window = 8;
    config.rebucket_interval = 64;
    config.detector.mode = core::exec_mode::sampled;
    config.detector.shots = 4096;
    config.detector.ensemble_groups = stream_groups;
    config.detector.backend = "statevector";
    config.detector.threads = 1;
    return config;
}

data::dataset make_stream(std::uint64_t seed) {
    util::rng gen(seed);
    data::stream_spec spec;
    spec.base.name = "drifting_stream";
    spec.base.samples = stream_rows;
    spec.base.anomalies = stream_rows / 24;
    spec.base.features = raw_features;
    spec.base.anomaly_shift = 0.45;
    return data::generate_drifting_stream(spec, gen);
}

std::span<const double> row_at(const data::dataset& rows, std::size_t t) {
    return rows.row(t % rows.num_samples());
}

void note_settings(result& r, const stream::stream_config& config) {
    r.note("loop", "\"closed, 1 producer\"");
    r.note("groups", static_cast<double>(config.detector.ensemble_groups));
    r.note("shots", static_cast<double>(config.detector.shots));
    r.note("window", static_cast<double>(config.window));
    r.note("rebucket_interval",
           static_cast<double>(config.rebucket_interval));
    r.note("raw_features", static_cast<double>(raw_features));
    r.note("detector_threads",
           static_cast<double>(config.detector.threads));
}

/// stream_scorer::push recomposed from the layers' public functions,
/// with spans; the same RNG streams in the same order.
class traced_scorer {
public:
    traced_scorer(const stream::stream_config& config, std::size_t raw)
        : config_(config), extractor_(raw, config.window),
          normalizer_(extractor_.extracted_features(),
                      1.0 / static_cast<double>(
                                extractor_.extracted_features())) {
        const core::quorum_config& detector = config_.detector;
        QUORUM_EXPECTS(detector.encoding == qml::encoding::amplitude &&
                       detector.fused_levels &&
                       detector.mode != core::exec_mode::exact);
        levels_ = detector.effective_compression_levels();
        engine_ = exec::make_executor(detector.resolved_backend(),
                                      detector.to_engine_config());
        const std::size_t feature_count =
            qml::encoded_feature_count(detector.encoding, detector.n_qubits);
        groups_.resize(detector.ensemble_groups);
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            group_state& group = groups_[g];
            group.root = util::derive_seed(detector.seed, g);
            group.stoch_root = util::derive_seed(group.root, 2);
            util::rng init(util::derive_seed(group.root, 0));
            group.features = data::select_features(
                extractor_.extracted_features(), feature_count, init);
            const qml::ansatz_params params = qml::random_ansatz_params(
                detector.n_qubits, detector.ansatz_layers, init);
            std::vector<exec::program> family;
            {
                const trace::span s("qsim.compile");
                for (const std::size_t level : levels_) {
                    family.push_back(core::make_level_program(
                        params, level, detector, *engine_));
                }
            }
            const trace::span s("exec.make_level_session");
            group.session = engine_->make_level_session(std::move(family));
        }
        extracted_.assign(extractor_.extracted_features(), 0.0);
        selected_.assign(
            std::min(feature_count, extractor_.extracted_features()), 0.0);
        amplitudes_.assign(std::size_t{1} << detector.n_qubits, 0.0);
        p_values_.assign(levels_.size(), 0.0);
        gens_.assign(levels_.size(), util::rng(0));
        gen_ptrs_.assign(levels_.size(), nullptr);
    }

    [[nodiscard]] stream::stream_score push(std::span<const double> raw) {
        const trace::span push_span("stream.push", position_);
        const std::size_t t = position_;
        const std::size_t interval = config_.rebucket_interval;
        const std::size_t slot = t % interval;
        if (slot == 0) {
            const trace::span s("stream.epoch_plan", t);
            for (group_state& group : groups_) {
                util::rng gen(util::derive_seed(
                    util::derive_seed(group.root, 1), t / interval));
                group.plan = stream::plan_epoch(
                    interval, config_.detector.estimated_anomaly_rate,
                    config_.detector.bucket_probability, gen);
                group.stats.reset(levels_.size(), group.plan.bucket_count);
            }
        }
        {
            const trace::span s("stream.window", t);
            extractor_.push(raw, extracted_);
            normalizer_.normalize(extracted_);
        }
        const std::size_t level_count = levels_.size();
        double abs_z_sum = 0.0;
        std::size_t run_count = 0;
        for (group_state& group : groups_) {
            {
                const trace::span s("qml.encode", t);
                for (std::size_t k = 0; k < group.features.size(); ++k) {
                    selected_[k] = extracted_[group.features[k]];
                }
                qml::encode_features(config_.detector.encoding, selected_,
                                     config_.detector.n_qubits, amplitudes_);
            }
            exec::sample s;
            s.amplitudes = amplitudes_;
            util::rng base(util::derive_seed(group.stoch_root, t));
            for (std::size_t k = 0; k < level_count; ++k) {
                gens_[k] = base.child(k);
                gen_ptrs_[k] = &gens_[k];
            }
            s.level_gens = std::span<util::rng* const>(gen_ptrs_);
            {
                const trace::span run_span("exec.session_run", t);
                group.session->run(std::span<const exec::sample>(&s, 1),
                                   std::span<double>(p_values_));
            }
            const trace::span stats_span("stream.stats", t);
            const std::size_t bucket = group.plan.slot_to_bucket[slot];
            for (std::size_t k = 0; k < level_count; ++k) {
                if (const std::optional<double> z =
                        group.stats.add_and_score(k, bucket, p_values_[k])) {
                    abs_z_sum += *z;
                    ++run_count;
                }
            }
        }
        ++position_;
        stream::stream_score out;
        out.position = t;
        out.runs = run_count;
        out.score = run_count > 0
                        ? abs_z_sum / static_cast<double>(run_count)
                        : 0.0;
        return out;
    }

    [[nodiscard]] const exec::executor& engine() const { return *engine_; }

private:
    struct group_state {
        std::vector<std::size_t> features;
        std::unique_ptr<exec::level_session> session;
        std::uint64_t root = 0;
        std::uint64_t stoch_root = 0;
        stream::epoch_plan plan;
        stream::bucket_stats stats;
    };

    stream::stream_config config_;
    stream::sliding_window_extractor extractor_;
    stream::online_normalizer normalizer_;
    std::unique_ptr<exec::executor> engine_;
    std::vector<std::size_t> levels_;
    std::vector<group_state> groups_;
    std::vector<double> extracted_;
    std::vector<double> selected_;
    std::vector<double> amplitudes_;
    std::vector<double> p_values_;
    std::vector<util::rng> gens_;
    std::vector<util::rng*> gen_ptrs_;
    std::size_t position_ = 0;
};

result run_untraced(const run_options& options) {
    result r;
    const stream::stream_config config = make_config();
    note_settings(r, config);
    const data::dataset rows = make_stream(options.seed);
    const std::size_t interval = config.rebucket_interval;

    // Setup: scorer construction (backend, G x L compiled programs, one
    // level session per group) plus the warm-up epoch. The first scorer
    // carries on into the measured phase; the other set-ups are spread
    // over the run, so their median does not hang on one stretch of it.
    std::vector<double> scores;
    std::vector<double> setup_s;
    const auto set_up = [&](bool keep_scores) {
        const auto start = clock::now();
        auto fresh = std::make_unique<stream::stream_scorer>(
            config, rows.num_features());
        for (std::size_t t = 0; t < interval; ++t) {
            const double score = fresh->push(row_at(rows, t)).score;
            if (keep_scores) {
                scores.push_back(score);
            }
        }
        setup_s.push_back(seconds_since(start));
        return fresh;
    };
    const std::unique_ptr<stream::stream_scorer> scorer = set_up(true);

    std::vector<double> push_ms;
    // One throughput sample per epoch: the measured pushes start on an
    // epoch boundary, so every sample pays exactly one re-plan.
    std::vector<double> epoch_rates;
    push_ms.reserve(std::size_t{1} << 20);
    const auto start = clock::now();
    const double setup_every_s = options.seconds / setup_reps;
    auto epoch_start = start;
    while (seconds_since(start) < options.seconds) {
        for (std::size_t i = 0; i < interval; ++i) {
            const std::size_t t = scorer->count();
            const auto push_start = clock::now();
            const double score = scorer->push(row_at(rows, t)).score;
            const auto push_end = clock::now();
            push_ms.push_back(
                std::chrono::duration<double, std::milli>(push_end -
                                                          push_start)
                    .count());
            scores.push_back(score);
        }
        const auto now = clock::now();
        epoch_rates.push_back(
            static_cast<double>(interval) /
            std::chrono::duration<double>(now - epoch_start).count());
        epoch_start = now;
        if (std::chrono::duration<double>(now - start).count() >
            setup_every_s * static_cast<double>(setup_s.size())) {
            (void)set_up(false);
            epoch_start = clock::now();
        }
    }
    while (scores.size() < oracle_prefix) {
        scores.push_back(scorer->push(row_at(rows, scorer->count())).score);
    }

    // Oracle: a fresh scorer re-derives the prefix bit for bit, and the
    // prefix checksum must repeat.
    stream::stream_scorer fresh(config, rows.num_features());
    double checksum = 0.0;
    double fresh_checksum = 0.0;
    std::vector<int> labels(oracle_prefix);
    for (std::size_t t = 0; t < oracle_prefix; ++t) {
        const double score = fresh.push(row_at(rows, t)).score;
        r.check(score == scores[t],
                "push " + std::to_string(t) + " differs from a fresh scorer");
        checksum += scores[t];
        fresh_checksum += score;
        labels[t] = rows.labels()[t];
    }
    r.check(checksum == fresh_checksum, "prefix checksum differs");

    r.set("setup_s", median(setup_s), "s");
    r.note("auc",
          quorum::metrics::roc_auc(
              labels, std::span<const double>(scores.data(), oracle_prefix)));
    r.set("throughput_per_s", fast_rate(epoch_rates), "1/s");
    r.set("latency_fast_ms", fast_latency(push_ms), "ms");
    r.note("throughput_p50", median(epoch_rates));
    r.note("throughput_unit", "\"pushes per second, fast tail of epochs\"");
    r.note("latency_op", "\"one stream_scorer::push\"");
    r.note("prefix_checksum", checksum);
    report_latency(r, "push", push_ms);
    return r;
}

result run_traced(const run_options& options) {
    result r;
    const stream::stream_config config = make_config();
    note_settings(r, config);
    const data::dataset rows = make_stream(options.seed);
    const std::size_t interval = config.rebucket_interval;
    const std::size_t total = interval + traced_pushes;

    stream::stream_scorer scorer(config, rows.num_features());
    traced_scorer traced(config, rows.num_features());
    // Untraced and traced pushes alternate, so both see the same host
    // conditions.
    double untraced_s = 0.0;
    double traced_s = 0.0;
    for (std::size_t t = 0; t < total; ++t) {
        auto start = clock::now();
        const double expected = scorer.push(row_at(rows, t)).score;
        const double untraced_push = seconds_since(start);
        start = clock::now();
        const double got = traced.push(row_at(rows, t)).score;
        const double traced_push = seconds_since(start);
        r.check(got == expected, "traced push " + std::to_string(t) +
                                     " differs from stream_scorer::push");
        untraced_s += untraced_push;
        traced_s += traced_push;
    }

    const auto spans = trace::recorder::instance().summarize();
    const auto total_ns = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.total_ns;
    };
    const auto count = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0
                                 : static_cast<double>(it->second.count);
    };
    const double pushes = count("stream.push");
    const double circuits =
        pushes * static_cast<double>(stream_groups) *
        static_cast<double>(config.detector.effective_compression_levels()
                                .size());
    r.set("qml.encode_ns", total_ns("qml.encode") / pushes, "ns");
    r.set("exec.session_run_ns", total_ns("exec.session_run") / pushes,
          "ns");
    r.set("exec.session_runs_per_push", count("exec.session_run") / pushes,
          "count");
    r.set("exec.replay_ns_per_circuit.sampled",
          total_ns("exec.session_run") / circuits, "ns");
    r.set("stream.window_ns", total_ns("stream.window") / pushes, "ns");
    r.set("stream.stats_ns", total_ns("stream.stats") / pushes, "ns");
    r.set("stream.epoch_plan_us",
          total_ns("stream.epoch_plan") / count("stream.epoch_plan") / 1e3,
          "us");
    r.set("qsim.compile_us",
          total_ns("qsim.compile") / count("qsim.compile") / 1e3, "us");
    const double push_children_ns =
        (spans.at("stream.push").total_ns - spans.at("stream.push").self_ns) /
        pushes;
    const double untraced_push_ns = 1e9 * untraced_s / pushes;
    r.set("core.unattributed_share",
          1.0 - push_children_ns / untraced_push_ns, "ratio");
    r.set("trace_overhead_share", traced_s / untraced_s - 1.0, "ratio");
    const program_counts counts =
        count_programs(config.detector, traced.engine());
    r.set("qsim.suffix_gates_per_program", counts.suffix_gates, "count");
    r.set("qsim.fused_unitaries_per_program", counts.fused_unitaries,
          "count");
    r.set("qsim.computed_bytes_per_circuit", counts.computed_bytes,
          "bytes");
    r.note("untraced_push_us", untraced_push_ns / 1e3);
    r.note("traced_push_us",
           1e6 * traced_s / pushes);
    return r;
}

} // namespace

result run_stream_drift(const run_options& options) {
    return options.trace ? run_traced(options) : run_untraced(options);
}

} // namespace perfbench
