// The traced recomposition of quorum_detector::score: the same public
// calls, in the same order and with the same RNG streams as
// core::run_ensemble_group and the detector, with a span around each
// call into a layer. Scores come out IEEE == to the untraced detector,
// which every traced run checks.
#ifndef QUORUM_PERFBENCH_RECOMPOSE_H
#define QUORUM_PERFBENCH_RECOMPOSE_H

#include <string>
#include <vector>

#include "common.h"
#include "core/anomaly_score.h"
#include "core/config.h"
#include "data/dataset.h"
#include "exec/executor.h"

namespace perfbench {

/// Scores `input` like quorum_detector(config).score(input), with
/// spans: data.normalize, exec.make_executor, core.group >
/// {data.bucket_plan,
/// data.feature_select, qml.ansatz, qml.encode, qsim.compile,
/// <replay_span>, core.zscore}, core.aggregate. `request` tags every
/// span. Requires the fused-levels path and uniform feature selection
/// (the paper's defaults, which every workload uses).
[[nodiscard]] quorum::core::score_report
traced_score(const quorum::data::dataset& input,
             const quorum::core::quorum_config& config,
             const char* replay_span, std::uint64_t request = 0);

/// Runs the real core::run_ensemble_group for every group of `input`
/// (same thread count as the detector), each inside a
/// core.run_ensemble_group span, and checks every group result is
/// IEEE == to `reference_scores` once aggregated.
[[nodiscard]] bool traced_real_groups(
    const quorum::data::dataset& input,
    const quorum::core::quorum_config& config,
    std::span<const double> reference_scores);

/// Counts of the compiled level family (structure only; identical for
/// every group of a configuration).
struct program_counts {
    double suffix_gates = 0.0;
    double fused_unitaries = 0.0;
    /// Computed, not measured: every fused suffix op reads and writes
    /// the whole state once, plus one write to prepare it.
    double computed_bytes = 0.0;
};
[[nodiscard]] program_counts
count_programs(const quorum::core::quorum_config& config,
               const quorum::exec::executor& engine);

/// Fills the per-layer metrics shared by the batch-shaped workloads
/// (batch_flagship, hw_modes, serve_open's in-process compute) from the
/// recorded spans: normalise, bucket plan, encode, compile, z-score,
/// aggregate, group, unattributed share, batch shape, replay time per
/// circuit for each replay span name, and the program counts.
void report_batch_layers(result& out, const program_counts& counts,
                         const std::vector<std::string>& replay_spans);

} // namespace perfbench

#endif // QUORUM_PERFBENCH_RECOMPOSE_H
