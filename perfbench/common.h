// Shared pieces of the benchmark driver: run options, the result every
// workload fills, order statistics, and the JSON printer.
#ifndef QUORUM_PERFBENCH_COMMON_H
#define QUORUM_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Ensemble threads of every in-process detector: pinned, never "all
/// cores", so the figure does not depend on the host's core count.
inline constexpr std::size_t detector_threads = 4;

// Every workload keeps the detector's own default seed: --seed draws the
// inputs only, so a second seed changes the data the program sees and
// nothing else.

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Where the traced run writes its Chrome trace-event file.
    std::string trace_out;
};

/// One metric as printed: value plus unit.
struct metric {
    double value = 0.0;
    std::string unit;
};

/// What a workload reports. `metrics` holds end-to-end figures on an
/// untraced run and per-layer figures on a traced one; `details` is
/// free-form context (settings, sample counts, chosen percentiles)
/// printed on its own line before the result.
struct result {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::map<std::string, metric> metrics;
    std::map<std::string, std::string> details;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = metric{value, unit};
    }
    void note(const std::string& key, const std::string& value) {
        details[key] = value;
    }
    void note(const std::string& key, double value);
    /// Records `checks` output checks of which `failures` failed; any
    /// failure marks the run incorrect, and the first is named.
    void tally(std::size_t checks, std::size_t failures,
               const std::string& what);
    void check(bool ok, const std::string& what) {
        tally(1, ok ? 0 : 1, what);
    }
};

using clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock::time_point start) {
    return std::chrono::duration<double>(clock::now() - start).count();
}

/// Linear-interpolated quantile, q in [0, 1]. Sorts a copy.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);

/// End-to-end figures come from the fast tail of a run's samples, the
/// mirror of the tail rule below: a latency at the lowest percentile with
/// at least ten samples below it (q = 10 / n), a rate at the highest with
/// at least ten above it (q = 1 - 10 / n); the median stands in with ten
/// samples or fewer. On a shared virtual machine other tenants only ever
/// slow this process, in stretches of seconds: on a 4-vCPU KVM guest the
/// per-second median push latency of one stream run flipped between ~90
/// and ~190 us, and across seeds the stream's fast tail spread by 2-4%
/// where its median spread by 6-10% and its 10th percentile by up to 19%.
/// Medians and tails go to the details.
[[nodiscard]] double fast_latency(const std::vector<double>& ms);
[[nodiscard]] double fast_rate(const std::vector<double>& rates);

/// The highest percentile with at least ten samples beyond it:
/// q = 1 - 10 / n. Returns the value and stores the percentile used;
/// both are NaN (printed as null) with ten samples or fewer.
[[nodiscard]] double tail(const std::vector<double>& values,
                          double& percentile_used);

/// Records a latency distribution's median and tail (plus the sample
/// count and the tail percentile) into `out` under `prefix`.
void report_latency(result& out, const std::string& prefix,
                    const std::vector<double>& values_ms);

/// IEEE == over two score vectors (same length, every element ==).
[[nodiscard]] bool same_scores(std::span<const double> a,
                               std::span<const double> b);

/// Prints the details line and the final result line to stdout.
void print_result(const result& r, const run_options& options);

// Workload entry points (one per named workload).
result run_batch_flagship(const run_options& options);
result run_hw_modes(const run_options& options);
result run_stream_drift(const run_options& options);
result run_serve_open(const run_options& options);

} // namespace perfbench

#endif // QUORUM_PERFBENCH_COMMON_H
