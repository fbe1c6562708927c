// perfbench — the repository benchmark's driver binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Untraced runs (--trace 0) measure the end-to-end metrics through the
// library's public entry points with no instrumentation. Traced runs
// (--trace 1) recompose the same work from the layers' public functions
// with spans around each call, check the recomposed outputs are IEEE ==
// to the untraced path, and report per-layer figures. The last stdout
// line is the result object; the line before it holds the run's details.
// run.py builds this binary and wraps it; see BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "trace.h"
#include "util/parse.h"

namespace perfbench {

namespace {

std::string json_escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string quoted(const std::string& text) {
    std::string out = "\"";
    out += json_escape(text);
    out += '"';
    return out;
}

std::string json_number(double value) {
    if (!std::isfinite(value)) {
        return "null";
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace

void result::note(const std::string& key, double value) {
    details[key] = json_number(value);
}

void result::tally(std::size_t checks, std::size_t failures,
                   const std::string& what) {
    attempted += checks;
    if (failures != 0) {
        failed += failures;
        correct = false;
        if (details.find("first_failure") == details.end()) {
            details["first_failure"] = quoted(what);
        }
    }
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(const std::vector<double>& values) {
    return quantile(values, 0.5);
}

double tail(const std::vector<double>& values, double& percentile_used) {
    const auto n = static_cast<double>(values.size());
    if (n <= 10.0) {
        percentile_used = std::nan("");
        return std::nan("");
    }
    percentile_used = 100.0 * (1.0 - 10.0 / n);
    return quantile(values, 1.0 - 10.0 / n);
}

double fast_latency(const std::vector<double>& ms) {
    const auto n = static_cast<double>(ms.size());
    return quantile(ms, n > 10.0 ? 10.0 / n : 0.5);
}

double fast_rate(const std::vector<double>& rates) {
    const auto n = static_cast<double>(rates.size());
    return quantile(rates, n > 10.0 ? 1.0 - 10.0 / n : 0.5);
}

void report_latency(result& out, const std::string& prefix,
                    const std::vector<double>& values_ms) {
    double percentile = 0.0;
    const double tail_value = tail(values_ms, percentile);
    out.note(prefix + "_samples", static_cast<double>(values_ms.size()));
    out.note(prefix + "_p50_ms", median(values_ms));
    out.note(prefix + "_tail_ms", tail_value);
    out.note(prefix + "_tail_percentile", percentile);
    out.note(prefix + "_fast_ms", fast_latency(values_ms));
}

bool same_scores(std::span<const double> a, std::span<const double> b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i] == b[i])) {
            return false;
        }
    }
    return true;
}

void print_result(const result& r, const run_options& options) {
    std::ostringstream details;
    details << "{\"workload\": \"" << json_escape(options.workload)
            << "\", \"seed\": " << options.seed
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency();
    for (const auto& [key, value] : r.details) {
        details << ", \"" << json_escape(key) << "\": " << value;
    }
    details << "}";
    std::printf("%s\n", details.str().c_str());

    std::ostringstream line;
    line << "{\"correct\": " << (r.correct ? "true" : "false")
         << ", \"attempted\": " << r.attempted
         << ", \"failed\": " << r.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        line << (first ? "" : ", ") << "\"" << json_escape(name)
             << "\": {\"value\": " << json_number(m.value)
             << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
        first = false;
    }
    line << "}}";
    std::printf("%s\n", line.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench

namespace perfbench::trace {

std::size_t recorder::write_chrome(const std::string& path,
                                   std::size_t max_events) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    std::size_t written = 0;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& b : buffers_) {
        for (const span_record& s : b->spans) {
            if (written == max_events) {
                break;
            }
            char line[512];
            std::snprintf(
                line, sizeof(line),
                "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                "{\"parent\": %d, \"request\": %llu}}",
                written == 0 ? "" : ",\n", s.name, b->tid,
                static_cast<double>(s.start_ns) / 1e3,
                static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                static_cast<int>(s.parent),
                static_cast<unsigned long long>(s.request));
            out << line;
            ++written;
        }
    }
    out << "\n]}\n";
    return written;
}

} // namespace perfbench::trace

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <batch_flagship|hw_modes|"
                 "stream_drift|serve_open> --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
}

} // namespace

int main(int argc, char** argv) {
    perfbench::run_options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (value == nullptr) {
            usage();
            return 2;
        }
        ++i;
        bool ok = true;
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            std::size_t seed = 0;
            ok = quorum::util::parse_count(value, seed);
            options.seed = seed;
        } else if (arg == "--seconds") {
            ok = quorum::util::parse_real(value, options.seconds) &&
                 options.seconds > 0.0;
        } else if (arg == "--trace") {
            ok = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
            options.trace = std::strcmp(value, "1") == 0;
        } else if (arg == "--trace-out") {
            options.trace_out = value;
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr, "perfbench: bad argument %s %s\n",
                         arg.c_str(), value);
            usage();
            return 2;
        }
    }
    if (!have_workload) {
        usage();
        return 2;
    }

    try {
        perfbench::result r;
        if (options.workload == "batch_flagship") {
            r = perfbench::run_batch_flagship(options);
        } else if (options.workload == "hw_modes") {
            r = perfbench::run_hw_modes(options);
        } else if (options.workload == "stream_drift") {
            r = perfbench::run_stream_drift(options);
        } else if (options.workload == "serve_open") {
            r = perfbench::run_serve_open(options);
        } else {
            std::fprintf(stderr, "perfbench: unknown workload %s\n",
                         options.workload.c_str());
            usage();
            return 2;
        }
        if (options.trace && !options.trace_out.empty()) {
            const auto& rec = perfbench::trace::recorder::instance();
            const std::size_t total = rec.span_count();
            const std::size_t written =
                rec.write_chrome(options.trace_out, 100000);
            r.note("trace_spans", static_cast<double>(total));
            r.note("trace_spans_written", static_cast<double>(written));
            r.note("trace_file",
                   "\"" + options.trace_out + "\"");
        }
        perfbench::print_result(r, options);
        return r.correct ? 0 : 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
}
