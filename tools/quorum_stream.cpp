// quorum_stream — score a time-ordered stream one arrival at a time.
//
//   quorum_stream --demo [options]
//   quorum_stream --input data.csv [options]
//
// Feeds samples to stream::stream_scorer in arrival order and reports
// per-arrival scores plus push-latency percentiles. The demo stream
// comes from data::generate_drifting_stream: clustered data whose
// centres drift sinusoidally over time, with anomalies injected at the
// target rate.
//
// `quorum_stream --help` lists every flag; tools/README.md explains them.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "data/csv.h"
#include "data/generators.h"
#include "metrics/confusion.h"
#include "metrics/report.h"
#include "metrics/roc.h"
#include "qml/angle_encoding.h"
#include "stream/stream_scorer.h"
#include "util/contracts.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

struct cli_options {
    std::string input;
    std::string output = "quorum_stream_scores.csv";
    int label_column = -1;
    bool has_header = true;
    bool demo = false;
    std::size_t top = 10;
    std::string scenario = "drift";
    std::size_t demo_samples = 256;
    std::size_t demo_anomalies = 10;
    std::size_t demo_features = 8;
    double drift_amplitude = 0.12;
    double drift_period = 160.0;
    quorum::stream::stream_config config = [] {
        quorum::stream::stream_config config;
        config.detector.ensemble_groups = 32;
        config.detector.mode = quorum::core::exec_mode::sampled;
        return config;
    }();
};

void print_usage() {
    std::cout <<
        "quorum_stream — online Quorum anomaly scoring over a stream\n"
        "\n"
        "  quorum_stream --input data.csv [options]\n"
        "  quorum_stream --demo [options]\n"
        "\n"
        "  --input PATH          CSV whose rows arrive in order (else "
        "--demo)\n"
        "  --demo                score a bundled synthetic stream instead\n"
        "  --scenario S          demo stream family: drift (drifting "
        "clusters,\n"
        "                        default) or sensors (correlated sensor "
        "bank\n"
        "                        with stuck/spike faults)\n"
        "  --samples N           demo stream length (default 256)\n"
        "  --anomalies N         demo anomalies (default 10)\n"
        "  --features N          demo raw features (default 8)\n"
        "  --drift A             demo drift amplitude (default 0.12)\n"
        "  --drift-period P      demo drift period in arrivals (default "
        "160)\n"
        "  --out PATH            scores CSV (default "
        "quorum_stream_scores.csv;\n"
        "                        --output is an alias)\n"
        "  --label-column K      0/1 label column for evaluation (-1 = "
        "none)\n"
        "  --no-header           input has no header row\n"
        "  --top K               print the K strongest suspects (default "
        "10)\n"
        "  --window N            sliding-window length (default 8)\n"
        "  --rebucket N          arrivals per re-bucketing epoch (default "
        "64)\n"
        "  --no-fused            per-level evaluation instead of the fused\n"
        "                        session (identical scores; A/B hatch)\n"
        "  --help                this text\n";
    quorum::core::print_detector_flags(std::cout,
                                       cli_options{}.config.detector);
}

void parse_arguments(int argc, char** argv, cli_options& options) {
    for (quorum::util::flag_cursor args(argc, argv); args.next();) {
        const std::string_view arg = args.flag();
        if (quorum::core::parse_detector_flag(args, options.config.detector)) {
            continue;
        }
        if (arg == "--help" || arg == "-h") {
            print_usage();
            std::exit(0);
        } else if (arg == "--demo") {
            options.demo = true;
        } else if (arg == "--no-header") {
            options.has_header = false;
        } else if (arg == "--input") {
            options.input = args.value();
        } else if (arg == "--out" || arg == "--output") {
            options.output = args.value();
        } else if (arg == "--label-column") {
            args.integer(options.label_column);
        } else if (arg == "--scenario") {
            options.scenario = args.value();
            if (options.scenario != "drift" && options.scenario != "sensors") {
                args.reject(options.scenario, "drift | sensors");
            }
        } else if (arg == "--samples") {
            args.count(options.demo_samples);
        } else if (arg == "--anomalies") {
            args.count(options.demo_anomalies);
        } else if (arg == "--features") {
            args.count(options.demo_features);
        } else if (arg == "--drift") {
            args.real(options.drift_amplitude);
        } else if (arg == "--drift-period") {
            args.real(options.drift_period);
        } else if (arg == "--window") {
            args.count(options.config.window);
        } else if (arg == "--rebucket") {
            args.count(options.config.rebucket_interval);
        } else if (arg == "--top") {
            args.count(options.top);
        } else if (arg == "--no-fused") {
            options.config.detector.fused_levels = false;
        } else {
            args.unknown();
        }
    }
    if (!options.demo && options.input.empty()) {
        throw quorum::util::contract_error(
            "either --input or --demo is required");
    }
}

double percentile(std::vector<double> sorted_values, double q) {
    std::sort(sorted_values.begin(), sorted_values.end());
    if (sorted_values.empty()) {
        return 0.0;
    }
    const double rank = q * static_cast<double>(sorted_values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted_values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac;
}

} // namespace

int main(int argc, char** argv) {
    using namespace quorum;
    cli_options options;
    try {
        parse_arguments(argc, argv, options);
    } catch (const util::contract_error& error) {
        std::cerr << error.what() << "\n";
        print_usage();
        return 2;
    }

    try {
        data::dataset input;
        if (options.demo) {
            util::rng gen(options.config.detector.seed);
            if (options.scenario == "sensors") {
                data::sensor_stream_spec spec;
                spec.base.name = "sensor_stream";
                spec.base.samples = options.demo_samples;
                spec.base.anomalies = options.demo_anomalies;
                spec.base.features = options.demo_features;
                input = data::generate_sensor_stream(spec, gen);
                std::cout << "demo stream: " << input.num_samples()
                          << " arrivals from a " << input.num_features()
                          << "-sensor bank, " << input.num_anomalies()
                          << " injected faults\n";
            } else {
                data::stream_spec spec;
                spec.base.name = "drifting_stream";
                spec.base.samples = options.demo_samples;
                spec.base.anomalies = options.demo_anomalies;
                spec.base.features = options.demo_features;
                spec.base.anomaly_shift = 0.3;
                spec.drift_amplitude = options.drift_amplitude;
                spec.drift_period = options.drift_period;
                input = data::generate_drifting_stream(spec, gen);
                std::cout << "demo stream: " << input.num_samples()
                          << " arrivals, " << input.num_anomalies()
                          << " planted anomalies, drift amplitude "
                          << spec.drift_amplitude << "\n";
            }
        } else {
            data::csv_options csv;
            csv.has_header = options.has_header;
            csv.label_column = options.label_column;
            input = data::read_csv_file(options.input, csv);
            std::cout << "streaming " << input.num_samples()
                      << " rows x " << input.num_features()
                      << " features from " << options.input << "\n";
        }

        stream::stream_scorer scorer(options.config, input.num_features());
        const core::quorum_config& detector = scorer.config().detector;
        std::cout << "scoring: mode=" << core::exec_mode_name(detector.mode)
                  << " backend=" << detector.resolved_backend();
        if (detector.encoding != qml::encoding::amplitude) {
            std::cout << " encoding=" << qml::encoding_name(detector.encoding);
        }
        std::cout << " groups=" << detector.ensemble_groups
                  << " window=" << scorer.config().window
                  << " rebucket=" << scorer.config().rebucket_interval
                  << " qubits=" << detector.n_qubits
                  << " shots=" << detector.shots << "\n";

        std::vector<double> scores(input.num_samples(), 0.0);
        std::vector<double> latencies_us(input.num_samples(), 0.0);
        std::vector<std::size_t> runs(input.num_samples(), 0);
        util::timer total;
        for (std::size_t t = 0; t < input.num_samples(); ++t) {
            util::timer push_timer;
            const stream::stream_score verdict = scorer.push(input.row(t));
            latencies_us[t] = push_timer.seconds() * 1e6;
            scores[t] = verdict.score;
            runs[t] = verdict.runs;
        }
        const double elapsed = total.seconds();
        std::cout << "streamed " << input.num_samples() << " arrivals in "
                  << metrics::table_printer::fmt(elapsed, 2) << "s ("
                  << metrics::table_printer::fmt(
                         static_cast<double>(input.num_samples()) /
                             std::max(elapsed, 1e-12),
                         1)
                  << "/s, push p50 "
                  << metrics::table_printer::fmt(
                         percentile(latencies_us, 0.50), 1)
                  << "us, p99 "
                  << metrics::table_printer::fmt(
                         percentile(latencies_us, 0.99), 1)
                  << "us)\n\n";

        std::vector<std::size_t> ranking(scores.size());
        std::iota(ranking.begin(), ranking.end(), std::size_t{0});
        std::stable_sort(ranking.begin(), ranking.end(),
                         [&scores](std::size_t a, std::size_t b) {
                             return scores[a] > scores[b];
                         });
        metrics::table_printer table({"rank", "position", "score", "runs"});
        for (std::size_t r = 0; r < std::min(options.top, ranking.size());
             ++r) {
            table.add_row({std::to_string(r + 1),
                           std::to_string(ranking[r]),
                           metrics::table_printer::fmt(scores[ranking[r]], 1),
                           std::to_string(runs[ranking[r]])});
        }
        table.print(std::cout);

        std::ofstream out(options.output);
        if (!out) {
            std::cerr << "error: cannot open --out path '" << options.output
                      << "' for writing\n";
            return 1;
        }
        out.precision(std::numeric_limits<double>::max_digits10);
        out << "position,score,runs";
        if (input.has_labels()) {
            out << ",label";
        }
        out << "\n";
        for (std::size_t t = 0; t < scores.size(); ++t) {
            out << t << "," << scores[t] << "," << runs[t];
            if (input.has_labels()) {
                out << "," << input.labels()[t];
            }
            out << "\n";
        }
        out.flush();
        if (!out) {
            std::cerr << "error: failed writing scores to --out path '"
                      << options.output << "'\n";
            return 1;
        }
        std::cout << "\nwrote per-arrival scores to " << options.output
                  << "\n";

        if (input.has_labels() && input.num_anomalies() > 0) {
            const auto counts = metrics::evaluate_top_k(
                input.labels(), scores, input.num_anomalies());
            std::cout << "evaluation (labels withheld from the scorer): "
                      << "precision " << metrics::table_printer::fmt(
                             counts.precision())
                      << ", recall " << metrics::table_printer::fmt(
                             counts.recall())
                      << ", ROC-AUC "
                      << metrics::table_printer::fmt(
                             metrics::roc_auc(input.labels(), scores))
                      << "\n";
        }
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
