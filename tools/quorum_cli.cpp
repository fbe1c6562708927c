// quorum_cli — run Quorum anomaly detection from the command line.
//
//   quorum_cli --input data.csv [options]
//   quorum_cli --demo [options]
//
// `quorum_cli --help` lists every flag; tools/README.md explains them.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "core/quorum.h"
#include "data/csv.h"
#include "data/generators.h"
#include "exec/remote_backend.h"
#include "exec/schedule.h"
#include "exec/sharded_backend.h"
#include "metrics/confusion.h"
#include "metrics/report.h"
#include "metrics/roc.h"
#include "qml/angle_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/qasm.h"
#include "util/contracts.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

struct cli_options {
    std::string input;
    std::string output = "quorum_scores.csv";
    std::string qasm_path;
    int label_column = -1;
    bool has_header = true;
    bool demo = false;
    std::size_t top = 10;
    quorum::core::quorum_config config = [] {
        quorum::core::quorum_config config;
        config.ensemble_groups = 300;
        config.mode = quorum::core::exec_mode::sampled;
        return config;
    }();
};

void print_usage() {
    std::cout <<
        "quorum_cli — zero-training unsupervised quantum anomaly detection\n"
        "\n"
        "  quorum_cli --input data.csv [options]\n"
        "  quorum_cli --demo [options]\n"
        "\n"
        "  --input PATH          CSV file to score (required unless --demo)\n"
        "  --demo                score a bundled synthetic dataset instead\n"
        "  --out PATH            scores CSV (default quorum_scores.csv;\n"
        "                        --output is an alias)\n"
        "  --label-column K      0/1 label column for evaluation (-1 = "
        "none)\n"
        "  --no-header           input has no header row\n"
        "  --top K               print the K strongest suspects (default "
        "10)\n"
        "  --qasm PATH           also dump one example circuit as OpenQASM "
        "2.0\n"
        "  --shards N            lanes for the sharded/remote backends "
        "(default:\n"
        "                        all cores; --workers is an alias)\n"
        "  --threads N           worker threads (default: all cores)\n"
        "  --no-fused            evaluate compression levels one batch at a "
        "time\n"
        "                        (identical scores; A/B validation hatch)\n"
        "  --help                this text\n";
    quorum::core::print_detector_flags(std::cout, cli_options{}.config);
}

void parse_arguments(int argc, char** argv, cli_options& options) {
    for (quorum::util::flag_cursor args(argc, argv); args.next();) {
        const std::string_view arg = args.flag();
        if (quorum::core::parse_detector_flag(args, options.config)) {
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
        } else if (arg == "--qasm") {
            options.qasm_path = args.value();
        } else if (arg == "--label-column") {
            args.integer(options.label_column);
        } else if (arg == "--top") {
            args.count(options.top);
        } else if (arg == "--threads") {
            args.count(options.config.threads);
        } else if (arg == "--shards" || arg == "--workers") {
            args.count(options.config.shards);
        } else if (arg == "--no-fused") {
            options.config.fused_levels = false;
        } else {
            args.unknown();
        }
    }
    if (!options.demo && options.input.empty()) {
        throw quorum::util::contract_error(
            "either --input or --demo is required");
    }
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
            util::rng gen(options.config.seed);
            data::generator_spec spec;
            spec.samples = 300;
            spec.anomalies = 12;
            spec.features = 12;
            spec.anomaly_shift = 0.3;
            input = data::generate_clustered(spec, gen);
            std::cout << "demo dataset: " << input.num_samples()
                      << " samples, " << input.num_anomalies()
                      << " planted anomalies\n";
        } else {
            data::csv_options csv;
            csv.has_header = options.has_header;
            csv.label_column = options.label_column;
            input = data::read_csv_file(options.input, csv);
            std::cout << "loaded " << input.num_samples() << " samples x "
                      << input.num_features() << " features from "
                      << options.input << "\n";
        }

        core::quorum_detector detector(options.config);
        std::cout << "scoring: mode=" << core::exec_mode_name(
                         options.config.mode)
                  << " backend=" << options.config.resolved_backend();
        if (options.config.resolved_backend().starts_with("sharded")) {
            // The backend's own resolution (0 = hardware threads,
            // clamped), so the header reports the lanes actually used.
            std::cout << " shards="
                      << exec::resolve_lane_count(
                             options.config.shards,
                             exec::sharded_backend::max_shards);
        } else if (options.config.resolved_backend().starts_with("remote")) {
            std::cout << " workers="
                      << exec::resolve_lane_count(
                             options.config.shards,
                             exec::remote_backend::max_workers);
        }
        if (options.config.schedule != "static") {
            // Echo the parsed canonical form (e.g. bare "dynamic" shows
            // its default grain).
            std::cout << " schedule="
                      << exec::parse_schedule_spec(options.config.schedule)
                             .str();
        }
        if (options.config.encoding != qml::encoding::amplitude) {
            std::cout << " encoding="
                      << qml::encoding_name(options.config.encoding);
        }
        std::cout << " groups=" << options.config.ensemble_groups
                  << " qubits=" << options.config.n_qubits
                  << " shots=" << options.config.shots << "\n";
        util::timer timer;
        const core::score_report report = detector.score(input);
        std::cout << "scored in " << metrics::table_printer::fmt(
                         timer.seconds(), 2)
                  << "s (bucket size " << report.bucket_size << ")\n\n";

        metrics::table_printer table({"rank", "sample", "score"});
        const auto ranking = report.ranking();
        for (std::size_t r = 0; r < std::min(options.top, ranking.size());
             ++r) {
            table.add_row({std::to_string(r + 1),
                           std::to_string(ranking[r]),
                           metrics::table_printer::fmt(
                               report.scores[ranking[r]], 1)});
        }
        table.print(std::cout);

        std::ofstream out(options.output);
        if (!out) {
            std::cerr << "error: cannot open --out path '" << options.output
                      << "' for writing\n";
            return 1;
        }
        data::write_scores_csv(out, input, report.scores);
        out.flush();
        if (!out) {
            std::cerr << "error: failed writing scores to --out path '"
                      << options.output << "'\n";
            return 1;
        }
        std::cout << "\nwrote scores to " << options.output << "\n";

        if (input.has_labels() && input.num_anomalies() > 0) {
            const auto counts = metrics::evaluate_top_k(
                input.labels(), report.scores, input.num_anomalies());
            std::cout << "evaluation (labels withheld from the detector): "
                      << "precision " << metrics::table_printer::fmt(
                             counts.precision())
                      << ", recall " << metrics::table_printer::fmt(
                             counts.recall())
                      << ", F1 " << metrics::table_printer::fmt(counts.f1())
                      << ", ROC-AUC "
                      << metrics::table_printer::fmt(metrics::roc_auc(
                             input.labels(), report.scores))
                      << "\n";
        }

        if (!options.qasm_path.empty()) {
            // Export one representative circuit (first sample, level 1).
            util::rng gen(options.config.seed);
            const auto params = qml::random_ansatz_params(
                options.config.n_qubits, options.config.ansatz_layers, gen);
            std::vector<double> features(
                std::min(qml::encoded_feature_count(options.config.encoding,
                                                    options.config.n_qubits),
                         input.num_features()),
                0.1);
            const auto amps = qml::to_encoded_amplitudes(
                options.config.encoding, features, options.config.n_qubits);
            const qsim::circuit c =
                qml::build_autoencoder_circuit(amps, params, 1);
            std::ofstream qasm_out(options.qasm_path);
            qsim::write_qasm(qasm_out, c);
            std::cout << "wrote example circuit to " << options.qasm_path
                      << "\n";
        }
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
