#include "data/csv.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "data/preprocess.h"
#include "util/contracts.h"

namespace quorum::data {

namespace {

std::vector<std::string> split_line(const std::string& line, char delimiter) {
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream stream(line);
    while (std::getline(stream, cell, delimiter)) {
        // Trim surrounding whitespace.
        const auto first = cell.find_first_not_of(" \t\r");
        const auto last = cell.find_last_not_of(" \t\r");
        if (first == std::string::npos) {
            cells.emplace_back();
        } else {
            cells.push_back(cell.substr(first, last - first + 1));
        }
    }
    if (!line.empty() && line.back() == delimiter) {
        cells.emplace_back();
    }
    return cells;
}

double parse_cell(const std::string& cell) {
    if (cell.empty()) {
        return 0.0;
    }
    try {
        std::size_t consumed = 0;
        const double value = std::stod(cell, &consumed);
        if (consumed == cell.size()) {
            return value;
        }
    } catch (const std::exception&) {
        // fall through to hashing
    }
    return hash_category(cell);
}

} // namespace

dataset read_csv(std::istream& in, const csv_options& options) {
    std::vector<std::vector<double>> rows;
    std::vector<int> labels;
    std::vector<std::string> feature_names;
    std::string line;
    bool header_pending = options.has_header;
    std::size_t width = 0;

    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        const std::vector<std::string> cells =
            split_line(line, options.delimiter);
        if (header_pending) {
            header_pending = false;
            for (std::size_t j = 0; j < cells.size(); ++j) {
                if (static_cast<int>(j) != options.label_column) {
                    feature_names.push_back(cells[j]);
                }
            }
            continue;
        }
        if (width == 0) {
            width = cells.size();
        }
        QUORUM_EXPECTS_MSG(cells.size() == width, "ragged CSV row");
        std::vector<double> row;
        row.reserve(width);
        for (std::size_t j = 0; j < cells.size(); ++j) {
            if (static_cast<int>(j) == options.label_column) {
                const double raw = parse_cell(cells[j]);
                labels.push_back(raw >= 0.5 ? 1 : 0);
            } else {
                row.push_back(parse_cell(cells[j]));
            }
        }
        rows.push_back(std::move(row));
    }
    QUORUM_EXPECTS_MSG(!rows.empty(), "CSV contained no data rows");

    dataset d = dataset::from_rows(rows, std::move(labels));
    if (!feature_names.empty() && feature_names.size() == d.num_features()) {
        d.set_feature_names(std::move(feature_names));
    }
    return d;
}

dataset read_csv_file(const std::string& path, const csv_options& options) {
    std::ifstream file(path);
    if (!file) {
        throw std::runtime_error("cannot open CSV file: " + path);
    }
    dataset d = read_csv(file, options);
    d.set_name(path);
    return d;
}

void write_csv(std::ostream& out, const dataset& d, char delimiter) {
    const std::streamsize precision =
        out.precision(std::numeric_limits<double>::max_digits10);
    if (!d.feature_names().empty()) {
        for (std::size_t j = 0; j < d.num_features(); ++j) {
            out << (j ? std::string(1, delimiter) : "") << d.feature_names()[j];
        }
    } else {
        for (std::size_t j = 0; j < d.num_features(); ++j) {
            out << (j ? std::string(1, delimiter) : "") << "f" << j;
        }
    }
    if (d.has_labels()) {
        out << delimiter << "label";
    }
    out << '\n';
    for (std::size_t i = 0; i < d.num_samples(); ++i) {
        for (std::size_t j = 0; j < d.num_features(); ++j) {
            out << (j ? std::string(1, delimiter) : "") << d.at(i, j);
        }
        if (d.has_labels()) {
            out << delimiter << d.label(i);
        }
        out << '\n';
    }
    out.precision(precision);
}

void write_scores_csv(std::ostream& out, const dataset& d,
                      const std::vector<double>& scores, char delimiter) {
    QUORUM_EXPECTS_MSG(scores.size() == d.num_samples(),
                       "one score per sample required");
    const std::streamsize precision =
        out.precision(std::numeric_limits<double>::max_digits10);
    out << "sample" << delimiter << "score";
    if (d.has_labels()) {
        out << delimiter << "label";
    }
    out << '\n';
    for (std::size_t i = 0; i < scores.size(); ++i) {
        out << i << delimiter << scores[i];
        if (d.has_labels()) {
            out << delimiter << d.label(i);
        }
        out << '\n';
    }
    out.precision(precision);
}

} // namespace quorum::data
