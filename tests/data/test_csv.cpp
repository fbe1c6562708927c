#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/contracts.h"

#include "data/csv.h"
#include "data/preprocess.h"

namespace {

using namespace quorum::data;

TEST(Csv, ReadsNumericDataWithHeader) {
    std::istringstream in("a,b,c\n1.5,2.5,3.5\n4,5,6\n");
    csv_options options;
    const dataset d = read_csv(in, options);
    EXPECT_EQ(d.num_samples(), 2u);
    EXPECT_EQ(d.num_features(), 3u);
    EXPECT_DOUBLE_EQ(d.at(0, 1), 2.5);
    EXPECT_DOUBLE_EQ(d.at(1, 2), 6.0);
    ASSERT_EQ(d.feature_names().size(), 3u);
    EXPECT_EQ(d.feature_names()[0], "a");
    EXPECT_FALSE(d.has_labels());
}

TEST(Csv, ReadsHeaderlessData) {
    std::istringstream in("1,2\n3,4\n");
    csv_options options;
    options.has_header = false;
    const dataset d = read_csv(in, options);
    EXPECT_EQ(d.num_samples(), 2u);
    EXPECT_DOUBLE_EQ(d.at(0, 0), 1.0);
}

TEST(Csv, ExtractsLabelColumn) {
    std::istringstream in("f0,f1,label\n0.1,0.2,0\n0.3,0.4,1\n");
    csv_options options;
    options.label_column = 2;
    const dataset d = read_csv(in, options);
    EXPECT_EQ(d.num_features(), 2u);
    ASSERT_TRUE(d.has_labels());
    EXPECT_EQ(d.label(0), 0);
    EXPECT_EQ(d.label(1), 1);
    EXPECT_EQ(d.feature_names().size(), 2u);
}

TEST(Csv, HashesNonNumericCells) {
    std::istringstream in("cat,value\nvisa,1.0\nmastercard,2.0\n");
    csv_options options;
    const dataset d = read_csv(in, options);
    EXPECT_DOUBLE_EQ(d.at(0, 0), hash_category("visa"));
    EXPECT_DOUBLE_EQ(d.at(1, 0), hash_category("mastercard"));
    EXPECT_DOUBLE_EQ(d.at(1, 1), 2.0);
}

TEST(Csv, EmptyCellsBecomeZero) {
    std::istringstream in("a,b\n,2\n3,\n");
    csv_options options;
    const dataset d = read_csv(in, options);
    EXPECT_DOUBLE_EQ(d.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(d.at(1, 1), 0.0);
}

TEST(Csv, RaggedRowsRejected) {
    std::istringstream in("a,b\n1,2\n3\n");
    csv_options options;
    EXPECT_THROW(read_csv(in, options), quorum::util::contract_error);
}

TEST(Csv, EmptyFileRejected) {
    std::istringstream in("header1,header2\n");
    csv_options options;
    EXPECT_THROW(read_csv(in, options), quorum::util::contract_error);
}

TEST(Csv, MissingFileThrowsRuntimeError) {
    csv_options options;
    EXPECT_THROW(read_csv_file("/nonexistent/path/file.csv", options),
                 std::runtime_error);
}

TEST(Csv, RoundTripPreservesValuesAndLabels) {
    dataset original = dataset::from_rows(
        {{0.125, 0.25}, {0.5, 0.75}, {1.0, 0.0}}, {0, 1, 0});
    original.set_feature_names({"alpha", "beta"});
    std::ostringstream out;
    write_csv(out, original);

    std::istringstream in(out.str());
    csv_options options;
    options.label_column = 2;
    const dataset restored = read_csv(in, options);
    EXPECT_EQ(restored.num_samples(), 3u);
    EXPECT_EQ(restored.num_features(), 2u);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_DOUBLE_EQ(restored.at(i, j), original.at(i, j));
        }
        EXPECT_EQ(restored.label(i), original.label(i));
    }
    EXPECT_EQ(restored.feature_names()[0], "alpha");
}

TEST(Csv, RoundTripKeepsEveryBit) {
    // Values that 6 significant digits would round, plus the extremes.
    const std::vector<std::vector<double>> rows = {
        {0.1, 1.0 / 3.0, 2.0 / 3.0},
        {0.1 + 0.2, -0.0, 1e-300},
        {123456.78901234567, std::numeric_limits<double>::max(),
         -std::numeric_limits<double>::epsilon()}};
    const dataset original = dataset::from_rows(rows, {1, 0, 1});
    std::ostringstream out;
    write_csv(out, original);

    std::istringstream in(out.str());
    csv_options options;
    options.label_column = 3;
    const dataset restored = read_csv(in, options);
    ASSERT_EQ(restored.num_samples(), rows.size());
    ASSERT_EQ(restored.num_features(), rows[0].size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t j = 0; j < rows[i].size(); ++j) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.at(i, j)),
                      std::bit_cast<std::uint64_t>(rows[i][j]))
                << "row " << i << " column " << j;
        }
        EXPECT_EQ(restored.label(i), original.label(i));
    }
}

TEST(Csv, WriteScoresKeepsEveryBit) {
    const dataset d = dataset::from_rows({{1.0}, {2.0}});
    std::ostringstream out;
    out.precision(3);
    write_scores_csv(out, d, {0.1, 1.0 / 3.0});
    EXPECT_EQ(out.str(), "sample,score\n"
                         "0,0.10000000000000001\n"
                         "1,0.33333333333333331\n");
    EXPECT_EQ(out.precision(), 3); // the caller's stream state survives
}

TEST(Csv, WriteScoresIncludesLabels) {
    const dataset d = dataset::from_rows({{1.0}, {2.0}}, {0, 1});
    std::ostringstream out;
    write_scores_csv(out, d, {0.5, 2.5});
    const std::string text = out.str();
    EXPECT_NE(text.find("sample,score,label"), std::string::npos);
    EXPECT_NE(text.find("0,0.5,0"), std::string::npos);
    EXPECT_NE(text.find("1,2.5,1"), std::string::npos);
}

TEST(Csv, WriteScoresValidatesLength) {
    const dataset d = dataset::from_rows({{1.0}, {2.0}});
    std::ostringstream out;
    EXPECT_THROW((write_scores_csv(out, d, {0.5})),
                 quorum::util::contract_error);
}

TEST(Csv, CustomDelimiter) {
    std::istringstream in("a;b\n1;2\n");
    csv_options options;
    options.delimiter = ';';
    const dataset d = read_csv(in, options);
    EXPECT_DOUBLE_EQ(d.at(0, 1), 2.0);
}

} // namespace
