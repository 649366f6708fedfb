// Golden comparator: the flat-JSON parser, tolerance bands, exact fields
// and the self-test perturbation.
#include "check/golden.hpp"

#include <cmath>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace pi2::check {
namespace {

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out{path};
  out << text;
  return path;
}

TEST(GoldenParser, ParsesFlatObjects) {
  JsonRecord record;
  std::string error;
  ASSERT_TRUE(parse_flat_object(
      R"({"a": 1.5, "b": "text", "c": -2e3, "d": true, "e": "q\"uote"})",
      &record, &error))
      << error;
  EXPECT_DOUBLE_EQ(record.numbers.at("a"), 1.5);
  EXPECT_EQ(record.strings.at("b"), "text");
  EXPECT_DOUBLE_EQ(record.numbers.at("c"), -2000.0);
  EXPECT_DOUBLE_EQ(record.numbers.at("d"), 1.0);
  EXPECT_EQ(record.strings.at("e"), "q\"uote");
}

TEST(GoldenParser, RejectsNestedValuesAndGarbage) {
  JsonRecord record;
  std::string error;
  EXPECT_FALSE(parse_flat_object(R"({"a": {"nested": 1}})", &record, &error));
  EXPECT_FALSE(parse_flat_object(R"({"a": [1, 2]})", &record, &error));
  EXPECT_FALSE(parse_flat_object(R"({"a" 1})", &record, &error));
  EXPECT_FALSE(parse_flat_object("not json", &record, &error));
}

TEST(GoldenParser, RefusesTruncatedKeywords) {
  JsonRecord record;
  std::string error;
  EXPECT_FALSE(parse_flat_object(R"({"a": tru})", &record, &error));
  EXPECT_NE(error.find("at offset"), std::string::npos) << error;
  EXPECT_FALSE(parse_flat_object(R"({"a": txyz})", &record, &error));
  EXPECT_FALSE(parse_flat_object(R"({"a": null})", &record, &error));
  EXPECT_NE(error.find("'a'"), std::string::npos) << error;
}

TEST(GoldenParser, NonFiniteMetricsParseAndAreNamed) {
  JsonRecord record;
  std::string error;
  ASSERT_TRUE(parse_flat_object(
      R"({"t_s": 1, "p": nan, "q": -nan, "r": inf, "s": -inf, "u": 1e309})",
      &record, &error))
      << error;
  EXPECT_TRUE(std::isnan(record.numbers.at("p")));
  EXPECT_TRUE(std::isnan(record.numbers.at("q")));
  EXPECT_TRUE(std::isinf(record.numbers.at("r")));
  EXPECT_TRUE(std::isinf(record.numbers.at("s")));
  EXPECT_TRUE(std::isinf(record.numbers.at("u")));
  const auto base = write_temp(
      "base_inf.json", R"([{"index": 0, "aqm": "pi2", "utilization": 0.9}])");
  const auto poisoned = write_temp(
      "cand_inf.json", R"([{"index": 0, "aqm": "pi2", "utilization": -inf}])");
  const auto mismatches =
      compare_golden(base, poisoned, default_golden_options());
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find("\"utilization\" is non-finite"),
            std::string::npos)
      << mismatches[0];
}

TEST(GoldenParser, ParsesRecordArrays) {
  const std::string path = write_temp(
      "records.json",
      R"([
  {"index": 0, "status": "ok", "utilization": 0.95},
  {"index": 1, "status": "failed", "error": "boom"}
])");
  std::string error;
  const auto records = parse_records(path, &error);
  ASSERT_EQ(error, "");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].numbers.at("utilization"), 0.95);
  EXPECT_EQ(records[1].strings.at("error"), "boom");
}

TEST(GoldenCompare, IdenticalFilesMatch) {
  const std::string text =
      R"([{"index": 0, "aqm": "pi2", "utilization": 0.9, "mean_qdelay_ms": 20}])";
  const auto a = write_temp("base_eq.json", text);
  const auto b = write_temp("cand_eq.json", text);
  EXPECT_TRUE(compare_golden(a, b, default_golden_options()).empty());
}

TEST(GoldenCompare, WithinBandPassesOutsideFails) {
  const auto base = write_temp(
      "base_tol.json", R"([{"index": 0, "aqm": "pi2", "utilization": 0.90}])");
  // utilization band is 5%: 0.92 passes, 0.80 fails.
  const auto near = write_temp(
      "cand_near.json", R"([{"index": 0, "aqm": "pi2", "utilization": 0.92}])");
  const auto far = write_temp(
      "cand_far.json", R"([{"index": 0, "aqm": "pi2", "utilization": 0.80}])");
  const auto options = default_golden_options();
  EXPECT_TRUE(compare_golden(base, near, options).empty());
  const auto mismatches = compare_golden(base, far, options);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find("utilization"), std::string::npos);
}

TEST(GoldenCompare, ZeroBaselineUsesAbsoluteFloor) {
  const auto base = write_temp(
      "base_zero.json", R"([{"index": 0, "invariant_violations": 0}])");
  const auto dirty = write_temp(
      "cand_dirty.json", R"([{"index": 0, "invariant_violations": 1}])");
  EXPECT_FALSE(compare_golden(base, dirty, default_golden_options()).empty());
}

TEST(GoldenCompare, ExactFieldsAdmitNoTolerance) {
  const auto base =
      write_temp("base_exact.json", R"([{"index": 0, "link_mbps": 40}])");
  const auto drifted =
      write_temp("cand_exact.json", R"([{"index": 0, "link_mbps": 40.0001}])");
  EXPECT_FALSE(compare_golden(base, drifted, default_golden_options()).empty());
}

TEST(GoldenCompare, FlagsStructuralDifferences) {
  const auto base = write_temp(
      "base_struct.json",
      R"([{"index": 0, "aqm": "pi2", "utilization": 0.9}, {"index": 1, "aqm": "pie", "utilization": 0.8}])");
  const auto options = default_golden_options();
  // Missing record.
  const auto fewer = write_temp(
      "cand_fewer.json", R"([{"index": 0, "aqm": "pi2", "utilization": 0.9}])");
  EXPECT_FALSE(compare_golden(base, fewer, options).empty());
  // Renamed string field value.
  const auto renamed = write_temp(
      "cand_renamed.json",
      R"([{"index": 0, "aqm": "pie", "utilization": 0.9}, {"index": 1, "aqm": "pie", "utilization": 0.8}])");
  EXPECT_FALSE(compare_golden(base, renamed, options).empty());
  // Missing + extra numeric field.
  const auto reshaped = write_temp(
      "cand_reshaped.json",
      R"([{"index": 0, "aqm": "pi2", "extra": 1}, {"index": 1, "aqm": "pie", "utilization": 0.8}])");
  const auto mismatches = compare_golden(base, reshaped, options);
  EXPECT_EQ(mismatches.size(), 2u);  // utilization missing, extra extra
  // Non-finite candidate value.
  const auto poisoned = write_temp(
      "cand_nan.json",
      R"([{"index": 0, "aqm": "pi2", "utilization": nan}, {"index": 1, "aqm": "pie", "utilization": 0.8}])");
  EXPECT_FALSE(compare_golden(base, poisoned, options).empty());
}

TEST(GoldenSelfTest, PerturbedCopyIsFlagged) {
  const auto base = write_temp(
      "base_selftest.json",
      R"([{"index": 0, "aqm": "pi2", "seed": 1, "utilization": 0.9, "mean_qdelay_ms": 21.5}])");
  const std::string out = ::testing::TempDir() + "/perturbed.json";
  const auto options = default_golden_options();
  const std::string field = write_perturbed_copy(base, out, options);
  ASSERT_FALSE(field.empty());
  EXPECT_NE(field, "index");  // exact/structural fields are never the target
  EXPECT_NE(field, "seed");
  const auto mismatches = compare_golden(base, out, options);
  ASSERT_FALSE(mismatches.empty());
  bool names_field = false;
  for (const auto& m : mismatches) {
    if (m.find(field) != std::string::npos) names_field = true;
  }
  EXPECT_TRUE(names_field);
}

}  // namespace
}  // namespace pi2::check
