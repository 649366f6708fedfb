#include "telemetry/exporter.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "durable/atomic_file.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace pi2::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(PrometheusName, MapsDotsAndDashesToUnderscores) {
  EXPECT_EQ(prometheus_name("link.sojourn_ms"), "pi2_link_sojourn_ms");
  EXPECT_EQ(prometheus_name("aqm.p"), "pi2_aqm_p");
  EXPECT_EQ(prometheus_name("a-b c"), "pi2_a_b_c");
}

TEST(JsonlExporter, WritesOneObjectPerSampleSorted) {
  MetricsRegistry reg;
  reg.gauge("b").set(2.0);
  reg.counter("a").inc(1);
  const std::string path = temp_path("pi2_test_export.jsonl");
  JsonlExporter exporter{path};
  exporter.on_sample(pi2::sim::from_seconds(0.5), reg);
  reg.gauge("b").set(3.0);
  exporter.on_sample(pi2::sim::from_seconds(1.0), reg);
  ASSERT_TRUE(exporter.finish(reg));
  EXPECT_TRUE(exporter.ok());  // a cleanly finished exporter stays ok
  EXPECT_EQ(slurp(path),
            "{\"t_s\": 0.500000000, \"a\": 1, \"b\": 2}\n"
            "{\"t_s\": 1.000000000, \"a\": 1, \"b\": 3}\n");
  std::remove(path.c_str());
}

TEST(PrometheusExporter, EmitsTypedFinalSnapshot) {
  MetricsRegistry reg;
  reg.counter("tx").inc(7);
  reg.gauge("p").set(0.25);
  Histogram& h = reg.histogram("lat", Histogram::Config{1.0, 4.0, 1});
  h.record(1.5);
  h.record(3.0);
  const std::string path = temp_path("pi2_test_export.prom");
  PrometheusExporter exporter{path};
  exporter.on_sample(pi2::sim::from_seconds(1.0), reg);  // no-op by design
  ASSERT_TRUE(exporter.finish(reg));
  const std::string text = slurp(path);
  EXPECT_NE(text.find("# TYPE pi2_tx counter\npi2_tx 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pi2_p gauge\npi2_p 0.25\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pi2_lat histogram\n"), std::string::npos);
  // Cumulative buckets: [1,2) holds 1.5, [2,4) holds 3.0, +Inf total.
  EXPECT_NE(text.find("pi2_lat_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("pi2_lat_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("pi2_lat_sum 4.5\npi2_lat_count 2\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FileExporter, UnwritablePathIsNotOkAndFinishFails) {
  MetricsRegistry reg;
  // /dev/null/... fails with ENOTDIR for any user, including root.
  JsonlExporter exporter{"/dev/null/pi2_test.jsonl"};
  EXPECT_FALSE(exporter.ok());
  exporter.on_sample(pi2::sim::from_seconds(1.0), reg);  // must not crash
  EXPECT_FALSE(exporter.finish(reg));
  EXPECT_EQ(exporter.status().code(), durable::StatusCode::kIoError);
  EXPECT_NE(exporter.status().message().find("/dev/null/pi2_test.jsonl"),
            std::string::npos)
      << "error must name the offending path: " << exporter.status().message();
}

/// Fault-injection tests share the process-global AtomicFile fault plan.
class FileExporterFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { durable::AtomicFile::clear_faults(); }
};

TEST_F(FileExporterFaultTest, DiskFullMidStreamLatchesAndLeavesNoArtifact) {
  MetricsRegistry reg;
  reg.gauge("g").set(1.0);
  const std::string path = temp_path("pi2_test_enospc.jsonl");
  std::remove(path.c_str());
  JsonlExporter exporter{path};
  ASSERT_TRUE(exporter.ok());

  // The disk fills up after the exporter has already streamed one sample.
  exporter.on_sample(pi2::sim::from_seconds(1.0), reg);
  ASSERT_TRUE(exporter.ok());
  durable::AtomicFile::Faults faults;
  faults.fail_write_after_bytes = 0;
  durable::AtomicFile::set_faults(faults);
  exporter.on_sample(pi2::sim::from_seconds(2.0), reg);

  EXPECT_FALSE(exporter.ok()) << "a failed row write must not be silent";
  EXPECT_EQ(exporter.status().code(), durable::StatusCode::kIoError);
  EXPECT_NE(exporter.status().message().find(path), std::string::npos);
  EXPECT_FALSE(exporter.finish(reg)) << "finish must refuse a damaged stream";
  // Half a metric stream is worse than none: no destination file.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(FileExporterFaultTest, FailedCommitLeavesNoTornSnapshot) {
  MetricsRegistry reg;
  reg.counter("tx").inc(3);
  const std::string path = temp_path("pi2_test_commitfail.prom");
  std::remove(path.c_str());
  PrometheusExporter exporter{path};
  ASSERT_TRUE(exporter.ok());
  durable::AtomicFile::Faults faults;
  faults.fail_commit = true;
  durable::AtomicFile::set_faults(faults);
  EXPECT_FALSE(exporter.finish(reg));
  EXPECT_EQ(exporter.status().code(), durable::StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ExportersAreDeterministic, SameRegistrySameBytes) {
  const std::string path_a = temp_path("pi2_test_det_a.jsonl");
  const std::string path_b = temp_path("pi2_test_det_b.jsonl");
  for (const std::string& path : {path_a, path_b}) {
    MetricsRegistry reg;
    reg.gauge("queue.delay_ms").set(17.25);
    reg.counter("link.tx_bytes").inc(123456789);
    reg.histogram("link.sojourn_ms").record(0.125);
    JsonlExporter exporter{path};
    exporter.on_sample(pi2::sim::from_seconds(2.5), reg);
    ASSERT_TRUE(exporter.finish(reg));
  }
  const std::string a = slurp(path_a);
  EXPECT_EQ(a, slurp(path_b));
  EXPECT_FALSE(a.empty());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace pi2::telemetry
