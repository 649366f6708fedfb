// Serial-vs-parallel equivalence of a campaign sweep, end to end through
// pi2_campaign: the fig15 quick grid (36 points) run with --jobs 1 and
// --jobs 4 must journal identical RunResult streams — same order, bitwise-
// equal statistics — and two parallel executions with the same seed must
// match each other. Results are decoded from the run journals, whose codec
// is bit-exact, so every statistic, series and per-flow goodput is compared
// exactly. Run durations are shortened via --duration-s/--stats-start-s so
// the whole grid stays test-sized; the simulation code paths are exactly
// the figure's.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "durable/journal.hpp"
#include "durable/result_codec.hpp"
#include "scenario/dumbbell.hpp"

namespace {

namespace fs = std::filesystem;
using pi2::scenario::RunResult;

/// Everything observable about one grid point, compared bitwise. Doubles
/// are compared with exact equality on purpose: parallelism must not
/// perturb a single bit of any statistic.
struct PointDigest {
  std::uint64_t key;  ///< config+seed digest the journal files the point under
  double mean_qdelay_ms;
  double p99_qdelay_ms;
  double utilization;
  double signal_rate;
  std::uint64_t events_executed;
  std::uint64_t clamped_events;
  std::int64_t enqueued, forwarded, aqm_dropped, tail_dropped, marked;
  std::vector<double> flow_goodputs;
  std::vector<double> qdelay_series;

  bool operator==(const PointDigest&) const = default;
};

PointDigest digest(std::uint64_t key, const RunResult& r) {
  PointDigest d{};
  d.key = key;
  d.mean_qdelay_ms = r.mean_qdelay_ms;
  d.p99_qdelay_ms = r.p99_qdelay_ms;
  d.utilization = r.utilization;
  d.signal_rate = r.observed_signal_rate();
  d.events_executed = r.events_executed;
  d.clamped_events = r.clamped_events;
  d.enqueued = r.window_counters.enqueued;
  d.forwarded = r.window_counters.forwarded;
  d.aqm_dropped = r.window_counters.aqm_dropped;
  d.tail_dropped = r.window_counters.tail_dropped;
  d.marked = r.window_counters.marked;
  for (const auto& f : r.flows) d.flow_goodputs.push_back(f.goodput_mbps);
  for (const auto& s : r.qdelay_ms_series.points()) {
    d.qdelay_series.push_back(s.value);
  }
  return d;
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One pi2_campaign run of the fig15 quick grid in its own directory. Every
/// run writes the same relative paths (out.json, out.journal, stdout.txt,
/// tele/), so the manifest paths embedded in records and tables compare too.
struct CampaignRun {
  fs::path dir;
  int exit_code = -1;

  [[nodiscard]] std::string bytes(const std::string& name) const {
    return file_bytes(dir / name);
  }

  /// The journaled points in index order, decoded.
  [[nodiscard]] std::vector<PointDigest> digests() const {
    pi2::durable::ShardJournalData data;
    const auto loaded =
        pi2::durable::load_shard_journal((dir / "out.journal").string(), data);
    EXPECT_TRUE(loaded.ok()) << loaded.message();
    std::vector<PointDigest> out;
    for (const auto& [key, payload] : data.points) {
      RunResult result;
      const auto decoded = pi2::durable::decode_result(payload, result);
      EXPECT_TRUE(decoded.ok()) << decoded.message();
      out.push_back(digest(key, result));
    }
    return out;
  }
};

CampaignRun run_campaign(const std::string& name, unsigned jobs,
                         const std::string& extra_args = "") {
  CampaignRun run;
  run.dir = fs::path{::testing::TempDir()} / ("pi2_sweep_eq_" + name);
  fs::remove_all(run.dir);
  fs::create_directories(run.dir);
  const std::string cmd =
      "cd '" + run.dir.string() + "' && '" PI2_CAMPAIGN_BIN "' --spec '"
      PI2_FIG15_SPEC "' --seed 1 --jobs " + std::to_string(jobs) +
      " --duration-s 5 --stats-start-s 2 --json out.json"
      " --journal out.journal " + extra_args + " > stdout.txt";
  const int status = std::system(cmd.c_str());
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

void expect_same_points(const CampaignRun& a, const CampaignRun& b) {
  const auto first = a.digests();
  const auto second = b.digests();
  ASSERT_EQ(first.size(), 36u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "grid point " << i << " diverged";
  }
}

TEST(SweepEquivalence, Fig15QuickGridJobs1VersusJobs4) {
  const CampaignRun serial = run_campaign("j1", 1);
  const CampaignRun parallel = run_campaign("j4", 4);
  ASSERT_EQ(serial.exit_code, 0);
  ASSERT_EQ(parallel.exit_code, 0);
  expect_same_points(serial, parallel);
  EXPECT_EQ(serial.bytes("out.journal"), parallel.bytes("out.journal"));
  EXPECT_EQ(serial.bytes("out.json"), parallel.bytes("out.json"));
  EXPECT_EQ(serial.bytes("stdout.txt"), parallel.bytes("stdout.txt"));
  fs::remove_all(serial.dir);
  fs::remove_all(parallel.dir);
}

TEST(SweepEquivalence, ParallelRunsAreDeterministic) {
  const CampaignRun first = run_campaign("det_a", 4);
  const CampaignRun second = run_campaign("det_b", 4);
  ASSERT_EQ(first.exit_code, 0);
  ASSERT_EQ(second.exit_code, 0);
  expect_same_points(first, second);
  EXPECT_EQ(first.bytes("out.journal"), second.bytes("out.journal"));
  fs::remove_all(first.dir);
  fs::remove_all(second.dir);
}

TEST(SweepEquivalence, NoClampedSchedulesAcrossTheGrid) {
  const CampaignRun run = run_campaign("clamp", 2);
  ASSERT_EQ(run.exit_code, 0);
  const auto points = run.digests();
  ASSERT_EQ(points.size(), 36u);
  for (const auto& d : points) {
    EXPECT_EQ(d.clamped_events, 0u);
  }
  fs::remove_all(run.dir);
}

/// Every artifact file under `dir`, keyed by filename, with its contents.
std::map<std::string, std::string> artifact_bytes(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = file_bytes(entry.path());
  }
  return files;
}

TEST(SweepEquivalence, TelemetryArtifactsAreByteIdenticalAcrossJobs) {
  const std::string tele =
      "--duration-s 2 --stats-start-s 0.5 --telemetry tele";
  const CampaignRun serial = run_campaign("tel_j1", 1, tele);
  const CampaignRun parallel = run_campaign("tel_j2", 2, tele);
  ASSERT_EQ(serial.exit_code, 0);
  ASSERT_EQ(parallel.exit_code, 0);
  const auto first = artifact_bytes(serial.dir / "tele");
  const auto second = artifact_bytes(parallel.dir / "tele");
  // 36 points x (jsonl + prom + manifest) + the grid-wide aggregate.
  ASSERT_EQ(first.size(), 36u * 3u + 1u);
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [name, bytes] : first) {
    ASSERT_TRUE(second.contains(name)) << name;
    EXPECT_EQ(bytes, second.at(name)) << name << " diverged across --jobs";
    EXPECT_FALSE(bytes.empty()) << name;
  }
  // Every --json record points at its point's manifest.
  const std::string json = serial.bytes("out.json");
  std::size_t manifests = 0;
  for (std::size_t at = json.find("\"telemetry_manifest\"");
       at != std::string::npos;
       at = json.find("\"telemetry_manifest\"", at + 1)) {
    ++manifests;
  }
  EXPECT_EQ(manifests, 36u);
  fs::remove_all(serial.dir);
  fs::remove_all(parallel.dir);
}

}  // namespace
