// Deterministic scheduler counts on one fig15 quick-grid point: every event
// is a firing of a persistent source of a known kind, so the count per kind
// is exact. Delay pipes fire once per delivery batch, the RTO timer re-arms
// lazily (its early wakes are the only extra events), and one-shot closures
// are limited to the run's set-up (flow starts, the stats-window snapshot).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "scenario/dumbbell.hpp"
#include "telemetry/recorder.hpp"

namespace pi2::scenario {
namespace {

TEST(SchedulerCounts, Fig15QuickPointIsChurnFree) {
  // fig15's coupled-pi2 × cubic/dctcp point at 40 Mb/s, 20 ms, in quick
  // mode (40 s run, stats from 15 s), seed 1, with the telemetry recorder.
  DumbbellConfig cfg;
  cfg.link_rate_bps = 40e6;
  cfg.duration = pi2::sim::from_seconds(40.0);
  cfg.stats_start = pi2::sim::from_seconds(15.0);
  cfg.seed = 1;
  cfg.aqm.type = AqmType::kCoupledPi2;
  cfg.aqm.ecn_drop_threshold = 1.0;
  TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = pi2::sim::from_millis(20);
  TcpFlowSpec dctcp = cubic;
  dctcp.cc = tcp::CcType::kDctcp;
  cfg.tcp_flows = {cubic, dctcp};
  telemetry::RecorderConfig rc;
  rc.dir = ::testing::TempDir() + "scheduler_counts";
  rc.run_id = "fig15_quick_point";
  telemetry::Recorder recorder{rc};
  cfg.recorder = &recorder;

  const RunResult result = run_dumbbell(cfg);
  // The per-kind counts the manifest records once, at the end of the run.
  // Closures: two flow starts and the stats-window snapshot. Samplers: the
  // engine's link sampler and the recorder's, 400 ticks each over 40 s.
  const std::map<std::string, std::uint64_t> expected = {
      {"sim.events.link_tx", 133247}, {"sim.events.pipe", 266394},
      {"sim.events.rto", 411},        {"sim.events.delayed_ack", 0},
      {"sim.events.aqm_tick", 1250},  {"sim.events.fluid_tick", 0},
      {"sim.events.sampler", 800},    {"sim.events.udp", 0},
      {"sim.events.monitor", 400},    {"sim.events.closure", 3},
  };
  const auto& metrics = recorder.manifest().final_metrics;
  std::uint64_t sum = 0;
  for (const auto& [key, count] : expected) {
    ASSERT_EQ(metrics.count(key), 1u) << key;
    EXPECT_EQ(metrics.at(key), static_cast<double>(count)) << key;
    sum += static_cast<std::uint64_t>(metrics.at(key));
  }
  EXPECT_EQ(sum, result.events_executed);
  // The same point's total before events had kinds (one heap entry per
  // event, scheduled through callbacks): the count is unchanged.
  EXPECT_EQ(result.events_executed, 402505u);
  EXPECT_EQ(result.clamped_events, 0u);
}

}  // namespace
}  // namespace pi2::scenario
