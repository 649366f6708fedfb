// Deterministic scheduler counts on one fig15 quick-grid point: the packet
// path must not churn the event heap. Delay pipes keep one pending event
// per pipe and the RTO timer re-arms lazily, so nearly every heap push
// becomes an executed event and almost nothing is cancelled.
#include <gtest/gtest.h>

#include "scenario/dumbbell.hpp"
#include "telemetry/metrics.hpp"

namespace pi2::scenario {
namespace {

TEST(SchedulerCounts, Fig15QuickPointIsChurnFree) {
  // fig15's coupled-pi2 × cubic/dctcp point at 40 Mb/s, 20 ms, in quick
  // mode (40 s run, stats from 15 s), seed 1.
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
  telemetry::MetricsRegistry registry;
  cfg.registry = &registry;

  const RunResult result = run_dumbbell(cfg);
  const double executed = registry.gauge("sim.events_executed").value();
  const double scheduled = registry.gauge("sim.sched_scheduled").value();
  const double cancelled = registry.gauge("sim.sched_cancelled").value();
  ASSERT_EQ(executed, static_cast<double>(result.events_executed));
  ASSERT_GT(executed, 1e5);
  EXPECT_LE(scheduled / executed, 1.01);
  EXPECT_LE(cancelled / executed, 0.001);
  EXPECT_EQ(registry.gauge("sim.sched_compactions").value(), 0.0);
}

}  // namespace
}  // namespace pi2::scenario
