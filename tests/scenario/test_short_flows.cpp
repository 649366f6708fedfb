#include "scenario/short_flows.hpp"

#include <gtest/gtest.h>

#include "topology/dumbbell_adapter.hpp"

namespace pi2::scenario {
namespace {

using pi2::sim::from_millis;
using pi2::sim::from_seconds;

/// The web workload on a 10 Mb/s, 50 ms Cubic dumbbell with `background`
/// bulk flows sharing the bottleneck.
struct WebRun {
  AqmType aqm = AqmType::kPi2;
  double offered_load = 0.4;
  int background = 0;
};

FctSummary run_web(const WebRun& run) {
  DumbbellConfig cfg;
  cfg.link_rate_bps = 10e6;
  cfg.aqm.type = run.aqm;
  cfg.aqm.ecn = false;
  cfg.duration = from_seconds(30.0);
  cfg.stats_start = from_seconds(5.0);
  TcpFlowSpec flow;
  flow.cc = tcp::CcType::kCubic;
  flow.base_rtt = from_millis(50);
  if (run.background > 0) {
    cfg.tcp_flows.push_back(flow);
    cfg.tcp_flows.back().count = run.background;
  }
  for (const TcpFlowSpec& web : web_flows(flow, run.offered_load,
                                          cfg.link_rate_bps, cfg.duration,
                                          cfg.seed)) {
    cfg.tcp_flows.push_back(web);
  }
  const topology::TopologyConfig topo = topology::from_dumbbell(cfg);
  return summarize_fct(topo, topology::run_topology(topo));
}

TEST(BoundedParetoMean, MatchesClosedForm) {
  // For shape 1.2, lo 3, hi 700 the mean is computable; cross-check against
  // a large sample.
  const double analytic = bounded_pareto_mean(1.2, 3.0, 700.0);
  pi2::sim::Rng rng{42};
  double sum = 0.0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) sum += rng.bounded_pareto(1.2, 3.0, 700.0);
  EXPECT_NEAR(sum / kN, analytic, analytic * 0.03);
}

TEST(ShortFlows, FlowsCompleteUnderPi2) {
  const auto r = run_web({});
  EXPECT_GT(r.flows_started, 50);
  // Nearly everything started early enough should have completed.
  EXPECT_GT(static_cast<double>(r.flows_completed) /
                static_cast<double>(r.flows_started),
            0.8);
  EXPECT_GT(r.fct_ms.count(), 0);
}

TEST(ShortFlows, ShortFlowsFinishFasterThanLong) {
  const auto r = run_web({});
  if (r.fct_short_ms.count() > 5 && r.fct_long_ms.count() > 5) {
    EXPECT_LT(r.fct_short_ms.median(), r.fct_long_ms.median());
  }
}

TEST(ShortFlows, MinimumFctIsBoundedByRtt) {
  // Nothing completes faster than ~2 RTTs (handshake-free model: one full
  // window exchange minimum).
  const auto r = run_web({});
  ASSERT_GT(r.fct_ms.count(), 0);
  EXPECT_GE(r.fct_ms.quantile(0.0), 50.0);  // >= 1 base RTT
}

TEST(ShortFlows, DeterministicPerSeed) {
  const auto a = run_web({});
  const auto b = run_web({});
  EXPECT_EQ(a.flows_started, b.flows_started);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_DOUBLE_EQ(a.fct_ms.mean(), b.fct_ms.mean());
}

TEST(ShortFlows, FctComparableAcrossPieBarePieAndPi2) {
  // The paper's §6 claim: short flow completion times under PIE, bare-PIE
  // and PI2 are essentially the same.
  const auto pie = run_web({AqmType::kPie});
  const auto bare = run_web({AqmType::kBarePie});
  const auto pi2r = run_web({AqmType::kPi2});
  ASSERT_GT(pie.fct_short_ms.count(), 10);
  ASSERT_GT(bare.fct_short_ms.count(), 10);
  ASSERT_GT(pi2r.fct_short_ms.count(), 10);
  const double m_pie = pie.fct_short_ms.median();
  const double m_bare = bare.fct_short_ms.median();
  const double m_pi2 = pi2r.fct_short_ms.median();
  EXPECT_NEAR(m_pi2 / m_pie, 1.0, 0.35);
  EXPECT_NEAR(m_bare / m_pie, 1.0, 0.35);
}

TEST(ShortFlows, BackgroundFlowsRaiseShortFlowDelay) {
  const auto light = run_web({});
  const auto heavy = run_web({AqmType::kPi2, 0.4, /*background=*/4});
  ASSERT_GT(light.fct_short_ms.count(), 10);
  ASSERT_GT(heavy.fct_short_ms.count(), 10);
  EXPECT_GT(heavy.fct_short_ms.median(), light.fct_short_ms.median());
}

TEST(ShortFlows, HigherLoadRaisesFct) {
  const auto light = run_web({AqmType::kPi2, 0.2});
  const auto heavy = run_web({AqmType::kPi2, 0.8});
  ASSERT_GT(light.fct_ms.count(), 10);
  ASSERT_GT(heavy.fct_ms.count(), 10);
  EXPECT_GE(heavy.fct_ms.quantile(0.9), light.fct_ms.quantile(0.9) * 0.9);
}

}  // namespace
}  // namespace pi2::scenario
