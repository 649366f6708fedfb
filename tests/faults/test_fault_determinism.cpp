// Determinism of fault injection: a FaultSchedule draws its randomness from
// a dedicated stream derived from the run seed, so the same schedule + seed
// must produce byte-identical runs regardless of how many worker threads
// the sweep fans out over (--jobs invariance), and the impairments must
// actually land (non-zero injector counters) without tripping a single
// invariant.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runner/parallel_runner.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/rng.hpp"

namespace pi2::faults {
namespace {

using pi2::sim::from_millis;
using pi2::sim::from_seconds;

scenario::DumbbellConfig faulted_config(std::uint64_t seed) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = 10e6;
  cfg.duration = from_seconds(8);
  cfg.stats_start = from_seconds(2);
  cfg.seed = seed;
  cfg.aqm.type = scenario::AqmType::kCoupledPi2;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = from_millis(30);
  scenario::TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.base_rtt = from_millis(30);
  cfg.tcp_flows = {cubic, dctcp};
  // One event of every kind, overlapping windows included.
  cfg.faults.rate_step(from_seconds(3), 4e6)
      .rate_flap(from_seconds(4), from_seconds(6), 2e6, 10e6, from_millis(500))
      .rtt_step(from_seconds(5), from_millis(60))
      .burst_loss(from_seconds(2), 10)
      .random_loss(from_seconds(2.5), from_seconds(3.5), 0.02)
      .ecn_bleach(from_seconds(4), from_seconds(6), 0.3)
      .reorder(from_seconds(6), from_seconds(7), 0.05, from_millis(2));
  return cfg;
}

/// Everything observable about a run, compared bitwise (exact double
/// equality on purpose).
struct RunDigest {
  std::uint64_t events_executed;
  std::uint64_t clamped_events;
  std::uint64_t violations;
  std::int64_t enqueued, forwarded, aqm_dropped, tail_dropped, marked;
  std::int64_t fault_dropped, dequeue_dropped;
  std::int64_t injected_drops, bleached, reordered, rate_changes, rtt_changes;
  std::vector<double> qdelay_series;
  std::vector<double> flow_goodputs;

  bool operator==(const RunDigest&) const = default;
};

RunDigest digest(const scenario::RunResult& r) {
  RunDigest d{};
  d.events_executed = r.events_executed;
  d.clamped_events = r.clamped_events;
  d.violations = r.violations.size();
  d.enqueued = r.counters.enqueued;
  d.forwarded = r.counters.forwarded;
  d.aqm_dropped = r.counters.aqm_dropped;
  d.tail_dropped = r.counters.tail_dropped;
  d.marked = r.counters.marked;
  d.fault_dropped = r.counters.fault_dropped;
  d.dequeue_dropped = r.counters.dequeue_dropped;
  d.injected_drops = r.fault_counters.dropped;
  d.bleached = r.fault_counters.bleached;
  d.reordered = r.fault_counters.reordered;
  d.rate_changes = r.fault_counters.rate_changes;
  d.rtt_changes = r.fault_counters.rtt_changes;
  for (const auto& p : r.qdelay_ms_series.points()) {
    d.qdelay_series.push_back(p.value);
  }
  for (const auto& f : r.flows) d.flow_goodputs.push_back(f.goodput_mbps);
  return d;
}

std::vector<RunDigest> run_points(unsigned jobs, std::size_t count) {
  std::vector<RunDigest> digests(count);
  runner::ParallelRunner pool{jobs};
  const runner::RunReport report =
      pool.run_ordered_guarded<scenario::RunResult>(
          count,
          [](std::size_t i) {
            return run_dumbbell(faulted_config(sim::Rng::derive_seed(7, i)));
          },
          [&](std::size_t i, runner::TaskStatus, scenario::RunResult* r) {
            if (r != nullptr) digests[i] = digest(*r);
          });
  EXPECT_TRUE(report.all_ok());
  return digests;
}

TEST(FaultDeterminism, Jobs1VersusJobs8ByteIdentical) {
  const auto serial = run_points(1, 6);
  const auto parallel = run_points(8, 6);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "faulted point " << i << " diverged";
  }
}

TEST(FaultDeterminism, SameScheduleAndSeedRepeatsExactly) {
  const auto a = digest(run_dumbbell(faulted_config(42)));
  const auto b = digest(run_dumbbell(faulted_config(42)));
  EXPECT_EQ(a, b);
}

TEST(FaultDeterminism, DifferentSeedsDrawDifferentImpairments) {
  const auto a = digest(run_dumbbell(faulted_config(1)));
  const auto b = digest(run_dumbbell(faulted_config(2)));
  EXPECT_NE(a.qdelay_series, b.qdelay_series);
}

TEST(FaultDeterminism, EveryImpairmentKindActuallyLands) {
  const auto r = run_dumbbell(faulted_config(3));
  const auto& f = r.fault_counters;
  EXPECT_GE(f.dropped, 10);  // at least the burst
  EXPECT_GT(f.bleached, 0);
  EXPECT_GT(f.reordered, 0);
  // rate_step + flap toggles over a 2 s window at 500 ms, + final restore.
  EXPECT_GE(f.rate_changes, 4);
  EXPECT_EQ(f.rtt_changes, 1);
  EXPECT_EQ(r.counters.fault_dropped, f.dropped);
}

TEST(FaultDeterminism, FaultedRunStaysInvariantClean) {
  const auto r = run_dumbbell(faulted_config(5));
  EXPECT_EQ(r.clamped_events, 0u);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_GT(r.invariant_checks, 0u);
  EXPECT_EQ(r.guard_events, 0u);
}

}  // namespace
}  // namespace pi2::faults
