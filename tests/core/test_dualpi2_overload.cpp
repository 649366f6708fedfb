// DualPI2 overload-protection edges (RFC 9332 §4.2.3), mirroring the
// single-queue saturation-edge suite in tests/aqm/test_saturation_edges.cpp:
// the p' cap under hopeless overload, the l_drop mark→drop switchover and
// its hysteresis, silence when the L queue is empty, and the t_shift
// scheduler's bounded Classic wait under a persistent L flood.
#include "core/dualpi2.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/bottleneck_link.hpp"
#include "sim/simulator.hpp"

namespace pi2::core {
namespace {

using pi2::net::Ecn;
using pi2::net::Packet;
using pi2::sim::from_millis;
using pi2::sim::from_seconds;
using pi2::sim::Simulator;
using pi2::sim::to_millis;

Packet packet_with(Ecn ecn) {
  Packet p;
  p.ecn = ecn;
  return p;
}

TEST(DualPi2Overload, PPrimeClampsAtSqrtOfClassicCap) {
  // A 2 s Classic delay against a 20 ms target is hopeless overload: the PI
  // integrator must saturate at sqrt(max_classic_prob) — so the applied
  // Classic probability caps at the paper's 25% — without tripping a guard.
  DualPi2Core core{DualPi2Params{}};
  for (int i = 0; i < 300; ++i) core.update(2.0);
  EXPECT_DOUBLE_EQ(core.p_prime(), 0.5);  // sqrt(0.25)
  EXPECT_DOUBLE_EQ(core.p_classic(), 0.25);
  EXPECT_DOUBLE_EQ(core.p_coupled(), 1.0);  // min(k * p', 1) = min(1, 1)
  EXPECT_TRUE(core.overloaded());  // default l_drop 100: engaged exactly here
  EXPECT_EQ(core.guard_events(), 0u);
}

TEST(DualPi2Overload, PPrimeReachesOneWhenCapLifted) {
  // The overload campaign lifts max_classic_prob to 1 so drops can shed an
  // unresponsive flood; p' must then saturate at exactly 1.
  DualPi2Params params;
  params.max_classic_prob = 1.0;
  DualPi2Core core{params};
  for (int i = 0; i < 300; ++i) core.update(2.0);
  EXPECT_DOUBLE_EQ(core.p_prime(), 1.0);
  EXPECT_DOUBLE_EQ(core.p_classic(), 1.0);
  EXPECT_EQ(core.guard_events(), 0u);
}

TEST(DualPi2Overload, SwitchoverHasHysteresis) {
  // Exact-arithmetic controller (beta 0, alpha 5 Hz, target 20 ms): each
  // update moves p' by 5 * (delay - 0.02). l_drop 40 engages at coupled
  // k*p' >= 0.4 and re-arms only below 0.2; every step below keeps >= 0.1
  // margin from both boundaries so float noise cannot flip a comparison.
  DualPi2Params params;
  params.alpha_hz = 5.0;
  params.beta_hz = 0.0;
  params.max_classic_prob = 1.0;
  params.l_drop_percent = 40.0;
  DualPi2Core core{params};

  core.update(0.05);  // p' = 0.15, coupled 0.3: below engage
  EXPECT_FALSE(core.overloaded());
  core.update(0.04);  // p' = 0.25, coupled 0.5: engages
  EXPECT_TRUE(core.overloaded());
  core.update(0.0);  // p' = 0.15, coupled 0.3: below engage, above re-arm
  EXPECT_TRUE(core.overloaded()) << "must not chatter just below the threshold";
  core.update(0.0);  // p' = 0.05, coupled 0.1: below re-arm (half of engage)
  EXPECT_FALSE(core.overloaded());
  core.update(0.04);  // p' = 0.15, coupled 0.3: mid-band does not re-engage
  EXPECT_FALSE(core.overloaded());
  core.update(0.04);  // p' = 0.25, coupled 0.5: engages again
  EXPECT_TRUE(core.overloaded());
  EXPECT_EQ(core.guard_events(), 0u);
}

TEST(DualPi2Overload, LDropZeroForcesDropMode) {
  // sch_pi2 semantics: l_drop 0 disables ECN entirely — the queue is in
  // drop mode from the first update, even with no congestion.
  DualPi2Params params;
  params.l_drop_percent = 0.0;
  DualPi2Core core{params};
  core.update(0.0);
  EXPECT_TRUE(core.overloaded());
}

TEST(DualPi2Overload, OverloadTurnsMarksIntoDrops) {
  // Saturate p' at 1 (cap lifted) with l_drop at 50: both roll comparisons
  // against p' = 1 always succeed, so the signalling is deterministic —
  // ECN-capable Classic packets drop instead of marking, and the L queue
  // drops instead of marking.
  DualPi2Params params;
  params.max_classic_prob = 1.0;
  params.l_drop_percent = 50.0;
  DualPi2Core core{params};
  for (int i = 0; i < 300; ++i) core.update(2.0);
  ASSERT_TRUE(core.overloaded());
  ASSERT_DOUBLE_EQ(core.p_prime(), 1.0);

  Simulator sim{1};
  auto rng = sim.rng().split();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(core.classic_signal(rng, /*ecn_capable=*/true),
              DualPi2Core::Signal::kDrop);
    EXPECT_EQ(core.l_signal(rng, /*sojourn_s=*/0.0, /*l_backlog_packets=*/1),
              DualPi2Core::Signal::kDrop);
  }
  EXPECT_EQ(core.guard_events(), 0u);
}

TEST(DualPi2Overload, EmptyLQueueStaysSilent) {
  // With nothing queued the controller must stay at zero and never signal:
  // no marks, no drops, no guard trips, no overload engagement.
  DualPi2Core core{DualPi2Params{}};
  for (int i = 0; i < 100; ++i) core.update(0.0);
  EXPECT_DOUBLE_EQ(core.p_prime(), 0.0);
  EXPECT_FALSE(core.overloaded());

  Simulator sim{1};
  auto rng = sim.rng().split();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(core.classic_signal(rng, true), DualPi2Core::Signal::kNone);
    EXPECT_EQ(core.l_signal(rng, 0.0, 0), DualPi2Core::Signal::kNone);
  }
  EXPECT_EQ(core.guard_events(), 0u);
}

TEST(DualPi2Overload, LThreshSaturatesNativeRamp) {
  // The packet-count backstop: at l_thresh packets of L backlog the native
  // probability is 1 regardless of sojourn; below it the sojourn ramp rules.
  DualPi2Params params;
  DualPi2Core core{params};
  EXPECT_DOUBLE_EQ(core.l_native(0.0, params.l_thresh_packets), 1.0);
  EXPECT_DOUBLE_EQ(core.l_native(0.0, params.l_thresh_packets - 1), 0.0);
  // l_thresh 0 disables the backstop entirely.
  DualPi2Params no_thresh;
  no_thresh.l_thresh_packets = 0;
  DualPi2Core plain{no_thresh};
  EXPECT_DOUBLE_EQ(plain.l_native(0.0, 1 << 20), 0.0);
  EXPECT_EQ(core.guard_events(), 0u);
  EXPECT_EQ(plain.guard_events(), 0u);
}

TEST(DualPi2Overload, TShiftBoundsClassicWaitUnderLFlood) {
  // A persistent L flood must not starve the C queue: a C head packet waits
  // at most t_shift plus one L service beyond the L head's sojourn. At
  // 1.2 Mb/s (10 ms per packet) with the default 30 ms shift, a C packet
  // queued behind a continuous L feed departs around t = 50 ms.
  Simulator sim{1};
  const DualPi2Params params;
  net::BottleneckLink::Config config;
  config.rate_bps = 1.2e6;
  net::BottleneckLink link{sim, config, std::make_unique<DualPi2Qdisc>(params)};
  std::vector<double> c_departures_ms;
  int l_departures = 0;
  link.add_departure_probe([&](const Packet& p, pi2::sim::Duration) {
    if (net::is_scalable(p.ecn)) {
      ++l_departures;
    } else {
      c_departures_ms.push_back(to_millis(sim.now()));
    }
  });
  link.send(packet_with(Ecn::kEct1));   // transmission starts immediately
  link.send(packet_with(Ecn::kNotEct));  // the C packet under test
  // Feed L slightly faster than the service rate so its queue never empties.
  std::function<void()> feed = [&] {
    link.send(packet_with(Ecn::kEct1));
    if (sim.now() < from_millis(200)) sim.after(from_millis(9), feed);
  };
  sim.after(from_millis(9), feed);
  sim.run_until(from_millis(250));

  ASSERT_EQ(c_departures_ms.size(), 1u);
  // Served no earlier than its t_shift handicap, no later than the bound
  // (t_shift + in-flight L packet + a fresh L head + its own transmission).
  EXPECT_GE(c_departures_ms[0], to_millis(params.t_shift));
  EXPECT_LE(c_departures_ms[0], to_millis(params.t_shift) + 3 * 10.0);
  EXPECT_GT(l_departures, 10);  // the flood kept flowing around it
  EXPECT_EQ(link.qdisc().guard_events(), 0u);
}

}  // namespace
}  // namespace pi2::core
