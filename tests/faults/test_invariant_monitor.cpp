#include "faults/invariant_monitor.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "net/bottleneck_link.hpp"
#include "net/queue_discipline.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"

namespace pi2::faults {
namespace {

using pi2::sim::from_millis;
using pi2::sim::from_seconds;
using pi2::sim::Simulator;
using pi2::sim::Time;

/// Test-only discipline whose introspection values the test scripts —
/// deliberately returning NaN or counting fake guard trips so the monitor's
/// detection paths can be exercised without corrupting a real controller.
class ScriptedAqm final : public net::QueueDiscipline {
 public:
  double classic_prob = 0.05;
  double scalable_prob = 0.05;
  std::uint64_t guards = 0;

  Verdict enqueue(const net::Packet&) override { return Verdict::kAccept; }
  [[nodiscard]] double classic_probability() const override {
    return classic_prob;
  }
  [[nodiscard]] double scalable_probability() const override {
    return scalable_prob;
  }
  [[nodiscard]] std::uint64_t guard_events() const override { return guards; }
};

struct Fixture {
  Simulator sim{1};
  ScriptedAqm* aqm;
  net::BottleneckLink link;

  Fixture()
      : link{sim, net::BottleneckLink::Config{}, [this] {
               auto owned = std::make_unique<ScriptedAqm>();
               aqm = owned.get();
               return owned;
             }()} {}
};

TEST(InvariantMonitor, HealthyLinkPassesEveryCheck) {
  Fixture f;
  for (int i = 0; i < 20; ++i) f.link.send(testing::make_data_packet());
  f.sim.run();
  InvariantMonitor monitor{f.sim, f.link};
  monitor.check_now();
  EXPECT_TRUE(monitor.ok()) << monitor.report();
  EXPECT_EQ(monitor.checks_run(), 1u);
  EXPECT_EQ(monitor.report(), "");
}

TEST(InvariantMonitor, CatchesNaNProbability) {
  // The deliberately-injected NaN of the ISSUE's acceptance test: a broken
  // controller must be caught by the monitor, not surface as a subtly wrong
  // table entry hours later.
  Fixture f;
  f.aqm->classic_prob = std::numeric_limits<double>::quiet_NaN();
  InvariantMonitor monitor{f.sim, f.link};
  monitor.check_now();
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].check, "prob-classic");
  EXPECT_NE(monitor.violations()[0].detail.find("nan"), std::string::npos);
}

TEST(InvariantMonitor, CatchesOutOfRangeProbability) {
  Fixture f;
  f.aqm->scalable_prob = 1.5;
  InvariantMonitor monitor{f.sim, f.link};
  monitor.check_now();
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].check, "prob-scalable");
  EXPECT_NE(monitor.violations()[0].detail.find("outside [0, 1]"),
            std::string::npos);
}

TEST(InvariantMonitor, CatchesControllerGuardTrips) {
  Fixture f;
  InvariantMonitor monitor{f.sim, f.link};
  monitor.check_now();
  EXPECT_TRUE(monitor.ok());
  f.aqm->guards = 3;
  monitor.check_now();
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].check, "controller-guard");
  // The delta is only reported once; a quiet follow-up check stays clean.
  const auto before = monitor.total_violations();
  monitor.check_now();
  EXPECT_EQ(monitor.total_violations(), before);
}

TEST(InvariantMonitor, CatchesEventsClampedToThePast) {
  Fixture f;
  f.sim.at(Time{1000}, [] {});
  f.sim.run();
  InvariantMonitor monitor{f.sim, f.link};
  monitor.check_now();
  EXPECT_TRUE(monitor.ok());
  f.sim.at(Time{10}, [] {});  // now = 1000: clamped
  monitor.check_now();
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].check, "clamped-events");
}

TEST(InvariantMonitor, PacketConservationHoldsMidRun) {
  Fixture f;
  for (int i = 0; i < 50; ++i) f.link.send(testing::make_data_packet());
  InvariantMonitor monitor{f.sim, f.link};
  // Check with packets queued and one serializing, not just at quiescence.
  monitor.check_now();
  f.sim.run_until(f.sim.now() + from_millis(1));
  monitor.check_now();
  f.sim.run();
  monitor.check_now();
  EXPECT_TRUE(monitor.ok()) << monitor.report();
}

TEST(InvariantMonitor, StartSamplesPeriodically) {
  Fixture f;
  InvariantMonitor::Config cfg;
  cfg.interval = from_millis(100);
  InvariantMonitor monitor{f.sim, f.link, cfg};
  monitor.start();
  f.sim.run_until(from_seconds(1.05));
  EXPECT_EQ(monitor.checks_run(), 10u);
}

TEST(InvariantMonitor, ReportCapsStoredViolationsButCountsAll) {
  Fixture f;
  f.aqm->classic_prob = std::numeric_limits<double>::quiet_NaN();
  InvariantMonitor monitor{f.sim, f.link};
  constexpr std::size_t kChecks = InvariantMonitor::kMaxReports + 3;
  for (std::size_t i = 0; i < kChecks; ++i) monitor.check_now();
  EXPECT_EQ(monitor.violations().size(), InvariantMonitor::kMaxReports);
  EXPECT_EQ(monitor.total_violations(), kChecks);
  const std::string report = monitor.report();
  EXPECT_NE(report.find(std::to_string(kChecks) + " total"), std::string::npos)
      << report;
  EXPECT_NE(report.find("prob-classic"), std::string::npos) << report;
}

}  // namespace
}  // namespace pi2::faults
