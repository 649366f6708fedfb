// FluidFlowEnsemble: the live-coupled Appendix B window ODEs. The step-input
// tests drive the ensemble with constant probability sources and require the
// window to converge to the closed-form fixed point — W = sqrt(2/p) for the
// Classic law (15), W = 2/p' for the Scalable law (22).
#include "control/fluid_flow.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "sim/simulator.hpp"

namespace pi2::control {
namespace {

using pi2::sim::Simulator;
using pi2::sim::from_seconds;

FluidFlowEnsemble::Sources constant_sources(double p_classic,
                                            double p_scalable,
                                            double qdelay_s = 0.0) {
  FluidFlowEnsemble::Sources s;
  s.classic_probability = [p_classic] { return p_classic; };
  s.scalable_probability = [p_scalable] { return p_scalable; };
  s.queue_delay_s = [qdelay_s] { return qdelay_s; };
  return s;
}

TEST(FluidFlowEnsemble, FixedPointWindowClosedForms) {
  EXPECT_DOUBLE_EQ(
      FluidFlowEnsemble::fixed_point_window(FluidSignal::kClassic, 0.02),
      std::sqrt(2.0 / 0.02));
  EXPECT_DOUBLE_EQ(
      FluidFlowEnsemble::fixed_point_window(FluidSignal::kScalable, 0.1),
      2.0 / 0.1);
}

TEST(FluidFlowEnsemble, ClassicStepInputConvergesToFixedPoint) {
  Simulator sim;
  FluidFlowEnsemble ensemble{sim, {}};
  FluidFlowSpec spec;
  spec.signal = FluidSignal::kClassic;
  spec.count = 100;
  spec.base_rtt_s = 0.05;
  const std::size_t idx = ensemble.add_spec(spec);

  const double p = 0.02;
  ensemble.set_sources(constant_sources(p, p, 0.0));
  ensemble.start();
  sim.run_until(from_seconds(60.0));

  const double expected =
      FluidFlowEnsemble::fixed_point_window(FluidSignal::kClassic, p);
  EXPECT_NEAR(ensemble.window(idx), expected, 0.05 * expected);
  // Aggregate demand at the fixed point: N·W·mss·8/R.
  const double rate = spec.count * expected * spec.mss_bytes * 8.0 /
                      spec.base_rtt_s;
  EXPECT_NEAR(ensemble.aggregate_rate_bps(), rate, 0.05 * rate);
}

TEST(FluidFlowEnsemble, ScalableStepInputConvergesToFixedPoint) {
  Simulator sim;
  FluidFlowEnsemble ensemble{sim, {}};
  FluidFlowSpec spec;
  spec.signal = FluidSignal::kScalable;
  spec.count = 10;
  spec.base_rtt_s = 0.02;
  const std::size_t idx = ensemble.add_spec(spec);

  const double p_mark = 0.08;
  ensemble.set_sources(constant_sources(0.0, p_mark, 0.0));
  ensemble.start();
  sim.run_until(from_seconds(30.0));

  const double expected =
      FluidFlowEnsemble::fixed_point_window(FluidSignal::kScalable, p_mark);
  EXPECT_NEAR(ensemble.window(idx), expected, 0.05 * expected);
}

TEST(FluidFlowEnsemble, WindowReactsOnlyAfterTheFeedbackLag) {
  // The decrease term uses W(t−R)·p(t−R): a probability step needs ~one RTT
  // in the history ring before it can bend the window. Until then the
  // window keeps growing at the additive 1/R rate.
  Simulator sim;
  FluidFlowEnsemble ensemble{sim, {}};
  FluidFlowSpec spec;
  spec.signal = FluidSignal::kClassic;
  spec.count = 1;
  spec.base_rtt_s = 0.2;
  const std::size_t idx = ensemble.add_spec(spec);

  double p = 0.0;
  FluidFlowEnsemble::Sources sources;
  sources.classic_probability = [&p] { return p; };
  sources.scalable_probability = [&p] { return p; };
  sources.queue_delay_s = [] { return 0.0; };
  ensemble.set_sources(std::move(sources));
  ensemble.start();

  sim.run_until(from_seconds(2.0));
  const double w_before = ensemble.window(idx);
  p = 1.0;  // saturating step
  sim.run_until(from_seconds(2.0 + spec.base_rtt_s / 2.0));
  // Half an RTT after the step the lagged probability is still 0.
  EXPECT_GT(ensemble.window(idx), w_before);
  sim.run_until(from_seconds(2.0 + 5.0 * spec.base_rtt_s));
  // Several RTTs later the saturating signal has crushed the window.
  EXPECT_LT(ensemble.window(idx), w_before);
}

TEST(FluidFlowEnsemble, StartStopGateTheAggregate) {
  Simulator sim;
  FluidFlowEnsemble ensemble{sim, {}};
  FluidFlowSpec spec;
  spec.count = 50;
  spec.start_s = 1.0;
  spec.stop_s = 2.0;
  ensemble.add_spec(spec);
  ensemble.set_sources(constant_sources(0.01, 0.01, 0.0));
  ensemble.start();

  sim.run_until(from_seconds(0.5));
  EXPECT_EQ(ensemble.aggregate_rate_bps(), 0.0);
  EXPECT_EQ(ensemble.active_flow_count(), 0.0);
  sim.run_until(from_seconds(1.5));
  EXPECT_GT(ensemble.aggregate_rate_bps(), 0.0);
  EXPECT_EQ(ensemble.active_flow_count(), 50.0);
  sim.run_until(from_seconds(2.5));
  EXPECT_EQ(ensemble.aggregate_rate_bps(), 0.0);
  EXPECT_EQ(ensemble.active_flow_count(), 0.0);
}

TEST(FluidFlowEnsemble, QueueDelayLengthensTheEffectiveRtt) {
  // R(t) = base + qdelay: with a queue standing, the same window yields a
  // lower arrival rate.
  Simulator sim;
  FluidFlowEnsemble no_queue{sim, {}};
  FluidFlowSpec spec;
  spec.count = 10;
  spec.base_rtt_s = 0.05;
  no_queue.add_spec(spec);
  no_queue.set_sources(constant_sources(0.02, 0.02, 0.0));
  no_queue.start();

  Simulator sim2;
  FluidFlowEnsemble queued{sim2, {}};
  queued.add_spec(spec);
  queued.set_sources(constant_sources(0.02, 0.02, 0.05));
  queued.start();

  sim.run_until(from_seconds(30.0));
  sim2.run_until(from_seconds(30.0));
  EXPECT_GT(no_queue.aggregate_rate_bps(), queued.aggregate_rate_bps());
}

TEST(FluidFlowEnsemble, TicksAreIndependentOfFlowCount) {
  // The whole point of the fluid tier: one event per tick, whatever N is.
  for (const double n : {1.0, 1e3, 1e6}) {
    Simulator sim;
    FluidFlowEnsemble ensemble{sim, {}};
    FluidFlowSpec spec;
    spec.count = n;
    ensemble.add_spec(spec);
    ensemble.set_sources(constant_sources(0.01, 0.01, 0.0));
    ensemble.start();
    sim.run_until(from_seconds(1.0));
    EXPECT_NEAR(static_cast<double>(ensemble.ticks()), 1000.0, 2.0)
        << "N=" << n;
    EXPECT_NEAR(static_cast<double>(sim.events_executed()), 1000.0, 2.0)
        << "N=" << n;
  }
}

TEST(FluidFlowEnsemble, StateBytesPerSpecAmortizeOverCount) {
  Simulator sim;
  FluidFlowEnsemble ensemble{sim, {}};
  FluidFlowSpec spec;
  spec.count = 1e5;
  ensemble.add_spec(spec);
  const double per_flow =
      static_cast<double>(ensemble.state_bytes_per_spec()) / spec.count;
  // History rings: 3 doubles × (max_lag/dt + 1) ≈ 48 KB per spec — under a
  // byte per modelled flow at N = 10⁵.
  EXPECT_LT(per_flow, 1.0);
}

TEST(FluidFlowEnsemble, RejectsInvalidSpecsAndConfig) {
  Simulator sim;
  EXPECT_THROW((FluidFlowEnsemble{sim, {.dt_s = 0.0}}), std::invalid_argument);
  EXPECT_THROW((FluidFlowEnsemble{sim, {.dt_s = 2 * FluidFlowEnsemble::kMaxLagS}}),
               std::invalid_argument);

  FluidFlowEnsemble ensemble{sim, {}};
  FluidFlowSpec bad;
  bad.count = -1.0;
  EXPECT_THROW(ensemble.add_spec(bad), std::invalid_argument);
  bad = {};
  bad.base_rtt_s = 0.0;
  EXPECT_THROW(ensemble.add_spec(bad), std::invalid_argument);
  bad = {};
  bad.mss_bytes = 0.0;
  EXPECT_THROW(ensemble.add_spec(bad), std::invalid_argument);
}

}  // namespace
}  // namespace pi2::control
