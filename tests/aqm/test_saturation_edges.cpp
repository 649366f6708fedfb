// Saturation edge cases: disciplines pushed to p' -> 1 must clamp and keep
// signalling sanely, and PI-family controllers on a queue that never fills
// must stay silently at zero without tripping their guards.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "aqm/curvy_red.hpp"
#include "aqm/pie.hpp"
#include "aqm/step_marker.hpp"
#include "core/pi2.hpp"
#include "test_support.hpp"

namespace pi2::aqm {
namespace {

using pi2::net::Ecn;
using pi2::net::QueueDiscipline;
using pi2::sim::from_seconds;
using pi2::sim::Simulator;
using pi2::testing::FakeQueueView;
using pi2::testing::make_data_packet;
using pi2::testing::signal_fraction;

// --- Step marker at saturation ----------------------------------------------

TEST(SaturationEdges, StepMarkerSaturatesToMarkingEveryEctPacket) {
  Simulator sim{1};
  FakeQueueView view;
  StepMarkerAqm step;
  step.install(sim, view);
  view.set_delay_seconds(10.0);  // 10000x the 1 ms threshold
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(step.enqueue(make_data_packet(Ecn::kEct1)),
              QueueDiscipline::Verdict::kMark);
  }
  EXPECT_EQ(step.marks(), 1000);
  // Mark-only default: Not-ECT sails through even at extreme backlog.
  EXPECT_EQ(step.enqueue(make_data_packet(Ecn::kNotEct)),
            QueueDiscipline::Verdict::kAccept);
}

TEST(SaturationEdges, StepDropperDropsEveryNotEctPacketAtSaturation) {
  Simulator sim{1};
  FakeQueueView view;
  StepMarkerAqm::Params params;
  params.drop_not_ect = true;
  StepMarkerAqm step{params};
  step.install(sim, view);
  view.set_delay_seconds(10.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(step.enqueue(make_data_packet(Ecn::kNotEct)),
              QueueDiscipline::Verdict::kDrop);
  }
}

// --- Curvy RED at saturation -------------------------------------------------

TEST(SaturationEdges, CurvyRedClampsScalableProbabilityAtOne) {
  CurvyRedAqm::Params params;
  params.weight = 1.0;
  CurvyRedAqm aqm{params};
  Simulator sim{1};
  FakeQueueView view;
  aqm.install(sim, view);
  view.set_delay_seconds(5.0);  // delay far beyond the full ramp
  (void)aqm.enqueue(make_data_packet());
  EXPECT_DOUBLE_EQ(aqm.scalable_probability(), 1.0);
  // The coupling survives the clamp: p_c = (1/k)^2, not 1.
  const double k = params.k;
  EXPECT_DOUBLE_EQ(aqm.classic_probability(), (1.0 / k) * (1.0 / k));
}

TEST(SaturationEdges, CurvyRedAtFullRampMarksAllScalableButOnlyCoupledClassic) {
  CurvyRedAqm::Params params;
  params.weight = 1.0;
  CurvyRedAqm aqm{params};
  Simulator sim{1};
  FakeQueueView view;
  aqm.install(sim, view);
  view.set_delay_seconds(5.0);
  (void)aqm.enqueue(make_data_packet());
  // Scalable: every ECT(1) packet marked at p_s = 1.
  EXPECT_DOUBLE_EQ(signal_fraction(aqm, Ecn::kEct1, 2000), 1.0);
  // Classic: the squared-coupled 25%, NOT a 100% drop storm.
  const double f_classic = signal_fraction(aqm, Ecn::kNotEct, 40000);
  EXPECT_NEAR(f_classic, 0.25, 0.02);
}

// --- PI-family controllers on an always-empty queue --------------------------

template <typename Aqm>
void expect_silent_on_empty_queue(Aqm& aqm, pi2::sim::Duration t_update) {
  Simulator sim{1};
  FakeQueueView view;
  aqm.install(sim, view);
  view.set_delay_seconds(0.0);
  // Many update intervals with an empty queue: the integrator must pin the
  // probability at its lower clamp without a single guard event.
  sim.run_until(sim.now() + t_update * 200);
  EXPECT_DOUBLE_EQ(aqm.classic_probability(), 0.0);
  EXPECT_EQ(aqm.guard_events(), 0u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(aqm.enqueue(make_data_packet(Ecn::kEct0)),
              QueueDiscipline::Verdict::kAccept);
    EXPECT_EQ(aqm.enqueue(make_data_packet(Ecn::kNotEct)),
              QueueDiscipline::Verdict::kAccept);
  }
  EXPECT_DOUBLE_EQ(aqm.classic_probability(), 0.0);
  EXPECT_EQ(aqm.guard_events(), 0u);
}

TEST(SaturationEdges, PiStaysSilentOnEmptyQueue) {
  core::Pi2Aqm aqm{core::Pi2Aqm::pi_params()};
  expect_silent_on_empty_queue(aqm, aqm.params().t_update);
}

TEST(SaturationEdges, PieStaysSilentOnEmptyQueue) {
  PieAqm aqm;
  expect_silent_on_empty_queue(aqm, aqm.params().t_update);
}

TEST(SaturationEdges, Pi2StaysSilentOnEmptyQueue) {
  core::Pi2Aqm aqm;
  expect_silent_on_empty_queue(aqm, aqm.params().t_update);
}

TEST(SaturationEdges, CoupledPi2StaysSilentOnEmptyQueue) {
  core::Pi2Aqm aqm{core::Pi2Aqm::coupled_params()};
  expect_silent_on_empty_queue(aqm, aqm.params().t_update);
  EXPECT_DOUBLE_EQ(aqm.scalable_probability(), 0.0);
}

// --- PI2 overload caps -------------------------------------------------------

TEST(SaturationEdges, Pi2CapsClassicProbabilityUnderOverload) {
  core::Pi2Aqm aqm;
  Simulator sim{1};
  FakeQueueView view;
  aqm.install(sim, view);
  view.set_delay_seconds(2.0);  // hopeless overload, 100x the target
  sim.run_until(sim.now() + aqm.params().t_update * 500);
  // p' saturates at sqrt(max_classic_prob): the applied probability must sit
  // exactly at the overload cap, never above it.
  EXPECT_DOUBLE_EQ(aqm.classic_probability(), aqm.params().max_classic_prob);
  EXPECT_EQ(aqm.guard_events(), 0u);
}

TEST(SaturationEdges, CoupledPi2CapsScalableAtKTimesRootOfClassicCap) {
  core::Pi2Aqm aqm{core::Pi2Aqm::coupled_params()};
  Simulator sim{1};
  FakeQueueView view;
  aqm.install(sim, view);
  view.set_delay_seconds(2.0);
  sim.run_until(sim.now() + aqm.params().t_update * 500);
  const double cap =
      aqm.params().k * std::sqrt(aqm.params().max_classic_prob);
  EXPECT_DOUBLE_EQ(aqm.scalable_probability(), cap);
  EXPECT_DOUBLE_EQ(aqm.classic_probability(), aqm.params().max_classic_prob);
  EXPECT_EQ(aqm.guard_events(), 0u);
}

}  // namespace
}  // namespace pi2::aqm
