// The one PI-controlled single-queue discipline under each output law:
// plain PI (PiTest), PI2 (Pi2Test) and coupled PI2 (CoupledTest).
#include "core/pi2.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "control/window_laws.hpp"
#include "test_support.hpp"

namespace pi2::core {
namespace {

using pi2::net::Ecn;
using pi2::net::QueueDiscipline;
using pi2::sim::Simulator;
using pi2::testing::FakeQueueView;
using pi2::testing::make_data_packet;
using pi2::testing::signal_fraction;

class PiFamilyTest : public ::testing::Test {
 protected:
  void install(Pi2Aqm::Params params) {
    aqm_ = std::make_unique<Pi2Aqm>(params);
    aqm_->install(sim_, view_);
  }
  void run_updates(double delay_s, int n) {
    view_.set_delay_seconds(delay_s);
    sim_.run_until(sim_.now() + aqm_->params().t_update * n);
  }

  Simulator sim_{1};
  FakeQueueView view_;
  std::unique_ptr<Pi2Aqm> aqm_;
};

// --- Plain PI (Law::kLinear) -------------------------------------------------

class PiTest : public PiFamilyTest {};

TEST_F(PiTest, AppliesProbabilityDirectly) {
  install(Pi2Aqm::pi_params());
  run_updates(0.100, 20);
  const double p = aqm_->classic_probability();
  ASSERT_GT(p, 0.05);
  const double f = signal_fraction(*aqm_, Ecn::kNotEct, 20000);
  EXPECT_NEAR(f, p, 3.0 * std::sqrt(p / 20000) + 0.01);
}

TEST_F(PiTest, ScalableAndClassicProbabilitiesCoincide) {
  install(Pi2Aqm::pi_params());
  run_updates(0.100, 20);
  EXPECT_DOUBLE_EQ(aqm_->classic_probability(), aqm_->scalable_probability());
}

TEST_F(PiTest, MarksEcnCapableTraffic) {
  install(Pi2Aqm::pi_params());
  run_updates(0.200, 50);
  ASSERT_GT(aqm_->classic_probability(), 0.1);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_NE(aqm_->enqueue(make_data_packet(Ecn::kEct1)),
              QueueDiscipline::Verdict::kDrop);
    EXPECT_NE(aqm_->enqueue(make_data_packet(Ecn::kEct0)),
              QueueDiscipline::Verdict::kDrop);
  }
}

TEST_F(PiTest, DropsWhenEcnDisabled) {
  Pi2Aqm::Params params = Pi2Aqm::pi_params();
  params.ecn = false;
  install(params);
  run_updates(0.200, 50);
  ASSERT_GT(aqm_->classic_probability(), 0.1);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_NE(aqm_->enqueue(make_data_packet(Ecn::kEct0)),
              QueueDiscipline::Verdict::kMark);
  }
}

TEST_F(PiTest, ConvergesDownWhenQueueClears) {
  install(Pi2Aqm::pi_params());
  run_updates(0.200, 50);
  const double high = aqm_->classic_probability();
  // The integral term drains p by alpha*target per update; give it enough
  // intervals to hit the floor.
  run_updates(0.0, 500);
  EXPECT_LT(aqm_->classic_probability(), high);
  EXPECT_DOUBLE_EQ(aqm_->classic_probability(), 0.0);
}

TEST_F(PiTest, MaxProbCapsOutput) {
  Pi2Aqm::Params params = Pi2Aqm::pi_params();
  params.max_classic_prob = 0.3;
  install(params);
  run_updates(1.0, 500);
  EXPECT_DOUBLE_EQ(aqm_->classic_probability(), 0.3);
}

TEST_F(PiTest, GainsAffectResponseSpeed) {
  install(Pi2Aqm::pi_params());
  run_updates(0.100, 5);
  const double slow = aqm_->classic_probability();

  Simulator sim2{1};
  FakeQueueView view2;
  Pi2Aqm::Params fast_params = Pi2Aqm::pi_params();
  fast_params.alpha_hz = 0.625;
  fast_params.beta_hz = 6.25;
  Pi2Aqm fast{fast_params};
  fast.install(sim2, view2);
  view2.set_delay_seconds(0.100);
  sim2.run_until(fast_params.t_update * 5);
  EXPECT_GT(fast.classic_probability(), slow);
}

// --- PI2 (Law::kSquared) -----------------------------------------------------

class Pi2Test : public PiFamilyTest {};

TEST_F(Pi2Test, DefaultGainsAre2Point5TimesPie) {
  Pi2Aqm::Params p;
  EXPECT_DOUBLE_EQ(p.alpha_hz, 0.125 * 2.5);
  EXPECT_DOUBLE_EQ(p.beta_hz, 1.25 * 2.5);
}

TEST_F(Pi2Test, AppliedProbabilityIsSquareOfInternal) {
  install(Pi2Aqm::Params{});
  run_updates(0.100, 20);
  const double p_prime = aqm_->scalable_probability();
  ASSERT_GT(p_prime, 0.05);
  EXPECT_DOUBLE_EQ(aqm_->classic_probability(), p_prime * p_prime);
}

TEST_F(Pi2Test, DropFrequencyMatchesSquaredProbability) {
  Pi2Aqm::Params params;
  params.ecn = false;
  install(params);
  run_updates(0.050, 30);
  const double p_prime = aqm_->scalable_probability();
  const double p = p_prime * p_prime;
  ASSERT_GT(p, 0.001);
  const double f = signal_fraction(*aqm_, Ecn::kNotEct, 100000);
  EXPECT_NEAR(f, p, 4.0 * std::sqrt(p / 100000) + 0.002);
}

TEST_F(Pi2Test, ThinkTwiceNeverSignalsMoreThanLinear) {
  // The squared decision is strictly less likely than the linear one for
  // any p' < 1: max(Y1, Y2) < p' implies Y1 < p'.
  install(Pi2Aqm::Params{});
  run_updates(0.100, 40);
  const double p_prime = aqm_->scalable_probability();
  ASSERT_GT(p_prime, 0.0);
  const double f = signal_fraction(*aqm_, Ecn::kNotEct, 50000);
  EXPECT_LT(f, p_prime);
}

TEST_F(Pi2Test, MarksClassicEcnWhenEnabled) {
  install(Pi2Aqm::Params{});
  run_updates(0.300, 100);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(aqm_->enqueue(make_data_packet(Ecn::kEct0)),
              QueueDiscipline::Verdict::kDrop);
  }
}

TEST_F(Pi2Test, DropsWhenEcnDisabled) {
  Pi2Aqm::Params params;
  params.ecn = false;
  install(params);
  run_updates(0.300, 100);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(aqm_->enqueue(make_data_packet(Ecn::kEct0)),
              QueueDiscipline::Verdict::kMark);
  }
}

TEST_F(Pi2Test, OverloadCapsClassicProbabilityAt25Percent) {
  install(Pi2Aqm::Params{});
  run_updates(5.0, 2000);  // gross overload
  EXPECT_NEAR(aqm_->classic_probability(), 0.25, 1e-9);
  EXPECT_NEAR(aqm_->scalable_probability(), 0.5, 1e-9);
}

TEST_F(Pi2Test, CustomOverloadCap) {
  Pi2Aqm::Params params;
  params.max_classic_prob = 0.04;
  install(params);
  run_updates(5.0, 2000);
  EXPECT_NEAR(aqm_->classic_probability(), 0.04, 1e-9);
}

TEST_F(Pi2Test, NoSignalsAtZeroQueue) {
  install(Pi2Aqm::Params{});
  run_updates(0.0, 50);
  EXPECT_DOUBLE_EQ(aqm_->classic_probability(), 0.0);
  EXPECT_EQ(signal_fraction(*aqm_, Ecn::kNotEct, 1000), 0.0);
}

TEST_F(Pi2Test, ConvergesToTargetDelayProbability) {
  // Pin the queue at exactly the target: after the transient the
  // probability must hold steady (integral error is zero).
  install(Pi2Aqm::Params{});
  run_updates(0.020, 5);
  const double p1 = aqm_->scalable_probability();
  run_updates(0.020, 5);
  EXPECT_NEAR(aqm_->scalable_probability(), p1, 1e-12);
}

TEST_F(Pi2Test, NoHeuristicsNoBurstAllowance) {
  // Unlike PIE, PI2 signals from the very first packet if p' > 0 — there is
  // no burst allowance or low-delay suppression to disable.
  install(Pi2Aqm::Params{});
  run_updates(0.500, 40);
  ASSERT_GT(aqm_->scalable_probability(), 0.3);
  EXPECT_GT(signal_fraction(*aqm_, Ecn::kNotEct, 5000), 0.0);
}

// --- Coupled PI2 (Law::kCoupled) ---------------------------------------------

class CoupledTest : public PiFamilyTest {};

TEST_F(CoupledTest, DefaultsMatchTable1) {
  const Pi2Aqm::Params p = Pi2Aqm::coupled_params();
  EXPECT_DOUBLE_EQ(p.alpha_hz, 10.0 / 16.0);
  EXPECT_DOUBLE_EQ(p.beta_hz, 100.0 / 16.0);
  EXPECT_DOUBLE_EQ(p.k, 2.0);
  EXPECT_EQ(p.target, pi2::sim::from_millis(20));
}

TEST_F(CoupledTest, CouplingLawEquation14) {
  install(Pi2Aqm::coupled_params());
  run_updates(0.100, 20);
  const double ps = aqm_->scalable_probability();
  ASSERT_GT(ps, 0.1);
  EXPECT_DOUBLE_EQ(aqm_->classic_probability(),
                   control::coupled_classic_prob(ps, 2.0));
}

TEST_F(CoupledTest, ScalableMarkedLinearly) {
  install(Pi2Aqm::coupled_params());
  run_updates(0.060, 20);
  const double ps = aqm_->scalable_probability();
  ASSERT_GT(ps, 0.1);
  const double f = signal_fraction(*aqm_, Ecn::kEct1, 50000);
  EXPECT_NEAR(f, ps, 4.0 * std::sqrt(ps / 50000) + 0.005);
}

TEST_F(CoupledTest, ClassicSignalledWithSquaredCoupledProbability) {
  install(Pi2Aqm::coupled_params());
  run_updates(0.060, 20);
  const double ps = aqm_->scalable_probability();
  const double pc = aqm_->classic_probability();
  ASSERT_GT(pc, 0.001);
  const double f = signal_fraction(*aqm_, Ecn::kNotEct, 100000);
  EXPECT_NEAR(f, pc, 4.0 * std::sqrt(pc / 100000) + 0.002);
  EXPECT_LT(f, ps);  // Classic always signalled less than Scalable
}

TEST_F(CoupledTest, CePacketsTakeTheScalablePath) {
  // CE (already marked upstream) classifies as Scalable per Figure 9.
  install(Pi2Aqm::coupled_params());
  run_updates(0.200, 50);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(aqm_->enqueue(make_data_packet(Ecn::kCe)),
              QueueDiscipline::Verdict::kDrop);
  }
}

TEST_F(CoupledTest, Ect0MarkedNotDropped) {
  install(Pi2Aqm::coupled_params());
  run_updates(0.200, 50);
  ASSERT_GT(aqm_->classic_probability(), 0.01);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(aqm_->enqueue(make_data_packet(Ecn::kEct0)),
              QueueDiscipline::Verdict::kDrop);
  }
}

TEST_F(CoupledTest, NotEctDroppedNotMarked) {
  install(Pi2Aqm::coupled_params());
  run_updates(0.200, 50);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(aqm_->enqueue(make_data_packet(Ecn::kNotEct)),
              QueueDiscipline::Verdict::kMark);
  }
}

TEST_F(CoupledTest, OverloadCapsScalableAt100AndClassicAt25Percent) {
  install(Pi2Aqm::coupled_params());
  run_updates(5.0, 3000);
  EXPECT_NEAR(aqm_->scalable_probability(), 1.0, 1e-9);
  EXPECT_NEAR(aqm_->classic_probability(), 0.25, 1e-9);
  // At p_s = 1 every Scalable packet is marked.
  EXPECT_DOUBLE_EQ(signal_fraction(*aqm_, Ecn::kEct1, 1000), 1.0);
}

TEST_F(CoupledTest, CouplingFactorKScalesClassicSignal) {
  Pi2Aqm::Params params = Pi2Aqm::coupled_params();
  params.k = 4.0;
  install(params);
  run_updates(0.100, 20);
  const double ps = aqm_->scalable_probability();
  EXPECT_DOUBLE_EQ(aqm_->classic_probability(), (ps / 4.0) * (ps / 4.0));
}

TEST_F(CoupledTest, DerivedCouplingFactorNear1Point19) {
  EXPECT_NEAR(control::derived_coupling_factor(), 1.19, 0.005);
}

TEST_F(CoupledTest, EqualRateWindowsAtCoupledProbabilities) {
  // The point of k: DCTCP at p_s and CReno at (p_s/k)^2 get equal windows
  // when k matches the derived value.
  const double k = control::derived_coupling_factor();
  for (double ps = 0.02; ps <= 0.4; ps *= 2.0) {
    const double pc = control::coupled_classic_prob(ps, k);
    const double w_dctcp = control::dctcp_window_probabilistic(ps);
    const double w_creno = control::creno_window(pc);
    EXPECT_NEAR(w_dctcp / w_creno, 1.0, 1e-6) << "ps=" << ps;
  }
}

}  // namespace
}  // namespace pi2::core
