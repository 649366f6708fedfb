// Microbenchmark for the paper's §7 claim that squaring the output is "less
// computationally expensive" than PIE's per-update scaling path, and for the
// per-packet drop-decision cost of every discipline.
//
// Uses google-benchmark; run with --benchmark_filter=... as usual.
#include <benchmark/benchmark.h>

#include <memory>

#include "aqm/pie.hpp"
#include "aqm/think.hpp"
#include "core/pi2.hpp"
#include "net/queue_discipline.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pi2;

/// Minimal queue view pinned at a fixed delay.
class PinnedView final : public net::QueueView {
 public:
  explicit PinnedView(double delay_s, double rate_bps = 10e6)
      : rate_bps_(rate_bps),
        backlog_(static_cast<std::int64_t>(delay_s * rate_bps / 8.0)) {}
  [[nodiscard]] std::int64_t backlog_bytes() const override { return backlog_; }
  [[nodiscard]] std::int64_t backlog_packets() const override {
    return backlog_ / net::kDefaultMss;
  }
  [[nodiscard]] double link_rate_bps() const override { return rate_bps_; }
  [[nodiscard]] pi2::sim::Duration queue_delay() const override {
    return pi2::sim::from_seconds(static_cast<double>(backlog_) * 8.0 / rate_bps_);
  }

 private:
  double rate_bps_;
  std::int64_t backlog_;
};

template <typename Aqm, typename Params>
std::unique_ptr<Aqm> warmed(pi2::sim::Simulator& sim, PinnedView& view,
                            Params params) {
  auto aqm = std::make_unique<Aqm>(params);
  aqm->install(sim, view);
  sim.run_until(sim.now() + std::chrono::seconds{5});  // let p settle
  return aqm;
}

void BM_EnqueueDecision_Pie(benchmark::State& state) {
  pi2::sim::Simulator sim{1};
  PinnedView view{0.05};
  aqm::PieAqm::Params params;
  params.departure_rate_estimation = false;
  auto pie = warmed<aqm::PieAqm>(sim, view, params);
  net::Packet packet;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pie->enqueue(packet));
  }
}
BENCHMARK(BM_EnqueueDecision_Pie);

void BM_EnqueueDecision_Pi2(benchmark::State& state) {
  pi2::sim::Simulator sim{1};
  PinnedView view{0.05};
  auto aqm = warmed<core::Pi2Aqm>(sim, view, core::Pi2Aqm::Params{});
  net::Packet packet;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aqm->enqueue(packet));
  }
}
BENCHMARK(BM_EnqueueDecision_Pi2);

void BM_EnqueueDecision_CoupledPi2(benchmark::State& state) {
  pi2::sim::Simulator sim{1};
  PinnedView view{0.05};
  auto aqm = warmed<core::Pi2Aqm>(sim, view, core::Pi2Aqm::coupled_params());
  net::Packet packet;
  packet.ecn = net::Ecn::kEct1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aqm->enqueue(packet));
  }
}
BENCHMARK(BM_EnqueueDecision_CoupledPi2);

void BM_EnqueueDecision_PlainPi(benchmark::State& state) {
  pi2::sim::Simulator sim{1};
  PinnedView view{0.05};
  auto aqm = warmed<core::Pi2Aqm>(sim, view, core::Pi2Aqm::pi_params());
  net::Packet packet;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aqm->enqueue(packet));
  }
}
BENCHMARK(BM_EnqueueDecision_PlainPi);

// The periodic probability update: PIE's path includes the tune lookup and
// heuristics; PI2's is the bare PI arithmetic.
void BM_Update_PieWithTuneAndHeuristics(benchmark::State& state) {
  aqm::PiCore pi{0.125, 1.25};
  double delay = 0.03;
  for (auto _ : state) {
    double dp = pi.delta(delay, 0.02);
    dp *= aqm::PieAqm::tune_factor(pi.prob());
    if (pi.prob() >= 0.1 && dp > 0.02) dp = 0.02;
    if (delay > 0.25) dp = 0.02;
    pi.integrate(dp, delay);
    if (delay == 0.0 && pi.prev_qdelay_s() == 0.0) pi.decay(0.98);
    benchmark::DoNotOptimize(pi.prob());
    delay = delay > 0.02 ? 0.01 : 0.03;  // oscillate around the target
  }
}
BENCHMARK(BM_Update_PieWithTuneAndHeuristics);

void BM_Update_Pi2Unscaled(benchmark::State& state) {
  aqm::PiCore pi{0.3125, 3.125};
  double delay = 0.03;
  for (auto _ : state) {
    pi.update(delay, 0.02);
    benchmark::DoNotOptimize(pi.prob());
    delay = delay > 0.02 ? 0.01 : 0.03;
  }
}
BENCHMARK(BM_Update_Pi2Unscaled);

// The two ways to implement the square (paper §4 "PI2 Design"): multiply,
// or compare against the max of two random values.
void BM_Square_ByMultiplication(benchmark::State& state) {
  pi2::sim::Rng rng{7};
  const double p_prime = 0.07;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform() < p_prime * p_prime);
  }
}
BENCHMARK(BM_Square_ByMultiplication);

void BM_Square_ByTwoRandoms(benchmark::State& state) {
  pi2::sim::Rng rng{7};
  const double p_prime = 0.07;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aqm::think_twice(rng, p_prime));
  }
}
BENCHMARK(BM_Square_ByTwoRandoms);

}  // namespace

BENCHMARK_MAIN();
