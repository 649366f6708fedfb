// Microbenchmarks for the discrete-event scheduler hot path: every
// simulated second executes hundreds of thousands of events (packet
// serializations, delay-pipe deliveries, RTO timers, PI update ticks), so
// per-event overhead is the floor under every figure's wall clock. Three
// patterns: one-shot closures scheduled and drained, a re-armed sim::Timer
// (the RTO on every ACK) and a periodic event source (the AQM, fluid and
// sampling ticks). bench/run_benchmarks.sh records these rows in
// BENCH_sweep.json.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

namespace {

using pi2::sim::Duration;
using pi2::sim::Time;

/// Schedule N one-shot closures, then drain them in time order.
void BM_ScheduleAndDrain(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    pi2::sim::Scheduler s;
    for (std::int64_t i = 0; i < n; ++i) {
      s.schedule_at(Time{(i * 7919) % n}, [&sink] { ++sink; });
    }
    while (!s.empty()) s.run_next();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScheduleAndDrain)->Arg(1 << 10)->Arg(1 << 14);

/// RTO-timer churn: every step re-arms a Timer to a later deadline and runs
/// one unrelated closure, as a sender re-arms its RTO on every ACK. The
/// timer keeps its pending firing, so it fires (early) about once per
/// rto / step and then on its final deadline.
void BM_TimerChurn(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    pi2::sim::Simulator sim;
    pi2::sim::Timer timer{sim, pi2::sim::EventKind::kRto, [&sink] { ++sink; }};
    for (std::int64_t i = 0; i < n; ++i) {
      timer.arm(Time{i + 1000});
      sim.at(Time{i}, [] {});
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_TimerChurn)->Arg(1 << 10)->Arg(1 << 14);

/// A periodic event source re-arming itself after each tick (the PI
/// update / sampling pattern).
class Ticker {
 public:
  Ticker(pi2::sim::Simulator& sim, std::int64_t ticks) : sim_(sim), remaining_(ticks) {
    sim_.arm(event_, sim_.now());
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  void tick() {
    ++ticks_;
    if (--remaining_ > 0) sim_.arm(event_, sim_.now() + Duration{16'000'000});
  }

  pi2::sim::Simulator& sim_;
  std::int64_t remaining_;
  std::uint64_t ticks_ = 0;
  pi2::sim::MemberEvent<Ticker, &Ticker::tick> event_{
      pi2::sim::EventKind::kAqmTick, this};
};

void BM_PeriodicTick(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::uint64_t ticks = 0;
  for (auto _ : state) {
    pi2::sim::Simulator sim;
    Ticker ticker{sim, n};
    sim.run();
    ticks += ticker.ticks();
  }
  benchmark::DoNotOptimize(ticks);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PeriodicTick)->Arg(1 << 12);

}  // namespace

BENCHMARK_MAIN();
