// Microbenchmarks for the discrete-event scheduler hot path: every
// simulated second executes hundreds of thousands of events (packet
// serializations, delay-pipe deliveries, RTO timers, PI update ticks), so
// per-event overhead is the floor under every figure's wall clock. Three
// patterns: one-shot closures scheduled and drained, a re-armed sim::Timer
// (the RTO on every ACK) and a periodic event source (the AQM, fluid and
// sampling ticks), the last also with many idle RTO timers armed on the
// other heap. Run it by hand to compare scheduler changes; perfbench/ is
// the maintained end-to-end benchmark.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

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

/// A periodic event source re-arming itself every `period` (the PI update
/// / sampling pattern; with a per-packet kind, a busy delay pipe's head).
class Ticker {
 public:
  Ticker(pi2::sim::Simulator& sim, std::int64_t ticks,
         pi2::sim::EventKind kind = pi2::sim::EventKind::kAqmTick,
         Duration period = Duration{16'000'000})
      : sim_(sim), period_(period), event_{kind, this} {
    restart(ticks);
  }
  /// Fires `ticks` more times, starting now.
  void restart(std::int64_t ticks) {
    remaining_ = ticks;
    if (ticks > 0) sim_.arm(event_, sim_.now());
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  void tick() {
    ++ticks_;
    if (--remaining_ > 0) sim_.arm(event_, sim_.now() + period_);
  }

  pi2::sim::Simulator& sim_;
  Duration period_;
  std::int64_t remaining_ = 0;
  std::uint64_t ticks_ = 0;
  pi2::sim::MemberEvent<Ticker, &Ticker::tick> event_;
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

/// A periodic per-packet source (a delay pipe's head) while N RTO timers sit
/// armed far in the future, one per flow: they wait on the timer heap, so
/// the cost per packet event stays flat in N.
void BM_ScheduleWithIdleTimers(benchmark::State& state) {
  constexpr std::int64_t kTicks = 1 << 12;
  pi2::sim::Simulator sim;
  std::vector<std::unique_ptr<pi2::sim::Timer>> timers;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    timers.push_back(std::make_unique<pi2::sim::Timer>(
        sim, pi2::sim::EventKind::kRto, [] {}));
    timers.back()->arm(Time{1'000'000'000'000'000 + i * 7919});
  }
  Ticker pipe{sim, 0, pi2::sim::EventKind::kPipe, Duration{1'000}};
  for (auto _ : state) {
    pipe.restart(kTicks);
    sim.run_until(sim.now() + Duration{kTicks * 1'000});
  }
  benchmark::DoNotOptimize(pipe.ticks());
  state.SetItemsProcessed(state.iterations() * kTicks);
}
BENCHMARK(BM_ScheduleWithIdleTimers)->Arg(16)->Arg(1 << 10);

}  // namespace

BENCHMARK_MAIN();
