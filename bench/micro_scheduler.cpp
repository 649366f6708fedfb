// Microbenchmarks for the discrete-event scheduler hot path: every
// simulated second executes hundreds of thousands of events (packet
// serializations, RTO timers, PI update ticks), so per-event overhead is
// the floor under every figure's wall clock. bench/run_benchmarks.sh records
// these rows in BENCH_sweep.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace {

using pi2::sim::Time;

/// Schedule N events, then drain them in time order.
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

/// RTO-timer churn: every event re-arms a timer and cancels the previous
/// one, so almost every scheduled entry dies before surfacing (a lazily
/// cancelling heap grows until the garbage happens to reach the top).
void BM_TimerChurn(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    pi2::sim::Scheduler s;
    pi2::sim::EventHandle pending{};
    for (std::int64_t i = 0; i < n; ++i) {
      pending.cancel();
      pending = s.schedule_at(Time{i + 1000}, [&sink] { ++sink; });
      s.schedule_at(Time{i}, [] {});
    }
    while (!s.empty()) s.run_next();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_TimerChurn)->Arg(1 << 10)->Arg(1 << 14);

/// Periodic self-rescheduling tick (the PI update / sampling pattern).
void BM_PeriodicTick(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::uint64_t ticks = 0;
  for (auto _ : state) {
    pi2::sim::Scheduler s;
    std::int64_t remaining = n;
    std::function<void(Time)> tick = [&](Time at) {
      ++ticks;
      if (--remaining > 0) {
        s.schedule_at(at + Time{16'000'000}, [&tick, at] { tick(at + Time{16'000'000}); });
      }
    };
    s.schedule_at(Time{0}, [&tick] { tick(Time{0}); });
    while (!s.empty()) s.run_next();
  }
  benchmark::DoNotOptimize(ticks);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PeriodicTick)->Arg(1 << 12);

}  // namespace

BENCHMARK_MAIN();
