// Simulation context: clock + scheduler + root RNG.
//
// Components hold a Simulator& and arm their persistent event sources with
// `arm`; one-shot work goes through the closures of `at`/`after`. The
// simulator is the composition root of a run; it owns nothing but time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pi2::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Root RNG; components should `split()` their own streams from it.
  Rng& rng() { return rng_; }

  /// Schedules `fn` at absolute time `at`. Scheduling in the past is almost
  /// always a component bug; the time is clamped to now and counted in
  /// clamped_events() so harnesses can assert it never happens.
  EventHandle at(Time when, std::function<void()> fn) {
    return scheduler_.schedule_at(clamp(when), std::move(fn));
  }

  /// Arms `source` at `when` under a fresh tie-break number, or moves it
  /// there if it is already armed (clamped and counted like at()).
  void arm(EventSource& source, Time when) { arm(source, when, reserve_seq()); }

  /// Arms `source` at `when` with a tie-break number taken earlier from
  /// reserve_seq() (clamped and counted like at()).
  void arm(EventSource& source, Time when, std::uint64_t seq) {
    scheduler_.arm(source, clamp(when), seq);
  }

  /// Takes the tie-break number an event scheduled now would get, for a
  /// component that arms its source later (see Scheduler::reserve_seq).
  [[nodiscard]] std::uint64_t reserve_seq() { return scheduler_.reserve_seq(); }

  /// Schedules `fn` after a relative delay. A negative delay targets the
  /// past and is clamped to now by `at()`, which also counts it in
  /// clamped_events() — negative delays are component bugs exactly like
  /// absolute times in the past, and harnesses assert the counter stays 0.
  EventHandle after(Duration delay, std::function<void()> fn) {
    return at(now_ + delay, std::move(fn));
  }

  /// Runs events until the event queue is empty or `until` is reached.
  /// The clock ends at exactly `until` if the queue outlives it.
  void run_until(Time until);

  /// Runs until the event queue is exhausted.
  void run();

  /// Optional external stop flag (graceful shutdown). The run loops poll it
  /// every kStopPollInterval events and return early — at an event boundary,
  /// with the clock at the last executed event — once it reads true.
  /// Borrowed; must outlive the run. nullptr disables polling.
  void set_stop_flag(const std::atomic<bool>* stop) { stop_ = stop; }

  /// True when the last run()/run_until() returned early because the stop
  /// flag was set (the queue may still hold events).
  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const { return scheduler_.executed(); }

  /// Number of `at()` calls whose target time was in the past and got
  /// clamped to now. Healthy runs keep this at 0.
  [[nodiscard]] std::uint64_t clamped_events() const { return clamped_; }

  /// The underlying scheduler (observability: heap occupancy, arm and
  /// disarm counts, events executed per kind).
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }

 private:
  /// Stop-flag polling cadence in events: frequent enough that a shutdown
  /// lands within microseconds of wall time, cheap enough (one relaxed-ish
  /// load per 1024 events) to be invisible in the scheduler hot path.
  static constexpr std::uint64_t kStopPollInterval = 1024;

  [[nodiscard]] bool should_stop();

  Time clamp(Time when) {
    if (when < now_) {
      ++clamped_;
      return now_;
    }
    return when;
  }

  Time now_ = kTimeZero;
  Scheduler scheduler_;
  Rng rng_;
  std::uint64_t clamped_ = 0;
  const std::atomic<bool>* stop_ = nullptr;
  bool stopped_ = false;
};

}  // namespace pi2::sim
