// One-shot timer with lazy re-arm.
//
// Transport timers are re-armed far more often than they fire (the RTO on
// every new ACK). Rather than cancel and reschedule, a Timer keeps its
// pending event while that fires before the new deadline; the early wake
// then re-schedules itself at the deadline under the tie-break number arm()
// reserved, so the callback runs at exactly the (time, seq) the cancel-and-
// reschedule code would have used. Only the early wakes are extra events.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.hpp"

namespace pi2::sim {

class Timer {
 public:
  /// `on_fire` is a std::function, not a UniqueFunction: every flow
  /// endpoint holds timers, and a callback capturing `this` fits the
  /// std::function's smaller inline buffer (an 80-byte timer, not 112).
  Timer(Simulator& sim, std::function<void()> on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire at `deadline`, replacing any earlier
  /// deadline, whether the new one is later or sooner.
  void arm(Time deadline) {
    deadline_ = deadline;
    seq_ = sim_.reserve_seq();
    if (event_.pending() && wake_ < deadline_) return;  // wakes early, re-arms
    event_.cancel();
    schedule();
  }

  /// Disarms the timer; the callback does not run. Idempotent.
  void cancel() { event_.cancel(); }

  /// True while a deadline is pending.
  [[nodiscard]] bool armed() const { return event_.pending(); }

 private:
  void schedule() {
    wake_ = deadline_;
    event_ = sim_.at(deadline_, seq_, [this] { fire(); });
  }

  void fire() {
    if (wake_ < deadline_) {
      schedule();
      return;
    }
    on_fire_();
  }

  Simulator& sim_;
  std::function<void()> on_fire_;
  EventHandle event_;
  Time deadline_{};
  Time wake_{};  ///< time the pending event was scheduled for
  std::uint64_t seq_ = 0;
};

}  // namespace pi2::sim
