// One-shot timer with lazy re-arm: an event source of its own.
//
// Transport timers are re-armed far more often than they fire (the RTO on
// every new ACK). Rather than move its heap entry on every re-arm, a Timer
// keeps its pending firing while that comes before the new deadline; the
// early wake then re-arms itself at the deadline under the tie-break number
// arm() reserved, so the callback runs at exactly the (time, seq) a
// cancel-and-reschedule timer would have used. Only the early wakes are
// extra events. A sooner deadline moves the pending firing in place.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.hpp"

namespace pi2::sim {

class Timer final : public EventSource {
 public:
  Timer(Simulator& sim, EventKind kind, std::function<void()> on_fire)
      : EventSource(kind), sim_(sim), on_fire_(std::move(on_fire)) {}

  /// (Re)arms the timer to fire at `deadline`, replacing any earlier
  /// deadline, whether the new one is later or sooner.
  void arm(Time deadline) {
    deadline_ = deadline;
    seq_ = sim_.reserve_seq();
    if (armed() && wake_ < deadline_) return;  // wakes early, re-arms
    schedule();
  }

  /// Disarms the timer; the callback does not run. Idempotent.
  void cancel() { disarm(); }

 private:
  void schedule() {
    wake_ = deadline_;
    sim_.arm(*this, deadline_, seq_);
  }

  void fire() override {
    if (wake_ < deadline_) {
      schedule();
      return;
    }
    on_fire_();
  }

  Simulator& sim_;
  std::function<void()> on_fire_;
  Time deadline_{};
  Time wake_{};  ///< time the pending firing is due
  std::uint64_t seq_ = 0;
};

}  // namespace pi2::sim
