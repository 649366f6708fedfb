#include "sim/simulator.hpp"

namespace pi2::sim {

bool Simulator::should_stop() {
  if (stop_ == nullptr) return false;
  if (scheduler_.executed() % kStopPollInterval != 0) return false;
  if (!stop_->load(std::memory_order_acquire)) return false;
  stopped_ = true;
  return true;
}

void Simulator::run_until(Time until) {
  stopped_ = false;
  // The clock must advance *before* the event executes, so that callbacks
  // observe now() == their scheduled time. One top() per event compares the
  // two heaps' tops once.
  for (;;) {
    const Scheduler::Top next = scheduler_.top();
    if (!next.armed || next.at > until) break;
    if (should_stop()) return;
    now_ = next.at;
    scheduler_.run(next);
  }
  if (now_ < until) now_ = until;
}

void Simulator::run() {
  stopped_ = false;
  for (;;) {
    const Scheduler::Top next = scheduler_.top();
    if (!next.armed) break;
    if (should_stop()) return;
    now_ = next.at;
    scheduler_.run(next);
  }
}

}  // namespace pi2::sim
