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
  // observe now() == their scheduled time.
  while (!scheduler_.empty()) {
    const Time next = scheduler_.next_time();
    if (next > until) break;
    if (should_stop()) return;
    now_ = next;
    scheduler_.run_next();
  }
  if (now_ < until) now_ = until;
}

void Simulator::run() {
  stopped_ = false;
  while (!scheduler_.empty()) {
    if (should_stop()) return;
    now_ = scheduler_.next_time();
    scheduler_.run_next();
  }
}

}  // namespace pi2::sim
