#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pi2::sim {

namespace {
/// Below this heap size compaction is pointless churn; skim() handles it.
constexpr std::size_t kMinCompactionSize = 64;
}  // namespace

void EventHandle::cancel() {
  if (scheduler_ != nullptr) scheduler_->cancel(slot_, generation_);
}

bool EventHandle::pending() const {
  return scheduler_ != nullptr && scheduler_->pending(slot_, generation_);
}

EventHandle Scheduler::schedule_at(Time at, std::uint64_t seq,
                                   UniqueFunction fn) {
  const std::uint32_t slot = allocate_slot();
  const std::uint32_t generation = slots_[slot].generation;
  slots_[slot].fn = std::move(fn);
  ++scheduled_;
  heap_.push_back(Entry{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{this, slot, generation};
}

std::uint32_t Scheduler::allocate_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].live = true;
  return slot;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = UniqueFunction{};
  s.live = false;
  ++s.generation;
  free_slots_.push_back(slot);
}

void Scheduler::cancel(std::uint32_t slot, std::uint32_t generation) {
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != generation || !s.live) return;
  s.live = false;
  // Free the callback (and whatever it captures) right away; the heap entry
  // itself is skipped lazily or reclaimed by compaction.
  s.fn = UniqueFunction{};
  ++dead_;
  ++cancelled_;
  maybe_compact();
}

bool Scheduler::pending(std::uint32_t slot, std::uint32_t generation) const {
  return slot < slots_.size() && slots_[slot].generation == generation &&
         slots_[slot].live;
}

void Scheduler::skim() {
  while (!heap_.empty() && !slots_[heap_.front().slot].live) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    release_slot(heap_.back().slot);
    heap_.pop_back();
    --dead_;
  }
}

void Scheduler::maybe_compact() {
  if (heap_.size() < kMinCompactionSize || dead_ * 2 < heap_.size()) return;
  auto is_dead = [this](const Entry& e) { return !slots_[e.slot].live; };
  for (const Entry& e : heap_) {
    if (is_dead(e)) release_slot(e.slot);
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), is_dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_ = 0;
  ++compactions_;
}

bool Scheduler::empty() const {
  const_cast<Scheduler*>(this)->skim();
  return heap_.empty();
}

Time Scheduler::next_time() const {
  const_cast<Scheduler*>(this)->skim();
  return heap_.empty() ? kTimeInfinity : heap_.front().at;
}

Time Scheduler::run_next() {
  skim();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  // Move the callback out before running it: it may schedule new events,
  // which mutates both the heap and the slab. The slot is released first so
  // that pending() is false and the slot is reusable inside the callback.
  UniqueFunction fn = std::move(slots_[entry.slot].fn);
  release_slot(entry.slot);
  ++executed_;
  fn();
  return entry.at;
}

}  // namespace pi2::sim
