#include "sim/scheduler.hpp"

#include <cassert>
#include <iterator>
#include <utility>

namespace pi2::sim {

std::string_view event_kind_name(EventKind kind) {
  static constexpr std::string_view kNames[] = {
      "link_tx", "pipe", "rto",     "aqm_tick", "fluid_tick",
      "sampler", "udp",  "monitor", "closure"};
  static_assert(std::size(kNames) == kEventKinds, "one name per EventKind");
  return kNames[static_cast<std::size_t>(kind)];
}

void EventHandle::cancel() {
  if (scheduler_ != nullptr) scheduler_->cancel(closure_, generation_);
}

bool EventHandle::pending() const {
  return scheduler_ != nullptr && scheduler_->pending(closure_, generation_);
}

Scheduler::~Scheduler() {
  for (std::vector<Entry>& heap : heaps_) {
    for (const Entry& e : heap) e.source->index_ = EventSource::kNotArmed;
    heap.clear();
  }
}

void Scheduler::arm(EventSource& source, Time at, std::uint64_t seq) {
  ++scheduled_;
  std::vector<Entry>& heap = heaps_[source.heap_];
  const Entry entry{bias(at), seq, &source};
  if (!source.armed()) {
    source.scheduler_ = this;
    heap.push_back(entry);
    sift_up(heap, heap.size() - 1, entry);
    return;
  }
  assert(source.scheduler_ == this);
  const std::size_t i = source.index_;
  if (before(entry, heap[i])) {
    sift_up(heap, i, entry);
  } else {
    sift_down(heap, i, entry);
  }
}

void Scheduler::disarm(EventSource& source) {
  if (!source.armed()) return;
  assert(source.scheduler_ == this);
  ++cancelled_;
  std::vector<Entry>& heap = heaps_[source.heap_];
  const std::size_t i = source.index_;
  source.index_ = EventSource::kNotArmed;
  const Entry last = heap.back();
  heap.pop_back();
  if (i == heap.size()) return;  // it was the last entry
  if (before(last, heap[i])) {
    sift_up(heap, i, last);
  } else {
    sift_down(heap, i, last);
  }
}

void Scheduler::sift_up(std::vector<Entry>& heap, std::size_t hole, Entry entry) {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!before(entry, heap[parent])) break;
    place(heap, hole, heap[parent]);
    hole = parent;
  }
  place(heap, hole, entry);
}

void Scheduler::sift_down(std::vector<Entry>& heap, std::size_t hole, Entry entry) {
  const std::size_t n = heap.size();
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n) child += before(heap[child + 1], heap[child]) ? 1 : 0;
    if (!before(heap[child], entry)) break;
    place(heap, hole, heap[child]);
    hole = child;
  }
  place(heap, hole, entry);
}

EventHandle Scheduler::schedule_at(Time at, std::uint64_t seq,
                                   std::function<void()> fn) {
  if (free_closures_.empty()) {
    const auto id = static_cast<std::uint32_t>(closures_.size());
    closures_.emplace_back(*this, id);
    free_closures_.push_back(id);
  }
  Closure& closure = closures_[free_closures_.back()];
  free_closures_.pop_back();
  closure.fn = std::move(fn);
  arm(closure, at, seq);
  return EventHandle{this, closure.id, closure.generation};
}

void Scheduler::Closure::fire() {
  // Move the callback out and recycle the node before running it: the
  // callback may schedule new closures, and its own handle must read as
  // no longer pending.
  std::function<void()> callback = std::move(fn);
  owner.release(*this);
  callback();
}

void Scheduler::release(Closure& closure) {
  closure.fn = nullptr;
  ++closure.generation;
  free_closures_.push_back(closure.id);
}

void Scheduler::cancel(std::uint32_t closure, std::uint32_t generation) {
  if (!pending(closure, generation)) return;
  Closure& c = closures_[closure];
  disarm(c);
  release(c);  // frees the callback and its captures right away
}

bool Scheduler::pending(std::uint32_t closure, std::uint32_t generation) const {
  return closure < closures_.size() &&
         closures_[closure].generation == generation &&
         closures_[closure].armed();
}

}  // namespace pi2::sim
