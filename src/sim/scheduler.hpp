// Discrete-event scheduler: an indexed binary heap of event sources.
//
// Every producer of events is a persistent EventSource with at most one
// pending firing: the link's transmission completion, each delay pipe's
// head, each transport timer, the AQM, fluid and sampling ticks. A source
// is armed at (due time, tie-break seq); re-arming an armed source moves it
// in place, disarming removes it at once, and firing pops it and calls its
// hook. The heap therefore holds exactly the armed sources: there is no
// per-event allocation, no callback object per event and no cancelled
// garbage to skip.
//
// Events due at the same instant execute in seq order, which keeps runs
// deterministic. A component that defers its arm (a delay line holding many
// packets behind one source, a lazily re-armed timer) takes its tie-break
// number with reserve_seq() at the moment it would have scheduled, and arms
// later under that number; the execution order is then exactly what an
// immediate arm would have produced.
//
// One-shot closures (fault events, flow start/stop, tests) run on pooled
// closure sources on the same heap; schedule_at() returns an EventHandle
// that can cancel them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace pi2::sim {

class Scheduler;

/// What an event source is, for per-kind execution counts.
enum class EventKind : std::uint8_t {
  kLinkTx,      ///< a link's transmission completion
  kPipe,        ///< a delay pipe's head delivery
  kRto,         ///< a sender's retransmission timer
  kDelayedAck,  ///< a receiver's delayed-ACK timer
  kAqmTick,     ///< an AQM's periodic probability update
  kFluidTick,   ///< the fluid tier's integration step
  kSampler,     ///< periodic statistics and telemetry sampling
  kUdp,         ///< a constant-bit-rate sender's next packet
  kMonitor,     ///< the invariant monitor's periodic check
  kClosure,     ///< a one-shot closure (Scheduler::schedule_at)
};
inline constexpr std::size_t kEventKinds =
    static_cast<std::size_t>(EventKind::kClosure) + 1;

/// Stable lower-case name of a kind ("link_tx", "pipe", ...).
[[nodiscard]] std::string_view event_kind_name(EventKind kind);

/// A persistent event producer with at most one pending firing. The owner
/// arms it through the Scheduler (or Simulator::arm); the scheduler calls
/// fire() when it comes due, after removing it from the heap, so fire() may
/// re-arm it. A source disarms itself when destroyed.
class EventSource {
 public:
  explicit EventSource(EventKind kind) : kind_(kind) {}
  EventSource(const EventSource&) = delete;
  EventSource& operator=(const EventSource&) = delete;
  virtual ~EventSource() { disarm(); }

  /// True while the source is in its scheduler's heap.
  [[nodiscard]] bool armed() const { return index_ != kNotArmed; }

  /// Removes a pending firing; a no-op when not armed.
  void disarm();

 private:
  friend class Scheduler;
  static constexpr std::uint32_t kNotArmed = ~std::uint32_t{0};

  virtual void fire() = 0;

  Scheduler* scheduler_ = nullptr;
  std::uint32_t index_ = kNotArmed;  ///< position in the heap
  EventKind kind_;
};

/// An event source whose fire hook is a member function of its owner.
template <class Owner, void (Owner::*Hook)()>
class MemberEvent final : public EventSource {
 public:
  MemberEvent(EventKind kind, Owner* owner) : EventSource(kind), owner_(owner) {}

 private:
  void fire() override { (owner_->*Hook)(); }

  Owner* owner_;
};

/// Handle to a scheduled closure; allows cancellation. Default-constructed
/// handles refer to no event. Copies share the same underlying event. A
/// handle must not outlive the scheduler that issued it.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the closure if it has not run yet. Idempotent.
  void cancel();

  /// True if the closure is still scheduled to run.
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* scheduler, std::uint32_t closure, std::uint32_t generation)
      : scheduler_(scheduler), closure_(closure), generation_(generation) {}

  Scheduler* scheduler_ = nullptr;
  std::uint32_t closure_ = 0;
  std::uint32_t generation_ = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Leaves every still-armed source disarmed, so sources may outlive it.
  ~Scheduler();

  /// Arms `source` at (`at`, `seq`), or moves it there if already armed.
  /// `seq` comes from reserve_seq() and is used by at most one armed source.
  void arm(EventSource& source, Time at, std::uint64_t seq);

  /// Removes `source` from the heap; a no-op when it is not armed.
  void disarm(EventSource& source);

  /// Schedules the one-shot `fn` at `at`. `at` must not be before the
  /// current time of the owning simulator (checked by Simulator).
  EventHandle schedule_at(Time at, std::function<void()> fn) {
    return schedule_at(at, next_seq_++, std::move(fn));
  }

  /// Schedules `fn` at `at` with a tie-break number taken earlier from
  /// reserve_seq().
  EventHandle schedule_at(Time at, std::uint64_t seq, std::function<void()> fn);

  /// Takes the next tie-break number without scheduling anything.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// True if no source is armed.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Due time of the earliest armed source; kTimeInfinity if none.
  [[nodiscard]] Time next_time() const {
    return heap_.empty() ? kTimeInfinity : heap_.front().at;
  }

  /// Pops the earliest source and fires it; returns its due time.
  /// Precondition: !empty().
  Time run_next() {
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    EventSource& source = *top.source;
    source.index_ = EventSource::kNotArmed;
    ++executed_;
    ++executed_by_kind_[static_cast<std::size_t>(source.kind_)];
    source.fire();
    return top.at;
  }

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Events executed so far by sources of `kind`.
  [[nodiscard]] std::uint64_t executed(EventKind kind) const {
    return executed_by_kind_[static_cast<std::size_t>(kind)];
  }

  /// Armed sources (the heap holds nothing else).
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

  /// Arms so far (arm() and schedule_at() calls), re-arms included.
  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }

  /// Disarms of an armed source, closure cancels included.
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }

 private:
  friend class EventHandle;

  /// Heap entries carry their key, so sifting compares contiguous records
  /// and touches a source only to store its new position.
  struct Entry {
    Time at;
    std::uint64_t seq;
    EventSource* source;
  };
  static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// A pooled one-shot closure. `generation` advances every time the node
  /// is released, so a stale handle cannot reach the node's next closure.
  struct Closure final : EventSource {
    Closure(Scheduler& scheduler, std::uint32_t index)
        : EventSource(EventKind::kClosure), owner(scheduler), id(index) {}
    void fire() override;

    Scheduler& owner;
    std::function<void()> fn;
    std::uint32_t id;
    std::uint32_t generation = 0;
  };

  void cancel(std::uint32_t closure, std::uint32_t generation);
  [[nodiscard]] bool pending(std::uint32_t closure, std::uint32_t generation) const;
  void release(Closure& closure);

  /// Moves `entry` into the hole at `hole` and sifts it to its place.
  void sift_up(std::size_t hole, Entry entry);
  void sift_down(std::size_t hole, Entry entry);
  void place(std::size_t i, const Entry& entry) {
    heap_[i] = entry;
    entry.source->index_ = static_cast<std::uint32_t>(i);
  }

  std::vector<Entry> heap_;
  std::deque<Closure> closures_;  ///< stable addresses; indexed by id
  std::vector<std::uint32_t> free_closures_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::array<std::uint64_t, kEventKinds> executed_by_kind_{};
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
};

inline void EventSource::disarm() {
  if (armed()) scheduler_->disarm(*this);
}

}  // namespace pi2::sim
