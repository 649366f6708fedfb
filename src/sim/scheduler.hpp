// Discrete-event scheduler: a binary heap of (time, sequence, callback).
//
// Events scheduled for the same instant execute in scheduling order (the
// sequence number breaks ties), which keeps runs deterministic. Cancellation
// is lazy and O(1): an EventHandle points into a slab of generation-counted
// slots owned by the scheduler; cancelling flips the slot's live bit and the
// dead heap entry is skipped when it surfaces — or reclaimed wholesale by a
// compaction pass once dead entries outnumber live ones, so timer-churn-heavy
// runs (RTO timers, PI update ticks) never carry unbounded cancelled garbage.
//
// Callbacks are stored in a move-only small-buffer UniqueFunction instead of
// std::function, and handles are (slot index, generation) pairs instead of
// shared_ptr<bool>, which removes two heap allocations and the refcount
// traffic from the per-event hot path.
//
// A component that defers its heap push (a delay line holding many packets
// behind one event, a lazily re-armed timer) takes its tie-break number with
// reserve_seq() at the moment it would have scheduled, and pushes later with
// schedule_at(at, seq, fn). The execution order is then exactly what an
// immediate push would have produced.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace pi2::sim {

class Scheduler;

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles refer to no event. Copies share the same underlying event. A
/// handle must not outlive the scheduler that issued it.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void cancel();

  /// True if the event is still scheduled to fire.
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* scheduler, std::uint32_t slot, std::uint32_t generation)
      : scheduler_(scheduler), slot_(slot), generation_(generation) {}

  Scheduler* scheduler_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Scheduler {
 public:
  /// Schedules `fn` to run at absolute time `at`. `at` must not be before
  /// the current time of the owning simulator (checked by Simulator).
  EventHandle schedule_at(Time at, UniqueFunction fn) {
    return schedule_at(at, next_seq_++, std::move(fn));
  }

  /// Schedules `fn` at `at` with a tie-break number taken earlier from
  /// reserve_seq(). Each reserved number is used for at most one live event.
  EventHandle schedule_at(Time at, std::uint64_t seq, UniqueFunction fn);

  /// Takes the next tie-break number without scheduling anything.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// True if no live events remain.
  [[nodiscard]] bool empty() const;

  /// Time of the earliest live event; kTimeInfinity if none.
  [[nodiscard]] Time next_time() const;

  /// Pops and runs the earliest live event; returns its time.
  /// Precondition: !empty().
  Time run_next();

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Heap entries currently held, including cancelled ones awaiting
  /// reclamation. Bounded at < 2x the live count by compaction.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

  /// Scheduled-and-not-yet-cancelled events in the heap.
  [[nodiscard]] std::size_t live_size() const { return heap_.size() - dead_; }

  /// Number of compaction passes performed (observability / tests).
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

  /// Heap pushes so far (schedule_at calls).
  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }

  /// Events cancelled before they fired.
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }

 private:
  friend class EventHandle;

  /// Heap entries are trivially-copyable 24-byte records: every sift during
  /// push/pop moves only these, never a callback. The callback lives in the
  /// slab slot and is touched exactly twice: stored on schedule, moved out
  /// on fire.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  /// One slab slot per in-heap event. `generation` invalidates stale handles
  /// once the slot is recycled; `live` is cleared by cancel() or on fire.
  /// Cancelling destroys the callback immediately (releasing its captures)
  /// even though the heap entry lingers until skim/compaction.
  struct Slot {
    UniqueFunction fn;
    std::uint32_t generation = 0;
    bool live = false;
  };

  void cancel(std::uint32_t slot, std::uint32_t generation);
  [[nodiscard]] bool pending(std::uint32_t slot, std::uint32_t generation) const;

  std::uint32_t allocate_slot();
  /// Recycles a slot whose heap entry has been removed (fired or skimmed).
  void release_slot(std::uint32_t slot);

  /// Drops cancelled entries from the top of the heap.
  void skim();
  /// Rebuilds the heap without its dead entries once they are the majority.
  void maybe_compact();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t dead_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace pi2::sim
