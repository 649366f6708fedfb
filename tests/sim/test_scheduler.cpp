#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace pi2::sim {
namespace {

TEST(Scheduler, EmptyInitially) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_time(), kTimeInfinity);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time{30}, [&] { order.push_back(3); });
  s.schedule_at(Time{10}, [&] { order.push_back(1); });
  s.schedule_at(Time{20}, [&] { order.push_back(2); });
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesBreakInSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(Time{100}, [&order, i] { order.push_back(i); });
  }
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RunNextReturnsEventTime) {
  Scheduler s;
  s.schedule_at(Time{55}, [] {});
  EXPECT_EQ(s.run_next(), Time{55});
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventHandle h = s.schedule_at(Time{10}, [&] { ran = true; });
  h.cancel();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelIsIdempotent) {
  Scheduler s;
  EventHandle h = s.schedule_at(Time{10}, [] {});
  h.cancel();
  h.cancel();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, PendingReflectsLifecycle) {
  Scheduler s;
  EventHandle h = s.schedule_at(Time{10}, [] {});
  EXPECT_TRUE(h.pending());
  s.run_next();
  EXPECT_FALSE(h.pending());
}

TEST(Scheduler, DefaultHandleIsNotPending) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op, must not crash
}

TEST(Scheduler, CancelledEventDoesNotBlockNextTime) {
  Scheduler s;
  EventHandle h = s.schedule_at(Time{10}, [] {});
  s.schedule_at(Time{20}, [] {});
  h.cancel();
  EXPECT_EQ(s.next_time(), Time{20});
}

TEST(Scheduler, EventsMayScheduleMoreEvents) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time{10}, [&] {
    order.push_back(1);
    s.schedule_at(Time{15}, [&] { order.push_back(2); });
  });
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, CountsExecutedEvents) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_at(Time{i}, [] {});
  while (!s.empty()) s.run_next();
  EXPECT_EQ(s.executed(), 7u);
}

TEST(Scheduler, CompactionBoundsHeapUnderCancelChurn) {
  // Regression: the seed scheduler kept cancelled entries until they
  // surfaced, so schedule/cancel churn (RTO timers) grew the heap without
  // bound. Compaction must keep dead entries below half the heap.
  Scheduler s;
  constexpr int kTimers = 1'000'000;
  EventHandle pending;
  for (int i = 0; i < kTimers; ++i) {
    pending.cancel();
    // Far-future timer that will never fire before being replaced.
    pending = s.schedule_at(Time{1'000'000'000 + i}, [] {});
    EXPECT_LE(s.heap_size(), 2 * s.live_size() + 64)
        << "heap carries unbounded cancelled garbage at i=" << i;
  }
  EXPECT_LE(s.heap_size(), 128u);
  EXPECT_EQ(s.live_size(), 1u);
  EXPECT_GT(s.compactions(), 0u);
  pending.cancel();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, SlotReuseDoesNotConfuseStaleHandles) {
  // After an event fires, its slab slot may be recycled for a new event; a
  // stale handle to the fired event must not cancel or observe the new one.
  Scheduler s;
  EventHandle first = s.schedule_at(Time{1}, [] {});
  s.run_next();  // fires `first`, freeing its slot
  bool second_ran = false;
  EventHandle second = s.schedule_at(Time{2}, [&] { second_ran = true; });
  EXPECT_FALSE(first.pending());
  first.cancel();  // stale: must be a no-op on the recycled slot
  EXPECT_TRUE(second.pending());
  s.run_next();
  EXPECT_TRUE(second_ran);
}

TEST(Scheduler, CancelInsideCallbackOfSameInstant) {
  Scheduler s;
  bool victim_ran = false;
  EventHandle victim;
  s.schedule_at(Time{10}, [&] { victim.cancel(); });
  victim = s.schedule_at(Time{10}, [&] { victim_ran = true; });
  while (!s.empty()) s.run_next();
  EXPECT_FALSE(victim_ran);
}

TEST(Scheduler, LargeCallbacksFallBackToHeapCorrectly) {
  // Captures beyond UniqueFunction's inline buffer must still run and
  // destroy correctly (heap fallback path).
  Scheduler s;
  auto big = std::make_shared<std::vector<int>>(1000, 7);
  std::array<std::shared_ptr<std::vector<int>>, 8> copies;
  copies.fill(big);
  int seen = 0;
  s.schedule_at(Time{1}, [copies, &seen] { seen = (*copies[7])[0]; });
  copies.fill(nullptr);  // only the scheduled callback holds references now
  EXPECT_EQ(big.use_count(), 9);
  s.run_next();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(big.use_count(), 1);  // callback's captures were destroyed
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  std::vector<std::int64_t> times;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t t = (i * 7919) % 1000;
    s.schedule_at(Time{t}, [&times, t] { times.push_back(t); });
  }
  while (!s.empty()) s.run_next();
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.size(), 1000u);
}

TEST(Scheduler, ReservedSeqKeepsTieOrder) {
  // An event pushed late with a reserved number runs where an immediate
  // push at reservation time would have: after earlier-scheduled events at
  // the same instant, before later-scheduled ones.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time{10}, [&] { order.push_back(0); });
  const std::uint64_t reserved = s.reserve_seq();
  s.schedule_at(Time{10}, [&] { order.push_back(2); });
  s.schedule_at(Time{5}, [&] { order.push_back(-1); });
  s.schedule_at(Time{10}, reserved, [&] { order.push_back(1); });
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(Scheduler, CountsSchedulesAndCancels) {
  Scheduler s;
  EventHandle a = s.schedule_at(Time{1}, [] {});
  EventHandle b = s.schedule_at(Time{2}, [] {});
  const std::uint64_t reserved = s.reserve_seq();  // not a schedule
  s.schedule_at(Time{3}, reserved, [] {});
  a.cancel();
  a.cancel();  // idempotent: counted once
  s.run_next();
  b.cancel();  // already fired: not a cancel
  while (!s.empty()) s.run_next();
  EXPECT_EQ(s.scheduled(), 3u);
  EXPECT_EQ(s.cancelled(), 1u);
  EXPECT_EQ(s.executed(), 2u);
}

}  // namespace
}  // namespace pi2::sim
