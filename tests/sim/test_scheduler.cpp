#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <utility>
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

/// A source that records its firings and runs an optional hook.
class TestSource final : public EventSource {
 public:
  explicit TestSource(std::function<void()> hook = {})
      : EventSource(EventKind::kMonitor), hook_(std::move(hook)) {}
  int fired = 0;

 private:
  void fire() override {
    ++fired;
    if (hook_) hook_();
  }
  std::function<void()> hook_;
};

TEST(Scheduler, CompactionBoundsHeapUnderCancelChurn) {
  // Disarming removes the heap entry at once, so schedule/cancel churn (RTO
  // timers, cancelled closures) leaves the heap holding exactly the armed
  // sources: no cancelled garbage waits to surface or to be compacted.
  Scheduler s;
  std::vector<std::unique_ptr<TestSource>> sources;
  for (int i = 0; i < 16; ++i) sources.push_back(std::make_unique<TestSource>());
  std::mt19937_64 rng{7};
  EventHandle pending;
  for (int i = 0; i < 200'000; ++i) {
    TestSource& source = *sources[rng() % sources.size()];
    if (rng() % 3 == 0) {
      source.disarm();
    } else {
      // Far-future deadlines that never fire before being replaced.
      s.arm(source, Time{1'000'000'000 + static_cast<std::int64_t>(rng() % 1000)},
            s.reserve_seq());
    }
    pending.cancel();
    pending = s.schedule_at(Time{2'000'000'000 + i}, [] {});
    std::size_t armed = 1;  // the pending closure
    for (const auto& src : sources) armed += src->armed() ? 1 : 0;
    ASSERT_EQ(s.heap_size(), armed) << "at i=" << i;
  }
  pending.cancel();
  for (const auto& src : sources) src->disarm();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.heap_size(), 0u);
}

TEST(Scheduler, SlotReuseDoesNotConfuseStaleHandles) {
  // A closure's node is pooled: after the closure runs or is cancelled the
  // node carries the next closure. A stale handle to the earlier closure
  // must neither cancel nor observe the newer one.
  Scheduler s;
  EventHandle first = s.schedule_at(Time{1}, [] {});
  s.run_next();  // runs `first`, recycling its node
  bool second_ran = false;
  EventHandle second = s.schedule_at(Time{2}, [&] { second_ran = true; });
  EXPECT_FALSE(first.pending());
  first.cancel();  // stale: must be a no-op on the recycled node
  EXPECT_TRUE(second.pending());
  second.cancel();  // recycles the node again
  bool third_ran = false;
  EventHandle third = s.schedule_at(Time{3}, [&] { third_ran = true; });
  second.cancel();  // stale after a cancel too
  first.cancel();
  EXPECT_FALSE(second.pending());
  EXPECT_TRUE(third.pending());
  while (!s.empty()) s.run_next();
  EXPECT_FALSE(second_ran);
  EXPECT_TRUE(third_ran);
  EXPECT_EQ(s.cancelled(), 1u);
}

TEST(Scheduler, SourceRearmAndDisarm) {
  Scheduler s;
  std::vector<int> order;
  TestSource a{[&] { order.push_back(1); }};
  TestSource b{[&] { order.push_back(2); }};
  s.arm(a, Time{30}, s.reserve_seq());
  s.arm(b, Time{20}, s.reserve_seq());
  s.arm(a, Time{10}, s.reserve_seq());  // sooner: moves in place
  EXPECT_EQ(s.heap_size(), 2u);
  EXPECT_EQ(s.next_time(), Time{10});
  s.arm(a, Time{40}, s.reserve_seq());  // later
  b.disarm();
  EXPECT_FALSE(b.armed());
  EXPECT_EQ(s.next_time(), Time{40});
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.scheduled(), 4u);
  EXPECT_EQ(s.cancelled(), 1u);
  EXPECT_EQ(s.executed(EventKind::kMonitor), 1u);
}

TEST(Scheduler, DestroyedSourceLeavesTheHeap) {
  Scheduler s;
  TestSource kept;
  {
    TestSource gone;
    s.arm(gone, Time{5}, s.reserve_seq());
    s.arm(kept, Time{10}, s.reserve_seq());
  }
  EXPECT_EQ(s.heap_size(), 1u);
  EXPECT_EQ(s.run_next(), Time{10});
  EXPECT_EQ(kept.fired, 1);
}

TEST(Scheduler, SourceMayOutliveItsScheduler) {
  TestSource source;
  {
    Scheduler s;
    s.arm(source, Time{5}, s.reserve_seq());
  }
  EXPECT_FALSE(source.armed());
}

/// Random interleavings of source arms (first arm, re-arm sooner, re-arm
/// later), disarms and closure schedules/cancels, at the top level and from
/// inside fire hooks, with many same-instant ties. Every operation is
/// mirrored into a std::set ordered by (due, seq); the scheduler must
/// execute exactly the set's order.
class OrderHarness {
 public:
  explicit OrderHarness(std::uint64_t seed) : rng_(seed) {
    for (int id = 0; id < kSources; ++id) {
      sources_.push_back(std::make_unique<TestSource>([this, id] { on_fire(id); }));
    }
  }

  void run() {
    for (int step = 0; step < 3000; ++step) {
      if (rng_() % 3 == 0 && !s_.empty()) {
        run_one();
      } else {
        random_op();
      }
      ASSERT_EQ(s_.heap_size(), model_.size()) << "step " << step;
    }
    while (!s_.empty()) run_one();
    EXPECT_TRUE(model_.empty());
  }

  std::vector<std::pair<std::int64_t, int>> actual;
  std::vector<std::pair<std::int64_t, int>> expected;

 private:
  static constexpr int kSources = 12;
  using Key = std::tuple<std::int64_t, std::uint64_t, int>;  // (due, seq, id)

  void run_one() {
    const Key top = *model_.begin();
    model_.erase(model_.begin());
    key_of_.erase(std::get<2>(top));
    now_ = std::get<0>(top);
    expected.emplace_back(now_, std::get<2>(top));
    ASSERT_EQ(s_.run_next(), Time{now_});
  }

  void on_fire(int id) {
    actual.emplace_back(now_, id);
    if (rng_() % 2 == 0) random_op();
    if (rng_() % 4 == 0) random_op();
  }

  void model_arm(int id, std::int64_t due, std::uint64_t seq) {
    model_disarm(id);
    model_.insert({due, seq, id});
    key_of_[id] = {due, seq};
  }
  void model_disarm(int id) {
    const auto it = key_of_.find(id);
    if (it == key_of_.end()) return;
    model_.erase({it->second.first, it->second.second, id});
    key_of_.erase(it);
  }

  void random_op() {
    const int id = static_cast<int>(rng_() % kSources);
    TestSource& source = *sources_[static_cast<std::size_t>(id)];
    const auto delta = static_cast<std::int64_t>(rng_() % 4);  // ties galore
    switch (rng_() % 6) {
      case 0:
      case 1: {  // arm, or re-arm later
        const auto it = key_of_.find(id);
        const std::int64_t due =
            (it == key_of_.end() ? now_ : it->second.first) + delta;
        arm(id, source, due);
        break;
      }
      case 2: {  // re-arm sooner (never before now)
        const auto it = key_of_.find(id);
        const std::int64_t base = it == key_of_.end() ? now_ + 3 : it->second.first;
        arm(id, source, std::max(now_, base - delta));
        break;
      }
      case 3:
        ASSERT_EQ(source.armed(), key_of_.count(id) == 1);
        source.disarm();
        model_disarm(id);
        break;
      case 4: {  // one-shot closure
        const int cid = next_closure_id_++;
        const std::uint64_t seq = s_.reserve_seq();
        const std::int64_t due = now_ + delta;
        handles_.emplace_back(
            s_.schedule_at(Time{due}, seq, [this, cid] { on_fire(cid); }), cid);
        model_arm(cid, due, seq);
        break;
      }
      case 5: {  // cancel a random (possibly stale) closure handle
        if (handles_.empty()) break;
        auto& [handle, cid] = handles_[rng_() % handles_.size()];
        ASSERT_EQ(handle.pending(), key_of_.count(cid) == 1);
        handle.cancel();
        model_disarm(cid);
        break;
      }
    }
  }

  void arm(int id, TestSource& source, std::int64_t due) {
    const std::uint64_t seq = s_.reserve_seq();
    s_.arm(source, Time{due}, seq);
    model_arm(id, due, seq);
  }

  Scheduler s_;
  std::mt19937_64 rng_;
  std::int64_t now_ = 0;
  std::vector<std::unique_ptr<TestSource>> sources_;
  std::vector<std::pair<EventHandle, int>> handles_;
  int next_closure_id_ = 1000;
  std::set<Key> model_;
  std::map<int, std::pair<std::int64_t, std::uint64_t>> key_of_;
};

TEST(Scheduler, SourceHeapMatchesReferenceOrder) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    OrderHarness harness{seed};
    harness.run();
    ASSERT_FALSE(harness.expected.empty()) << "seed " << seed;
    ASSERT_EQ(harness.actual, harness.expected) << "seed " << seed;
  }
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
  // Captures beyond std::function's inline buffer must still run and
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
