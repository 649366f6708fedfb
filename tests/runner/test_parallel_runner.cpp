#include "runner/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/rng.hpp"

namespace pi2::runner {
namespace {

TEST(ParallelRunner, DefaultsToAtLeastOneJob) {
  EXPECT_GE(ParallelRunner{}.jobs(), 1u);
  EXPECT_EQ(ParallelRunner{3}.jobs(), 3u);
}

TEST(ParallelRunner, ConsumesInSubmissionOrder) {
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    ParallelRunner pool{jobs};
    std::vector<std::size_t> consumed;
    const RunReport report = pool.run_guarded(
        100, [](std::size_t) {},
        [&](std::size_t i, TaskStatus) { consumed.push_back(i); });
    std::vector<std::size_t> expected(100);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(consumed, expected) << "jobs=" << jobs;
    EXPECT_TRUE(report.all_ok()) << "jobs=" << jobs;
  }
}

TEST(ParallelRunner, EveryTaskRunsExactlyOnce) {
  ParallelRunner pool{4};
  std::vector<std::atomic<int>> runs(500);
  (void)pool.run_guarded(
      500, [&](std::size_t i) { runs[i].fetch_add(1); },
      [](std::size_t, TaskStatus) {});
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ParallelRunner, RunOrderedDeliversProducedValues) {
  ParallelRunner pool{4};
  std::vector<std::uint64_t> out;
  (void)pool.run_ordered_guarded<std::uint64_t>(
      64, [](std::size_t i) { return static_cast<std::uint64_t>(i * i); },
      [&](std::size_t i, TaskStatus status, std::uint64_t* v) {
        EXPECT_EQ(status, TaskStatus::kOk);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, i * i);
        out.push_back(*v);
      });
  EXPECT_EQ(out.size(), 64u);
}

TEST(ParallelRunner, ParallelResultsMatchSerial) {
  // The determinism contract: same tasks, same per-index seeds -> the
  // consumed stream is identical for any job count.
  auto simulate = [](std::size_t i) {
    sim::Rng rng{sim::Rng::derive_seed(99, i)};
    double acc = 0;
    for (int k = 0; k < 1000; ++k) acc += rng.uniform();
    return acc;
  };
  const auto run = [&](unsigned jobs) {
    std::vector<double> values;
    (void)ParallelRunner{jobs}.run_ordered_guarded<double>(
        50, simulate, [&](std::size_t, TaskStatus, double* v) {
          ASSERT_NE(v, nullptr);
          values.push_back(*v);
        });
    return values;
  };
  EXPECT_EQ(run(1), run(4));  // bitwise: no reduction-order effects
}

TEST(ParallelRunner, ZeroTasksIsANoop) {
  ParallelRunner pool{4};
  const RunReport report = pool.run_guarded(
      0, [](std::size_t) { FAIL(); }, [](std::size_t, TaskStatus) { FAIL(); });
  EXPECT_TRUE(report.status.empty());
}

TEST(ParallelRunner, GuardedRunConsumesEveryIndexInOrder) {
  for (const unsigned jobs : {1u, 4u}) {
    ParallelRunner pool{jobs};
    std::vector<std::size_t> order;
    std::vector<TaskStatus> statuses;
    const RunReport report = pool.run_guarded(
        16,
        [](std::size_t i) {
          if (i % 5 == 0) throw std::runtime_error("bad");
        },
        [&](std::size_t i, TaskStatus status) {
          order.push_back(i);
          statuses.push_back(status);
        },
        GuardOptions{.max_attempts = 1});
    std::vector<std::size_t> expected(16);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected) << "jobs=" << jobs;
    EXPECT_FALSE(report.all_ok());
    EXPECT_EQ(report.failures.size(), 4u);  // 0, 5, 10, 15
    EXPECT_EQ(report.ok_count(), 12u);
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(statuses[i],
                i % 5 == 0 ? TaskStatus::kFailed : TaskStatus::kOk);
      EXPECT_EQ(report.status[i], statuses[i]);
    }
  }
}

TEST(ParallelRunner, GuardedRetryRecoversFlakyTask) {
  for (const unsigned jobs : {1u, 4u}) {
    ParallelRunner pool{jobs};
    std::atomic<int> attempts{0};
    const RunReport report = pool.run_guarded(
        8,
        [&](std::size_t i) {
          if (i == 2 && attempts.fetch_add(1) == 0) {
            throw std::runtime_error("flaky");
          }
        },
        [](std::size_t, TaskStatus) {},
        GuardOptions{.max_attempts = 2});
    EXPECT_TRUE(report.all_ok()) << "jobs=" << jobs;
    attempts = 0;
  }
}

TEST(ParallelRunner, GuardedOrderedDeliversNullForFailedTasks) {
  ParallelRunner pool{4};
  std::vector<bool> got_value;
  const RunReport report = pool.run_ordered_guarded<int>(
      10,
      [](std::size_t i) {
        if (i == 4) throw std::runtime_error("no value");
        return static_cast<int>(i) * 10;
      },
      [&](std::size_t i, TaskStatus status, int* value) {
        got_value.push_back(value != nullptr);
        if (value != nullptr) {
          EXPECT_EQ(status, TaskStatus::kOk);
          EXPECT_EQ(*value, static_cast<int>(i) * 10);
        }
      },
      GuardOptions{.max_attempts = 1});
  ASSERT_EQ(got_value.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(got_value[i], i != 4);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].index, 4u);
  EXPECT_EQ(report.failures[0].message, "no value");
}

TEST(ParallelRunner, WatchdogTimesOutWedgedTaskAndKeepsOrder) {
  // Task 3 sleeps far past the deadline on every attempt: it must be
  // reported kTimeout while every other task completes, still in order.
  ParallelRunner pool{2};
  std::vector<std::size_t> order;
  const RunReport report = pool.run_guarded(
      8,
      [](std::size_t i) {
        if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds{400});
      },
      [&](std::size_t i, TaskStatus) { order.push_back(i); },
      GuardOptions{.max_attempts = 2,
                   .attempt_deadline = std::chrono::milliseconds{50}});
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].index, 3u);
  EXPECT_EQ(report.failures[0].status, TaskStatus::kTimeout);
  EXPECT_EQ(report.status[3], TaskStatus::kTimeout);
}

TEST(ParallelRunner, CancelledBeforeStartInterruptsEveryTask) {
  for (const unsigned jobs : {1u, 4u}) {
    ParallelRunner pool{jobs};
    std::atomic<bool> cancel{true};
    std::atomic<int> ran{0};
    std::vector<std::size_t> order;
    std::vector<TaskStatus> statuses;
    const RunReport report = pool.run_guarded(
        8, [&](std::size_t) { ++ran; },
        [&](std::size_t i, TaskStatus status) {
          order.push_back(i);
          statuses.push_back(status);
        },
        GuardOptions{.cancel = &cancel});
    EXPECT_EQ(ran.load(), 0) << "no task may start after cancellation";
    std::vector<std::size_t> expected(8);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected) << "interrupted tasks are still consumed";
    for (const TaskStatus s : statuses) {
      EXPECT_EQ(s, TaskStatus::kInterrupted);
    }
    EXPECT_EQ(report.ok_count(), 0u);
    EXPECT_FALSE(report.all_ok());
  }
}

TEST(ParallelRunner, CancelMidRunKeepsFinishedWorkAndInterruptsTheRest) {
  // Serial pool: task 3 raises the flag while running. Work already done
  // (0..3, including the raiser — completed work is never thrown away)
  // stays kOk; everything after goes kInterrupted without running.
  ParallelRunner pool{1};
  std::atomic<bool> cancel{false};
  std::atomic<int> ran{0};
  const RunReport report = pool.run_guarded(
      8,
      [&](std::size_t i) {
        ++ran;
        if (i == 3) cancel.store(true);
      },
      [](std::size_t, TaskStatus) {}, GuardOptions{.cancel = &cancel});
  EXPECT_EQ(ran.load(), 4);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(report.status[i],
              i <= 3 ? TaskStatus::kOk : TaskStatus::kInterrupted)
        << "index " << i;
  }
  EXPECT_EQ(report.ok_count(), 4u);
}

TEST(ParallelRunner, FailedAttemptAfterCancelIsNotRetried) {
  ParallelRunner pool{1};
  std::atomic<bool> cancel{false};
  std::atomic<int> attempts{0};
  const RunReport report = pool.run_guarded(
      1,
      [&](std::size_t) {
        ++attempts;
        cancel.store(true);
        throw std::runtime_error("failed during shutdown");
      },
      [](std::size_t, TaskStatus) {},
      GuardOptions{.max_attempts = 5, .cancel = &cancel});
  EXPECT_EQ(attempts.load(), 1) << "no retries once shutdown is requested";
  EXPECT_FALSE(report.all_ok());
}

TEST(ParallelRunner, RetryRecoversARepeatedlyFailingTask) {
  // Two failures, then success — within max_attempts = 3.
  for (const unsigned jobs : {1u, 4u}) {
    ParallelRunner pool{jobs};
    std::atomic<int> attempts{0};
    const RunReport report = pool.run_guarded(
        4,
        [&](std::size_t i) {
          if (i == 2 && attempts.fetch_add(1) < 2) {
            throw std::runtime_error("flaky twice");
          }
        },
        [](std::size_t, TaskStatus) {},
        GuardOptions{.max_attempts = 3});
    EXPECT_TRUE(report.all_ok()) << "jobs=" << jobs;
    EXPECT_EQ(attempts.load(), 3) << "jobs=" << jobs;
    attempts = 0;
  }
}

TEST(ParallelRunner, StaleResultFromTimedOutAttemptIsDiscarded) {
  // The first attempt of task 0 outlives its deadline but eventually
  // produces a value; the retry produces another. Exactly one commit must
  // win and the consumer must observe a single coherent value.
  ParallelRunner pool{2};
  std::atomic<int> attempt{0};
  int seen = -1;
  int calls = 0;
  const RunReport report = pool.run_ordered_guarded<int>(
      1,
      [&](std::size_t) {
        const int a = attempt.fetch_add(1);
        if (a == 0) std::this_thread::sleep_for(std::chrono::milliseconds{200});
        return a;
      },
      [&](std::size_t, TaskStatus status, int* value) {
        ++calls;
        EXPECT_EQ(status, TaskStatus::kOk);
        if (value != nullptr) seen = *value;
      },
      GuardOptions{.max_attempts = 2,
                   .attempt_deadline = std::chrono::milliseconds{40}});
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 1);  // the retry's value, not the stale first attempt's
}

}  // namespace
}  // namespace pi2::runner
