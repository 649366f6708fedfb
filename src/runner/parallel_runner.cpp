#include "runner/parallel_runner.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

namespace pi2::runner {

const char* to_string(TaskStatus status) {
  switch (status) {
    case TaskStatus::kOk: return "ok";
    case TaskStatus::kFailed: return "failed";
    case TaskStatus::kTimeout: return "timeout";
    case TaskStatus::kInterrupted: return "interrupted";
  }
  return "?";
}

ParallelRunner::ParallelRunner(unsigned jobs) : jobs_(jobs) {
  if (jobs_ == 0) jobs_ = std::thread::hardware_concurrency();
  if (jobs_ == 0) jobs_ = 1;
}

namespace {

/// Per-task lifecycle in a guarded run. Terminal cells map 1:1 to TaskStatus.
enum class Cell : unsigned char {
  kPending,
  kRunning,
  kOk,
  kFailed,
  kTimeout,
  kInterrupted,
};

bool terminal(Cell c) { return c >= Cell::kOk; }

TaskStatus to_status(Cell c) {
  switch (c) {
    case Cell::kOk: return TaskStatus::kOk;
    case Cell::kFailed: return TaskStatus::kFailed;
    case Cell::kInterrupted: return TaskStatus::kInterrupted;
    default: return TaskStatus::kTimeout;
  }
}

std::string deadline_message(std::chrono::milliseconds deadline, int attempts) {
  return "exceeded " + std::to_string(deadline.count()) +
         " ms wall-clock deadline (attempt " + std::to_string(attempts) + ")";
}

constexpr const char* kCancelledMessage = "cancelled before completion";

}  // namespace

RunReport ParallelRunner::run_guarded_commit(
    std::size_t count,
    const std::function<std::function<void()>(std::size_t)>& work,
    const std::function<void(std::size_t, TaskStatus)>& consume,
    const GuardOptions& options) const {
  RunReport report;
  if (count == 0) return report;
  const int max_attempts = std::max(1, options.max_attempts);
  const auto deadline = options.attempt_deadline;
  const bool watchdog_enabled = deadline.count() > 0;
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
  const auto cancelled = [&options] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_acquire);
  };

  report.status.assign(count, TaskStatus::kOk);

  if (workers <= 1 && !watchdog_enabled) {
    // Reference serial execution: no threads, no buffering. Retries run
    // back-to-back on the calling thread.
    for (std::size_t i = 0; i < count; ++i) {
      TaskStatus status = TaskStatus::kFailed;
      std::string message;
      for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        if (cancelled()) {
          status = TaskStatus::kInterrupted;
          if (message.empty()) message = kCancelledMessage;
          break;
        }
        try {
          std::function<void()> commit = work(i);
          if (commit) commit();
          status = TaskStatus::kOk;
          break;
        } catch (const std::exception& e) {
          message = e.what();
        } catch (...) {
          message = "unknown exception";
        }
        // A failure observed after cancellation is an interruption, not a
        // retryable fault: the task most likely aborted *because* of the
        // shutdown (simulator stop flag), and shutdown must not wait for
        // pointless retries either way.
        if (cancelled()) {
          status = TaskStatus::kInterrupted;
          break;
        }
      }
      report.status[i] = status;
      if (status != TaskStatus::kOk) {
        report.failures.push_back({i, status, message});
      }
      consume(i, status);
    }
    return report;
  }

  struct Shared {
    std::mutex mutex;
    std::condition_variable work_cv;  ///< workers: retry arrived / all done
    std::condition_variable done_cv;  ///< consumer + watchdog: task terminal
    std::vector<Cell> state;
    std::vector<int> attempts;           ///< attempts started
    std::vector<std::uint32_t> generation;  ///< bumped per attempt start
    std::vector<std::chrono::steady_clock::time_point> started;
    std::vector<std::string> error;
    std::deque<std::size_t> retry_queue;
    std::size_t next = 0;
    std::size_t terminal_count = 0;
    std::size_t count = 0;
    bool cancel_drained = false;  ///< pending tasks already swept on cancel
  };
  Shared s;
  s.state.assign(count, Cell::kPending);
  s.attempts.assign(count, 0);
  s.generation.assign(count, 0);
  s.started.assign(count, {});
  s.error.assign(count, {});
  s.count = count;

  auto mark_terminal = [&s](std::size_t i, Cell cell) {
    // Caller holds s.mutex.
    s.state[i] = cell;
    ++s.terminal_count;
    s.done_cv.notify_all();
    if (s.terminal_count == s.count) s.work_cv.notify_all();
  };

  // On cancellation, every not-yet-started task (unclaimed or queued for
  // retry) goes terminal as kInterrupted. In-flight attempts are left to
  // finish; their own commit path observes the flag. Caller holds s.mutex.
  auto drain_pending_on_cancel = [&s, &mark_terminal] {
    if (s.cancel_drained) return;
    s.cancel_drained = true;
    s.retry_queue.clear();
    s.next = s.count;
    for (std::size_t i = 0; i < s.count; ++i) {
      if (s.state[i] == Cell::kPending) {  // unclaimed or queued for retry
        s.error[i] = kCancelledMessage;
        mark_terminal(i, Cell::kInterrupted);
      }
    }
    s.work_cv.notify_all();
  };

  auto worker_loop = [&]() {
    for (;;) {
      std::size_t i;
      std::uint32_t my_generation;
      {
        std::unique_lock<std::mutex> lock(s.mutex);
        for (;;) {
          if (cancelled()) drain_pending_on_cancel();
          if (s.terminal_count == s.count) return;
          if (!s.retry_queue.empty() || s.next < s.count) break;
          s.work_cv.wait(lock);
        }
        if (!s.retry_queue.empty()) {
          i = s.retry_queue.front();
          s.retry_queue.pop_front();
        } else {
          i = s.next++;
        }
        s.state[i] = Cell::kRunning;
        ++s.attempts[i];
        my_generation = ++s.generation[i];
        s.started[i] = std::chrono::steady_clock::now();
      }

      std::function<void()> commit;
      std::string message;
      bool threw = false;
      try {
        commit = work(i);
      } catch (const std::exception& e) {
        threw = true;
        message = e.what();
      } catch (...) {
        threw = true;
        message = "unknown exception";
      }

      std::lock_guard<std::mutex> lock(s.mutex);
      if (s.generation[i] != my_generation) continue;  // stale: superseded
      if (!threw) {
        if (commit) commit();
        mark_terminal(i, Cell::kOk);
      } else {
        s.error[i] = std::move(message);
        if (cancelled()) {
          // Aborted by shutdown (or failed during it): terminal, no retry.
          mark_terminal(i, Cell::kInterrupted);
        } else if (s.attempts[i] < max_attempts) {
          s.state[i] = Cell::kPending;
          s.retry_queue.push_back(i);
          s.work_cv.notify_one();
        } else {
          mark_terminal(i, Cell::kFailed);
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker_loop);

  // The watchdog retires attempts that exceed the wall-clock deadline. A
  // retry is dispatched on a *fresh* thread because the pool worker running
  // the stuck attempt cannot pick it up.
  std::vector<std::thread> extra_threads;
  std::thread watchdog;
  if (watchdog_enabled) {
    watchdog = std::thread([&] {
      const auto tick = std::min<std::chrono::milliseconds>(
          std::chrono::milliseconds{50},
          std::max<std::chrono::milliseconds>(deadline / 4,
                                              std::chrono::milliseconds{1}));
      for (;;) {
        unsigned spawn = 0;
        {
          std::unique_lock<std::mutex> lock(s.mutex);
          if (s.done_cv.wait_for(lock, tick, [&] {
                return s.terminal_count == s.count;
              })) {
            return;
          }
          if (cancelled()) drain_pending_on_cancel();
          const auto now = std::chrono::steady_clock::now();
          for (std::size_t i = 0; i < s.count; ++i) {
            if (s.state[i] != Cell::kRunning) continue;
            if (now - s.started[i] < deadline) continue;
            ++s.generation[i];  // the in-flight attempt is now stale
            s.error[i] = deadline_message(deadline, s.attempts[i]);
            if (cancelled()) {
              // No fresh threads during shutdown; the stuck attempt is
              // abandoned as interrupted.
              mark_terminal(i, Cell::kInterrupted);
            } else if (s.attempts[i] < max_attempts) {
              s.state[i] = Cell::kPending;
              s.retry_queue.push_back(i);
              s.work_cv.notify_one();
              ++spawn;
            } else {
              mark_terminal(i, Cell::kTimeout);
            }
          }
        }
        for (unsigned k = 0; k < spawn; ++k) {
          extra_threads.emplace_back(worker_loop);
        }
      }
    });
  }

  // Consume the ordered prefix as indices become terminal; failed points
  // are reported, not fatal.
  for (std::size_t i = 0; i < count; ++i) {
    TaskStatus status;
    std::string message;
    {
      std::unique_lock<std::mutex> lock(s.mutex);
      s.done_cv.wait(lock, [&] { return terminal(s.state[i]); });
      status = to_status(s.state[i]);
      message = s.error[i];
    }
    report.status[i] = status;
    if (status != TaskStatus::kOk) {
      report.failures.push_back({i, status, std::move(message)});
    }
    consume(i, status);
  }

  for (std::thread& t : pool) t.join();
  if (watchdog.joinable()) watchdog.join();
  for (std::thread& t : extra_threads) t.join();
  return report;
}

RunReport ParallelRunner::run_guarded(
    std::size_t count, const std::function<void(std::size_t)>& work,
    const std::function<void(std::size_t, TaskStatus)>& consume,
    const GuardOptions& options) const {
  return run_guarded_commit(
      count,
      [&work](std::size_t i) {
        work(i);
        return std::function<void()>{};
      },
      consume, options);
}

}  // namespace pi2::runner
