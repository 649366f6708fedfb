// Deterministic fan-out of independent tasks across N worker threads.
//
// The experiment sweeps behind the paper's figures run dozens of fully
// independent simulations (each owns its Simulator, RNG and stats); the
// runner executes them concurrently while keeping every observable output
// identical to a serial run:
//
//  - Tasks are indexed 0..count-1 and claimed from a single cursor — no
//    per-thread queues, no work stealing — so scheduling cannot influence
//    which task computes what.
//  - Results are buffered per index and handed to the consumer strictly in
//    submission order, on the calling thread. Anything the consumer prints
//    is therefore byte-identical regardless of the job count.
//  - Tasks must not share mutable state; each derives its randomness from
//    Rng::derive_seed(base_seed, index), never from a shared generator.
//
// Failure hardening: a multi-hour sweep must not lose every finished point
// because one point threw or wedged. Every run is guarded: it catches
// per-task exceptions, retries failed or stuck tasks at once (up to an
// attempt count, with an optional per-attempt wall-clock deadline), honors
// an optional cancellation flag for graceful shutdown, and returns a
// RunReport with a terminal TaskStatus per index instead of aborting.
//
// With jobs() == 1 (or count == 1) and no deadline, no threads are spawned
// at all and the tasks run inline, which doubles as the reference serial
// execution.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pi2::runner {

/// Terminal state of one task in a guarded run.
enum class TaskStatus : unsigned char {
  kOk,           ///< work completed (possibly after a retry)
  kFailed,       ///< every attempt threw
  kTimeout,      ///< every attempt exceeded the wall-clock deadline
  kInterrupted,  ///< cancelled by the GuardOptions::cancel flag before
                 ///< completing (graceful shutdown); never retried
};

[[nodiscard]] const char* to_string(TaskStatus status);

struct TaskFailure {
  std::size_t index = 0;
  TaskStatus status = TaskStatus::kFailed;
  std::string message;  ///< what() of the last attempt, or the deadline note
};

/// Outcome of a guarded run: one terminal status per index plus the failure
/// details, ordered by index.
struct RunReport {
  std::vector<TaskStatus> status;
  std::vector<TaskFailure> failures;

  [[nodiscard]] bool all_ok() const { return failures.empty(); }
  [[nodiscard]] std::size_t ok_count() const {
    return status.size() - failures.size();
  }
};

struct GuardOptions {
  /// Total attempts per task (first try included); 1 = no retries. A
  /// failed attempt is retried at once.
  int max_attempts = 2;
  /// Per-attempt deadline; zero = no watchdog. A task whose attempt
  /// exceeds it is marked stuck, its result (if the attempt eventually
  /// finishes) is discarded and a retry is dispatched if any attempts
  /// remain, on a fresh thread so a wedged worker cannot starve it.
  std::chrono::milliseconds attempt_deadline{0};
  /// Optional cancellation flag (graceful shutdown). Once it reads true, no
  /// new task or retry attempt starts: pending tasks go terminal with
  /// TaskStatus::kInterrupted (consume still runs for them, in order), and
  /// an in-flight attempt that fails is not retried. An in-flight attempt
  /// that *succeeds* after cancellation still commits — completed work is
  /// never thrown away. Borrowed; must outlive the run.
  const std::atomic<bool>* cancel = nullptr;
};

class ParallelRunner {
 public:
  /// `jobs` = 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ParallelRunner(unsigned jobs = 0);

  /// Worker count this runner fans out to.
  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Executes `work(i)` for every i in [0, count); failures degrade
  /// instead of aborting. `work` runs concurrently for distinct indices and
  /// must not touch shared mutable state. `consume(i, status)` runs for
  /// *every* index in order, on the calling thread, once that index is
  /// terminal — the caller decides how to render failed points. Returns the
  /// full report; never throws for task failures.
  ///
  /// With a deadline set, a stuck attempt may still be executing `work`
  /// while its retry runs on another thread, so `work` must be pure per
  /// index (true for the simulation sweeps: each point only touches its own
  /// state). Stragglers are joined before this call returns; the deadline
  /// bounds when a point is *reported* stuck, not the thread's lifetime.
  RunReport run_guarded(std::size_t count,
                        const std::function<void(std::size_t)>& work,
                        const std::function<void(std::size_t, TaskStatus)>& consume,
                        const GuardOptions& options = {}) const;

  /// Typed guarded runner: `consume` receives the produced result for kOk
  /// indices and nullptr for failed/timed-out ones. Results from stale
  /// (timed-out) attempts are discarded under the runner's lock, so the
  /// consumer never observes a torn write.
  template <typename Result>
  RunReport run_ordered_guarded(
      std::size_t count, const std::function<Result(std::size_t)>& produce,
      const std::function<void(std::size_t, TaskStatus, Result*)>& consume,
      const GuardOptions& options = {}) const {
    std::vector<std::optional<Result>> results(count);
    return run_guarded_commit(
        count,
        [&results, &produce](std::size_t i) {
          Result local = produce(i);
          // The commit closure runs under the runner's state lock and only
          // if this attempt is still the live one.
          return std::function<void()>(
              [&results, i, r = std::move(local)]() mutable {
                results[i].emplace(std::move(r));
              });
        },
        [&](std::size_t i, TaskStatus status) {
          consume(i, status, results[i] ? &*results[i] : nullptr);
          results[i].reset();
        },
        options);
  }

  /// Building block for the guarded runners: `work` returns a commit
  /// closure that the runner invokes under its state lock iff the attempt
  /// is still live (not superseded by a timeout retry). Prefer
  /// run_guarded/run_ordered_guarded.
  RunReport run_guarded_commit(
      std::size_t count,
      const std::function<std::function<void()>(std::size_t)>& work,
      const std::function<void(std::size_t, TaskStatus)>& consume,
      const GuardOptions& options) const;

 private:
  unsigned jobs_;
};

}  // namespace pi2::runner
