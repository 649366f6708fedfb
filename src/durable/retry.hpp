// RetryPolicy: one retry vocabulary for every guarded run in the repo.
//
// The parallel runner used to hard-code "one retry, immediately". That is
// the wrong shape for both of its uses: transient faults (an injected I/O
// failure, a watchdog timeout) deserve a short backoff so a congested
// machine isn't hammered, while deterministic sim bugs deserve to fail fast.
// RetryPolicy makes attempts, per-attempt deadline and backoff explicit and
// sharable between the campaign driver and check_fuzz.
//
// Backoff is exponential with *deterministic* jitter: the jitter fraction is
// derived from (jitter_seed, task index, attempt) via a splitmix-style hash,
// never from wall-clock or a global RNG. Two runs of the same campaign
// produce the same backoff schedule, which keeps guarded-run traces and the
// kill-and-resume test reproducible.
#pragma once

#include <chrono>
#include <cstdint>

namespace pi2::durable {

struct RetryPolicy {
  /// Total attempts per task (first try included). 1 = no retries.
  int max_attempts = 2;
  /// Per-attempt deadline; zero disables the watchdog.
  std::chrono::milliseconds attempt_deadline{0};
  /// Base delay before the first retry (attempt index 1).
  std::chrono::milliseconds backoff_base{0};
  /// Multiplier applied per further attempt (2.0 = classic doubling).
  double backoff_multiplier = 2.0;
  /// Cap on any single backoff sleep.
  std::chrono::milliseconds backoff_max{10000};
  /// Jitter as a fraction of the computed delay (0.1 = +/-10%).
  double jitter_fraction = 0.1;
  /// Seed for the deterministic jitter hash (mix in the campaign seed).
  std::uint64_t jitter_seed = 0;

  [[nodiscard]] bool valid() const {
    return max_attempts >= 1 && backoff_multiplier >= 1.0 &&
           jitter_fraction >= 0.0 && jitter_fraction <= 1.0 &&
           attempt_deadline.count() >= 0 && backoff_base.count() >= 0 &&
           backoff_max.count() >= 0;
  }

  /// Delay to sleep before attempt `attempt` (1-based retry index: the
  /// sleep preceding the second attempt is backoff_before(i, 1)) of task
  /// `task_index`. Deterministic: depends only on the policy and arguments.
  [[nodiscard]] std::chrono::milliseconds backoff_before(
      std::uint64_t task_index, int attempt) const;
};

}  // namespace pi2::durable
