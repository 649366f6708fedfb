// Runtime invariant checking alongside the stats sampler.
//
// A long sweep must not silently absorb corruption: a NaN probability, a
// drifting byte backlog or an event scheduled into the past would otherwise
// only show up — if at all — as a subtly wrong number in a table hours
// later. The monitor samples the queue and its discipline every interval
// and converts any violated invariant into a structured InvariantViolation
// report. Checks:
//
//   * classic/scalable probabilities are finite and within [0, 1];
//   * byte and packet backlogs are non-negative;
//   * the incremental byte backlog matches a recount of the buffer;
//   * packet conservation:
//       enqueued == forwarded + backlog + transmitting + dequeue_dropped;
//   * the simulated clock is monotone across samples;
//   * Simulator::clamped_events() stays zero (no event targeted the past);
//   * the discipline's PiCore guard counter stays zero (no NaN rejected);
//   * multi-band queues (DualPI2) additionally: per-band packet
//     conservation, band counters summing to the aggregate, and the coupled
//     law p_CL = min(k * p', 1) between the published probabilities.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/bottleneck_link.hpp"
#include "sim/simulator.hpp"

namespace pi2::faults {

struct InvariantViolation {
  pi2::sim::Time at{};   ///< sim time of the failing check
  std::string check;     ///< short invariant name, e.g. "prob-finite"
  std::string detail;    ///< actionable message with the observed values
};

class InvariantMonitor {
 public:
  struct Config {
    pi2::sim::Duration interval = pi2::sim::from_millis(100);
    /// Reports are capped so a persistent violation cannot eat the heap;
    /// total_violations() keeps counting past the cap.
    std::size_t max_reports = 64;
  };

  InvariantMonitor(pi2::sim::Simulator& sim, const net::BottleneckLink& link)
      : InvariantMonitor(sim, link, Config{}) {}
  InvariantMonitor(pi2::sim::Simulator& sim, const net::BottleneckLink& link,
                   Config config);

  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  /// Starts the periodic sampling (first check after one interval).
  void start();

  /// Runs every check once at the current sim time. Usable directly from
  /// tests; start() calls it on a timer.
  void check_now();

  [[nodiscard]] bool ok() const { return total_violations_ == 0; }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] std::uint64_t total_violations() const { return total_violations_; }
  [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }

  /// Human-readable multi-line report ("" when ok()).
  [[nodiscard]] std::string report() const;

 private:
  void tick();
  void fail(const char* check, std::string detail);

  pi2::sim::Simulator& sim_;
  const net::BottleneckLink& link_;
  Config config_;
  pi2::sim::Time last_sample_{pi2::sim::kTimeZero};
  std::uint64_t last_clamped_ = 0;
  std::uint64_t last_guards_ = 0;
  std::uint64_t checks_run_ = 0;
  std::uint64_t total_violations_ = 0;
  std::vector<InvariantViolation> violations_;
  pi2::sim::MemberEvent<InvariantMonitor, &InvariantMonitor::tick> tick_{
      pi2::sim::EventKind::kMonitor, this};
};

}  // namespace pi2::faults
