#include "faults/invariant_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pi2::faults {

using pi2::sim::Time;
using pi2::sim::to_seconds;

InvariantMonitor::InvariantMonitor(pi2::sim::Simulator& sim,
                                   const net::BottleneckLink& link,
                                   Config config)
    : sim_(sim), link_(link), config_(config) {}

void InvariantMonitor::start() { sim_.arm(tick_, sim_.now() + config_.interval); }

void InvariantMonitor::tick() {
  check_now();
  start();
}

void InvariantMonitor::fail(const char* check, std::string detail) {
  ++total_violations_;
  if (violations_.size() < kMaxReports) {
    violations_.push_back({sim_.now(), check, std::move(detail)});
  }
}

namespace {

std::string format(const char* fmt, double a, double b = 0.0) {
  char buf[192];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

std::string format_ll(const char* fmt, long long a, long long b = 0) {
  char buf[192];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

}  // namespace

void InvariantMonitor::check_now() {
  ++checks_run_;
  const Time now = sim_.now();

  // Monotone clock across samples.
  if (now < last_sample_) {
    fail("clock-monotone",
         format("sample time %.9fs went backwards from %.9fs",
                to_seconds(now), to_seconds(last_sample_)));
  }
  last_sample_ = now;

  // Probabilities finite and in range.
  const double pc = link_.qdisc().classic_probability();
  const double ps = link_.qdisc().scalable_probability();
  if (!std::isfinite(pc) || pc < 0.0 || pc > 1.0) {
    fail("prob-classic", format("classic probability p = %g outside [0, 1]", pc));
  }
  if (!std::isfinite(ps) || ps < 0.0 || ps > 1.0) {
    fail("prob-scalable",
         format("scalable probability p' = %g outside [0, 1]", ps));
  }

  // Backlogs non-negative and byte accounting consistent. The drift check
  // targets the packet buffer's running counter specifically: the AQM-facing
  // backlog_bytes() additionally includes the fluid tier, whose backlog is
  // modelled rather than recountable from buffer contents.
  const std::int64_t bytes = link_.backlog_bytes();
  const std::int64_t packets = link_.backlog_packets();
  if (bytes < 0) {
    fail("backlog-bytes", format_ll("backlog_bytes = %lld is negative",
                                    static_cast<long long>(bytes)));
  }
  if (packets < 0) {
    fail("backlog-packets", format_ll("backlog_packets = %lld is negative",
                                      static_cast<long long>(packets)));
  }
  const std::int64_t packet_bytes = link_.packet_backlog_bytes();
  const std::int64_t recount = link_.recount_backlog_bytes();
  if (packet_bytes != recount) {
    fail("backlog-drift",
         format_ll("incremental packet_backlog_bytes = %lld but buffer recount = %lld",
                   static_cast<long long>(packet_bytes),
                   static_cast<long long>(recount)));
  }

  // Packet conservation.
  const auto& c = link_.counters();
  const std::int64_t accounted = c.forwarded + packets +
                                 (link_.transmitting() ? 1 : 0) +
                                 c.dequeue_dropped;
  if (c.enqueued != accounted) {
    fail("packet-conservation",
         format_ll("enqueued = %lld but forwarded+backlog+in-flight+"
                   "dequeue-drops = %lld",
                   static_cast<long long>(c.enqueued),
                   static_cast<long long>(accounted)));
  }

  // Multi-band (DualQ) invariants: per-band packet conservation, band
  // counters summing to the aggregate, and the coupled law.
  if (link_.band_count() > 1) {
    std::int64_t band_enqueued = 0;
    std::int64_t band_forwarded = 0;
    for (std::size_t b = 0; b < link_.band_count(); ++b) {
      const auto& bc = link_.band_counters(b);
      band_enqueued += bc.enqueued;
      band_forwarded += bc.forwarded;
      const std::int64_t band_accounted =
          bc.forwarded + link_.band_backlog_packets(b) +
          ((link_.transmitting() && link_.transmitting_band() == b) ? 1 : 0) +
          bc.dequeue_dropped;
      if (bc.enqueued != band_accounted) {
        fail("band-conservation",
             format_ll("band enqueued = %lld but forwarded+backlog+in-flight+"
                       "dequeue-drops = %lld",
                       static_cast<long long>(bc.enqueued),
                       static_cast<long long>(band_accounted)));
      }
    }
    if (band_enqueued != c.enqueued || band_forwarded != c.forwarded) {
      fail("band-sum",
           format_ll("band counters sum to %lld enqueued / %lld forwarded, "
                     "aggregate disagrees",
                     static_cast<long long>(band_enqueued),
                     static_cast<long long>(band_forwarded)));
    }
    // Coupled law p_CL = min(k * p', 1): the discipline publishes the
    // coupled probability as scalable_probability() and (p')^2 as
    // classic_probability(), so ps must equal min(k * sqrt(pc), 1).
    const double k = link_.qdisc().coupling_factor();
    if (k > 0.0 && std::isfinite(pc) && pc >= 0.0) {
      const double expected = std::min(k * std::sqrt(pc), 1.0);
      if (std::isfinite(ps) && std::abs(ps - expected) > 1e-9) {
        fail("coupled-law",
             format("scalable probability %g != min(k*sqrt(p_C), 1) = %g", ps,
                    expected));
      }
    }
  }

  // No events scheduled into the past since the last check.
  const std::uint64_t clamped = sim_.clamped_events();
  if (clamped != last_clamped_) {
    fail("clamped-events",
         format_ll("%lld event(s) targeted the past and were clamped "
                   "(total %lld)",
                   static_cast<long long>(clamped - last_clamped_),
                   static_cast<long long>(clamped)));
    last_clamped_ = clamped;
  }

  // Controller rejected a non-finite update (PiCore saturating guard).
  const std::uint64_t guards = link_.qdisc().guard_events();
  if (guards != last_guards_) {
    fail("controller-guard",
         format_ll("controller rejected %lld non-finite update(s) "
                   "(total %lld)",
                   static_cast<long long>(guards - last_guards_),
                   static_cast<long long>(guards)));
    last_guards_ = guards;
  }
}

std::string InvariantMonitor::report() const {
  if (ok()) return "";
  std::string out = "invariant violations (" +
                    std::to_string(total_violations_) + " total, " +
                    std::to_string(violations_.size()) + " reported):\n";
  for (const InvariantViolation& v : violations_) {
    char line[256];
    std::snprintf(line, sizeof line, "  t=%.3fs [%s] %s\n",
                  to_seconds(v.at), v.check.c_str(), v.detail.c_str());
    out += line;
  }
  return out;
}

}  // namespace pi2::faults
