#include "scenario/dumbbell.hpp"

#include <cmath>
#include <stdexcept>

#include "scenario/wiring.hpp"
#include "telemetry/recorder.hpp"
#include "topology/dumbbell_adapter.hpp"
#include "topology/topology.hpp"

namespace pi2::scenario {

using pi2::sim::to_seconds;

std::string DumbbellConfig::validate() const {
  if (!(link_rate_bps > 0.0) || !std::isfinite(link_rate_bps)) {
    return bad_field("link_rate_bps", "be finite and > 0", link_rate_bps);
  }
  if (buffer_packets <= 0) {
    return bad_field("buffer_packets", "be > 0",
                     static_cast<double>(buffer_packets));
  }
  if (duration <= pi2::sim::kTimeZero) {
    return bad_field("duration", "be > 0 seconds", to_seconds(duration));
  }
  if (stats_start < pi2::sim::kTimeZero || stats_start > duration) {
    return bad_field("stats_start", "lie within [0, duration]",
                     to_seconds(stats_start));
  }
  if (sample_interval <= pi2::sim::Duration{0}) {
    return bad_field("sample_interval", "be > 0 seconds",
                     to_seconds(sample_interval));
  }
  if (std::string e = validate_aqm(aqm, "aqm."); !e.empty()) return e;
  for (std::size_t i = 0; i < tcp_flows.size(); ++i) {
    const std::string where = "tcp_flows[" + std::to_string(i) + "].";
    if (std::string e = validate_tcp_spec(tcp_flows[i], where); !e.empty()) {
      return e;
    }
  }
  for (std::size_t i = 0; i < udp_flows.size(); ++i) {
    const std::string where = "udp_flows[" + std::to_string(i) + "].";
    if (std::string e = validate_udp_spec(udp_flows[i], where); !e.empty()) {
      return e;
    }
  }
  for (std::size_t i = 0; i < fluid_flows.size(); ++i) {
    const std::string where = "fluid_flows[" + std::to_string(i) + "].";
    if (std::string e = validate_fluid_spec(fluid_flows[i], where);
        !e.empty()) {
      return e;
    }
  }
  if (fluid_dt <= pi2::sim::Duration{0}) {
    return bad_field("fluid_dt", "be > 0 seconds", to_seconds(fluid_dt));
  }
  for (std::size_t i = 0; i < rate_changes.size(); ++i) {
    const std::string where = "rate_changes[" + std::to_string(i) + "].";
    if (std::string e = validate_rate_change(rate_changes[i], where);
        !e.empty()) {
      return e;
    }
  }
  if (recorder != nullptr &&
      recorder->sampler().interval() <= pi2::sim::Duration{0}) {
    return bad_field("recorder.interval", "be > 0 seconds",
                     to_seconds(recorder->sampler().interval()));
  }
  return faults.validate(duration);
}

double RunResult::mean_goodput_mbps(tcp::CcType cc) const {
  double sum = 0.0;
  int n = 0;
  for (const FlowResult& f : flows) {
    if (!f.is_udp && !f.is_fluid && f.cc == cc) {
      sum += f.goodput_mbps;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

double RunResult::mean_udp_goodput_mbps() const {
  double sum = 0.0;
  int n = 0;
  for (const FlowResult& f : flows) {
    if (f.is_udp) {
      sum += f.goodput_mbps;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

double RunResult::observed_signal_rate() const {
  const auto arrivals = window_counters.enqueued + window_counters.aqm_dropped;
  if (arrivals == 0) return 0.0;
  return static_cast<double>(window_counters.aqm_dropped +
                             window_counters.marked) /
         static_cast<double>(arrivals);
}

RunResult run_dumbbell(const DumbbellConfig& config) {
  if (std::string error = config.validate(); !error.empty()) {
    throw std::invalid_argument("DumbbellConfig: " + error);
  }
  // The dumbbell is the trivial two-node topology; the engine preserves the
  // legacy wiring order, so this composition is digest-identical to the
  // pre-topology harness.
  return topology::to_run_result(
      topology::run_topology(topology::from_dumbbell(config)));
}

}  // namespace pi2::scenario
