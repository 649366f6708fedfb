#include "topology/topology.hpp"

#include <cmath>
#include <unordered_set>
#include <utility>

#include "scenario/wiring.hpp"
#include "telemetry/recorder.hpp"

namespace pi2::topology {

using pi2::sim::to_seconds;
using scenario::bad_field;

namespace {

bool known_node(const std::vector<std::string>& nodes,
                const std::string& name) {
  for (const std::string& n : nodes) {
    if (n == name) return true;
  }
  return false;
}

/// Shared path constraints for every route kind: at least two nodes, every
/// node configured, every consecutive pair a configured link, no revisits
/// (a looping path would re-offer packets to a link they already crossed).
std::string validate_path(const TopologyConfig& config,
                          const std::vector<std::string>& path,
                          const std::string& where) {
  if (path.size() < 2) {
    return bad_field(where + "path", "name at least two nodes",
                     static_cast<double>(path.size()));
  }
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (!known_node(config.nodes, path[i])) {
      return where + "path[" + std::to_string(i) +
             "] must name a configured node (got \"" + path[i] + "\")";
    }
  }
  std::unordered_set<std::string> seen;
  for (const std::string& node : path) {
    if (!seen.insert(node).second) {
      return where + "path must not revisit a node (got \"" + node + "\")";
    }
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (config.link_between(path[i], path[i + 1]) < 0) {
      return where + "path must follow configured links (no link \"" +
             path[i] + "->" + path[i + 1] + "\")";
    }
  }
  return "";
}

}  // namespace

int TopologyConfig::link_between(const std::string& a,
                                 const std::string& b) const {
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (links[i].from == a && links[i].to == b) return static_cast<int>(i);
  }
  return -1;
}

std::string TopologyConfig::validate() const {
  if (nodes.empty()) {
    return bad_field("nodes", "name at least one node", 0.0);
  }
  {
    std::unordered_set<std::string> seen;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].empty()) {
        return "nodes[" + std::to_string(i) + "] must be a non-empty name";
      }
      if (!seen.insert(nodes[i]).second) {
        return "nodes[" + std::to_string(i) + "] must be unique (got \"" +
               nodes[i] + "\")";
      }
    }
  }
  if (links.empty()) {
    return bad_field("links", "contain at least one link", 0.0);
  }
  {
    std::unordered_set<std::string> names;
    std::unordered_set<std::string> pairs;
    for (std::size_t i = 0; i < links.size(); ++i) {
      const LinkSpec& link = links[i];
      const std::string where = "links[" + std::to_string(i) + "].";
      if (!known_node(nodes, link.from)) {
        return where + "from must name a configured node (got \"" + link.from +
               "\")";
      }
      if (!known_node(nodes, link.to)) {
        return where + "to must name a configured node (got \"" + link.to +
               "\")";
      }
      if (link.from == link.to) {
        return where + "to must differ from .from (got \"" + link.to + "\")";
      }
      if (!pairs.insert(link.from + "->" + link.to).second) {
        return where + "from/to must be a unique directed pair (got \"" +
               link.from + "->" + link.to + "\")";
      }
      if (!link.name.empty() && !names.insert(link.name).second) {
        return where + "name must be unique (got \"" + link.name + "\")";
      }
      if (!(link.rate_bps > 0.0) || !std::isfinite(link.rate_bps)) {
        return bad_field(where + "rate_bps", "be finite and > 0",
                         link.rate_bps);
      }
      if (link.buffer_packets <= 0) {
        return bad_field(where + "buffer_packets", "be > 0",
                         static_cast<double>(link.buffer_packets));
      }
      if (link.delay < pi2::sim::Duration{0}) {
        return bad_field(where + "delay", "be >= 0 seconds",
                         to_seconds(link.delay));
      }
      if (std::string e = scenario::validate_aqm(link.aqm, where + "aqm.");
          !e.empty()) {
        return e;
      }
      for (std::size_t j = 0; j < link.rate_changes.size(); ++j) {
        if (std::string e = scenario::validate_rate_change(
                link.rate_changes[j],
                where + "rate_changes[" + std::to_string(j) + "].");
            !e.empty()) {
          return e;
        }
      }
      if (std::string e = link.faults.validate(duration); !e.empty()) {
        return where + e;
      }
    }
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
  if (fluid_dt <= pi2::sim::Duration{0}) {
    return bad_field("fluid_dt", "be > 0 seconds", to_seconds(fluid_dt));
  }
  for (std::size_t i = 0; i < tcp_flows.size(); ++i) {
    const std::string where = "tcp_flows[" + std::to_string(i) + "].";
    if (std::string e = validate_path(*this, tcp_flows[i].path, where);
        !e.empty()) {
      return e;
    }
    if (std::string e =
            scenario::validate_tcp_spec(tcp_flows[i].spec, where + "spec.");
        !e.empty()) {
      return e;
    }
  }
  for (std::size_t i = 0; i < udp_flows.size(); ++i) {
    const std::string where = "udp_flows[" + std::to_string(i) + "].";
    if (std::string e = validate_path(*this, udp_flows[i].path, where);
        !e.empty()) {
      return e;
    }
    if (std::string e =
            scenario::validate_udp_spec(udp_flows[i].spec, where + "spec.");
        !e.empty()) {
      return e;
    }
  }
  for (std::size_t i = 0; i < fluid_flows.size(); ++i) {
    const std::string where = "fluid_flows[" + std::to_string(i) + "].";
    if (std::string e = validate_path(*this, fluid_flows[i].path, where);
        !e.empty()) {
      return e;
    }
    if (fluid_flows[i].path.size() != 2) {
      return bad_field(where + "path", "cross exactly one link",
                       static_cast<double>(fluid_flows[i].path.size() - 1));
    }
    if (std::string e = scenario::validate_fluid_spec(fluid_flows[i].spec,
                                                      where + "spec.");
        !e.empty()) {
      return e;
    }
  }
  if (recorder != nullptr &&
      recorder->sampler().interval() <= pi2::sim::Duration{0}) {
    return bad_field("recorder.interval", "be > 0 seconds",
                     to_seconds(recorder->sampler().interval()));
  }
  return "";
}

double LinkResult::observed_signal_rate() const {
  const auto arrivals = window_counters.enqueued + window_counters.aqm_dropped;
  if (arrivals == 0) return 0.0;
  return static_cast<double>(window_counters.aqm_dropped +
                             window_counters.marked) /
         static_cast<double>(arrivals);
}

double TopologyResult::route_goodput_mbps(std::int32_t route) const {
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flow_route[i] == route && !flows[i].is_fluid) {
      sum += flows[i].goodput_mbps;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

scenario::RunResult to_run_result(TopologyResult result) {
  scenario::RunResult out;
  for (const LinkResult& link : result.links) {
    scenario::LinkSlice slice;
    slice.name = link.name;
    slice.mean_qdelay_ms = link.mean_qdelay_ms;
    slice.p99_qdelay_ms = link.p99_qdelay_ms;
    slice.utilization = link.utilization;
    slice.counters = link.counters;
    slice.window_counters = link.window_counters;
    slice.fault_counters = link.fault_counters;
    slice.guard_events = link.guard_events;
    slice.final_backlog_packets = link.final_backlog_packets;
    out.links.push_back(std::move(slice));
  }
  LinkResult& primary = result.links.front();
  out.qdelay_ms_series = std::move(primary.qdelay_ms_series);
  out.qdelay_ms_packets = std::move(primary.qdelay_ms_packets);
  out.mean_qdelay_ms = primary.mean_qdelay_ms;
  out.p99_qdelay_ms = primary.p99_qdelay_ms;
  out.classic_prob_series = std::move(primary.classic_prob_series);
  out.classic_prob_samples = std::move(primary.classic_prob_samples);
  out.scalable_prob_samples = std::move(primary.scalable_prob_samples);
  out.total_throughput_series = std::move(primary.total_throughput_series);
  out.utilization_series = std::move(primary.utilization_series);
  out.utilization = primary.utilization;
  out.counters = primary.counters;
  out.window_counters = primary.window_counters;
  out.band_l = primary.band_l;
  out.band_c = primary.band_c;
  out.window_band_l = primary.window_band_l;
  out.window_band_c = primary.window_band_c;
  out.fluid = primary.fluid;
  out.fault_counters = primary.fault_counters;
  out.guard_events = primary.guard_events;
  out.flows = std::move(result.flows);
  out.events_executed = result.events_executed;
  out.clamped_events = result.clamped_events;
  out.violations = std::move(result.violations);
  out.invariant_checks = result.invariant_checks;
  out.resilience = std::move(result.resilience);
  return out;
}

}  // namespace pi2::topology
