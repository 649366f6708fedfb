#include "topology/dumbbell_adapter.hpp"

namespace pi2::topology {

TopologyConfig from_dumbbell(const scenario::DumbbellConfig& config) {
  TopologyConfig topo;
  topo.nodes = {"snd", "rcv"};
  LinkSpec link;
  link.name = "bottleneck";
  link.from = "snd";
  link.to = "rcv";
  link.rate_bps = config.link_rate_bps;
  link.buffer_packets = config.buffer_packets;
  link.aqm = config.aqm;
  link.rate_changes = config.rate_changes;
  link.faults = config.faults;
  topo.links.push_back(std::move(link));

  const std::vector<std::string> path = {"snd", "rcv"};
  for (const scenario::TcpFlowSpec& spec : config.tcp_flows) {
    topo.tcp_flows.push_back({spec, path});
  }
  for (const scenario::UdpFlowSpec& spec : config.udp_flows) {
    topo.udp_flows.push_back({spec, path});
  }
  for (const scenario::FluidFlowSpec& spec : config.fluid_flows) {
    topo.fluid_flows.push_back({spec, path});
  }

  topo.fluid_dt = config.fluid_dt;
  topo.duration = config.duration;
  topo.stats_start = config.stats_start;
  topo.seed = config.seed;
  topo.sample_interval = config.sample_interval;
  topo.check_invariants = config.check_invariants;
  topo.trace = config.trace;
  topo.recorder = config.recorder;
  topo.registry = config.registry;
  topo.stop = config.stop;
  return topo;
}

}  // namespace pi2::topology
