// run_topology(): wires a TopologyConfig graph into the Simulator.
//
// The body is the generalization of the legacy run_dumbbell() wiring with a
// per-link loop around every stage. The stage order — probes, sinks, flows,
// fluid tiers, rate schedules, fault injectors, monitors, telemetry,
// sampler, stats snapshot — is load-bearing: the scheduler breaks same-time
// ties FIFO by scheduling call order, so keeping the single-link sequence
// identical to the legacy harness is what makes run_dumbbell() (now a thin
// adapter over this engine) digest-identical to its pre-topology self.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "control/fluid_flow.hpp"
#include "durable/status.hpp"
#include "faults/fault_presets.hpp"
#include "net/delay_pipe.hpp"
#include "net/trace.hpp"
#include "scenario/wiring.hpp"
#include "sim/simulator.hpp"
#include "tcp/endpoint.hpp"
#include "tcp/flow_table.hpp"
#include "tcp/udp_sender.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/recorder.hpp"
#include "topology/topology.hpp"

namespace pi2::topology {

using pi2::sim::Duration;
using pi2::sim::from_seconds;
using pi2::sim::Time;
using pi2::sim::to_millis;
using pi2::sim::to_seconds;
using scenario::FluidFlowSpec;
using scenario::RateChange;
using scenario::TcpFlowSpec;
using scenario::UdpFlowSpec;

namespace {

/// Everything one link owns at runtime. Deque-hosted so closures can hold
/// references that stay valid as links are set up.
struct LinkRuntime {
  std::unique_ptr<net::BottleneckLink> link;
  stats::UtilizationMeter util_meter{std::chrono::seconds{1}};
  stats::RateMeter total_meter{std::chrono::seconds{1}};
  double busy_at_stats_start = 0.0;
  // Bytes the link served for packets since the last fluid tick; the fluid
  // tier is work-conserving from the residual capacity.
  double pkt_bytes_this_tick = 0.0;
  // Wall-clock seconds the link spent serializing packets (at the residual
  // rate when fluid is active) — the fluid tier's utilization credit is
  // computed against this measured total.
  double packet_busy_s = 0.0;

  std::unique_ptr<control::FluidFlowEnsemble> fluid;
  double fluid_backlog_bytes = 0.0;
  double fluid_arrival_bytes = 0.0;
  double fluid_served_bytes = 0.0;
  double fluid_dropped_bytes = 0.0;
  std::vector<double> spec_arrival_bytes;
  std::vector<double> spec_arrival_at_stats_start;
  /// Global fluid-route index behind each local ensemble spec.
  std::vector<std::size_t> fluid_route_of_spec;

  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<faults::InvariantMonitor> monitor;

  bool dualq = false;
  net::BottleneckLink::Counters counters_at_stats_start{};
  net::BottleneckLink::BandCounters band_l_at_stats_start{};
  net::BottleneckLink::BandCounters band_c_at_stats_start{};

  LinkResult out;
};

/// Samples every link's queue delay and AQM probabilities once per
/// `interval`: one source for the whole graph, so the event count matches
/// the legacy harness.
class LinkSampler {
 public:
  LinkSampler(pi2::sim::Simulator& sim, std::deque<LinkRuntime>& links,
              Duration interval, Time stats_start)
      : sim_(sim), links_(links), interval_(interval), stats_start_(stats_start) {
    sim_.arm(event_, sim_.now() + interval_);
  }

 private:
  void tick() {
    for (LinkRuntime& rt : links_) {
      rt.out.qdelay_ms_series.add(sim_.now(), to_millis(rt.link->queue_delay()));
      const double pc = rt.link->qdisc().classic_probability();
      const double ps = rt.link->qdisc().scalable_probability();
      rt.out.classic_prob_series.add(sim_.now(), pc);
      if (sim_.now() >= stats_start_) {
        rt.out.classic_prob_samples.add(pc);
        rt.out.scalable_prob_samples.add(ps);
      }
    }
    sim_.arm(event_, sim_.now() + interval_);
  }

  pi2::sim::Simulator& sim_;
  std::deque<LinkRuntime>& links_;
  Duration interval_;
  Time stats_start_;
  pi2::sim::MemberEvent<LinkSampler, &LinkSampler::tick> event_{
      pi2::sim::EventKind::kSampler, this};
};

/// Resolved routes: the queue after link `li` on a packet's route.
struct Routes {
  std::deque<LinkRuntime>& links;
  std::vector<std::vector<std::uint32_t>> links_of_route;
  std::vector<std::uint32_t> route_of_flow;

  /// nullptr after the route's final hop.
  [[nodiscard]] net::BottleneckLink* next(const net::Packet& packet,
                                          std::uint32_t li) const {
    const std::vector<std::uint32_t>& route =
        links_of_route[route_of_flow[static_cast<std::size_t>(packet.flow)]];
    std::size_t hop = 0;
    while (hop < route.size() && route[hop] != li) ++hop;
    return hop + 1 < route.size() ? links[route[hop + 1]].link.get() : nullptr;
  }
};

/// The half-RTT propagation pipes of every flow: a data and an ACK pipe per
/// half-RTT bucket.
struct Buckets {
  std::deque<net::DelayPipe> data;  // deque: stable refs as buckets appear
  std::deque<net::DelayPipe> ack;
  std::vector<std::size_t> of_flow;
};

/// A packet leaving link `li`: accounts its busy interval and sojourn, then
/// propagates it the link's delay to the next queue on its route, or, after
/// the final hop, its flow's current half-RTT to the receiver (so RTT-step
/// faults apply to each packet sent after the step).
class LinkExit final : public net::PacketSink {
 public:
  LinkExit(LinkRuntime& rt, const pi2::sim::Simulator& sim, Time stats_start,
           const tcp::FlowTable& flows, const Routes& routes,
           net::DelayPipe& hop_pipe, Buckets& buckets, std::uint32_t li)
      : rt_(rt), sim_(sim), stats_start_(stats_start), flows_(flows),
        routes_(routes), hop_pipe_(hop_pipe), buckets_(buckets), li_(li) {}

  void receive(const net::Packet& packet) override {
    const Time now = sim_.now();
    const Time started = rt_.link->tx_started();
    rt_.util_meter.add_busy(started, now);
    rt_.packet_busy_s += to_seconds(now - started);
    if (now >= stats_start_) {
      rt_.out.qdelay_ms_packets.add(to_millis(now - packet.enqueued_at));
    }
    if (!flows_.contains(packet.flow)) return;
    rt_.pkt_bytes_this_tick += packet.size;
    rt_.total_meter.add_bytes(now, packet.size);
    if (routes_.next(packet, li_) != nullptr) {
      hop_pipe_.send(packet);
      return;
    }
    buckets_.data[buckets_.of_flow[static_cast<std::size_t>(packet.flow)]].send(
        packet, flows_.half_rtt(packet.flow));
  }

 private:
  LinkRuntime& rt_;
  const pi2::sim::Simulator& sim_;
  Time stats_start_;
  const tcp::FlowTable& flows_;
  const Routes& routes_;
  net::DelayPipe& hop_pipe_;
  Buckets& buckets_;
  std::uint32_t li_;
};

/// A packet at the end of link `li`'s propagation delay: it joins the next
/// queue on its route.
class HopExit final : public net::PacketSink {
 public:
  HopExit(const Routes& routes, std::uint32_t li) : routes_(routes), li_(li) {}

  void receive(const net::Packet& packet) override {
    routes_.next(packet, li_)->send(packet);
  }

 private:
  const Routes& routes_;
  std::uint32_t li_;
};

/// A data packet reaching its destination.
class DataDelivery final : public net::PacketSink {
 public:
  explicit DataDelivery(tcp::FlowTable& flows) : flows_(flows) {}

  void receive(const net::Packet& packet) override {
    if (flows_.kind(packet.flow) == tcp::FlowTable::Kind::kUdp) {
      flows_.count_udp_delivery(packet.flow, packet.size);
    } else {
      flows_.receiver(packet.flow)->on_data(packet);
    }
  }

 private:
  tcp::FlowTable& flows_;
};

/// A receiver's ACK, sent back over its flow's current half-RTT.
class AckPath final : public net::PacketSink {
 public:
  AckPath(const tcp::FlowTable& flows, Buckets& buckets)
      : flows_(flows), buckets_(buckets) {}

  void receive(const net::Packet& ack) override {
    buckets_.ack[buckets_.of_flow[static_cast<std::size_t>(ack.flow)]].send(
        ack, flows_.half_rtt(ack.flow));
  }

 private:
  const tcp::FlowTable& flows_;
  Buckets& buckets_;
};

/// An ACK reaching its sender.
class AckDelivery final : public net::PacketSink {
 public:
  explicit AckDelivery(tcp::FlowTable& flows) : flows_(flows) {}

  void receive(const net::Packet& ack) override {
    flows_.sender(ack.flow)->on_ack(ack);
  }

 private:
  tcp::FlowTable& flows_;
};

}  // namespace

TopologyResult run_topology(const TopologyConfig& config) {
  if (std::string error = config.validate(); !error.empty()) {
    throw std::invalid_argument("TopologyConfig: " + error);
  }
  pi2::sim::Simulator sim{config.seed};
  sim.set_stop_flag(config.stop);

  const std::size_t n_links = config.links.size();
  const bool single_link = n_links == 1;

  std::deque<LinkRuntime> links;
  for (const LinkSpec& spec : config.links) {
    LinkRuntime& rt = links.emplace_back();
    net::BottleneckLink::Config link_config;
    link_config.rate_bps = spec.rate_bps;
    link_config.buffer_packets = spec.buffer_packets;
    rt.link = std::make_unique<net::BottleneckLink>(sim, link_config,
                                                    spec.aqm.make());
    rt.out.name = spec.display_name();
  }

  TopologyResult result;
  tcp::FlowTable flows;

  // Routes resolved to link-index sequences. Global route numbering: tcp
  // routes first, then udp, then fluid; `route_of_flow` maps a flow id to
  // its route so the per-packet hop lookup is two dense array reads.
  Routes routes{links, {}, {}};
  std::vector<std::vector<std::uint32_t>>& route_links = routes.links_of_route;
  std::vector<std::uint32_t>& route_of_flow = routes.route_of_flow;
  const auto resolve_path = [&config](const std::vector<std::string>& path) {
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      out.push_back(static_cast<std::uint32_t>(
          config.link_between(path[i], path[i + 1])));
    }
    return out;
  };
  for (const TcpRoute& route : config.tcp_flows) {
    route_links.push_back(resolve_path(route.path));
  }
  for (const UdpRoute& route : config.udp_flows) {
    route_links.push_back(resolve_path(route.path));
  }
  for (const FluidRoute& route : config.fluid_flows) {
    route_links.push_back(resolve_path(route.path));
  }

  // Optional observers of the primary bottleneck. The engine's own
  // per-packet accounting (busy time, sojourn) runs in each LinkExit.
  if (config.trace != nullptr) config.trace->attach(*links[0].link);

  // Propagation runs through delay pipes, one event pending per pipe: a
  // data and an ACK pipe per half-RTT bucket, and one per link for the
  // hop to the next queue on a route. Every hop hands the packet on
  // through a typed sink.
  DataDelivery deliver_data{flows};
  AckDelivery deliver_ack{flows};
  Buckets buckets;
  AckPath ack_path{flows, buckets};
  std::vector<std::size_t>& bucket_of_flow = buckets.of_flow;
  std::unordered_map<std::int64_t, std::size_t> bucket_by_half_rtt;
  auto bucket_for = [&](Duration half_rtt) {
    const auto [it, inserted] =
        bucket_by_half_rtt.try_emplace(half_rtt.count(), buckets.data.size());
    if (inserted) {
      buckets.data.emplace_back(sim, half_rtt);
      buckets.data.back().set_sink(deliver_data);
      buckets.ack.emplace_back(sim, half_rtt);
      buckets.ack.back().set_sink(deliver_ack);
    }
    return it->second;
  };

  std::deque<net::DelayPipe> hop_pipes;
  std::deque<HopExit> hop_exits;
  std::deque<LinkExit> link_exits;
  for (std::uint32_t li = 0; li < n_links; ++li) {
    hop_pipes.emplace_back(sim, config.links[li].delay);
    hop_pipes.back().set_sink(hop_exits.emplace_back(routes, li));
  }
  for (std::uint32_t li = 0; li < n_links; ++li) {
    links[li].link->set_sink(link_exits.emplace_back(
        links[li], sim, config.stats_start, flows, routes, hop_pipes[li],
        buckets, li));
  }

  // --- Create flows. ------------------------------------------------------
  auto add_tcp_flow = [&](const TcpFlowSpec& spec, std::uint32_t route,
                          int index_in_spec) {
    tcp::TcpSender::Config sc;
    sc.flow = static_cast<std::int32_t>(flows.size());
    sc.max_cwnd = spec.max_cwnd;
    if (spec.segments > 0) sc.total_segments = spec.segments;
    auto sender = std::make_unique<tcp::TcpSender>(
        sim, sc, tcp::make_congestion_control(spec.cc));
    auto receiver = std::make_unique<tcp::TcpReceiver>(sc.flow);
    const std::int32_t flow_id =
        flows.add_tcp(spec.cc, spec.base_rtt, std::move(sender),
                      std::move(receiver));
    bucket_of_flow.push_back(bucket_for(spec.base_rtt / 2));
    route_of_flow.push_back(route);

    flows.sender(flow_id)->set_output(*links[route_links[route][0]].link);
    flows.receiver(flow_id)->set_ack_path(ack_path);

    if (spec.segments > 0) {
      flows.sender(flow_id)->set_completion_callback([&result, &sim, flow_id] {
        result.flow_completion_s[static_cast<std::size_t>(flow_id)] =
            to_seconds(sim.now());
      });
    }

    const Time start = spec.start + spec.stagger * index_in_spec;
    sim.at(start, [&flows, flow_id] { flows.sender(flow_id)->start(); });
    if (spec.stop < pi2::sim::kTimeInfinity) {
      sim.at(spec.stop, [&flows, flow_id] { flows.sender(flow_id)->stop(); });
    }
  };

  auto add_udp_flow = [&](const UdpFlowSpec& spec, std::uint32_t route) {
    tcp::UdpSender::Config uc;
    uc.flow = static_cast<std::int32_t>(flows.size());
    uc.rate_bps = spec.rate_bps;
    uc.packet_bytes = spec.packet_bytes;
    uc.ecn = spec.ecn;
    auto udp = std::make_unique<tcp::UdpSender>(sim, uc);
    const std::int32_t flow_id = flows.add_udp(spec.base_rtt, std::move(udp));
    bucket_of_flow.push_back(bucket_for(spec.base_rtt / 2));
    route_of_flow.push_back(route);
    flows.udp(flow_id)->set_output(*links[route_links[route][0]].link);
    sim.at(spec.start, [&flows, flow_id] { flows.udp(flow_id)->start(); });
    if (spec.stop < pi2::sim::kTimeInfinity) {
      sim.at(spec.stop, [&flows, flow_id] { flows.udp(flow_id)->stop(); });
    }
  };

  for (std::size_t i = 0; i < config.tcp_flows.size(); ++i) {
    const TcpFlowSpec& spec = config.tcp_flows[i].spec;
    for (int k = 0; k < spec.count; ++k) {
      add_tcp_flow(spec, static_cast<std::uint32_t>(i), k);
      result.flow_route.push_back(static_cast<std::int32_t>(i));
    }
  }
  for (std::size_t i = 0; i < config.udp_flows.size(); ++i) {
    const std::uint32_t route =
        static_cast<std::uint32_t>(config.tcp_flows.size() + i);
    for (int k = 0; k < config.udp_flows[i].spec.count; ++k) {
      add_udp_flow(config.udp_flows[i].spec, route);
      result.flow_route.push_back(static_cast<std::int32_t>(route));
    }
  }
  result.flow_completion_s.assign(flows.size() + config.fluid_flows.size(),
                                  -1.0);

  // --- Fluid tiers. --------------------------------------------------------
  // One ensemble per link that carries fluid routes, integrating against
  // that link's AQM signal; its tick also runs the fluid/packet capacity
  // split: packets are served first, the fluid tier gets what capacity the
  // tick's packet bytes left over, and the link serializes packets at the
  // rate the fluid service leaves (BottleneckLink::set_fluid_state).
  for (std::uint32_t li = 0; li < n_links; ++li) {
    LinkRuntime& rt = links[li];
    for (std::size_t fi = 0; fi < config.fluid_flows.size(); ++fi) {
      const std::uint32_t route = static_cast<std::uint32_t>(
          config.tcp_flows.size() + config.udp_flows.size() + fi);
      if (route_links[route][0] == li) rt.fluid_route_of_spec.push_back(fi);
    }
    if (rt.fluid_route_of_spec.empty()) continue;
    rt.spec_arrival_bytes.assign(rt.fluid_route_of_spec.size(), 0.0);
    rt.spec_arrival_at_stats_start.assign(rt.fluid_route_of_spec.size(), 0.0);

    control::FluidFlowEnsemble::Config fluid_config;
    fluid_config.dt_s = to_seconds(config.fluid_dt);
    rt.fluid = std::make_unique<control::FluidFlowEnsemble>(sim, fluid_config);
    for (const std::size_t fi : rt.fluid_route_of_spec) {
      const FluidFlowSpec& spec = config.fluid_flows[fi].spec;
      control::FluidFlowSpec fs;
      fs.signal = scenario::fluid_signal_for(spec.cc);
      fs.count = spec.count;
      fs.base_rtt_s = to_seconds(spec.base_rtt);
      fs.mss_bytes = spec.mss_bytes;
      fs.start_s = to_seconds(spec.start);
      fs.stop_s = to_seconds(spec.stop);
      rt.fluid->add_spec(fs);
    }
    control::FluidFlowEnsemble::Sources sources;
    net::BottleneckLink& link = *rt.link;
    sources.classic_probability = [&link] {
      return link.qdisc().classic_probability();
    };
    sources.scalable_probability = [&link] {
      return link.qdisc().scalable_probability();
    };
    sources.queue_delay_s = [&link] { return to_seconds(link.queue_delay()); };
    rt.fluid->set_sources(std::move(sources));
    const double dt_s = to_seconds(config.fluid_dt);
    const std::int64_t buffer_packets = config.links[li].buffer_packets;
    // Utilization bookkeeping across ticks: `target` is the cumulative
    // full-rate-equivalent busy time of everything the link carried
    // ((pkt + served)·8/C per tick); `credited` is what the fluid tier has
    // already added on top of the measured packet serialization time.
    rt.fluid->set_tick_sink([&rt, &sim, dt_s, buffer_packets,
                             target_busy_s = 0.0, credited_busy_s = 0.0,
                             last_packet_busy_s =
                                 0.0](double aggregate_bps) mutable {
      net::BottleneckLink& bottleneck = *rt.link;
      const double rate_bps = bottleneck.link_rate_bps();
      const double cap_bytes = rate_bps * dt_s / 8.0;
      const double pkt_bytes = std::exchange(rt.pkt_bytes_this_tick, 0.0);
      const double avail = std::max(cap_bytes - pkt_bytes, 0.0);
      const double demand = aggregate_bps * dt_s / 8.0;
      rt.fluid_backlog_bytes += demand;
      rt.fluid_arrival_bytes += demand;
      for (std::size_t i = 0; i < rt.spec_arrival_bytes.size(); ++i) {
        rt.spec_arrival_bytes[i] += rt.fluid->spec_rate_bps(i) * dt_s / 8.0;
      }
      const double served = std::min(rt.fluid_backlog_bytes, avail);
      rt.fluid_backlog_bytes -= served;
      rt.fluid_served_bytes += served;
      // Tail-drop analog: the fluid tier shares the link's buffer. Whatever
      // backlog the buffer cannot hold beyond the packets already queued is
      // discarded, exactly like the buffer-limit drop on the packet path.
      const double buffer_bytes =
          static_cast<double>(buffer_packets) * net::kDefaultMss;
      const double fluid_room = std::max(
          buffer_bytes -
              static_cast<double>(bottleneck.packet_backlog_bytes()),
          0.0);
      if (rt.fluid_backlog_bytes > fluid_room) {
        rt.fluid_dropped_bytes += rt.fluid_backlog_bytes - fluid_room;
        rt.fluid_backlog_bytes = fluid_room;
      }
      bottleneck.set_fluid_state(std::llround(rt.fluid_backlog_bytes),
                                 served * 8.0 / dt_s);
      // Credit the carried fluid bytes to the run's utilization and
      // throughput accounting; the comparison is cumulative because a
      // single packet's serialization spans many ticks at a small residual
      // rate while its bytes land in one.
      target_busy_s += (pkt_bytes + served) * 8.0 / rate_bps;
      // Never credit more than the tick's idle time.
      const double busy_in_tick = rt.packet_busy_s - last_packet_busy_s;
      last_packet_busy_s = rt.packet_busy_s;
      const double credit =
          std::clamp(target_busy_s - (rt.packet_busy_s + credited_busy_s), 0.0,
                     std::max(dt_s - busy_in_tick, 0.0));
      if (credit > 0.0) {
        rt.util_meter.add_busy(sim.now() - from_seconds(credit), sim.now());
        credited_busy_s += credit;
      }
      if (served > 0.0) {
        rt.total_meter.add_bytes(
            sim.now(), static_cast<std::int64_t>(std::llround(served)));
      }
    });
    rt.fluid->start();
  }

  // --- Schedules. ----------------------------------------------------------
  for (std::uint32_t li = 0; li < n_links; ++li) {
    net::BottleneckLink& link = *links[li].link;
    for (const RateChange& change : config.links[li].rate_changes) {
      sim.at(change.at,
             [&link, change] { link.set_rate_bps(change.rate_bps); });
    }
  }

  // Scripted impairments: one injector per link, each replaying its own
  // schedule from its own derived RNG stream (links[0] keeps the config
  // seed so single-link runs replay exactly as the legacy harness did).
  for (std::uint32_t li = 0; li < n_links; ++li) {
    LinkRuntime& rt = links[li];
    const std::uint64_t injector_seed =
        li == 0 ? config.seed
                : pi2::sim::Rng::derive_seed(config.seed, 0x1170ull + li);
    rt.injector = std::make_unique<faults::FaultInjector>(
        sim, config.links[li].faults, injector_seed);
    // RTT step: applies to the flows routed across this link (every flow
    // of a single-link run). Each such flow moves to the pipes of its new
    // half-RTT, so a pipe never mixes delays and its sends stay O(1).
    rt.injector->set_rtt_setter([&flows, &route_links, &route_of_flow,
                                 &bucket_of_flow, &bucket_for,
                                 li](Duration rtt) {
      for (std::int32_t f = 0; f < static_cast<std::int32_t>(flows.size());
           ++f) {
        const std::vector<std::uint32_t>& route =
            route_links[route_of_flow[static_cast<std::size_t>(f)]];
        if (std::find(route.begin(), route.end(), li) != route.end()) {
          flows.set_base_rtt(f, rtt);
          bucket_of_flow[static_cast<std::size_t>(f)] = bucket_for(rtt / 2);
        }
      }
    });
    rt.injector->attach(*rt.link);
  }

  // Runtime invariant checking per link, sampled alongside the stats probes.
  for (LinkRuntime& rt : links) {
    faults::InvariantMonitor::Config monitor_config;
    monitor_config.interval = config.sample_interval;
    rt.monitor = std::make_unique<faults::InvariantMonitor>(sim, *rt.link,
                                                            monitor_config);
    if (config.check_invariants) rt.monitor->start();
  }

  // --- Telemetry. ----------------------------------------------------------
  // links[0] owns the legacy unprefixed names so single-link snapshots are
  // byte-identical to the dumbbell harness; additional links get
  // "topo.<link>."-prefixed gauges.
  telemetry::MetricsRegistry* probe_registry =
      config.recorder != nullptr ? &config.recorder->registry()
                                 : config.registry;
  if (probe_registry != nullptr) {
    telemetry::MetricsRegistry& reg = *probe_registry;
    telemetry::attach_link_probes(reg, *links[0].link);
    telemetry::attach_aqm_probes(reg, links[0].link->qdisc());
    telemetry::attach_simulator_probes(reg, sim);
    reg.gauge("tcp.retransmits", [&flows] {
      return static_cast<double>(flows.total_retransmits());
    });
    reg.gauge("tcp.timeouts", [&flows] {
      return static_cast<double>(flows.total_timeouts());
    });
    if (links[0].fluid) {
      LinkRuntime& rt0 = links[0];
      reg.gauge("fluid.backlog_bytes",
                [&rt0] { return rt0.fluid_backlog_bytes; });
      reg.gauge("fluid.aggregate_bps",
                [&f = *rt0.fluid] { return f.aggregate_rate_bps(); });
      reg.gauge("fluid.active_flows",
                [&f = *rt0.fluid] { return f.active_flow_count(); });
    }
    reg.gauge("faults.applied", [&injector = *links[0].injector] {
      const faults::FaultInjector::Counters& fc = injector.counters();
      return static_cast<double>(fc.dropped + fc.bleached + fc.reordered +
                                 fc.rate_changes + fc.rtt_changes);
    });
    if (links[0].link->band_count() > 1) {
      net::BottleneckLink& link = *links[0].link;
      reg.gauge("dualq.l_delay_ms",
                [&link] { return to_millis(link.band_head_sojourn(0)); });
      reg.gauge("dualq.c_delay_ms",
                [&link] { return to_millis(link.band_head_sojourn(1)); });
      reg.gauge("dualq.l_marked", [&link] {
        return static_cast<double>(link.band_counters(0).marked);
      });
      reg.gauge("dualq.l_dropped", [&link] {
        return static_cast<double>(link.band_counters(0).aqm_dropped);
      });
      reg.gauge("dualq.c_marked", [&link] {
        return static_cast<double>(link.band_counters(1).marked);
      });
      reg.gauge("dualq.c_dropped", [&link] {
        return static_cast<double>(link.band_counters(1).aqm_dropped);
      });
      reg.gauge("dualq.coupling_k",
                [&link] { return link.qdisc().coupling_factor(); });
    }
    if (!single_link) {
      for (std::size_t li = 1; li < n_links; ++li) {
        LinkRuntime& rt = links[li];
        const std::string prefix = "topo." + rt.out.name + ".";
        net::BottleneckLink& link = *rt.link;
        reg.gauge(prefix + "qdelay_ms",
                  [&link] { return to_millis(link.queue_delay()); });
        reg.gauge(prefix + "backlog_packets", [&link] {
          return static_cast<double>(link.backlog_packets());
        });
        reg.gauge(prefix + "enqueued", [&link] {
          return static_cast<double>(link.counters().enqueued);
        });
        reg.gauge(prefix + "forwarded", [&link] {
          return static_cast<double>(link.counters().forwarded);
        });
        reg.gauge(prefix + "marked", [&link] {
          return static_cast<double>(link.counters().marked);
        });
        reg.gauge(prefix + "aqm_dropped", [&link] {
          return static_cast<double>(link.counters().aqm_dropped);
        });
        reg.gauge(prefix + "tail_dropped", [&link] {
          return static_cast<double>(link.counters().tail_dropped);
        });
        reg.gauge(prefix + "fault_dropped", [&link] {
          return static_cast<double>(link.counters().fault_dropped);
        });
      }
    }
  }
  if (config.recorder != nullptr) {
    telemetry::RunManifest& manifest = config.recorder->manifest();
    manifest.seed = config.seed;
    manifest.build_flags = telemetry::build_flags_string();
    if (single_link) {
      // Exactly the legacy manifest block, so single-link artifacts are
      // unchanged down to the key set.
      const LinkSpec& spec = config.links[0];
      manifest.fault_digest = telemetry::fault_schedule_digest(spec.faults);
      manifest.set("link_rate_bps", spec.rate_bps);
      manifest.set("buffer_packets",
                   static_cast<std::uint64_t>(spec.buffer_packets));
      manifest.set("aqm.type", std::string(to_string(spec.aqm.type)));
      manifest.set("aqm.target_ms", to_millis(spec.aqm.target));
      manifest.set("aqm.t_update_ms", to_millis(spec.aqm.t_update));
      manifest.set("aqm.ecn", std::string(spec.aqm.ecn ? "true" : "false"));
      manifest.set("aqm.coupling_k", spec.aqm.coupling_k);
      manifest.set("aqm.max_classic_prob", spec.aqm.max_classic_prob);
      if (spec.aqm.type == scenario::AqmType::kDualPi2) {
        manifest.set("aqm.t_shift_ms", to_millis(spec.aqm.t_shift));
        manifest.set("aqm.l_drop_percent", spec.aqm.l_drop_percent);
        manifest.set("aqm.l_thresh_packets",
                     static_cast<std::uint64_t>(spec.aqm.l_thresh_packets));
      }
      if (spec.aqm.alpha_hz) manifest.set("aqm.alpha_hz", *spec.aqm.alpha_hz);
      if (spec.aqm.beta_hz) manifest.set("aqm.beta_hz", *spec.aqm.beta_hz);
    } else {
      std::string digest;
      for (const LinkSpec& spec : config.links) {
        if (!digest.empty()) digest += ",";
        digest += telemetry::fault_schedule_digest(spec.faults);
      }
      manifest.fault_digest = digest;
      manifest.set("topology.nodes",
                   static_cast<std::uint64_t>(config.nodes.size()));
      manifest.set("topology.links", static_cast<std::uint64_t>(n_links));
      for (std::size_t li = 0; li < n_links; ++li) {
        const LinkSpec& spec = config.links[li];
        const std::string prefix = "link[" + std::to_string(li) + "].";
        manifest.set(prefix + "name", links[li].out.name);
        manifest.set(prefix + "rate_bps", spec.rate_bps);
        manifest.set(prefix + "aqm.type", std::string(to_string(spec.aqm.type)));
      }
    }
    manifest.set("tcp_flow_specs",
                 static_cast<std::uint64_t>(config.tcp_flows.size()));
    manifest.set("udp_flow_specs",
                 static_cast<std::uint64_t>(config.udp_flows.size()));
    manifest.set("fluid_flow_specs",
                 static_cast<std::uint64_t>(config.fluid_flows.size()));
    manifest.set("flows", static_cast<std::uint64_t>(flows.size()));
    manifest.set("duration_s", to_seconds(config.duration));
    manifest.set("stats_start_s", to_seconds(config.stats_start));
    manifest.set("sample_interval_s", to_seconds(config.sample_interval));
    config.recorder->start(sim);
  }

  LinkSampler link_sampler{sim, links, config.sample_interval,
                           config.stats_start};

  // Snapshot cumulative counters at the start of the stats window (one
  // event for the whole graph).
  for (LinkRuntime& rt : links) rt.dualq = rt.link->band_count() > 1;
  sim.at(config.stats_start, [&] {
    for (LinkRuntime& rt : links) {
      rt.busy_at_stats_start = rt.util_meter.total_busy_seconds();
      rt.counters_at_stats_start = rt.link->counters();
      if (rt.dualq) {
        rt.band_l_at_stats_start = rt.link->band_counters(0);
        rt.band_c_at_stats_start = rt.link->band_counters(1);
      }
      rt.spec_arrival_at_stats_start = rt.spec_arrival_bytes;
    }
    for (std::int32_t f = 0; f < static_cast<std::int32_t>(flows.size());
         ++f) {
      flows.bytes_at_stats_start(f) = flows.delivered_bytes(f);
    }
  });

  // --- Run. ----------------------------------------------------------------
  {
    std::unique_ptr<telemetry::ScopedTimer> timer;
    if (config.recorder != nullptr) {
      timer = std::make_unique<telemetry::ScopedTimer>(
          config.recorder->profile().section("sim.run"));
    }
    sim.run_until(config.duration);
  }

  if (sim.stopped()) {
    // Graceful shutdown at an event boundary: commit what telemetry exists
    // while the probed objects are still alive, then report not-done.
    if (config.recorder != nullptr) {
      config.recorder->manifest().set("interrupted", std::string("true"));
      config.recorder->finish(sim.now());
    } else if (config.registry != nullptr) {
      config.registry->freeze_gauges();
    }
    throw durable::InterruptedError(
        "run interrupted by shutdown request at t=" +
        std::to_string(to_seconds(sim.now())) + "s (of " +
        std::to_string(to_seconds(config.duration)) + "s)");
  }

  // --- Collect results. ----------------------------------------------------
  const double stats_span_s = to_seconds(config.duration - config.stats_start);
  for (LinkRuntime& rt : links) {
    rt.util_meter.flush(config.duration);
    rt.total_meter.flush(config.duration);
    LinkResult& out = rt.out;
    out.utilization_series = rt.util_meter.series();
    out.total_throughput_series = rt.total_meter.series();
    out.counters = rt.link->counters();
    out.window_counters =
        scenario::counters_window(out.counters, rt.counters_at_stats_start);
    if (rt.dualq) {
      out.band_l = rt.link->band_counters(0);
      out.band_c = rt.link->band_counters(1);
      out.window_band_l =
          scenario::band_window(out.band_l, rt.band_l_at_stats_start);
      out.window_band_c =
          scenario::band_window(out.band_c, rt.band_c_at_stats_start);
    }
    if (stats_span_s > 0.0) {
      const double busy =
          rt.util_meter.total_busy_seconds() - rt.busy_at_stats_start;
      out.utilization = busy / stats_span_s;
    }
    out.fluid.arrival_bytes = rt.fluid_arrival_bytes;
    out.fluid.served_bytes = rt.fluid_served_bytes;
    out.fluid.dropped_bytes = rt.fluid_dropped_bytes;
    out.fluid.final_backlog_bytes = rt.fluid_backlog_bytes;
    out.fluid.ticks = rt.fluid ? rt.fluid->ticks() : 0;
    out.mean_qdelay_ms = out.qdelay_ms_packets.mean();
    out.p99_qdelay_ms = out.qdelay_ms_packets.p99();
    out.fault_counters = rt.injector->counters();
    out.guard_events = rt.link->qdisc().guard_events();
    out.final_backlog_packets = rt.link->backlog_packets();
    out.final_transmitting = rt.link->transmitting();
  }

  for (std::int32_t f = 0; f < static_cast<std::int32_t>(flows.size()); ++f) {
    scenario::FlowResult fr;
    fr.cc = flows.cc(f);
    fr.is_udp = flows.kind(f) == tcp::FlowTable::Kind::kUdp;
    if (stats_span_s > 0.0) {
      const auto bytes = flows.delivered_bytes(f) - flows.bytes_at_stats_start(f);
      fr.goodput_mbps = static_cast<double>(bytes) * 8.0 / stats_span_s / 1e6;
    }
    if (const tcp::TcpSender* sender = flows.sender(f)) {
      fr.retransmits = sender->retransmits();
      fr.timeouts = sender->timeouts();
    }
    result.flows.push_back(fr);
  }
  // One FlowResult per fluid route: goodput is the windowed offered rate
  // averaged over the spec's `count` modelled flows.
  for (std::size_t fi = 0; fi < config.fluid_flows.size(); ++fi) {
    const std::uint32_t route = static_cast<std::uint32_t>(
        config.tcp_flows.size() + config.udp_flows.size() + fi);
    const std::uint32_t li = route_links[route][0];
    LinkRuntime& rt = links[li];
    std::size_t local = 0;
    while (rt.fluid_route_of_spec[local] != fi) ++local;
    const FluidFlowSpec& spec = config.fluid_flows[fi].spec;
    scenario::FlowResult fr;
    fr.cc = spec.cc;
    fr.is_fluid = true;
    fr.count = spec.count;
    if (stats_span_s > 0.0 && spec.count > 0.0) {
      const double bytes = rt.spec_arrival_bytes[local] -
                           rt.spec_arrival_at_stats_start[local];
      fr.goodput_mbps = bytes * 8.0 / stats_span_s / 1e6 / spec.count;
    }
    result.flows.push_back(fr);
    result.flow_route.push_back(static_cast<std::int32_t>(route));
  }

  result.events_executed = sim.events_executed();
  result.clamped_events = sim.clamped_events();
  for (LinkRuntime& rt : links) {
    const auto& violations = rt.monitor->violations();
    result.violations.insert(result.violations.end(), violations.begin(),
                             violations.end());
    result.invariant_checks += rt.monitor->checks_run();
    result.links.push_back(std::move(rt.out));
  }

  // Resilience scoring of the primary link's disturbances: how fast the AQM
  // re-converged after each fault window, and whether any invariant
  // violation happened outside a window's recovery transient.
  {
    const std::vector<faults::FaultWindow> fault_windows =
        faults::fault_windows(config.links[0].faults, config.duration);
    std::vector<stats::RecoveryWindow> windows;
    windows.reserve(fault_windows.size());
    for (const faults::FaultWindow& w : fault_windows) {
      windows.push_back({w.start_s, w.end_s});
    }
    std::vector<Time> violation_times;
    violation_times.reserve(result.violations.size());
    for (const faults::InvariantViolation& v : result.violations) {
      violation_times.push_back(v.at);
    }
    stats::RecoveryOptions opts;
    opts.band_ms = 2.0 * to_millis(config.links[0].aqm.target);
    opts.hold_s = 1.0;
    opts.analysis_start_s = to_seconds(config.stats_start);
    opts.duration_s = to_seconds(config.duration);
    result.resilience = stats::analyze_recovery(
        result.links.front().qdelay_ms_series, windows, violation_times, opts);
    // Faulted runs surface the scores as telemetry; fault-free runs keep the
    // legacy gauge set so existing snapshots stay byte-identical.
    if (probe_registry != nullptr && !config.links[0].faults.empty()) {
      const stats::ResilienceReport& rr = result.resilience;
      telemetry::MetricsRegistry& reg = *probe_registry;
      reg.gauge("resilience.windows").set(static_cast<double>(rr.windows));
      reg.gauge("resilience.recovered_windows")
          .set(static_cast<double>(rr.recovered_windows));
      reg.gauge("resilience.worst_recovery_s").set(rr.worst_recovery_s);
      reg.gauge("resilience.mean_recovery_s").set(rr.mean_recovery_s);
      reg.gauge("resilience.peak_qdelay_ms").set(rr.peak_qdelay_ms);
      reg.gauge("resilience.post_fault_delta_ms").set(rr.post_fault_delta_ms);
      reg.gauge("resilience.violations_in_window")
          .set(static_cast<double>(rr.violations_in_window));
      reg.gauge("resilience.violations_outside")
          .set(static_cast<double>(rr.violations_outside));
    }
  }

  // Finish telemetry while the probed objects are still alive: the final
  // sample and manifest snapshot read bound gauges.
  if (config.recorder != nullptr) {
    config.recorder->finish(config.duration);
  } else if (config.registry != nullptr) {
    config.registry->freeze_gauges();
  }
  return result;
}

}  // namespace pi2::topology
