// The bottleneck: a FIFO buffer drained by a rate-limited link, with a
// pluggable queue discipline (AQM) deciding drops and ECN marks.
//
// Semantics follow a Linux qdisc + NIC: a packet is removed from the buffer
// when its transmission starts, serializes for size*8/rate seconds, and is
// delivered to the sink when transmission completes. The drain rate can be
// changed mid-run (Figure 12's varying-link-capacity experiment).
//
// The link is itself a PacketSink (receive() is send()), so a sender or a
// delay pipe hands packets to it directly; its own sink is a borrowed
// PacketSink too.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/delay_pipe.hpp"
#include "net/packet.hpp"
#include "net/packet_sink.hpp"
#include "net/probe_bus.hpp"
#include "net/queue_discipline.hpp"
#include "sim/simulator.hpp"

namespace pi2::net {

class BottleneckLink final : public QueueView, public PacketSink {
 public:
  struct Config {
    double rate_bps = 10e6;
    /// Buffer limit in packets (the paper uses 40000 packets ~ 2.4 s at
    /// 200 Mb/s). Arrivals beyond this are tail-dropped regardless of AQM.
    std::int64_t buffer_packets = 40000;
  };

  struct Counters {
    std::int64_t enqueued = 0;
    std::int64_t forwarded = 0;
    std::int64_t aqm_dropped = 0;
    std::int64_t tail_dropped = 0;
    std::int64_t marked = 0;
    /// Packets discarded by the ingress fault filter (injected impairments;
    /// never counted in aqm_dropped/tail_dropped).
    std::int64_t fault_dropped = 0;
    /// Subset of aqm_dropped decided at dequeue time. Needed for packet
    /// conservation: these packets were counted in `enqueued` but never
    /// reach `forwarded`.
    std::int64_t dequeue_dropped = 0;
  };

  /// Per-band slice of the aggregate counters (multi-band disciplines:
  /// DualPI2's L queue is band 0, C is band 1). Single-band queues keep one
  /// slice that mirrors the aggregate (minus fault_dropped, which happens
  /// before classification). aqm_dropped includes the dequeue_dropped
  /// subset, matching the aggregate semantics; tail_dropped attributes the
  /// shared-buffer drops to the band the packet would have joined.
  struct BandCounters {
    std::int64_t enqueued = 0;
    std::int64_t forwarded = 0;
    std::int64_t marked = 0;
    std::int64_t aqm_dropped = 0;
    std::int64_t tail_dropped = 0;
    std::int64_t dequeue_dropped = 0;
  };

  /// Verdict of the ingress fault filter, applied before the AQM sees the
  /// packet. kDelay re-offers the packet to the queue after `delay` through
  /// a delay pipe (packet reordering); re-injected packets bypass the filter.
  struct IngressVerdict {
    enum class Action { kPass, kDrop, kDelay } action = Action::kPass;
    pi2::sim::Duration delay{};
  };

  BottleneckLink(pi2::sim::Simulator& sim, Config config,
                 std::unique_ptr<QueueDiscipline> qdisc);

  /// Where departing packets go (e.g. a propagation-delay pipe). Borrowed;
  /// without a sink departing packets vanish.
  void set_sink(PacketSink& sink) { sink_ = &sink; }

  /// The probe bus every observer of this queue subscribes to (multicast —
  /// every registered probe fires). PacketTrace, stats meters and telemetry
  /// all attach here.
  [[nodiscard]] ProbeBus& probes() { return probes_; }
  [[nodiscard]] const ProbeBus& probes() const { return probes_; }

  // Convenience forwarders onto the bus (the pre-bus public API).
  void add_departure_probe(ProbeBus::DepartureProbe probe) {
    probes_.add_departure(std::move(probe));
  }
  void add_drop_probe(ProbeBus::DropProbe probe) {
    probes_.add_drop(std::move(probe));
  }
  /// Fires when a packet is accepted into the queue (after AQM marking).
  void add_enqueue_probe(ProbeBus::EnqueueProbe probe) {
    probes_.add_enqueue(std::move(probe));
  }

  /// Offers a packet to the queue. The ingress fault filter (if any) runs
  /// first and may drop, delay or mutate the packet (impairment injection);
  /// then the AQM verdict and the buffer limit apply; accepted packets are
  /// eventually delivered to the sink.
  void send(const Packet& packet);

  /// PacketSink: a packet handed to the link is sent into it.
  void receive(const Packet& packet) override { send(packet); }

  /// Installs the impairment hook send() consults. The filter may mutate
  /// the packet in place (e.g. clear its ECN codepoint). One filter at a
  /// time; the fault subsystem composes its impairments internally.
  void set_ingress_filter(std::function<IngressVerdict(Packet&)> filter) {
    ingress_filter_ = std::move(filter);
  }

  /// Changes the drain rate; applies from the next transmission start.
  void set_rate_bps(double bps) { config_.rate_bps = bps; }

  /// Injects the fluid-tier queue state (hybrid fluid/packet runs). The
  /// fluid backlog joins the AQM's view of the queue (backlog_bytes and
  /// queue_delay) so the controller reacts to the aggregate congestion, and
  /// the fluid service rate reduces the capacity packets serialize at.
  /// Called once per fluid tick by the scenario glue; both zero when no
  /// fluid flows are configured.
  void set_fluid_state(std::int64_t fluid_backlog_bytes,
                       double fluid_rate_bps) {
    fluid_backlog_bytes_ = fluid_backlog_bytes;
    fluid_rate_bps_ = fluid_rate_bps;
  }
  [[nodiscard]] std::int64_t fluid_backlog_bytes() const {
    return fluid_backlog_bytes_;
  }

  /// Byte backlog of the packet buffer alone, excluding the fluid tier.
  /// This is the quantity conserved by enqueue/dequeue/drop accounting (the
  /// InvariantMonitor cross-checks it against recount_backlog_bytes()).
  [[nodiscard]] std::int64_t packet_backlog_bytes() const {
    return packet_backlog_bytes_;
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const BandCounters& band_counters(std::size_t band) const {
    return band_counters_[band];
  }
  [[nodiscard]] const pi2::sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] QueueDiscipline& qdisc() { return *qdisc_; }
  [[nodiscard]] const QueueDiscipline& qdisc() const { return *qdisc_; }

  /// True while a packet is serializing on the wire (it has left the buffer
  /// but is not yet counted in `forwarded`). Exposed for the packet
  /// conservation invariant:
  ///   enqueued == forwarded + backlog_packets + transmitting + dequeue_dropped
  [[nodiscard]] bool transmitting() const { return transmitting_; }
  /// Band the in-flight packet came from; meaningful only while
  /// transmitting() (per-band conservation needs the attribution).
  [[nodiscard]] std::size_t transmitting_band() const { return transmitting_band_; }
  /// When the last transmission started: while the sink runs, the start of
  /// the departing packet's serialization (its busy interval ends now).
  [[nodiscard]] pi2::sim::Time tx_started() const { return tx_started_; }

  /// Recomputes the byte backlog from the buffer contents. O(queue length);
  /// the InvariantMonitor compares it against the incremental
  /// packet_backlog_bytes() accounting to catch drift/corruption. Never on
  /// the AQM decision path — backlog_bytes() is the O(1) running counter.
  [[nodiscard]] std::int64_t recount_backlog_bytes() const {
    std::int64_t total = 0;
    for (const auto& band : bands_) {
      for (const Packet& p : band) total += p.size;
    }
    return total;
  }

  // QueueView. backlog_bytes is the congestion signal the AQM integrates:
  // packet buffer plus the fluid tier's backlog, so PI2 regulates the
  // aggregate queue in hybrid runs.
  [[nodiscard]] std::int64_t backlog_bytes() const override {
    return packet_backlog_bytes_ + fluid_backlog_bytes_;
  }
  [[nodiscard]] std::int64_t backlog_packets() const override {
    std::int64_t total = 0;
    for (const auto& band : bands_) total += static_cast<std::int64_t>(band.size());
    return total;
  }
  [[nodiscard]] double link_rate_bps() const override { return config_.rate_bps; }
  [[nodiscard]] pi2::sim::Duration queue_delay() const override;
  [[nodiscard]] std::size_t band_count() const override { return bands_.size(); }
  [[nodiscard]] std::int64_t band_backlog_bytes(std::size_t band) const override {
    return band_backlog_bytes_[band];
  }
  [[nodiscard]] std::int64_t band_backlog_packets(std::size_t band) const override {
    return static_cast<std::int64_t>(bands_[band].size());
  }
  [[nodiscard]] pi2::sim::Duration band_head_sojourn(std::size_t band) const override;

 private:
  void accept(Packet packet);  ///< post-filter path: AQM + buffer limit
  void try_start_transmission();
  void finish_transmission();
  void drop(const Packet& packet, DropReason reason);
  /// Capacity left for packets after the fluid tier's service share.
  [[nodiscard]] double packet_rate_bps() const;
  /// Debug-build sampled audit: every 256th mutation recounts the buffer
  /// and asserts it matches the running counter. Compiles away in Release.
  void audit_backlog() const;

  pi2::sim::Simulator& sim_;
  Config config_;
  std::unique_ptr<QueueDiscipline> qdisc_;
  /// One FIFO per discipline band (size 1 for every single-queue AQM; the
  /// single-band path is behaviourally identical to the old flat buffer).
  std::vector<std::deque<Packet>> bands_;
  std::vector<BandCounters> band_counters_;
  std::vector<std::int64_t> band_backlog_bytes_;
  std::int64_t packet_backlog_bytes_ = 0;
  std::int64_t fluid_backlog_bytes_ = 0;
  double fluid_rate_bps_ = 0.0;
#ifndef NDEBUG
  mutable std::uint32_t audit_countdown_ = 256;
#endif
  bool transmitting_ = false;
  std::size_t transmitting_band_ = 0;
  /// The packet on the wire, when its serialization started, and the
  /// source that fires when it completes.
  Packet in_service_;
  pi2::sim::Time tx_started_{};
  pi2::sim::MemberEvent<BottleneckLink, &BottleneckLink::finish_transmission>
      tx_done_{pi2::sim::EventKind::kLinkTx, this};
  /// Re-offers held-back packets to accept(), past the ingress filter.
  class Reoffer final : public PacketSink {
   public:
    explicit Reoffer(BottleneckLink& link) : link_(link) {}
    void receive(const Packet& packet) override { link_.accept(packet); }

   private:
    BottleneckLink& link_;
  };

  /// Packets the ingress filter holds back (kDelay), re-offered to accept().
  DelayPipe held_;
  Reoffer reoffer_{*this};
  Counters counters_;
  PacketSink* sink_ = nullptr;
  std::function<IngressVerdict(Packet&)> ingress_filter_;
  ProbeBus probes_;
};

}  // namespace pi2::net
