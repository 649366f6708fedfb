// The packet-event probe bus: the single multicast point every observer of
// a bottleneck queue subscribes to.
//
// The bus carries three event streams — enqueue, departure and drop (with a
// reason) — and fans each out to every registered listener. It is for optional observers: PacketTrace and the telemetry
// subsystem ride it, so adding an observer never requires touching the
// queue's data path and observers compose freely. With none attached an
// emission is an empty loop; the topology engine's own per-packet
// accounting (busy time, sojourn) runs in its typed link sink instead
// (busy intervals from BottleneckLink::tx_started()), off this type-erased
// path.
#pragma once

#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace pi2::net {

/// Why the queue discarded a packet.
enum class DropReason { kAqm, kTailDrop, kFault };

class ProbeBus {
 public:
  using EnqueueProbe = std::function<void(const Packet&)>;
  /// Receives the packet and its total time in the system (queue wait +
  /// serialization).
  using DepartureProbe = std::function<void(const Packet&, pi2::sim::Duration)>;
  using DropProbe = std::function<void(const Packet&, DropReason)>;

  void add_enqueue(EnqueueProbe probe) {
    enqueue_.push_back(std::move(probe));
  }
  void add_departure(DepartureProbe probe) {
    departure_.push_back(std::move(probe));
  }
  void add_drop(DropProbe probe) { drop_.push_back(std::move(probe)); }

  // Emission (called by the queue owning the bus).
  void emit_enqueue(const Packet& packet) const {
    for (const auto& probe : enqueue_) probe(packet);
  }
  void emit_departure(const Packet& packet, pi2::sim::Duration sojourn) const {
    for (const auto& probe : departure_) probe(packet, sojourn);
  }
  void emit_drop(const Packet& packet, DropReason reason) const {
    for (const auto& probe : drop_) probe(packet, reason);
  }

 private:
  std::vector<EnqueueProbe> enqueue_;
  std::vector<DepartureProbe> departure_;
  std::vector<DropProbe> drop_;
};

}  // namespace pi2::net
