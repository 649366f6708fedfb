// Typed packet sinks: where a component hands a packet on.
//
// The packet path (sender -> link -> delay pipe -> endpoint -> ACK pipe ->
// sender) is wired through PacketSink references: one virtual call per hop,
// the packet passed by reference, nothing type-erased. CallbackSink adapts a
// callable for tests, examples and other ad-hoc wiring.
#pragma once

#include <functional>
#include <utility>

#include "net/packet.hpp"

namespace pi2::net {

class PacketSink {
 public:
  PacketSink() = default;
  PacketSink(const PacketSink&) = delete;
  PacketSink& operator=(const PacketSink&) = delete;
  virtual ~PacketSink() = default;

  /// Takes delivery of `packet`; the sink copies what it keeps.
  virtual void receive(const Packet& packet) = 0;
};

/// A sink that calls `fn` for every packet.
class CallbackSink final : public PacketSink {
 public:
  explicit CallbackSink(std::function<void(const Packet&)> fn) : fn_(std::move(fn)) {}

  void receive(const Packet& packet) override { fn_(packet); }

 private:
  std::function<void(const Packet&)> fn_;
};

}  // namespace pi2::net
