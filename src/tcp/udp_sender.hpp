// Constant-bit-rate UDP source — the unresponsive load in the paper's
// "5 TCP + 2 UDP" mixes (each UDP flow sends 6 Mb/s).
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace pi2::tcp {

class UdpSender {
 public:
  struct Config {
    std::int32_t flow = 0;
    double rate_bps = 6e6;
    std::int32_t packet_bytes = net::kDefaultMss;
    net::Ecn ecn = net::Ecn::kNotEct;
  };

  UdpSender(pi2::sim::Simulator& sim, Config config) : sim_(sim), config_(config) {}

  void set_output(std::function<void(net::Packet)> output) {
    output_ = std::move(output);
  }

  void start();
  void stop();

  [[nodiscard]] std::int64_t packets_sent() const { return packets_sent_; }

 private:
  void tick();

  pi2::sim::Simulator& sim_;
  Config config_;
  std::function<void(net::Packet)> output_;
  bool running_ = false;
  std::int64_t packets_sent_ = 0;
  pi2::sim::MemberEvent<UdpSender, &UdpSender::tick> next_packet_{
      pi2::sim::EventKind::kUdp, this};
};

}  // namespace pi2::tcp
