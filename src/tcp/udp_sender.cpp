#include "tcp/udp_sender.hpp"

namespace pi2::tcp {

using pi2::sim::from_seconds;

void UdpSender::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void UdpSender::stop() {
  running_ = false;
  next_packet_.disarm();
}

void UdpSender::tick() {
  if (!running_) return;
  net::Packet packet;
  packet.flow = config_.flow;
  packet.seq = packets_sent_;
  packet.size = config_.packet_bytes;
  packet.ecn = config_.ecn;
  packet.sent_at = sim_.now();
  ++packets_sent_;
  if (output_) output_(packet);
  const double interval_s =
      static_cast<double>(config_.packet_bytes) * 8.0 / config_.rate_bps;
  sim_.arm(next_packet_, sim_.now() + from_seconds(interval_s));
}

}  // namespace pi2::tcp
