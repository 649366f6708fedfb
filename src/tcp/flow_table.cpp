#include "tcp/flow_table.hpp"

#include <utility>

#include "tcp/endpoint.hpp"
#include "tcp/udp_sender.hpp"

namespace pi2::tcp {

FlowTable::FlowTable() = default;
FlowTable::~FlowTable() = default;

std::int32_t FlowTable::add_tcp(CcType cc, pi2::sim::Duration base_rtt,
                                std::unique_ptr<TcpSender> sender,
                                std::unique_ptr<TcpReceiver> receiver) {
  const auto id = static_cast<std::int32_t>(kind_.size());
  half_rtt_.push_back(base_rtt / 2);
  kind_.push_back(Kind::kTcp);
  senders_.push_back(sender.get());
  receivers_.push_back(receiver.get());
  udp_delivered_bytes_.push_back(0);
  Cold& cold = cold_.emplace_back();
  cold.cc = cc;
  cold.sender = std::move(sender);
  cold.receiver = std::move(receiver);
  return id;
}

std::int32_t FlowTable::add_udp(pi2::sim::Duration base_rtt,
                                std::unique_ptr<UdpSender> udp) {
  const auto id = static_cast<std::int32_t>(kind_.size());
  half_rtt_.push_back(base_rtt / 2);
  kind_.push_back(Kind::kUdp);
  senders_.push_back(nullptr);
  receivers_.push_back(nullptr);
  udp_delivered_bytes_.push_back(0);
  Cold& cold = cold_.emplace_back();
  cold.udp = std::move(udp);
  return id;
}

UdpSender* FlowTable::udp(std::int32_t flow) {
  return cold_[static_cast<std::size_t>(flow)].udp.get();
}

CcType FlowTable::cc(std::int32_t flow) const {
  return cold_[static_cast<std::size_t>(flow)].cc;
}

std::int64_t FlowTable::delivered_bytes(std::int32_t flow) const {
  const TcpReceiver* receiver = receivers_[static_cast<std::size_t>(flow)];
  return receiver != nullptr ? receiver->delivered_bytes()
                             : udp_delivered_bytes_[static_cast<std::size_t>(flow)];
}

std::int64_t& FlowTable::bytes_at_stats_start(std::int32_t flow) {
  return cold_[static_cast<std::size_t>(flow)].bytes_at_stats_start;
}

std::int64_t FlowTable::total_retransmits() const {
  std::int64_t n = 0;
  for (const Cold& c : cold_) {
    if (c.sender) n += c.sender->retransmits();
  }
  return n;
}

std::int64_t FlowTable::total_timeouts() const {
  std::int64_t n = 0;
  for (const Cold& c : cold_) {
    if (c.sender) n += c.sender->timeouts();
  }
  return n;
}

}  // namespace pi2::tcp
