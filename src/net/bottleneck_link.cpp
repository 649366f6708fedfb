#include "net/bottleneck_link.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pi2::net {

using pi2::sim::Duration;
using pi2::sim::from_seconds;

BottleneckLink::BottleneckLink(pi2::sim::Simulator& sim, Config config,
                               std::unique_ptr<QueueDiscipline> qdisc)
    : sim_(sim), config_(config), qdisc_(std::move(qdisc)), held_(sim, {}) {
  assert(config_.rate_bps > 0);
  assert(qdisc_ != nullptr);
  const std::size_t bands = std::max<std::size_t>(qdisc_->band_count(), 1);
  bands_.resize(bands);
  band_counters_.resize(bands);
  band_backlog_bytes_.resize(bands, 0);
  qdisc_->install(sim_, *this);
  held_.set_sink(reoffer_);
}

pi2::sim::Duration BottleneckLink::band_head_sojourn(std::size_t band) const {
  const auto& q = bands_[band];
  if (q.empty()) return {};
  return sim_.now() - q.front().enqueued_at;
}

Duration BottleneckLink::queue_delay() const {
  // Aggregate (packet + fluid) backlog over the full link rate: the sojourn
  // time a byte arriving now would see, which is what the AQM regulates.
  return from_seconds(static_cast<double>(backlog_bytes()) * 8.0 / config_.rate_bps);
}

double BottleneckLink::packet_rate_bps() const {
  // The fluid tier is served work-conserving from the same capacity, so
  // packets serialize at what remains. Floor at 1% of the link so a fluid
  // overload slows the packet tier down rather than stalling it outright.
  return std::max(config_.rate_bps - fluid_rate_bps_, 0.01 * config_.rate_bps);
}

void BottleneckLink::audit_backlog() const {
#ifndef NDEBUG
  if (--audit_countdown_ == 0) {
    audit_countdown_ = 256;
    assert(packet_backlog_bytes_ == recount_backlog_bytes() &&
           "packet backlog counter drifted from buffer contents");
  }
#endif
}

void BottleneckLink::drop(const Packet& packet, DropReason reason) {
  switch (reason) {
    case DropReason::kAqm:
      ++counters_.aqm_dropped;
      break;
    case DropReason::kTailDrop:
      ++counters_.tail_dropped;
      break;
    case DropReason::kFault:
      ++counters_.fault_dropped;
      break;
  }
  probes_.emit_drop(packet, reason);
}

void BottleneckLink::send(const Packet& offered) {
  if (!ingress_filter_) {
    accept(offered);
    return;
  }
  Packet packet = offered;  // the filter may mutate it
  const IngressVerdict verdict = ingress_filter_(packet);
  switch (verdict.action) {
    case IngressVerdict::Action::kDrop:
      drop(packet, DropReason::kFault);
      return;
    case IngressVerdict::Action::kDelay:
      // Hold the packet back; the re-offer bypasses the filter so a held
      // packet cannot be deflected again.
      held_.send(packet, verdict.delay);
      return;
    case IngressVerdict::Action::kPass:
      break;
  }
  accept(packet);
}

void BottleneckLink::accept(Packet packet) {
  // Classify on the arrival codepoint, before any CE mark the enqueue
  // verdict applies (a marked Classic packet must stay in its band).
  const std::size_t band = bands_.size() == 1 ? 0 : qdisc_->classify(packet);
  if (backlog_packets() >= config_.buffer_packets) {
    ++band_counters_[band].tail_dropped;
    drop(packet, DropReason::kTailDrop);
    return;
  }
  switch (qdisc_->enqueue(packet)) {
    case QueueDiscipline::Verdict::kDrop:
      ++band_counters_[band].aqm_dropped;
      drop(packet, DropReason::kAqm);
      return;
    case QueueDiscipline::Verdict::kMark:
      packet.ecn = Ecn::kCe;
      ++counters_.marked;
      ++band_counters_[band].marked;
      break;
    case QueueDiscipline::Verdict::kAccept:
      break;
  }
  packet.enqueued_at = sim_.now();
  ++counters_.enqueued;
  ++band_counters_[band].enqueued;
  packet_backlog_bytes_ += packet.size;
  band_backlog_bytes_[band] += packet.size;
  probes_.emit_enqueue(packet);
  bands_[band].push_back(packet);
  audit_backlog();
  try_start_transmission();
}

void BottleneckLink::try_start_transmission() {
  if (transmitting_) return;
  while (backlog_packets() > 0) {
    const std::size_t band = bands_.size() == 1 ? 0 : qdisc_->select_band();
    auto& queue = bands_[band];
    assert(!queue.empty() && "select_band() returned an empty band");
    Packet packet = queue.front();
    queue.pop_front();
    packet_backlog_bytes_ -= packet.size;
    band_backlog_bytes_[band] -= packet.size;
    audit_backlog();
    switch (qdisc_->dequeue_band(packet, band)) {
      case QueueDiscipline::Verdict::kDrop:
        ++counters_.dequeue_dropped;
        ++band_counters_[band].dequeue_dropped;
        ++band_counters_[band].aqm_dropped;
        drop(packet, DropReason::kAqm);
        continue;  // offer the next head packet
      case QueueDiscipline::Verdict::kMark:
        packet.ecn = Ecn::kCe;
        ++counters_.marked;
        ++band_counters_[band].marked;
        break;
      case QueueDiscipline::Verdict::kAccept:
        break;
    }
    const Duration tx_time =
        from_seconds(static_cast<double>(packet.size) * 8.0 / packet_rate_bps());
    transmitting_ = true;
    transmitting_band_ = band;
    in_service_ = packet;
    tx_started_ = sim_.now();
    sim_.arm(tx_done_, sim_.now() + tx_time);
    return;
  }
}

void BottleneckLink::finish_transmission() {
  // A copy: the sink may offer a packet that starts the next transmission.
  const Packet packet = in_service_;
  transmitting_ = false;
  ++counters_.forwarded;
  ++band_counters_[transmitting_band_].forwarded;
  probes_.emit_departure(packet, sim_.now() - packet.enqueued_at);
  if (sink_ != nullptr) sink_->receive(packet);
  try_start_transmission();
}

}  // namespace pi2::net
