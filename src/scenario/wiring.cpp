#include "scenario/wiring.hpp"

#include <cmath>
#include <cstdio>

namespace pi2::scenario {

using pi2::sim::to_seconds;

std::string bad_field(const std::string& field, const char* constraint,
                      double got) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%s must %s (got %g)", field.c_str(),
                constraint, got);
  return buf;
}

control::FluidSignal fluid_signal_for(tcp::CcType cc) {
  return tcp::make_congestion_control(cc)->is_scalable()
             ? control::FluidSignal::kScalable
             : control::FluidSignal::kClassic;
}

std::string validate_aqm(const AqmConfig& aqm, const std::string& prefix) {
  if (aqm.target <= pi2::sim::Duration{0}) {
    return bad_field(prefix + "target", "be > 0 seconds",
                     to_seconds(aqm.target));
  }
  if (aqm.t_update <= pi2::sim::Duration{0}) {
    return bad_field(prefix + "t_update", "be > 0 seconds",
                     to_seconds(aqm.t_update));
  }
  if (!(aqm.coupling_k > 0.0) || !std::isfinite(aqm.coupling_k)) {
    return bad_field(prefix + "coupling_k", "be finite and > 0",
                     aqm.coupling_k);
  }
  if (!(aqm.max_classic_prob > 0.0 && aqm.max_classic_prob <= 1.0)) {
    return bad_field(prefix + "max_classic_prob", "lie in (0, 1]",
                     aqm.max_classic_prob);
  }
  if (aqm.alpha_hz && (!(*aqm.alpha_hz > 0.0) || !std::isfinite(*aqm.alpha_hz))) {
    return bad_field(prefix + "alpha_hz", "be finite and > 0 when set",
                     *aqm.alpha_hz);
  }
  if (aqm.beta_hz && (!(*aqm.beta_hz > 0.0) || !std::isfinite(*aqm.beta_hz))) {
    return bad_field(prefix + "beta_hz", "be finite and > 0 when set",
                     *aqm.beta_hz);
  }
  if (aqm.ecn_drop_threshold &&
      !(*aqm.ecn_drop_threshold >= 0.0 && *aqm.ecn_drop_threshold <= 1.0)) {
    return bad_field(prefix + "ecn_drop_threshold", "lie in [0, 1] when set",
                     *aqm.ecn_drop_threshold);
  }
  if (aqm.t_shift < pi2::sim::Duration{0}) {
    return bad_field(prefix + "t_shift", "be >= 0 seconds",
                     to_seconds(aqm.t_shift));
  }
  if (!(aqm.l_drop_percent >= 0.0 && aqm.l_drop_percent <= 100.0)) {
    return bad_field(prefix + "l_drop_percent", "lie in [0, 100]",
                     aqm.l_drop_percent);
  }
  if (aqm.l_thresh_packets < 0) {
    return bad_field(prefix + "l_thresh_packets", "be >= 0",
                     static_cast<double>(aqm.l_thresh_packets));
  }
  return "";
}

std::string validate_tcp_spec(const TcpFlowSpec& f, const std::string& where) {
  if (f.count < 0) {
    return bad_field(where + "count", "be >= 0", f.count);
  }
  if (f.base_rtt <= pi2::sim::Duration{0}) {
    return bad_field(where + "base_rtt", "be > 0 seconds",
                     to_seconds(f.base_rtt));
  }
  if (f.stagger < pi2::sim::Duration{0}) {
    return bad_field(where + "stagger", "be >= 0 seconds",
                     to_seconds(f.stagger));
  }
  if (f.start < pi2::sim::kTimeZero) {
    return bad_field(where + "start", "be >= 0 seconds", to_seconds(f.start));
  }
  if (f.stop <= f.start) {
    return bad_field(where + "stop", "be after start", to_seconds(f.stop));
  }
  if (!(f.max_cwnd >= 0.0) || !std::isfinite(f.max_cwnd)) {
    return bad_field(where + "max_cwnd", "be finite and >= 0 (0 = unlimited)",
                     f.max_cwnd);
  }
  if (f.segments < 0) {
    return bad_field(where + "segments", "be >= 0 (0 = bulk)",
                     static_cast<double>(f.segments));
  }
  return "";
}

std::string validate_udp_spec(const UdpFlowSpec& f, const std::string& where) {
  if (f.count < 0) {
    return bad_field(where + "count", "be >= 0", f.count);
  }
  if (!(f.rate_bps > 0.0) || !std::isfinite(f.rate_bps)) {
    return bad_field(where + "rate_bps", "be finite and > 0", f.rate_bps);
  }
  if (f.packet_bytes <= 0 || f.packet_bytes > 65535) {
    return bad_field(where + "packet_bytes", "lie in [1, 65535]",
                     static_cast<double>(f.packet_bytes));
  }
  if (f.base_rtt <= pi2::sim::Duration{0}) {
    return bad_field(where + "base_rtt", "be > 0 seconds",
                     to_seconds(f.base_rtt));
  }
  if (f.start < pi2::sim::kTimeZero) {
    return bad_field(where + "start", "be >= 0 seconds", to_seconds(f.start));
  }
  if (f.stop <= f.start) {
    return bad_field(where + "stop", "be after start", to_seconds(f.stop));
  }
  return "";
}

std::string validate_fluid_spec(const FluidFlowSpec& f,
                                const std::string& where) {
  if (!(f.count >= 0.0) || !std::isfinite(f.count)) {
    return bad_field(where + "count", "be finite and >= 0", f.count);
  }
  if (f.base_rtt <= pi2::sim::Duration{0}) {
    return bad_field(where + "base_rtt", "be > 0 seconds",
                     to_seconds(f.base_rtt));
  }
  if (f.mss_bytes <= 0 || f.mss_bytes > 65535) {
    return bad_field(where + "mss_bytes", "lie in [1, 65535]",
                     static_cast<double>(f.mss_bytes));
  }
  if (f.start < pi2::sim::kTimeZero) {
    return bad_field(where + "start", "be >= 0 seconds", to_seconds(f.start));
  }
  if (f.stop <= f.start) {
    return bad_field(where + "stop", "be after start", to_seconds(f.stop));
  }
  return "";
}

std::string validate_rate_change(const RateChange& c,
                                 const std::string& where) {
  if (c.at < pi2::sim::kTimeZero) {
    return bad_field(where + "at", "be >= 0 seconds", to_seconds(c.at));
  }
  if (!(c.rate_bps > 0.0) || !std::isfinite(c.rate_bps)) {
    return bad_field(where + "rate_bps", "be finite and > 0", c.rate_bps);
  }
  return "";
}

net::BottleneckLink::Counters counters_window(
    const net::BottleneckLink::Counters& whole,
    const net::BottleneckLink::Counters& at) {
  net::BottleneckLink::Counters w;
  w.enqueued = whole.enqueued - at.enqueued;
  w.forwarded = whole.forwarded - at.forwarded;
  w.aqm_dropped = whole.aqm_dropped - at.aqm_dropped;
  w.tail_dropped = whole.tail_dropped - at.tail_dropped;
  w.marked = whole.marked - at.marked;
  w.fault_dropped = whole.fault_dropped - at.fault_dropped;
  w.dequeue_dropped = whole.dequeue_dropped - at.dequeue_dropped;
  return w;
}

net::BottleneckLink::BandCounters band_window(
    const net::BottleneckLink::BandCounters& whole,
    const net::BottleneckLink::BandCounters& at) {
  net::BottleneckLink::BandCounters w;
  w.enqueued = whole.enqueued - at.enqueued;
  w.forwarded = whole.forwarded - at.forwarded;
  w.marked = whole.marked - at.marked;
  w.aqm_dropped = whole.aqm_dropped - at.aqm_dropped;
  w.tail_dropped = whole.tail_dropped - at.tail_dropped;
  w.dequeue_dropped = whole.dequeue_dropped - at.dequeue_dropped;
  return w;
}

}  // namespace pi2::scenario
