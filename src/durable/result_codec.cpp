#include "durable/result_codec.hpp"

#include <vector>

#include "durable/wire.hpp"

namespace pi2::durable {

namespace {

// Only the current layout decodes. An older journal record (v1-v4, written
// before the fluid-tier stats, the per-band slices, the per-link slices or
// the trailing ResilienceReport joined the payload) fails as `corrupt: bad
// magic`, so a resumed campaign re-simulates that point instead of
// misreading it.
// v5: RunResult scalars, aggregate/window counters, DualPI2's per-band
// (L/C queue) slices, fault and fluid-tier stats, series and samplers,
// per-flow results, violations, per-link slices (multi-bottleneck
// topologies) and the ResilienceReport (recovery scoring of the primary
// link's fault windows).
constexpr const char* kMagic = "pi2-result-v5";

void put_series(std::string& out, const stats::TimeSeries& series) {
  put_u64(out, series.size());
  for (const auto& point : series.points()) {
    put_i64(out, point.t.count());
    put_double(out, point.value);
  }
}

/// Full reservoir snapshot (classic/scalable probability samplers).
void put_sampler(std::string& out, const stats::PercentileSampler& sampler) {
  put_i64(out, sampler.count());
  put_double(out, sampler.sum());
  put_u64(out, sampler.retained().size());
  for (const double x : sampler.retained()) put_double(out, x);
}

/// count+sum only (the per-packet sojourn sampler; see header).
void put_sampler_lite(std::string& out, const stats::PercentileSampler& sampler) {
  put_i64(out, sampler.count());
  put_double(out, sampler.sum());
}

bool read_series(TokenReader& reader, stats::TimeSeries& out) {
  std::uint64_t size = 0;
  if (!reader.u64(size)) return false;
  for (std::uint64_t i = 0; i < size; ++i) {
    std::int64_t t_ns = 0;
    double value = 0.0;
    if (!reader.i64(t_ns) || !reader.real(value)) return false;
    out.add(pi2::sim::Time{t_ns}, value);
  }
  return true;
}

bool read_sampler(TokenReader& reader, stats::PercentileSampler& out) {
  std::int64_t seen = 0;
  double sum = 0.0;
  std::uint64_t retained = 0;
  if (!reader.i64(seen) || !reader.real(sum) || !reader.u64(retained)) {
    return false;
  }
  std::vector<double> samples;
  samples.reserve(retained);
  for (std::uint64_t i = 0; i < retained; ++i) {
    double x = 0.0;
    if (!reader.real(x)) return false;
    samples.push_back(x);
  }
  out.restore(seen, sum, std::move(samples));
  return true;
}

bool read_sampler_lite(TokenReader& reader, stats::PercentileSampler& out) {
  std::int64_t seen = 0;
  double sum = 0.0;
  if (!reader.i64(seen) || !reader.real(sum)) return false;
  out.restore(seen, sum, {});
  return true;
}

}  // namespace

std::string encode_result(const scenario::RunResult& result) {
  std::string out = kMagic;
  put_u64(out, result.events_executed);
  put_u64(out, result.clamped_events);
  put_u64(out, result.invariant_checks);
  put_u64(out, result.guard_events);

  const auto put_counters = [&out](const net::BottleneckLink::Counters& c) {
    put_i64(out, c.enqueued);
    put_i64(out, c.forwarded);
    put_i64(out, c.aqm_dropped);
    put_i64(out, c.tail_dropped);
    put_i64(out, c.marked);
    put_i64(out, c.fault_dropped);
    put_i64(out, c.dequeue_dropped);
  };
  put_counters(result.counters);
  put_counters(result.window_counters);

  const auto put_band = [&out](const net::BottleneckLink::BandCounters& b) {
    put_i64(out, b.enqueued);
    put_i64(out, b.forwarded);
    put_i64(out, b.marked);
    put_i64(out, b.aqm_dropped);
    put_i64(out, b.tail_dropped);
    put_i64(out, b.dequeue_dropped);
  };
  put_band(result.band_l);
  put_band(result.band_c);
  put_band(result.window_band_l);
  put_band(result.window_band_c);

  put_i64(out, result.fault_counters.dropped);
  put_i64(out, result.fault_counters.bleached);
  put_i64(out, result.fault_counters.reordered);
  put_i64(out, result.fault_counters.rate_changes);
  put_i64(out, result.fault_counters.rtt_changes);

  put_double(out, result.fluid.arrival_bytes);
  put_double(out, result.fluid.served_bytes);
  put_double(out, result.fluid.dropped_bytes);
  put_double(out, result.fluid.final_backlog_bytes);
  put_u64(out, result.fluid.ticks);

  put_double(out, result.mean_qdelay_ms);
  put_double(out, result.p99_qdelay_ms);
  put_double(out, result.utilization);

  put_series(out, result.qdelay_ms_series);
  put_series(out, result.classic_prob_series);
  put_series(out, result.total_throughput_series);
  put_series(out, result.utilization_series);

  put_sampler(out, result.classic_prob_samples);
  put_sampler(out, result.scalable_prob_samples);
  put_sampler_lite(out, result.qdelay_ms_packets);

  put_u64(out, result.flows.size());
  for (const auto& flow : result.flows) {
    put_u64(out, static_cast<std::uint64_t>(flow.cc));
    put_u64(out, flow.is_udp ? 1 : 0);
    put_u64(out, flow.is_fluid ? 1 : 0);
    put_double(out, flow.count);
    put_double(out, flow.goodput_mbps);
    put_i64(out, flow.retransmits);
    put_i64(out, flow.timeouts);
  }

  put_u64(out, result.violations.size());
  for (const auto& violation : result.violations) {
    put_i64(out, violation.at.count());
    put_string(out, violation.check);
    put_string(out, violation.detail);
  }

  put_u64(out, result.links.size());
  for (const auto& link : result.links) {
    put_string(out, link.name);
    put_double(out, link.mean_qdelay_ms);
    put_double(out, link.p99_qdelay_ms);
    put_double(out, link.utilization);
    put_counters(link.counters);
    put_counters(link.window_counters);
    put_i64(out, link.fault_counters.dropped);
    put_i64(out, link.fault_counters.bleached);
    put_i64(out, link.fault_counters.reordered);
    put_i64(out, link.fault_counters.rate_changes);
    put_i64(out, link.fault_counters.rtt_changes);
    put_u64(out, link.guard_events);
    put_i64(out, link.final_backlog_packets);
  }

  const stats::ResilienceReport& rr = result.resilience;
  put_u64(out, rr.analyzed ? 1 : 0);
  put_u64(out, rr.windows);
  put_u64(out, rr.recovered_windows);
  put_double(out, rr.worst_recovery_s);
  put_double(out, rr.mean_recovery_s);
  put_double(out, rr.peak_qdelay_ms);
  put_double(out, rr.pre_fault_mean_qdelay_ms);
  put_double(out, rr.post_fault_mean_qdelay_ms);
  put_double(out, rr.post_fault_delta_ms);
  put_u64(out, rr.violations_in_window);
  put_u64(out, rr.violations_outside);
  put_u64(out, rr.recovery_s.size());
  for (const double r : rr.recovery_s) put_double(out, r);
  return out;
}

Status decode_result(const std::string& payload, scenario::RunResult& result) {
  TokenReader reader(payload);
  std::string magic;
  if (!reader.word(magic) || magic != kMagic) {
    return Status::corrupt("result payload: bad magic");
  }
  scenario::RunResult out;

  bool ok = reader.u64(out.events_executed) && reader.u64(out.clamped_events) &&
            reader.u64(out.invariant_checks) && reader.u64(out.guard_events);

  const auto read_counters = [&reader](net::BottleneckLink::Counters& c) {
    return reader.i64(c.enqueued) && reader.i64(c.forwarded) &&
           reader.i64(c.aqm_dropped) && reader.i64(c.tail_dropped) &&
           reader.i64(c.marked) && reader.i64(c.fault_dropped) &&
           reader.i64(c.dequeue_dropped);
  };
  ok = ok && read_counters(out.counters) && read_counters(out.window_counters);

  const auto read_band = [&reader](net::BottleneckLink::BandCounters& b) {
    return reader.i64(b.enqueued) && reader.i64(b.forwarded) &&
           reader.i64(b.marked) && reader.i64(b.aqm_dropped) &&
           reader.i64(b.tail_dropped) && reader.i64(b.dequeue_dropped);
  };
  ok = ok && read_band(out.band_l) && read_band(out.band_c) &&
       read_band(out.window_band_l) && read_band(out.window_band_c);

  ok = ok && reader.i64(out.fault_counters.dropped) &&
       reader.i64(out.fault_counters.bleached) &&
       reader.i64(out.fault_counters.reordered) &&
       reader.i64(out.fault_counters.rate_changes) &&
       reader.i64(out.fault_counters.rtt_changes);

  ok = ok && reader.real(out.fluid.arrival_bytes) &&
       reader.real(out.fluid.served_bytes) &&
       reader.real(out.fluid.dropped_bytes) &&
       reader.real(out.fluid.final_backlog_bytes) &&
       reader.u64(out.fluid.ticks);

  ok = ok && reader.real(out.mean_qdelay_ms) && reader.real(out.p99_qdelay_ms) &&
       reader.real(out.utilization);

  ok = ok && read_series(reader, out.qdelay_ms_series) &&
       read_series(reader, out.classic_prob_series) &&
       read_series(reader, out.total_throughput_series) &&
       read_series(reader, out.utilization_series);

  ok = ok && read_sampler(reader, out.classic_prob_samples) &&
       read_sampler(reader, out.scalable_prob_samples) &&
       read_sampler_lite(reader, out.qdelay_ms_packets);

  std::uint64_t flow_count = 0;
  ok = ok && reader.u64(flow_count) && flow_count <= (1u << 20);
  for (std::uint64_t i = 0; ok && i < flow_count; ++i) {
    scenario::FlowResult flow;
    std::uint64_t cc = 0;
    std::uint64_t is_udp = 0;
    std::uint64_t is_fluid = 0;
    ok = reader.u64(cc) && reader.u64(is_udp) && reader.u64(is_fluid) &&
         reader.real(flow.count) && reader.real(flow.goodput_mbps) &&
         reader.i64(flow.retransmits) && reader.i64(flow.timeouts);
    if (ok) {
      flow.cc = static_cast<tcp::CcType>(cc);
      flow.is_udp = is_udp != 0;
      flow.is_fluid = is_fluid != 0;
      out.flows.push_back(flow);
    }
  }

  std::uint64_t violation_count = 0;
  ok = ok && reader.u64(violation_count) && violation_count <= (1u << 20);
  for (std::uint64_t i = 0; ok && i < violation_count; ++i) {
    faults::InvariantViolation violation;
    std::int64_t at_ns = 0;
    ok = reader.i64(at_ns) && reader.str(violation.check) &&
         reader.str(violation.detail);
    if (ok) {
      violation.at = pi2::sim::Time{at_ns};
      out.violations.push_back(std::move(violation));
    }
  }

  std::uint64_t link_count = 0;
  ok = ok && reader.u64(link_count) && link_count <= (1u << 20);
  for (std::uint64_t i = 0; ok && i < link_count; ++i) {
    scenario::LinkSlice link;
    ok = reader.str(link.name) && reader.real(link.mean_qdelay_ms) &&
         reader.real(link.p99_qdelay_ms) && reader.real(link.utilization) &&
         read_counters(link.counters) && read_counters(link.window_counters) &&
         reader.i64(link.fault_counters.dropped) &&
         reader.i64(link.fault_counters.bleached) &&
         reader.i64(link.fault_counters.reordered) &&
         reader.i64(link.fault_counters.rate_changes) &&
         reader.i64(link.fault_counters.rtt_changes) &&
         reader.u64(link.guard_events) &&
         reader.i64(link.final_backlog_packets);
    if (ok) out.links.push_back(std::move(link));
  }

  stats::ResilienceReport& rr = out.resilience;
  std::uint64_t analyzed = 0;
  ok = ok && reader.u64(analyzed) && reader.u64(rr.windows) &&
       reader.u64(rr.recovered_windows) && reader.real(rr.worst_recovery_s) &&
       reader.real(rr.mean_recovery_s) && reader.real(rr.peak_qdelay_ms) &&
       reader.real(rr.pre_fault_mean_qdelay_ms) &&
       reader.real(rr.post_fault_mean_qdelay_ms) &&
       reader.real(rr.post_fault_delta_ms) &&
       reader.u64(rr.violations_in_window) &&
       reader.u64(rr.violations_outside);
  rr.analyzed = analyzed != 0;
  std::uint64_t recovery_count = 0;
  ok = ok && reader.u64(recovery_count) && recovery_count <= (1u << 20);
  for (std::uint64_t i = 0; ok && i < recovery_count; ++i) {
    double r = 0.0;
    ok = reader.real(r);
    if (ok) rr.recovery_s.push_back(r);
  }

  if (!ok || reader.failed()) {
    return Status::corrupt("result payload: truncated or malformed");
  }
  if (!reader.exhausted()) {
    return Status::corrupt("result payload: trailing bytes");
  }
  result = std::move(out);
  return {};
}

}  // namespace pi2::durable
