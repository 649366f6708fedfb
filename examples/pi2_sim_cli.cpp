// pi2_sim_cli — a command-line front end to the experiment harness: run any
// dumbbell scenario without writing code, and optionally export the time
// series to CSV for plotting.
//
//   pi2_sim_cli --aqm pi2 --link 40 --rtt 10 --cubic 1 --dctcp 1
//               --duration 60 --csv run.csv
//
// A malformed flag value or a configuration the simulator rejects is a
// usage error: exit 17 with a message naming it.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "durable/wire.hpp"
#include "net/trace.hpp"
#include "scenario/aqm_factory.hpp"
#include "scenario/dumbbell.hpp"
#include "stats/csv.hpp"
#include "telemetry/recorder.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --aqm NAME        fifo|pie|bare-pie|pi|pi2|coupled-pi2|red|codel|curvy-red|step|"
      "dualpi2 (default pi2)\n"
      "  --link MBPS       bottleneck rate (default 10)\n"
      "  --rtt MS          base round-trip time (default 100)\n"
      "  --target MS       AQM delay target (default 20)\n"
      "  --reno N          number of Reno flows (default 0)\n"
      "  --cubic N         number of Cubic flows (default 0)\n"
      "  --ecn-cubic N     number of ECN-Cubic flows (default 0)\n"
      "  --dctcp N         number of DCTCP flows (default 0)\n"
      "  --scalable N      number of Scalable TCP flows (default 0)\n"
      "  --relentless N    number of Relentless TCP flows (default 0)\n"
      "  --udp-mbps X      add a UDP CBR flow of X Mb/s (repeatable)\n"
      "  --duration S      simulated seconds (default 60)\n"
      "  --warmup S        stats window start (default duration/3)\n"
      "  --k X             coupling factor for coupled-pi2 (default 2)\n"
      "  --seed N          RNG seed (default 1)\n"
      "  --csv PATH        write qdelay/throughput/prob series to CSV\n"
      "  --trace PATH      write the per-packet event trace to PATH (CSV)\n"
      "  --telemetry DIR   write telemetry artifacts (JSONL sample stream,\n"
      "                    Prometheus snapshot, run manifest) into DIR\n"
      "  --telemetry-interval S  telemetry sampling cadence (default 0.1 s)\n",
      argv0);
}

constexpr int kUsageError = 17;

[[noreturn]] void bad_value(const std::string& flag, const char* value) {
  std::fprintf(stderr, "invalid value '%s' for %s\n", value, flag.c_str());
  std::exit(kUsageError);
}

/// Parses the whole of `value` (a finite number) or exits naming the flag.
template <typename T>
T number(const std::string& flag, const char* value) {
  T out{};
  if (!pi2::durable::parse_decimal(value, out)) bad_value(flag, value);
  return out;
}

pi2::scenario::AqmType parse_aqm(const std::string& flag, const char* value) {
  const auto type = pi2::scenario::aqm_from_string(value);
  if (!type) bad_value(flag, value);
  return *type;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pi2;
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = 10e6;
  double duration_s = 60.0;
  double warmup_s = -1.0;
  double rtt_ms = 100.0;
  std::string csv_path;
  std::string trace_path;
  std::string telemetry_dir;
  double telemetry_interval_s = 0.0;

  struct Count {
    tcp::CcType cc;
    int n = 0;
  };
  Count counts[6] = {{tcp::CcType::kReno},     {tcp::CcType::kCubic},
                     {tcp::CcType::kEcnCubic}, {tcp::CcType::kDctcp},
                     {tcp::CcType::kScalable}, {tcp::CcType::kRelentless}};
  std::vector<double> udp_mbps;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--aqm") {
      cfg.aqm.type = parse_aqm(arg, next());
    } else if (arg == "--link") {
      cfg.link_rate_bps = number<double>(arg, next()) * 1e6;
    } else if (arg == "--rtt") {
      rtt_ms = number<double>(arg, next());
    } else if (arg == "--target") {
      cfg.aqm.target = sim::from_millis(number<double>(arg, next()));
    } else if (arg == "--reno") {
      counts[0].n = number<int>(arg, next());
    } else if (arg == "--cubic") {
      counts[1].n = number<int>(arg, next());
    } else if (arg == "--ecn-cubic") {
      counts[2].n = number<int>(arg, next());
    } else if (arg == "--dctcp") {
      counts[3].n = number<int>(arg, next());
    } else if (arg == "--scalable") {
      counts[4].n = number<int>(arg, next());
    } else if (arg == "--relentless") {
      counts[5].n = number<int>(arg, next());
    } else if (arg == "--udp-mbps") {
      udp_mbps.push_back(number<double>(arg, next()));
    } else if (arg == "--duration") {
      duration_s = number<double>(arg, next());
    } else if (arg == "--warmup") {
      warmup_s = number<double>(arg, next());
    } else if (arg == "--k") {
      cfg.aqm.coupling_k = number<double>(arg, next());
    } else if (arg == "--seed") {
      cfg.seed = number<std::uint64_t>(arg, next());
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--telemetry") {
      telemetry_dir = next();
    } else if (arg == "--telemetry-interval") {
      telemetry_interval_s = number<double>(arg, next());
    } else {
      usage(argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  int total_tcp = 0;
  for (const auto& c : counts) {
    if (c.n > 0) {
      scenario::TcpFlowSpec spec;
      spec.cc = c.cc;
      spec.count = c.n;
      spec.base_rtt = sim::from_millis(rtt_ms);
      cfg.tcp_flows.push_back(spec);
      total_tcp += c.n;
    }
  }
  if (total_tcp == 0 && udp_mbps.empty()) {
    counts[0].n = 2;  // default workload: 2 Reno flows
    scenario::TcpFlowSpec spec;
    spec.cc = tcp::CcType::kReno;
    spec.count = 2;
    spec.base_rtt = sim::from_millis(rtt_ms);
    cfg.tcp_flows.push_back(spec);
  }
  for (const double mbps : udp_mbps) {
    scenario::UdpFlowSpec udp;
    udp.rate_bps = mbps * 1e6;
    udp.base_rtt = sim::from_millis(rtt_ms);
    cfg.udp_flows.push_back(udp);
  }
  cfg.duration = sim::from_seconds(duration_s);
  cfg.stats_start = sim::from_seconds(warmup_s >= 0 ? warmup_s : duration_s / 3.0);

  net::PacketTrace trace;
  if (!trace_path.empty()) cfg.trace = &trace;
  std::unique_ptr<telemetry::Recorder> recorder;
  if (!telemetry_dir.empty()) {
    telemetry::RecorderConfig rc;
    rc.dir = telemetry_dir;
    rc.run_id = "cli";
    if (telemetry_interval_s > 0) {
      rc.interval = sim::from_seconds(telemetry_interval_s);
    }
    recorder = std::make_unique<telemetry::Recorder>(rc);
    cfg.recorder = recorder.get();
  }

  if (const std::string error = cfg.validate(); !error.empty()) {
    std::fprintf(stderr, "invalid configuration: %s\n", error.c_str());
    return kUsageError;
  }
  const auto r = scenario::run_dumbbell(cfg);

  std::printf("aqm=%s link=%.1fMbps rtt=%.0fms duration=%.0fs\n",
              std::string(scenario::to_string(cfg.aqm.type)).c_str(),
              cfg.link_rate_bps / 1e6, rtt_ms, duration_s);
  std::printf("queue delay [ms]: mean=%.2f p99=%.2f\n", r.mean_qdelay_ms,
              r.p99_qdelay_ms);
  std::printf("utilization: %.3f\n", r.utilization);
  std::printf("probability: classic=%.4f scalable=%.4f observed=%.4f\n",
              r.classic_prob_samples.mean(), r.scalable_prob_samples.mean(),
              r.observed_signal_rate());
  std::printf("drops: aqm=%lld tail=%lld marks=%lld\n",
              static_cast<long long>(r.counters.aqm_dropped),
              static_cast<long long>(r.counters.tail_dropped),
              static_cast<long long>(r.counters.marked));
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const auto& f = r.flows[i];
    std::printf("flow %2zu %-10s %7.2f Mb/s  (rexmt %lld, rto %lld)\n", i,
                f.is_udp ? "udp" : std::string(tcp::to_string(f.cc)).c_str(),
                f.goodput_mbps, static_cast<long long>(f.retransmits),
                static_cast<long long>(f.timeouts));
  }

  bool ok = true;
  if (!trace_path.empty()) {
    const bool trace_ok = trace.write_csv(trace_path);
    std::printf("trace: %s %s (%zu records, %zu dropped)\n", trace_path.c_str(),
                trace_ok ? "written" : "FAILED", trace.records().size(),
                trace.dropped_records());
    ok = ok && trace_ok;
  }
  if (recorder != nullptr) {
    std::printf("telemetry: %s %s\n", recorder->manifest_path().c_str(),
                recorder->ok() ? "written" : "FAILED");
    ok = ok && recorder->ok();
  }
  if (!csv_path.empty()) {
    const bool csv_ok = stats::write_series_csv(
        csv_path, {"qdelay_ms", "throughput_mbps", "classic_prob"},
        {&r.qdelay_ms_series, &r.total_throughput_series, &r.classic_prob_series},
        sim::from_seconds(1.0), sim::kTimeZero, cfg.duration);
    std::printf("csv: %s %s\n", csv_path.c_str(), csv_ok ? "written" : "FAILED");
    ok = ok && csv_ok;
  }
  return ok ? 0 : 1;
}
