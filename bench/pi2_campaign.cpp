// pi2_campaign: the declarative campaign driver, and the only driver of the
// swept figure grids (Figures 15-18, overload, parking lot, RTT mix,
// resilience) and of the section 4.4 capacity step response. A committed
// spec file (campaigns/*.json) names a scenario template and its axes,
// expand() turns it into an ordered grid, and the template's TemplateDef row
// below maps each point onto the config builder, table row, JSON record and
// health predicates of campaign_templates.hpp.
// The golden_* ctests pin each committed spec's --json output to its
// baseline in tests/golden/.
//
// Beyond replaying the figures, the driver adds distributed execution:
//
//   pi2_campaign --spec S.json                    # serial: all points
//   pi2_campaign --spec S.json --shard 2/3        # worker: its slice only
//   pi2_campaign --spec S.json --merge A B C      # stitch shard journals
//
// A shard journals its half-open point range [lo, hi) independently (header
// + shard record + one point record per completed run, fsync'd); --merge
// validates the set (per-record CRCs, digest agreement, exact tiling, no
// foreign journals) and writes a merged journal byte-identical to the one a
// serial run would have produced, replaying the decoded payloads through
// the identical consume path for the table and --json. Every merge refusal
// exits with its own code so shell tests can tell the failure modes apart:
//
//   75 interrupted (resume with --resume)   13 shard-gap
//   10 foreign-campaign                     14 duplicate-point
//   11 stale-digest                         15 corrupt journal
//   12 shard-overlap                        16 io-error
//                                           17 invalid usage/spec
//
// Standard sweep flags (--smoke, --full, --seed, --jobs, --json, --resume,
// --journal, --telemetry, --deadline-s, ...) keep their bench_common
// meaning. Any other argument is a usage error (exit 17): a mistyped
// --resume must not silently re-simulate every point and overwrite the
// journal it was meant to resume. A killed shard is resumed with --resume, which *compacts* its
// journal (fresh header, valid points re-appended in index order) so the
// strict merge loader never sees the torn tail the kill left behind.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "campaign/merge.hpp"
#include "campaign/spec.hpp"
#include "campaign_templates.hpp"
#include "runner/journaled_run.hpp"
#include "sweep.hpp"
#include "topology/topology.hpp"

namespace {

using namespace pi2;
using namespace pi2::bench;

/// Flags owned by the driver itself, plus the bench_common sweep flags.
struct CampaignCli {
  std::string spec_path;
  bool help = false;
  bool list = false;
  bool digest_only = false;
  bool has_shard = false;
  std::size_t shard_index = 1;
  std::size_t shard_count = 1;
  bool merge = false;
  std::vector<std::string> merge_paths;
  bool use_seed = false;  ///< a literal --seed was given (overrides the spec)
  Options opts;
  std::string error;      ///< non-empty = usage error
};

CampaignCli parse_campaign_cli(int argc, char** argv) {
  CampaignCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) {
      cli.spec_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      cli.help = true;
    } else if (arg == "--list") {
      cli.list = true;
    } else if (arg == "--digest") {
      cli.digest_only = true;
    } else if (arg == "--shard" && i + 1 < argc) {
      if (!campaign::parse_shard(argv[++i], cli.shard_index,
                                 cli.shard_count)) {
        cli.error = "--shard wants i/N with 1 <= i <= N (got '" +
                    std::string(argv[i]) + "')";
        return cli;
      }
      cli.has_shard = true;
    } else if (arg == "--merge") {
      cli.merge = true;
      while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        cli.merge_paths.emplace_back(argv[++i]);
      }
    } else if (parse_option(argc, argv, i, cli.opts)) {
      if (arg == "--seed") cli.use_seed = true;
    } else if (cli.error.empty()) {
      // Keep scanning: a later --help still wins over the error.
      cli.error = "unrecognised argument '" + arg +
                  "' (unknown flag, or a flag missing its value)";
    }
  }
  if (!cli.error.empty()) return cli;
  if (cli.spec_path.empty()) {
    cli.error = "--spec PATH is required";
  }
  if (cli.merge && cli.has_shard) {
    cli.error = "--merge and --shard are mutually exclusive";
  }
  return cli;
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Maps the merge/journal failure taxonomy onto distinct exit codes (doc'd
/// in the header comment) so shell tests can assert on the code alone.
int status_exit(const durable::Status& status) {
  using durable::StatusCode;
  switch (status.code()) {
    case StatusCode::kForeignCampaign: return 10;
    case StatusCode::kStaleDigest: return 11;
    case StatusCode::kShardOverlap: return 12;
    case StatusCode::kShardGap: return 13;
    case StatusCode::kDuplicatePoint: return 14;
    case StatusCode::kCorrupt: return 15;
    case StatusCode::kIoError: return 16;
    case StatusCode::kInvalid: return 17;
    default: return 1;
  }
}

std::string axis_value_str(const campaign::AxisValue& v) {
  if (!v.is_number) return v.text;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v.number);
  return buf;
}

/// Figure 15's headline over the dumbbell grid: the coupled PI2's worst
/// Cubic/DCTCP imbalance and PIE's weakest DCTCP dominance.
struct RateBalanceHeadline {
  double worst_pi2_log_ratio = 0.0;
  double best_pie_dctcp_ratio = 1e9;

  void record(scenario::AqmType aqm, MixKind mix, double ratio) {
    if (mix != MixKind::kCubicVsDctcp || ratio <= 0) return;
    if (aqm == scenario::AqmType::kCoupledPi2) {
      worst_pi2_log_ratio =
          std::max(worst_pi2_log_ratio, std::abs(std::log2(ratio)));
    } else if (aqm == scenario::AqmType::kPie) {
      best_pie_dctcp_ratio = std::min(best_pie_dctcp_ratio, 1.0 / ratio);
    }
  }

  void print() const {
    std::printf("# PI2 cubic/dctcp worst-case imbalance: 2^%.2f = %.2fx\n",
                worst_pi2_log_ratio, std::exp2(worst_pi2_log_ratio));
    std::printf("# PIE dctcp/cubic dominance (min over grid): %.1fx\n",
                best_pie_dctcp_ratio);
  }
};

/// The output sinks of one run: the --json array (figs 15-18 records via
/// add()/add_failed(), the other templates' through add_record()), the
/// health verdict and the cross-point summaries a TemplateDef's finish hook
/// reports after the consume loop: Figure 15's headline (dumbbell) and the
/// PI2-vs-PIE recovery comparison (resilience per fault preset, step
/// response after the drop).
struct OutputSinks {
  SweepJsonWriter json;
  bool healthy = true;
  RateBalanceHeadline rate_balance;
  ResilienceGate resilience_gate;

  explicit OutputSinks(const Options& opts)
      : json(opts.json_path,
             opts.packet_background > 0 || opts.fluid_background > 0) {}
};

// ---- the template registry -------------------------------------------------
//
// One TemplateDef per campaign template: the scenario side of the registry
// (spec.cpp's TemplateRule rows hold the scenario-free side). Its hooks read
// a point's axis values by name and hand them to the config builders, table
// rows, JSON records and health predicates of campaign_templates.hpp.

/// What the per-point hooks see: the expansion, the run's flags, and each
/// fault_schedule value resolved once (resolve_fault_schedules).
struct Grid {
  const campaign::Expansion& x;
  const Options& opts;
  const std::map<std::string, faults::FaultSchedule>& schedules;
};

using campaign::CampaignPoint;
using scenario::RunResult;
using PointConfig =
    std::variant<scenario::DumbbellConfig, topology::TopologyConfig>;

struct TemplateDef {
  campaign::TemplateId id;
  /// Prints the table header (after the run banner).
  void (*header)(const campaign::Expansion& x);
  /// The point's config; run_point sets its stop flag and recorder.
  PointConfig (*build)(const Grid& g, const CampaignPoint& p);
  /// Writes a completed point's row and JSON record; false when the point
  /// fails its health check. Runs in global index order on the calling
  /// thread — the same path for live, resumed and merged points.
  bool (*consume)(const Grid& g, OutputSinks& out, const CampaignPoint& p,
                  const RunResult& result, const std::string& manifest_path);
  /// Writes a failed point's row and JSON record.
  void (*failed)(const Grid& g, OutputSinks& out, const CampaignPoint& p,
                 runner::TaskStatus status, const std::string& message);
  /// Prints the headline and applies the cross-point gate once every point
  /// is consumed; false fails the run. Null when there is none.
  bool (*finish)(OutputSinks& out) = nullptr;
};

const TemplateDef kTemplateDefs[] = {
    // Figures 15-18 are four views of this one sweep: rate balance (cubic,
    // other, ratio), queue delay, per-class mark/drop probability and
    // utilization over the stats window, all in one row.
    {.id = campaign::TemplateId::kDumbbellSweep,
     .header = [](const campaign::Expansion&) {
       std::printf("%-14s %-16s %-10s %-8s %-9s %-9s %-8s %-8s %-8s | %-23s "
                   "| %-23s | %s\n",
                   "aqm", "mix", "link[Mbps]", "rtt[ms]", "qdelay", "p99",
                   "cubic", "other", "ratio", "classic p25/mean/p99 %",
                   "scalable p25/mean/p99 %", "util P1/mean/P99 %");
     },
     .build = [](const Grid& g, const CampaignPoint& p) -> PointConfig {
       // mix_config + opts sets ecn_drop_threshold and the background
       // tiers; the durations and the seed are the campaign's own.
       auto cfg = mix_config(aqm_from_name(g.x.text(p, "aqm")),
                             mix_from_name(g.x.text(p, "cc_mix")),
                             g.x.number(p, "rate_mbps"),
                             g.x.number(p, "rtt_ms"), g.opts);
       cfg.duration = sim::from_seconds(g.x.duration_s);
       cfg.stats_start = sim::from_seconds(g.x.stats_start_s);
       cfg.seed = p.seed;
       return cfg;
     },
     .consume = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                   const RunResult& result, const std::string& manifest_path) {
       const SweepPoint point{aqm_from_name(g.x.text(p, "aqm")),
                              mix_from_name(g.x.text(p, "cc_mix")),
                              g.x.number(p, "rate_mbps"),
                              g.x.number(p, "rtt_ms"), result, p.index, p.seed,
                              manifest_path};
       const double cubic = result.mean_goodput_mbps(tcp::CcType::kCubic);
       const double other = result.mean_goodput_mbps(other_cc(point.mix));
       const double ratio = other > 0 ? cubic / other : 0.0;
       const auto& classic = result.classic_prob_samples;
       const auto& scalable = result.scalable_prob_samples;
       const sim::Time window_start = sim::from_seconds(g.x.stats_start_s);
       stats::PercentileSampler util;  // the 1 s samples in the stats window
       for (const auto& sample : result.utilization_series.points()) {
         if (sample.t >= window_start) util.add(sample.value);
       }
       std::printf("%-14s %-16s %-10g %-8g %-9.2f %-9.2f %-8.2f %-8.2f %-8.3f "
                   "| %7.3f %7.3f %7.3f | %7.3f %7.3f %7.3f | %5.1f %5.1f "
                   "%5.1f\n",
                   aqm_label(point.aqm), g.x.text(p, "cc_mix").c_str(),
                   point.link_mbps, point.rtt_ms, result.mean_qdelay_ms,
                   result.p99_qdelay_ms, cubic, other, ratio,
                   classic.p25() * 100.0, classic.mean() * 100.0,
                   classic.p99() * 100.0, scalable.p25() * 100.0,
                   scalable.mean() * 100.0, scalable.p99() * 100.0,
                   util.p01() * 100.0, result.utilization * 100.0,
                   util.p99() * 100.0);
       out.rate_balance.record(point.aqm, point.mix, ratio);
       out.json.add(point);
       return true;  // no machinery gate: only failed points fail the run
     },
     .failed = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                  runner::TaskStatus status, const std::string& message) {
       const auto aqm = aqm_from_name(g.x.text(p, "aqm"));
       const std::string& mix = g.x.text(p, "cc_mix");
       const double rate = g.x.number(p, "rate_mbps");
       const double rtt = g.x.number(p, "rtt_ms");
       std::printf("!! point %zu (%s, %s, %g Mb/s, %g ms) %s: %s\n", p.index,
                   aqm_label(aqm), mix.c_str(), rate, rtt,
                   runner::to_string(status), message.c_str());
       out.json.add_failed(p.index, aqm, mix_from_name(mix), rate, rtt, status,
                           message);
     },
     .finish = [](OutputSinks& out) {
       out.rate_balance.print();
       return true;
     }},

    {.id = campaign::TemplateId::kOverload,
     .header = [](const campaign::Expansion& x) {
       std::printf("# link %.0f Mb/s, RTT %.0f ms, %.0f s/run; flood = 1 UDP "
                   "sender, mix = 1 Cubic + 1 DCTCP\n",
                   x.link_mbps, x.rtt_ms, x.duration_s);
       std::printf(
           "%-9s %-9s %-7s %-7s %-7s %-9s %-9s %-11s %-11s %-9s %-7s\n", "ecn",
           "udp_mult", "cubic", "dctcp", "udp", "qdelay", "p99", "L mark/drop",
           "C mark/drop", "tail L/C", "guards");
     },
     .build = [](const Grid& g, const CampaignPoint& p) -> PointConfig {
       return overload_config(ecn_from_name(g.x.text(p, "ecn")),
                              g.x.number(p, "udp_mult"), g.x.link_mbps,
                              g.x.rtt_ms, g.x.duration_s, g.x.stats_start_s,
                              p.seed);
     },
     .consume = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                   const RunResult& result, const std::string&) {
       const std::string& ecn = g.x.text(p, "ecn");
       overload_print_row(ecn.c_str(), g.x.number(p, "udp_mult"), result);
       out.json.add_record([&](durable::AtomicFile& json, bool& first) {
         overload_json_record(json, first, p.index, ecn.c_str(), p.seed,
                              g.x.link_mbps, g.x.rtt_ms,
                              g.x.number(p, "udp_mult"), result);
       });
       return machinery_healthy(result);
     },
     .failed = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                  runner::TaskStatus status, const std::string&) {
       const std::string& ecn = g.x.text(p, "ecn");
       std::printf("%-9s %-9.2f point %s\n", ecn.c_str(),
                   g.x.number(p, "udp_mult"), runner::to_string(status));
       out.json.add_record([&](durable::AtomicFile& json, bool& first) {
         overload_json_failed(json, first, p.index, status, ecn.c_str(),
                              g.x.number(p, "udp_mult"));
       });
     }},

    {.id = campaign::TemplateId::kParkingLot,
     .header = [](const campaign::Expansion& x) {
       std::printf("# chain of %.0f Mb/s links, RTT %.0f ms, %.0f s/run; 1 "
                   "long Cubic + 1 Cubic cross flow per hop\n",
                   x.link_mbps, x.rtt_ms, x.duration_s);
       std::printf("%-12s %-5s %-7s %-7s %-7s %-8s %-21s %-21s\n", "aqm",
                   "hops", "long", "cross", "ratio", "util", "qdelay/hop (ms)",
                   "signals/hop");
     },
     .build = [](const Grid& g, const CampaignPoint& p) -> PointConfig {
       return parking_lot_config(
           aqm_from_name(g.x.text(p, "aqm")),
           static_cast<int>(g.x.number(p, "hops")), g.x.link_mbps, g.x.rtt_ms,
           g.x.duration_s, g.x.stats_start_s, p.seed);
     },
     .consume = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                   const RunResult& result, const std::string&) {
       const std::string& aqm = g.x.text(p, "aqm");
       const int hops = static_cast<int>(g.x.number(p, "hops"));
       const ParkingSummary summary = parking_summary(result, hops);
       parking_print_row(aqm.c_str(), hops, summary, result);
       out.json.add_record([&](durable::AtomicFile& json, bool& first) {
         parking_json_record(json, first, p.index, aqm.c_str(), hops, p.seed,
                             g.x.link_mbps, g.x.rtt_ms, summary, result);
       });
       const bool machinery = machinery_healthy(result);
       return parking_check_headline(hops, summary) && machinery;
     },
     .failed = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                  runner::TaskStatus status, const std::string&) {
       const std::string& aqm = g.x.text(p, "aqm");
       const int hops = static_cast<int>(g.x.number(p, "hops"));
       std::printf("%-12s %-5d point %s\n", aqm.c_str(), hops,
                   runner::to_string(status));
       out.json.add_record([&](durable::AtomicFile& json, bool& first) {
         parking_json_failed(json, first, p.index, status, aqm.c_str(), hops);
       });
     }},

    {.id = campaign::TemplateId::kRttMix,
     .header = [](const campaign::Expansion& x) {
       std::printf("# bottleneck %.0f Mb/s; per branch: 1 Cubic + 1 DCTCP at "
                   "10/50/100 ms base RTT, %.0f s/run\n",
                   x.link_mbps, x.duration_s);
       std::printf("%-12s %-8s %-8s %-8s %-9s %-6s %-8s %-8s\n", "aqm", "b10",
                   "b50", "b100", "r10/100", "jain", "qdelay", "p99");
     },
     .build = [](const Grid& g, const CampaignPoint& p) -> PointConfig {
       return rtt_mix_config(aqm_from_name(g.x.text(p, "aqm")), g.x.link_mbps,
                             g.x.duration_s, g.x.stats_start_s, p.seed);
     },
     .consume = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                   const RunResult& result, const std::string&) {
       const std::string& aqm = g.x.text(p, "aqm");
       const RttMixSummary summary = rtt_mix_summary(result);
       rtt_mix_print_row(aqm.c_str(), summary, result);
       out.json.add_record([&](durable::AtomicFile& json, bool& first) {
         rtt_mix_json_record(json, first, p.index, aqm.c_str(), p.seed,
                             g.x.link_mbps, summary, result);
       });
       const bool machinery = machinery_healthy(result);
       return rtt_mix_check_branches(summary) && machinery;
     },
     .failed = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                  runner::TaskStatus status, const std::string&) {
       const std::string& aqm = g.x.text(p, "aqm");
       std::printf("%-12s point %s\n", aqm.c_str(), runner::to_string(status));
       out.json.add_record([&](durable::AtomicFile& json, bool& first) {
         aqm_json_failed(json, first, p.index, status, aqm.c_str());
       });
     }},

    {.id = campaign::TemplateId::kResilience,
     .header = [](const campaign::Expansion& x) {
       std::printf("# link %.0f Mb/s, RTT %.0f ms, %.0f s/run; mix = 1 Cubic "
                   "+ 1 DCTCP, fluid Reno background; recovery band = 2x AQM "
                   "target, hold 1 s (-1 = never reconverged)\n",
                   x.link_mbps, x.rtt_ms, x.duration_s);
       std::printf("%-12s %-16s %-8s %-8s %-8s %-8s %-8s %-8s %-7s %s\n",
                   "aqm", "fault", "fluid", "recov", "mean_rec", "peak",
                   "delta", "qdelay", "util", "viol i/o");
     },
     .build = [](const Grid& g, const CampaignPoint& p) -> PointConfig {
       return resilience_config(
           aqm_from_name(g.x.text(p, "aqm")),
           g.schedules.at(g.x.text(p, "fault_schedule")),
           g.x.number(p, "fluid_flows"), g.x.link_mbps, g.x.rtt_ms,
           g.x.duration_s, g.x.stats_start_s, p.seed);
     },
     .consume = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                   const RunResult& result, const std::string&) {
       const std::string& aqm = g.x.text(p, "aqm");
       const std::string& fault = g.x.text(p, "fault_schedule");
       const double fluid = g.x.number(p, "fluid_flows");
       resilience_print_row(aqm.c_str(), fault.c_str(), fluid, result);
       out.json.add_record([&](durable::AtomicFile& json, bool& first) {
         resilience_json_record(json, first, p.index, aqm.c_str(),
                                fault.c_str(), fluid, p.seed, g.x.link_mbps,
                                g.x.rtt_ms, result);
       });
       out.resilience_gate.record(fault, aqm,
                                  result.resilience.worst_recovery_s);
       return resilience_machinery_healthy(result);
     },
     .failed = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                  runner::TaskStatus status, const std::string&) {
       const std::string& aqm = g.x.text(p, "aqm");
       const std::string& fault = g.x.text(p, "fault_schedule");
       std::printf("%-12s %-16s point %s\n", aqm.c_str(), fault.c_str(),
                   runner::to_string(status));
       out.json.add_record([&](durable::AtomicFile& json, bool& first) {
         resilience_json_failed(json, first, p.index, status, aqm.c_str(),
                                fault.c_str(), g.x.number(p, "fluid_flows"));
       });
     },
     // The paper's robustness claim as a semantic gate: PI2 must reconverge
     // at least as fast as PIE on every fault preset.
     .finish = [](OutputSinks& out) { return out.resilience_gate.check(); }},

    {.id = campaign::TemplateId::kStepResponse,
     .header = [](const campaign::Expansion& x) {
       std::printf("# link %.0f -> %.0f -> %.0f Mb/s, RTT %.0f ms, %.0f s/run, "
                   "4 Cubic flows\n",
                   x.link_mbps, x.link_mbps / 4, x.link_mbps, x.rtt_ms,
                   x.duration_s);
       std::printf("# step down at %.1f s, step up at %.1f s; settle = qdelay "
                   "held <= %.0f ms for %.1f s\n",
                   x.duration_s / 3.0, 2.0 * x.duration_s / 3.0, kStepBandMs,
                   step_hold_s(x.duration_s));
       std::printf("%-14s %-16s %-16s %-12s %-12s %-8s\n", "aqm",
                   "settle_drop[s]", "settle_rise[s]", "peak[ms]",
                   "invariants", "guards");
     },
     .build = [](const Grid& g, const CampaignPoint& p) -> PointConfig {
       return step_response_config(aqm_from_name(g.x.text(p, "aqm")),
                                   g.x.link_mbps, g.x.rtt_ms, g.x.duration_s,
                                   g.x.stats_start_s, p.seed);
     },
     .consume = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                   const RunResult& result, const std::string&) {
       const std::string& aqm = g.x.text(p, "aqm");
       const char* label = aqm_label(aqm_from_name(aqm));
       const StepSummary summary = step_summary(result, g.x.duration_s);
       step_print_row(label, summary, result);
       out.json.add_record([&](durable::AtomicFile& json, bool& first) {
         step_json_record(json, first, p.index, label, p.seed, summary,
                          result);
       });
       out.resilience_gate.record(kStepGateKey, aqm, summary.settle_drop_s);
       return step_machinery_healthy(label, result);
     },
     .failed = [](const Grid& g, OutputSinks& out, const CampaignPoint& p,
                  runner::TaskStatus status, const std::string&) {
       const char* label = aqm_label(aqm_from_name(g.x.text(p, "aqm")));
       std::printf("%-14s point %s\n", label, runner::to_string(status));
       out.json.add_record([&](durable::AtomicFile& json, bool& first) {
         aqm_json_failed(json, first, p.index, status, label);
       });
     },
     // The headline when the grid ran clean, then the gate: PI2 settles at
     // least as fast as PIE after the capacity drop.
     .finish = [](OutputSinks& out) {
       if (out.healthy) step_print_headline(out.resilience_gate);
       return out.resilience_gate.check();
     }},
};

/// Total over validated specs: every TemplateRule has a TemplateDef (the
/// campaign_help ctest pins one usage line per template).
const TemplateDef& def_of(campaign::TemplateId id) {
  return *std::find_if(std::begin(kTemplateDefs), std::end(kTemplateDefs),
                       [&](const TemplateDef& def) { return def.id == id; });
}

/// The usage text enumerates the valid templates and axis names straight
/// from the registry, so a spec author never has to guess them.
void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: pi2_campaign --spec FILE [--list | --digest | "
               "--shard i/N | --merge JOURNAL...]\n"
               "                    [sweep flags: --smoke --full --seed N "
               "--jobs N --json PATH --resume --journal PATH ...]\n"
               "templates: %s\n"
               "axes:      %s\n",
               joined(campaign::template_names()).c_str(),
               joined(campaign::axis_names()).c_str());
  for (const TemplateDef& def : kTemplateDefs) {
    std::fprintf(to, "  %-14s axes: %s\n", campaign::to_string(def.id),
                 joined(campaign::axes_of_template(def.id)).c_str());
  }
  std::fprintf(to, "fault_schedule values: %s; or an inline literal like "
                   "'rate_step@0.4:rate=0.25'\n",
               joined(faults::preset_names()).c_str());
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "pi2_campaign: %s\n", message.c_str());
  print_usage(stderr);
  return 17;
}

/// Resolves every fault_schedule value once, scaled to the expansion's
/// link/RTT/duration: an unknown preset or a malformed literal is a spec
/// authoring error, not a mid-run surprise, and the defs' schedule lookups
/// become total. Returns "" or the first error.
std::string resolve_fault_schedules(
    const campaign::Expansion& x,
    std::map<std::string, faults::FaultSchedule>& schedules) {
  const faults::PresetContext ctx =
      resilience_fault_context(x.link_mbps, x.rtt_ms, x.duration_s);
  for (std::size_t a = 0; a < x.axes.size(); ++a) {
    if (x.axes[a].name != "fault_schedule") continue;
    for (std::size_t j = 0; j < x.axes[a].values.size(); ++j) {
      const std::string& text = x.axes[a].values[j].text;
      faults::FaultSchedule schedule;
      const std::string err = faults::resolve_schedule(text, ctx, &schedule);
      if (!err.empty()) {
        return "axes[" + std::to_string(a) + "].values[" + std::to_string(j) +
               "]: " + err;
      }
      schedules.emplace(text, std::move(schedule));
    }
  }
  return "";
}

scenario::RunResult run_config(const scenario::DumbbellConfig& cfg) {
  return scenario::run_dumbbell(cfg);
}

scenario::RunResult run_config(const topology::TopologyConfig& cfg) {
  return topology::to_run_result(topology::run_topology(cfg));
}

/// Builds and runs point `p` (on a worker thread). `recorder` may be null.
scenario::RunResult run_point(const TemplateDef& def, const Grid& g,
                              const CampaignPoint& p,
                              telemetry::Recorder* recorder) {
  PointConfig config = def.build(g, p);
  return std::visit(
      [&](auto& cfg) {
        cfg.stop = durable::ShutdownController::flag();
        if (recorder != nullptr) cfg.recorder = recorder;
        return run_config(cfg);
      },
      config);
}

/// Journal location: --journal wins, then <json>.journal, then a name
/// derived from the campaign (shards get their slice in the filename so N
/// workers in one directory never collide).
std::string campaign_journal_path(const campaign::Expansion& x,
                                  const CampaignCli& cli,
                                  const Options& opts) {
  if (!opts.journal_path.empty()) return opts.journal_path;
  if (cli.has_shard) {
    return x.name + ".shard" + std::to_string(cli.shard_index) + "of" +
           std::to_string(cli.shard_count) + ".journal";
  }
  if (!opts.json_path.empty()) return opts.json_path + ".journal";
  return x.name + ".journal";
}

// ---- run modes -------------------------------------------------------------

int run_list(const campaign::Expansion& x) {
  std::printf("# campaign %s (%s): %zu point(s), digest %016llx\n",
              x.name.c_str(), campaign::to_string(x.template_id),
              x.points.size(), static_cast<unsigned long long>(x.digest));
  for (const auto& p : x.points) {
    std::printf("%4zu  seed=%llu ", p.index,
                static_cast<unsigned long long>(p.seed));
    for (std::size_t a = 0; a < x.axes.size(); ++a) {
      std::printf(" %s=%s", x.axes[a].name.c_str(),
                  axis_value_str(p.values[a]).c_str());
    }
    std::printf("\n");
  }
  return 0;
}

/// A point's result and, for a fresh run under --telemetry, its recorder.
struct PointOutcome {
  scenario::RunResult result;
  std::shared_ptr<telemetry::Recorder> recorder;
};

/// Every mode that renders points: a serial or shard run, its --resume,
/// and --merge, which replays every point from the shard journals and runs
/// none. All of them journal through runner::run_journaled and render
/// through the one consume below.
int run_campaign(const Grid& g, const CampaignCli& cli) {
  const campaign::Expansion& x = g.x;
  const Options& opts = g.opts;
  const TemplateDef& def = def_of(x.template_id);
  const campaign::ShardRange range =
      cli.has_shard
          ? campaign::shard_range(x.points.size(), cli.shard_index,
                                  cli.shard_count)
          : campaign::ShardRange{0, x.points.size()};
  const std::size_t n = range.hi - range.lo;

  // A serial run and a merge both claim the whole grid as shard 1/1, so the
  // merged journal is byte-identical to a serial run's.
  const runner::JournalTarget target{
      .path = campaign_journal_path(x, cli, opts),
      .key = x.digest,
      .shard = durable::ShardInfo{.present = true, .campaign = x.name,
                                  .digest = x.digest, .index = cli.shard_index,
                                  .count = cli.shard_count, .lo = range.lo,
                                  .hi = range.hi}};

  // --resume replays what the lenient load recovers. The merge validates the
  // shard set, then decodes every payload strictly: an undecodable one
  // refuses the merge before anything is written.
  const auto key = [&](std::size_t j) { return x.points[range.lo + j].key; };
  runner::Replays replays;
  std::size_t merged_shards = 0;
  if (cli.merge) {
    campaign::MergeResult merged;
    const durable::Status status =
        campaign::merge_shards(x, cli.merge_paths, merged);
    if (!status.ok()) {
      std::fprintf(stderr, "pi2_campaign: merge: %s\n",
                   status.message().c_str());
      return status_exit(status);
    }
    if (merged.interrupted > 0) {
      std::fprintf(stderr,
                   "merge: note: %zu interruption marker(s) across shards "
                   "(coverage is complete, so they are historical)\n",
                   merged.interrupted);
    }
    merged_shards = merged.shards;
    for (std::size_t i = 0; i < n; ++i) {
      scenario::RunResult result;
      const durable::Status decode =
          durable::decode_result(merged.payloads[i], result);
      if (!decode.ok()) {
        std::fprintf(stderr,
                     "pi2_campaign: merge: point %zu payload undecodable: %s\n",
                     i, decode.message().c_str());
        return status_exit(durable::Status::corrupt(decode.message()));
      }
    }
    replays.assign(merged.payloads.begin(), merged.payloads.end());
  } else if (opts.resume) {
    replays = runner::load_replays(target, n, key);
  }

  OutputSinks out{opts};
  const bool telemetry_on = !opts.telemetry_dir.empty();
  telemetry::MetricsRegistry aggregate_registry;
  telemetry::SectionProfile aggregate_profile;
  std::mutex error_mutex;
  std::vector<std::string> last_error(n);

  const runner::JournaledUnits<PointOutcome> units{
      .count = n,
      .key = key,
      .produce =
          [&](std::size_t j) {
            try {
              detail::maybe_inject(opts, range.lo + j);
              PointOutcome outcome;
              if (telemetry_on) {
                outcome.recorder = std::make_shared<telemetry::Recorder>(
                    detail::point_recorder_config(opts, range.lo + j));
              }
              outcome.result = run_point(def, g, x.points[range.lo + j],
                                         outcome.recorder.get());
              return outcome;
            } catch (const std::exception& ex) {
              const std::lock_guard<std::mutex> lock{error_mutex};
              last_error[j] = ex.what();
              throw;
            }
          },
      .encode =
          [](const PointOutcome& outcome) {
            return durable::encode_result(outcome.result);
          },
      .decode =
          [](const std::string& payload, PointOutcome& outcome) {
            return durable::decode_result(payload, outcome.result).ok();
          },
      .consume =
          [&](std::size_t j, runner::TaskStatus status, PointOutcome* outcome) {
            const campaign::CampaignPoint& p = x.points[range.lo + j];
            if (status == runner::TaskStatus::kInterrupted) return;
            if (outcome == nullptr) {
              std::string message;
              if (status == runner::TaskStatus::kTimeout) {
                message = "wall-clock deadline exceeded (--deadline-s " +
                          std::to_string(opts.deadline_s) + ")";
              } else {
                const std::lock_guard<std::mutex> lock{error_mutex};
                message =
                    last_error[j].empty() ? "unknown error" : last_error[j];
              }
              out.healthy = false;
              def.failed(g, out, p, status, message);
              return;
            }
            // A replayed point has no recorder: the run that journaled it
            // wrote its telemetry under the same deterministic run id.
            std::string manifest_path;
            if (outcome->recorder != nullptr) {
              manifest_path = outcome->recorder->manifest_path();
              std::printf("# telemetry: %s\n", manifest_path.c_str());
              aggregate_registry.merge_from(outcome->recorder->registry());
              aggregate_profile.merge_from(outcome->recorder->profile());
              outcome->recorder.reset();
            } else if (telemetry_on) {
              manifest_path = opts.telemetry_dir + "/" +
                              detail::point_run_id(range.lo + j) +
                              ".manifest.json";
            }
            if (!def.consume(g, out, p, outcome->result, manifest_path)) {
              out.healthy = false;
            }
          }};

  const runner::JournaledReport report = runner::run_journaled(
      runner::ParallelRunner{opts.jobs}, target, units, std::move(replays),
      detail::guard_options(opts));
  if (report.interrupted) return durable::ShutdownController::kExitInterrupted;
  // The merged journal is the merge's product: without it the merge fails.
  if (cli.merge && !report.journal.ok()) {
    std::fprintf(stderr, "pi2_campaign: merge: journal write failed: %s\n",
                 report.journal.message().c_str());
    return status_exit(report.journal);
  }
  out.json.commit();

  if (telemetry_on && !cli.merge) {
    if (report.replayed > 0) {
      std::fprintf(stderr,
                   "campaign: %zu replayed point(s) have no fresh telemetry; "
                   "skipping sweep_aggregate.prom\n",
                   report.replayed);
    } else {
      telemetry::PrometheusExporter aggregate{opts.telemetry_dir +
                                              "/sweep_aggregate.prom"};
      aggregate_registry.freeze_gauges();
      aggregate.finish(aggregate_registry);
      aggregate_profile.print(stderr, "campaign wall-clock sections");
    }
  }

  if (!cli.merge) {
    std::printf("# points ok: %zu/%zu\n", report.run.ok_count(),
                report.run.status.size());
  }
  // The cross-point summaries need the whole grid; a shard leaves them to
  // --merge.
  if (!cli.has_shard && def.finish != nullptr && !def.finish(out)) {
    out.healthy = false;
  }
  if (cli.merge) {
    std::printf("# merged %zu shard journal(s), %zu point(s) -> %s\n",
                merged_shards, n, target.path.c_str());
  }
  return report.run.all_ok() && out.healthy ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CampaignCli cli = parse_campaign_cli(argc, argv);
  if (cli.help) {
    print_usage(stdout);
    return 0;
  }
  if (!cli.error.empty()) return usage_error(cli.error);
  const Options& opts = cli.opts;
  if (cli.has_shard && !opts.json_path.empty()) {
    return usage_error("--shard runs journal only; --json belongs to the "
                       "serial or --merge run");
  }

  campaign::CampaignSpec spec;
  std::string err = campaign::load_spec(cli.spec_path, spec);
  if (err.empty()) err = spec.validate();
  if (!err.empty()) {
    std::fprintf(stderr, "pi2_campaign: %s\n", err.c_str());
    return 17;
  }

  const campaign::Expansion x = campaign::expand(
      spec, {.full = opts.full,
             .grid_cap = opts.grid_cap,
             .min_link_mbps = opts.min_link_mbps,
             .duration_s_override = opts.duration_s_override,
             .stats_start_s_override = opts.stats_start_s_override,
             .use_seed = cli.use_seed,
             .seed = opts.seed});
  if (x.points.empty()) {
    std::fprintf(stderr, "pi2_campaign: campaign '%s' expands to 0 points "
                 "(grid cap or --min-link-mbps removed everything)\n",
                 x.name.c_str());
    return 17;
  }

  std::map<std::string, faults::FaultSchedule> schedules;
  err = resolve_fault_schedules(x, schedules);
  if (!err.empty()) {
    std::fprintf(stderr, "pi2_campaign: %s\n", err.c_str());
    return 17;
  }
  const Grid g{x, opts, schedules};

  if (cli.digest_only) {
    std::printf("%016llx\n", static_cast<unsigned long long>(x.digest));
    return 0;
  }
  if (cli.list) return run_list(x);

  // A merge prints only the stitched rows and its summary.
  if (!cli.merge) {
    print_header(("Campaign " + x.name).c_str(),
                 campaign::to_string(x.template_id), opts);
    if (cli.has_shard) {
      const campaign::ShardRange range = campaign::shard_range(
          x.points.size(), cli.shard_index, cli.shard_count);
      std::printf("# shard %zu/%zu: points [%zu, %zu) of %zu\n",
                  cli.shard_index, cli.shard_count, range.lo, range.hi,
                  x.points.size());
    }
    def_of(x.template_id).header(x);
  }
  return run_campaign(g, cli);
}
