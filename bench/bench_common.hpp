// Shared plumbing for the figure-reproduction binaries: CLI flags, table
// headers, and the Cubic-vs-X flow mix of the Figure 15-18 sweep.
//
// Every binary prints the same rows/series the paper reports. By default
// shortened durations (and, for campaign grids, reduced axes) keep the whole
// suite runnable quickly; pass --full for the paper-scale parameters.
// Sweeps fan their grid points out over --jobs worker threads (the printed
// tables stay byte-identical to a serial run) and can emit machine-readable
// per-point records with --json.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "durable/wire.hpp"
#include "scenario/dumbbell.hpp"

namespace pi2::bench {

struct Options {
  /// argv[0]. Nothing reads it since journals are named after their
  /// campaign; perfbench/driver.cpp still assigns it.
  std::string argv0;
  bool full = false;
  std::uint64_t seed = 1;
  /// Worker threads for sweep-based binaries. 0 = hardware_concurrency.
  /// Output is identical for every value; only wall-clock changes.
  unsigned jobs = 0;
  /// If non-empty, sweep-based binaries write one JSON record per grid
  /// point to this path (in addition to the printed table).
  std::string json_path;
  /// Overrides for smoke/CI runs (0 = use the quick/full mode defaults).
  double duration_s_override = 0;
  double stats_start_s_override = 0;
  /// Caps the number of entries per grid axis (0 = no cap); --smoke uses
  /// this to exercise the full sweep machinery in seconds.
  int grid_cap = 0;
  /// Per-point wall-clock watchdog deadline in seconds (0 = no watchdog).
  /// A point that exceeds it is retried once, then reported `timeout`.
  double deadline_s = 0;
  /// Extra attempts for a failed or stuck point.
  int retries = 1;
  /// Resume from the run journal: completed grid points found in it are
  /// replayed (byte-identical output) instead of re-simulated. Requires the
  /// same grid/seed/duration flags as the interrupted run.
  bool resume = false;
  /// Journal path override. Empty = derived from --json (`<json>.journal`)
  /// or `<campaign name>.journal` when --json is unset.
  std::string journal_path;
  /// Test hooks for the partial-failure path: force the given grid point to
  /// throw / to stall for `hang_s` wall seconds (-1 = disabled). With a
  /// deadline set, a hung point exercises the watchdog + retry machinery.
  long long inject_fail = -1;
  long long inject_hang = -1;
  double hang_s = 2.0;
  /// If non-empty, every grid point writes a telemetry bundle (JSONL stream,
  /// Prometheus snapshot, RunManifest) into this directory, plus a
  /// sweep-wide aggregated snapshot. Byte-identical at any --jobs value.
  std::string telemetry_dir;
  /// Telemetry sampling cadence in simulated seconds (0 = 100 ms default).
  double telemetry_interval_s = 0;
  /// Background load added to every grid point's mix, as either N extra
  /// packet Reno flows or a fluid spec of N modelled Reno flows. The two are
  /// the same scenario rendered by different engine tiers — the golden
  /// fluid-vs-packet agreement test runs one figure both ways.
  int packet_background = 0;
  int fluid_background = 0;
  /// Drop grid links below this rate. The fluid-vs-packet agreement test
  /// uses it to stay inside the mean-field model's validity envelope: the
  /// Appendix-B window law W = sqrt(2/p) is the small-p approximation, so at
  /// links where the equilibrium marking probability is ~0.1+ (4 Mb/s on
  /// this grid) real timeout-dominated TCP and the fluid tier diverge by
  /// construction.
  double min_link_mbps = 0;
};

/// Parses the whole of `value` into `out`; a malformed, out-of-range or (for
/// doubles) non-finite value is a usage error (exit 17) naming the flag.
template <typename T>
void flag_value(const std::string& flag, const char* value, T& out) {
  if (!durable::parse_decimal(value, out)) {
    std::fprintf(stderr, "invalid value '%s' for %s\n", value, flag.c_str());
    std::exit(17);
  }
}

/// Applies the sweep flag at argv[i] to `opts`, advancing `i` past its
/// value. Returns false, leaving both untouched, when argv[i] is not a sweep
/// flag or its value is missing.
inline bool parse_option(int argc, char** argv, int& i, Options& opts) {
  const std::string arg = argv[i];
  if (arg == "--full") {
    opts.full = true;
    return true;
  }
  if (arg == "--smoke") {
    opts.duration_s_override = 4.0;
    opts.stats_start_s_override = 1.0;
    opts.grid_cap = 2;
    return true;
  }
  if (arg == "--resume") {
    opts.resume = true;
    return true;
  }
  if (i + 1 >= argc) return false;
  const char* value = argv[i + 1];
  if (arg == "--seed") {
    flag_value(arg, value, opts.seed);
  } else if (arg == "--jobs") {
    flag_value(arg, value, opts.jobs);
  } else if (arg == "--json") {
    opts.json_path = value;
  } else if (arg == "--duration-s") {
    flag_value(arg, value, opts.duration_s_override);
  } else if (arg == "--stats-start-s") {
    flag_value(arg, value, opts.stats_start_s_override);
  } else if (arg == "--grid-cap") {
    flag_value(arg, value, opts.grid_cap);
  } else if (arg == "--min-link-mbps") {
    flag_value(arg, value, opts.min_link_mbps);
  } else if (arg == "--deadline-s") {
    flag_value(arg, value, opts.deadline_s);
  } else if (arg == "--retries") {
    flag_value(arg, value, opts.retries);
  } else if (arg == "--journal") {
    opts.journal_path = value;
  } else if (arg == "--inject-fail") {
    flag_value(arg, value, opts.inject_fail);
  } else if (arg == "--inject-hang") {
    flag_value(arg, value, opts.inject_hang);
  } else if (arg == "--hang-s") {
    flag_value(arg, value, opts.hang_s);
  } else if (arg == "--telemetry") {
    opts.telemetry_dir = value;
  } else if (arg == "--telemetry-interval") {
    flag_value(arg, value, opts.telemetry_interval_s);
  } else if (arg == "--packet-background") {
    flag_value(arg, value, opts.packet_background);
  } else if (arg == "--fluid-background") {
    flag_value(arg, value, opts.fluid_background);
  } else {
    return false;
  }
  ++i;
  return true;
}

/// The figure binaries' parser: sweep flags plus --help; anything else is
/// ignored.
inline Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--full] [--seed N] [--jobs N] [--json PATH] [--smoke]\n"
          "          [--deadline-s S] [--retries N]\n"
          "          [--resume] [--journal PATH]\n"
          "  --full      paper-scale grid and durations (slower)\n"
          "  --seed N    RNG seed (default 1)\n"
          "  --jobs N    worker threads for sweep grids (default: all cores;\n"
          "              tables are byte-identical for every N)\n"
          "  --json PATH also write per-point JSON records to PATH\n"
          "  --smoke     tiny grid and durations (CI race/smoke testing)\n"
          "  --duration-s S / --stats-start-s S / --grid-cap N\n"
          "              override the run duration, stats-window start and\n"
          "              per-axis grid size (later flags win, so they can\n"
          "              refine --smoke; 0 = keep the mode default)\n"
          "  --min-link-mbps X  drop grid links below X Mb/s (fluid-tier\n"
          "              agreement runs stay in the mean-field validity\n"
          "              envelope this way)\n"
          "  --deadline-s S  per-point wall-clock watchdog; a point past the\n"
          "              deadline is retried once, then reported `timeout`\n"
          "  --retries N retry budget per failed/stuck point (default 1)\n"
          "  --resume    replay completed points from the run journal and\n"
          "              only re-simulate the missing ones; the final output\n"
          "              is byte-identical to an uninterrupted run\n"
          "  --journal PATH  journal location (default: <json>.journal, or\n"
          "              <campaign>.journal without --json)\n"
          "  --inject-fail I / --inject-hang I / --hang-s S\n"
          "              fault-injection test hooks: force point I to throw,\n"
          "              or to stall S wall seconds (default 2)\n"
          "  --telemetry DIR  write per-point telemetry artifacts (JSONL,\n"
          "              Prometheus snapshot, run manifest) into DIR\n"
          "  --telemetry-interval S  telemetry sampling cadence in simulated\n"
          "              seconds (default 0.1)\n"
          "  --packet-background N / --fluid-background N\n"
          "              add N background Reno flows to every grid point, as\n"
          "              real packet flows or as one fluid spec of N modelled\n"
          "              flows (the same load at different engine tiers)\n",
          argv[0]);
      std::exit(0);
    }
    (void)parse_option(argc, argv, i, opts);
  }
  return opts;
}

inline void print_header(const char* figure, const char* description,
                         const Options& opts) {
  std::printf("# %s — %s\n", figure, description);
  std::printf("# mode: %s\n", opts.full ? "full (paper-scale)" : "quick (reduced)");
}

/// Durations for the steady-state runs.
inline pi2::sim::Time run_duration(const Options& opts) {
  if (opts.duration_s_override > 0) {
    return pi2::sim::from_seconds(opts.duration_s_override);
  }
  return pi2::sim::from_seconds(opts.full ? 100.0 : 40.0);
}

inline pi2::sim::Time stats_start(const Options& opts) {
  if (opts.stats_start_s_override > 0) {
    return pi2::sim::from_seconds(opts.stats_start_s_override);
  }
  return pi2::sim::from_seconds(opts.full ? 30.0 : 15.0);
}

/// One Cubic-vs-X flow mix at a grid point (the Figure 15-18 scenarios).
enum class MixKind { kCubicVsDctcp, kCubicVsEcnCubic };

inline const char* to_string(MixKind kind) {
  return kind == MixKind::kCubicVsDctcp ? "cubic/dctcp" : "cubic/ecn-cubic";
}

inline scenario::DumbbellConfig mix_config(scenario::AqmType aqm, MixKind kind,
                                           double link_mbps, double rtt_ms,
                                           const Options& opts, int n_cubic = 1,
                                           int n_other = 1) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = link_mbps * 1e6;
  cfg.duration = run_duration(opts);
  cfg.stats_start = stats_start(opts);
  cfg.seed = opts.seed;
  cfg.aqm.type = aqm;
  // The paper's PIE coexistence runs rework the 10% mark->drop switchover
  // (section 5) to avoid its discontinuity; always-mark reproduces that.
  cfg.aqm.ecn_drop_threshold = 1.0;
  if (n_cubic > 0) {
    scenario::TcpFlowSpec cubic;
    cubic.cc = tcp::CcType::kCubic;
    cubic.count = n_cubic;
    cubic.base_rtt = pi2::sim::from_millis(rtt_ms);
    cfg.tcp_flows.push_back(cubic);
  }
  if (n_other > 0) {
    scenario::TcpFlowSpec other;
    other.cc = kind == MixKind::kCubicVsDctcp ? tcp::CcType::kDctcp
                                              : tcp::CcType::kEcnCubic;
    other.count = n_other;
    other.base_rtt = pi2::sim::from_millis(rtt_ms);
    cfg.tcp_flows.push_back(other);
  }
  // Background load, at either engine tier. Reno in both renderings so the
  // per-cc foreground means (cubic_mbps / other_mbps) stay comparable.
  if (opts.packet_background > 0) {
    scenario::TcpFlowSpec bg;
    bg.cc = tcp::CcType::kReno;
    bg.count = opts.packet_background;
    bg.base_rtt = pi2::sim::from_millis(rtt_ms);
    cfg.tcp_flows.push_back(bg);
  }
  if (opts.fluid_background > 0) {
    scenario::FluidFlowSpec bg;
    bg.cc = tcp::CcType::kReno;
    bg.count = opts.fluid_background;
    bg.base_rtt = pi2::sim::from_millis(rtt_ms);
    cfg.fluid_flows.push_back(bg);
  }
  return cfg;
}

inline tcp::CcType other_cc(MixKind kind) {
  return kind == MixKind::kCubicVsDctcp ? tcp::CcType::kDctcp
                                        : tcp::CcType::kEcnCubic;
}

}  // namespace pi2::bench
