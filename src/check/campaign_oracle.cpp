#include "check/campaign_oracle.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include "campaign/merge.hpp"
#include "durable/journal.hpp"
#include "faults/fault_presets.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace pi2::check {
namespace {

using campaign::Axis;
using campaign::AxisValue;
using campaign::CampaignSpec;
using campaign::Expansion;
using campaign::ExpandOptions;

std::string describe_point(std::size_t i) {
  return "point " + std::to_string(i);
}

/// Two expansions of the same (spec, opts) must agree on every observable.
std::string check_determinism(const Expansion& a, const Expansion& b) {
  if (a.digest != b.digest) return "expand() digest is not deterministic";
  if (a.points.size() != b.points.size()) {
    return "expand() point count is not deterministic";
  }
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].key != b.points[i].key ||
        a.points[i].seed != b.points[i].seed ||
        !(a.points[i].values == b.points[i].values)) {
      return "expand() " + describe_point(i) + " is not deterministic";
    }
  }
  return "";
}

/// Row-major order, last axis fastest: position i must decompose as the
/// odometer reading of i over the axis sizes.
std::string check_ordering(const Expansion& x) {
  std::size_t expected = 1;
  for (const Axis& axis : x.axes) expected *= axis.values.size();
  if (x.points.size() != expected) {
    return "expansion has " + std::to_string(x.points.size()) +
           " points, axes multiply to " + std::to_string(expected);
  }
  for (std::size_t i = 0; i < x.points.size(); ++i) {
    if (x.points[i].index != i) {
      return describe_point(i) + " carries index " +
             std::to_string(x.points[i].index);
    }
    std::size_t remainder = i;
    for (std::size_t a = x.axes.size(); a-- > 0;) {
      const std::size_t size = x.axes[a].values.size();
      if (!(x.points[i].values[a] == x.axes[a].values[remainder % size])) {
        return describe_point(i) + " axis '" + x.axes[a].name +
               "' breaks row-major order";
      }
      remainder /= size;
    }
  }
  return "";
}

std::string check_uniqueness(const Expansion& x) {
  std::set<std::uint64_t> keys;
  for (const auto& p : x.points) {
    if (!keys.insert(p.key).second) {
      return "duplicate point key at index " + std::to_string(p.index);
    }
  }
  return "";
}

std::string check_round_trip(const CampaignSpec& spec,
                             const ExpandOptions& opts,
                             const Expansion& reference) {
  CampaignSpec reparsed;
  const std::string err =
      campaign::parse_spec(campaign::serialize_spec(spec), reparsed);
  if (!err.empty()) return "serialize_spec() does not re-parse: " + err;
  const std::string invalid = reparsed.validate();
  if (!invalid.empty()) {
    return "serialize_spec() round-trip fails validate(): " + invalid;
  }
  const Expansion again = campaign::expand(reparsed, opts);
  if (again.digest != reference.digest) {
    return "serialize/parse round-trip changes the campaign digest";
  }
  return "";
}

/// The digest must move when results-determining inputs move.
std::string check_digest_sensitivity(const CampaignSpec& spec,
                                     const ExpandOptions& opts,
                                     const Expansion& reference) {
  if (!opts.use_seed) {
    CampaignSpec reseeded = spec;
    reseeded.seed += 1;
    if (campaign::expand(reseeded, opts).digest == reference.digest) {
      return "digest ignores the base seed";
    }
  }
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    if (spec.axes[a].values.size() < 2) continue;
    CampaignSpec swapped = spec;
    std::swap(swapped.axes[a].values[0], swapped.axes[a].values[1]);
    const Expansion perturbed = campaign::expand(swapped, opts);
    // Capping can truncate the reordered axis back to one value or swap may
    // survive into the expansion; either way the resolved grids differ, so
    // the digests must.
    if (perturbed.digest == reference.digest &&
        !(perturbed.axes[a].values == reference.axes[a].values)) {
      return "digest ignores the value order of axis '" + spec.axes[a].name +
             "'";
    }
    break;  // one perturbed axis suffices
  }
  return "";
}

std::string check_shard_tiling(const Expansion& x) {
  const std::size_t points = x.points.size();
  const std::size_t max_workers = std::min<std::size_t>(points, 8);
  for (std::size_t n = 1; n <= max_workers; ++n) {
    std::size_t covered = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      const campaign::ShardRange r = campaign::shard_range(points, i, n);
      if (r.lo != covered) {
        return "shard " + std::to_string(i) + "/" + std::to_string(n) +
               " starts at " + std::to_string(r.lo) + ", expected " +
               std::to_string(covered);
      }
      if (r.hi < r.lo) {
        return "shard " + std::to_string(i) + "/" + std::to_string(n) +
               " range is inverted";
      }
      const std::size_t size = r.hi - r.lo;
      if (size + 1 < points / n || size > points / n + 1) {
        return "shard " + std::to_string(i) + "/" + std::to_string(n) +
               " is not within one point of even";
      }
      covered = r.hi;
    }
    if (covered != points) {
      return "shards 1.." + std::to_string(n) + " cover " +
             std::to_string(covered) + " of " + std::to_string(points) +
             " points";
    }
  }
  return "";
}

}  // namespace

std::string check_campaign_properties(const CampaignSpec& spec,
                                      const ExpandOptions& opts) {
  const std::string invalid = spec.validate();
  if (!invalid.empty()) return "spec does not validate: " + invalid;
  const Expansion x = campaign::expand(spec, opts);
  if (x.points.empty()) return "";  // capped/filtered away: nothing to check
  std::string err = check_determinism(x, campaign::expand(spec, opts));
  if (err.empty()) err = check_ordering(x);
  if (err.empty()) err = check_uniqueness(x);
  if (err.empty()) err = check_round_trip(spec, opts, x);
  if (err.empty()) err = check_digest_sensitivity(spec, opts, x);
  if (err.empty()) err = check_shard_tiling(x);
  return err;
}

namespace {

/// Draws `count` distinct values out of `pool` in a rotated order.
std::vector<AxisValue> draw(sim::Rng& rng, const std::vector<AxisValue>& pool,
                            std::size_t count) {
  const std::size_t start = rng.uniform_below(pool.size());
  std::vector<AxisValue> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(pool[(start + i) % pool.size()]);
  }
  return out;
}

Axis make_axis(sim::Rng& rng, const std::string& name,
               const std::vector<AxisValue>& pool) {
  Axis axis;
  axis.name = name;
  axis.cap = rng.uniform_below(2) == 0;
  axis.values = draw(rng, pool, 1 + rng.uniform_below(pool.size()));
  if (rng.uniform_below(2) == 0) {
    axis.full_values = draw(rng, pool, 1 + rng.uniform_below(pool.size()));
  }
  return axis;
}

std::vector<AxisValue> numbers(std::initializer_list<double> vs) {
  std::vector<AxisValue> out;
  for (const double v : vs) out.push_back(campaign::axis_number(v));
  return out;
}

std::vector<AxisValue> texts(std::initializer_list<const char*> vs) {
  std::vector<AxisValue> out;
  for (const char* v : vs) out.push_back(campaign::axis_text(v));
  return out;
}

/// The generator's value pool for `axis` of template `rule`.
std::vector<AxisValue> axis_pool(const campaign::TemplateRule& rule,
                                 const std::string& axis) {
  if (axis == "aqm") {
    std::vector<AxisValue> out;
    for (const std::string& aqm : rule.aqms) {
      out.push_back(campaign::axis_text(aqm));
    }
    return out;
  }
  if (axis == "cc_mix") return texts({"cubic/ecn-cubic", "cubic/dctcp"});
  if (axis == "rate_mbps") return numbers({4, 12, 40, 120, 200});
  if (axis == "rtt_ms") return numbers({5, 10, 20, 50, 100});
  if (axis == "ecn") return texts({"not-ect", "ect1", "ect0"});
  if (axis == "udp_mult") return numbers({0.5, 1, 1.5, 2, 3});
  if (axis == "hops") return numbers({1, 2, 3, 4, 5, 6, 7, 8});
  if (axis == "fault_schedule") {
    // The campaign layer treats fault_schedule values as opaque text (the
    // driver resolves presets/literals), so the pool mixes both forms.
    return texts({"none", "rate_step_4x", "rtt_flap", "burst_loss_2pct",
                  "ecn_bleach", "reorder", "rate_step@0.4:rate=0.25",
                  "random_loss@0.3..0.5:p=0.01;rtt_step@0.7:rtt=2"});
  }
  return numbers({0, 10, 100, 1000, 100000});  // fluid_flows
}

}  // namespace

CampaignSpec random_campaign_spec(std::uint64_t seed) {
  sim::Rng rng{sim::Rng::derive_seed(0x5eedc0deULL, seed)};
  CampaignSpec spec;
  spec.name = "prop-" + std::to_string(seed);
  spec.seed = rng.next_u64() >> 1;

  // Any registered template, with a draw from each of its required axes.
  const auto& rules = campaign::template_rules();
  const campaign::TemplateRule& rule = rules[rng.uniform_below(rules.size())];
  spec.template_name = rule.name;
  std::vector<Axis> axes;
  for (const std::string& axis : rule.axes) {
    axes.push_back(make_axis(rng, axis, axis_pool(rule, axis)));
  }
  // Axis listing order is free (validate() only demands coverage), so the
  // generator exercises every permutation the odometer can see.
  for (std::size_t i = axes.size(); i > 1; --i) {
    std::swap(axes[i - 1], axes[rng.uniform_below(i)]);
  }
  spec.axes = std::move(axes);
  if (rng.uniform_below(2) == 0) spec.link_mbps = rng.uniform(5.0, 50.0);
  if (rng.uniform_below(2) == 0) spec.rtt_ms = rng.uniform(2.0, 80.0);
  // validate() refuses a fixed key the template never reads.
  if (!rule.reads_link_mbps) spec.link_mbps = 0;
  if (!rule.reads_rtt_ms) spec.rtt_ms = 0;
  return spec;
}

CaseOutcome run_campaign_case_oracles(std::uint64_t seed, std::uint64_t index,
                                      const OracleOptions& options) {
  // (a) Property battery over a random spec of any template.
  campaign::ExpandOptions prop_opts;
  prop_opts.grid_cap = 2;
  const std::string prop_err =
      check_campaign_properties(random_campaign_spec(seed), prop_opts);

  // (b) A randomly drawn resilience spec, expanded and materialized the way
  // bench/pi2_campaign does it: fault_schedule text -> faults::
  // resolve_schedule under the grid's PresetContext, fluid_flows -> one
  // modelled-Reno background ensemble, foreground 1 Cubic + 1 DCTCP.
  sim::Rng rng{sim::Rng::derive_seed(0xca3b41a7ULL, seed)};
  const std::vector<AxisValue> fault_pool = texts(
      {"none", "rate_step_4x", "rtt_flap", "burst_loss_2pct", "ecn_bleach",
       "reorder", "rate_step@0.3:rate=0.5",
       "random_loss@0.3..0.5:p=0.02;rtt_step@0.7:rtt=2"});
  CampaignSpec spec;
  spec.name = "fuzz-resilience-" + std::to_string(index);
  spec.template_name = "resilience";
  spec.seed = rng.next_u64() >> 1;
  spec.axes.push_back(
      make_axis(rng, "aqm", texts({"coupled-pi2", "dualpi2", "pie"})));
  spec.axes.push_back(make_axis(rng, "fault_schedule", fault_pool));
  spec.axes.push_back(
      make_axis(rng, "fluid_flows", numbers({0, 4, 50, 1000})));

  // Short runs keep the fuzz batch cheap; the presets scale to the duration,
  // so every windowed fault still lands inside the run.
  campaign::ExpandOptions eo;
  eo.grid_cap = 2;
  eo.duration_s_override = 2.0;
  eo.stats_start_s_override = 0.5;
  const Expansion x = campaign::expand(spec, eo);

  CaseOutcome outcome;
  outcome.index = index;
  const std::string spec_err = spec.validate();
  if (!spec_err.empty() || x.points.empty()) {
    outcome.failures.push_back(
        {"campaign-expand", spec_err.empty() ? "resilience spec expanded to 0 points"
                                             : spec_err});
    return outcome;
  }

  const campaign::CampaignPoint& p =
      x.points[rng.uniform_below(x.points.size())];
  faults::PresetContext ctx;
  ctx.link_bps = x.link_mbps * 1e6;
  ctx.base_rtt = sim::from_millis(x.rtt_ms);
  ctx.duration = sim::from_seconds(x.duration_s);
  faults::FaultSchedule schedule;
  const std::string resolve_err =
      faults::resolve_schedule(x.text(p, "fault_schedule"), ctx, &schedule);
  if (!resolve_err.empty()) {
    outcome.failures.push_back({"campaign-resolve", resolve_err});
    return outcome;
  }

  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = x.link_mbps * 1e6;
  const std::string& aqm_name = x.text(p, "aqm");
  cfg.aqm.type = aqm_name == "pie"       ? scenario::AqmType::kPie
                 : aqm_name == "dualpi2" ? scenario::AqmType::kDualPi2
                                         : scenario::AqmType::kCoupledPi2;
  cfg.aqm.ecn = true;
  cfg.duration = sim::from_seconds(x.duration_s);
  cfg.stats_start = sim::from_seconds(x.stats_start_s);
  cfg.seed = p.seed;
  cfg.faults = schedule;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = sim::from_millis(x.rtt_ms);
  cfg.tcp_flows.push_back(cubic);
  scenario::TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.base_rtt = sim::from_millis(x.rtt_ms);
  cfg.tcp_flows.push_back(dctcp);
  const double fluid = x.number(p, "fluid_flows");
  if (fluid > 0) {
    scenario::FluidFlowSpec bg;
    bg.cc = tcp::CcType::kReno;
    bg.count = fluid;
    bg.base_rtt = sim::from_millis(x.rtt_ms);
    cfg.fluid_flows.push_back(bg);
  }

  outcome = run_case_oracles(cfg, index, options);
  if (!prop_err.empty()) {
    outcome.failures.push_back({"campaign-properties", prop_err});
  }
  // Fold the expansion digest so the batch-level determinism and --jobs
  // rechecks guard expand() alongside the simulation.
  durable::Fnv1a h;
  h.mix_u64(outcome.digest);
  h.mix_u64(x.digest);
  outcome.digest = h.state;
  return outcome;
}

}  // namespace pi2::check
