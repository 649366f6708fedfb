// Campaign spec language: parse/validate/expand/serialize must round-trip,
// enumerate row-major like the fig binaries' loops, and reject malformed
// specs with one exact message each (TopologyConfig::validate house style).
// The property sweep runs the check-layer oracles over the committed
// campaigns/*.json files and a fuzz batch of generated specs.
#include "campaign/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "campaign/merge.hpp"
#include "check/campaign_oracle.hpp"
#include "scenario/aqm_factory.hpp"
#include "sim/rng.hpp"

namespace pi2::campaign {
namespace {

/// The committed fig15 sweep grid, inline (the on-disk copies are covered by
/// the SpecFiles tests below).
CampaignSpec sweep_spec() {
  CampaignSpec spec;
  spec.name = "fig15";
  spec.template_name = "dumbbell_sweep";
  spec.seed = 1;
  Axis aqm;
  aqm.name = "aqm";
  aqm.cap = false;
  aqm.values = {axis_text("pie"), axis_text("coupled-pi2")};
  Axis mix;
  mix.name = "cc_mix";
  mix.cap = false;
  mix.values = {axis_text("cubic/ecn-cubic"), axis_text("cubic/dctcp")};
  Axis rate;
  rate.name = "rate_mbps";
  rate.values = {axis_number(4), axis_number(40), axis_number(120)};
  rate.full_values = {axis_number(4), axis_number(12), axis_number(40),
                      axis_number(120), axis_number(200)};
  Axis rtt;
  rtt.name = "rtt_ms";
  rtt.values = {axis_number(5), axis_number(20), axis_number(100)};
  rtt.full_values = {axis_number(5), axis_number(10), axis_number(20),
                     axis_number(50), axis_number(100)};
  spec.axes = {aqm, mix, rate, rtt};
  return spec;
}

CampaignSpec overload_spec() {
  CampaignSpec spec;
  spec.name = "fig_overload";
  spec.template_name = "overload";
  spec.seed = 1;
  Axis ecn;
  ecn.name = "ecn";
  ecn.values = {axis_text("not-ect"), axis_text("ect1"), axis_text("ect0")};
  Axis udp;
  udp.name = "udp_mult";
  udp.values = {axis_number(2), axis_number(1), axis_number(0.5),
                axis_number(1.5)};
  spec.axes = {ecn, udp};
  return spec;
}

CampaignSpec resilience_spec() {
  CampaignSpec spec;
  spec.name = "fig_resilience";
  spec.template_name = "resilience";
  spec.seed = 1;
  Axis aqm;
  aqm.name = "aqm";
  aqm.cap = false;
  aqm.values = {axis_text("coupled-pi2"), axis_text("dualpi2"),
                axis_text("pie")};
  Axis fault;
  fault.name = "fault_schedule";
  fault.cap = false;
  fault.values = {axis_text("rate_step_4x"), axis_text("rtt_flap"),
                  axis_text("burst_loss_2pct"), axis_text("ecn_bleach"),
                  axis_text("reorder")};
  Axis fluid;
  fluid.name = "fluid_flows";
  fluid.values = {axis_number(0), axis_number(1000), axis_number(100000)};
  spec.axes = {aqm, fault, fluid};
  return spec;
}

/// The committed capacity-step campaign, inline.
CampaignSpec step_spec() {
  CampaignSpec spec;
  spec.name = "fig_response";
  spec.template_name = "step_response";
  spec.seed = 1;
  spec.link_mbps = 40;
  spec.rtt_ms = 10;
  Axis aqm;
  aqm.name = "aqm";
  aqm.cap = false;
  aqm.values = {axis_text("coupled-pi2"), axis_text("pie")};
  spec.axes = {aqm};
  return spec;
}

std::string validate_parsed(const std::string& json) {
  CampaignSpec spec;
  const std::string parse_err = parse_spec(json, spec);
  if (!parse_err.empty()) return parse_err;
  return spec.validate();
}

TEST(CampaignSpec, ValidSpecsValidateClean) {
  EXPECT_EQ(sweep_spec().validate(), "");
  EXPECT_EQ(overload_spec().validate(), "");
  EXPECT_EQ(resilience_spec().validate(), "");
  EXPECT_EQ(step_spec().validate(), "");
}

TEST(CampaignSpec, StepResponseRequiresExactlyTheAqmAxis) {
  EXPECT_EQ(axes_of_template(TemplateId::kStepResponse),
            std::vector<std::string>{"aqm"});
  CampaignSpec spec = step_spec();
  Axis rtt;
  rtt.name = "rtt_ms";
  rtt.values = {axis_number(10)};
  spec.axes.push_back(rtt);
  EXPECT_EQ(spec.validate(),
            "axes[1].name 'rtt_ms' is not an axis of template 'step_response'");
}

TEST(CampaignSpec, StepResponseDefaultsAreTheCapacityStepDurations) {
  const Expansion quick = expand(step_spec(), ExpandOptions{});
  EXPECT_EQ(quick.template_id, TemplateId::kStepResponse);
  EXPECT_DOUBLE_EQ(quick.duration_s, 30.0);
  EXPECT_DOUBLE_EQ(quick.stats_start_s, 3.0) << "stats window from T/10";
  EXPECT_EQ(quick.link_mbps, 40.0);
  EXPECT_EQ(quick.rtt_ms, 10.0);
  ASSERT_EQ(quick.points.size(), 2u);
  EXPECT_EQ(quick.text(quick.points[0], "aqm"), "coupled-pi2");
  EXPECT_EQ(quick.points[1].seed, sim::Rng::derive_seed(1, 1));

  ExpandOptions full;
  full.full = true;
  const Expansion paper = expand(step_spec(), full);
  EXPECT_DOUBLE_EQ(paper.duration_s, 60.0);
  EXPECT_DOUBLE_EQ(paper.stats_start_s, 6.0);

  // --duration-s wins, and the T/10 window follows it; --stats-start-s wins
  // over the window.
  ExpandOptions smoke;
  smoke.duration_s_override = 4;
  EXPECT_DOUBLE_EQ(expand(step_spec(), smoke).stats_start_s, 0.4);
  smoke.stats_start_s_override = 1;
  const Expansion overridden = expand(step_spec(), smoke);
  EXPECT_DOUBLE_EQ(overridden.duration_s, 4.0);
  EXPECT_DOUBLE_EQ(overridden.stats_start_s, 1.0);
}

TEST(CampaignSpec, ResilienceExpandsRowMajorWithFluidFastest) {
  const Expansion x = expand(resilience_spec(), ExpandOptions{});
  ASSERT_EQ(x.points.size(), 3u * 5u * 3u);
  EXPECT_EQ(x.text(x.points[0], "aqm"), "coupled-pi2");
  EXPECT_EQ(x.text(x.points[0], "fault_schedule"), "rate_step_4x");
  EXPECT_EQ(x.number(x.points[0], "fluid_flows"), 0.0);
  EXPECT_EQ(x.number(x.points[1], "fluid_flows"), 1000.0);
  EXPECT_EQ(x.number(x.points[2], "fluid_flows"), 100000.0);
  EXPECT_EQ(x.text(x.points[3], "fault_schedule"), "rtt_flap");
  EXPECT_EQ(x.text(x.points[15], "aqm"), "dualpi2");
}

TEST(CampaignSpec, DigestCoversFaultScheduleValues) {
  // A changed fault preset or inline literal is a different experiment: the
  // digest must move so stale journals can never replay into the new grid.
  CampaignSpec tweaked = resilience_spec();
  tweaked.axes[1].values[0] = axis_text("rate_step@0.4:rate=0.5");
  const Expansion base = expand(resilience_spec(), ExpandOptions{});
  const Expansion moved = expand(tweaked, ExpandOptions{});
  EXPECT_NE(base.digest, moved.digest);
  // ...and so do the per-point keys of the affected points.
  EXPECT_NE(base.points[0].key, moved.points[0].key);
}

TEST(CampaignSpec, DigestCoversFluidFlowCounts) {
  CampaignSpec tweaked = resilience_spec();
  tweaked.axes[2].values[1] = axis_number(2000);
  EXPECT_NE(expand(resilience_spec(), ExpandOptions{}).digest,
            expand(tweaked, ExpandOptions{}).digest);
}

TEST(CampaignSpec, ExpansionIsRowMajorLastAxisFastest) {
  const Expansion x = expand(sweep_spec(), ExpandOptions{});
  // 2 aqm x 2 mix x 3 rate x 3 rtt, rtt fastest — the fig15 loop nest.
  ASSERT_EQ(x.points.size(), 36u);
  EXPECT_EQ(x.text(x.points[0], "aqm"), "pie");
  EXPECT_EQ(x.number(x.points[0], "rtt_ms"), 5.0);
  EXPECT_EQ(x.number(x.points[1], "rtt_ms"), 20.0);
  EXPECT_EQ(x.number(x.points[2], "rtt_ms"), 100.0);
  EXPECT_EQ(x.number(x.points[3], "rtt_ms"), 5.0);
  EXPECT_EQ(x.number(x.points[3], "rate_mbps"), 40.0);
  // aqm is the outermost axis: flips halfway through the grid.
  EXPECT_EQ(x.text(x.points[17], "aqm"), "pie");
  EXPECT_EQ(x.text(x.points[18], "aqm"), "coupled-pi2");
  for (std::size_t i = 0; i < x.points.size(); ++i) {
    EXPECT_EQ(x.points[i].index, i);
  }
}

TEST(CampaignSpec, PointSeedsDeriveFromBaseSeedAndIndex) {
  const Expansion x = expand(overload_spec(), ExpandOptions{});
  ASSERT_GE(x.points.size(), 2u);
  EXPECT_EQ(x.points[0].seed, sim::Rng::derive_seed(1, 0));
  EXPECT_EQ(x.points[1].seed, sim::Rng::derive_seed(1, 1));
}

TEST(CampaignSpec, FullModeSelectsFullGrids) {
  ExpandOptions full;
  full.full = true;
  const Expansion x = expand(sweep_spec(), full);
  EXPECT_EQ(x.points.size(), 2u * 2u * 5u * 5u);
  const Expansion quick = expand(sweep_spec(), ExpandOptions{});
  EXPECT_NE(x.digest, quick.digest) << "mode is results-determining";
}

TEST(CampaignSpec, GridCapTruncatesOnlyCapEnabledAxes) {
  ExpandOptions smoke;
  smoke.grid_cap = 2;
  const Expansion x = expand(sweep_spec(), smoke);
  // aqm/cc_mix carry cap:false (the fig binaries never cap the enumerations),
  // rate/rtt truncate to their first two values.
  EXPECT_EQ(x.points.size(), 2u * 2u * 2u * 2u);
  ASSERT_EQ(x.axes.size(), 4u);
  EXPECT_EQ(x.axes[2].values.size(), 2u);
  EXPECT_EQ(x.axes[2].values[0].number, 4.0);
  EXPECT_EQ(x.axes[2].values[1].number, 40.0);
}

TEST(CampaignSpec, MinLinkFilterDropsSlowRates) {
  ExpandOptions opts;
  opts.min_link_mbps = 10;
  const Expansion x = expand(sweep_spec(), opts);
  EXPECT_EQ(x.points.size(), 2u * 2u * 2u * 3u);
  const int rate = x.axis_of("rate_mbps");
  ASSERT_GE(rate, 0);
  for (const AxisValue& v : x.axes[static_cast<std::size_t>(rate)].values) {
    EXPECT_GE(v.number, 10.0);
  }
}

TEST(CampaignSpec, SeedOverrideReplacesBaseSeedAndMovesDigest) {
  ExpandOptions opts;
  opts.use_seed = true;
  opts.seed = 7;
  const Expansion x = expand(sweep_spec(), opts);
  EXPECT_EQ(x.base_seed, 7u);
  EXPECT_EQ(x.points[0].seed, sim::Rng::derive_seed(7, 0));
  EXPECT_NE(x.digest, expand(sweep_spec(), ExpandOptions{}).digest);
}

TEST(CampaignSpec, DurationOverridesMoveDigest) {
  ExpandOptions opts;
  opts.duration_s_override = 5;
  opts.stats_start_s_override = 2;
  const Expansion x = expand(overload_spec(), opts);
  EXPECT_EQ(x.duration_s, 5.0);
  EXPECT_EQ(x.stats_start_s, 2.0);
  EXPECT_NE(x.digest, expand(overload_spec(), ExpandOptions{}).digest)
      << "durations are results-determining, the digest must cover them";
}

TEST(CampaignSpec, DigestCoversTheCampaignName) {
  // The digest is the journal key: renaming a campaign must orphan its old
  // journals (the merge's name check fires first and reports foreign, but
  // the digest independently refuses the replay).
  CampaignSpec renamed = sweep_spec();
  renamed.name = "fig15-relabeled";
  EXPECT_NE(expand(renamed, ExpandOptions{}).digest,
            expand(sweep_spec(), ExpandOptions{}).digest);
}

TEST(CampaignSpec, LargeSeedsSurviveTheJsonRoundTrip) {
  // Seeds above 2^53 overflow a double's mantissa; the parser rereads the
  // raw digits so serialize -> parse is exact for the full 64-bit range.
  CampaignSpec spec = overload_spec();
  spec.seed = 0x7fffffffffffffffull - 2;
  CampaignSpec reparsed;
  ASSERT_EQ(parse_spec(serialize_spec(spec), reparsed), "");
  EXPECT_EQ(reparsed.seed, spec.seed);
}

TEST(CampaignSpec, SerializeParseRoundTripsExactly) {
  const CampaignSpec spec = sweep_spec();
  const std::string text = serialize_spec(spec);
  CampaignSpec reparsed;
  ASSERT_EQ(parse_spec(text, reparsed), "");
  EXPECT_EQ(reparsed.name, spec.name);
  EXPECT_EQ(reparsed.template_name, spec.template_name);
  EXPECT_EQ(reparsed.seed, spec.seed);
  ASSERT_EQ(reparsed.axes.size(), spec.axes.size());
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    EXPECT_EQ(reparsed.axes[i].name, spec.axes[i].name);
    EXPECT_EQ(reparsed.axes[i].cap, spec.axes[i].cap);
    EXPECT_TRUE(reparsed.axes[i].values == spec.axes[i].values);
    EXPECT_TRUE(reparsed.axes[i].full_values == spec.axes[i].full_values);
  }
  EXPECT_EQ(serialize_spec(reparsed), text) << "canonical form is a fixpoint";
}

// --- validate() taxonomy: one message per test, asserted verbatim ---------

TEST(CampaignValidate, EmptyName) {
  CampaignSpec spec = sweep_spec();
  spec.name = "";
  EXPECT_EQ(spec.validate(), "name must be a non-empty string");
}

TEST(CampaignValidate, UnknownTemplate) {
  CampaignSpec spec = sweep_spec();
  spec.template_name = "trident";
  EXPECT_EQ(spec.validate(),
            "template 'trident' is not a recognized template "
            "(dumbbell_sweep, overload, parking_lot, rtt_mix, resilience, "
            "step_response)");
}

TEST(CampaignValidate, NegativeLinkOverride) {
  CampaignSpec spec = overload_spec();
  spec.link_mbps = -4;
  EXPECT_EQ(spec.validate(), "link_mbps must be a finite rate > 0 (got -4)");
}

TEST(CampaignValidate, NegativeRttOverride) {
  CampaignSpec spec = overload_spec();
  spec.rtt_ms = -1;
  EXPECT_EQ(spec.validate(), "rtt_ms must be a finite delay > 0 (got -1)");
}

TEST(CampaignValidate, NoAxes) {
  CampaignSpec spec = sweep_spec();
  spec.axes.clear();
  EXPECT_EQ(spec.validate(), "axes must list at least one axis");
}

TEST(CampaignValidate, EmptyAxisName) {
  CampaignSpec spec = sweep_spec();
  spec.axes[0].name = "";
  EXPECT_EQ(spec.validate(), "axes[0].name must be a non-empty name");
}

TEST(CampaignValidate, UnknownAxisName) {
  CampaignSpec spec = sweep_spec();
  spec.axes[1].name = "zoom";
  EXPECT_EQ(spec.validate(),
            "axes[1].name 'zoom' is not a recognized axis (aqm, cc_mix, ecn, "
            "fault_schedule, fluid_flows, hops, rate_mbps, rtt_ms, udp_mult)");
}

TEST(CampaignValidate, AxisForeignToTemplate) {
  CampaignSpec spec = overload_spec();
  spec.axes[1].name = "hops";
  spec.axes[1].values = {axis_number(2)};
  EXPECT_EQ(spec.validate(),
            "axes[1].name 'hops' is not an axis of template 'overload'");
}

TEST(CampaignValidate, DuplicateAxis) {
  CampaignSpec spec = overload_spec();
  spec.axes[1] = spec.axes[0];
  EXPECT_EQ(spec.validate(), "axes[1].name 'ecn' duplicates axes[0]");
}

TEST(CampaignValidate, EmptyValues) {
  CampaignSpec spec = sweep_spec();
  spec.axes[2].values.clear();
  EXPECT_EQ(spec.validate(), "axes[2].values must list at least one value");
}

TEST(CampaignValidate, StringWhereNumberRequired) {
  CampaignSpec spec = sweep_spec();
  spec.axes[2].values[1] = axis_text("fast");
  EXPECT_EQ(spec.validate(),
            "axes[2].values[1] must be a number for axis 'rate_mbps'");
}

TEST(CampaignValidate, NumberWhereStringRequired) {
  CampaignSpec spec = sweep_spec();
  spec.axes[0].values[0] = axis_number(2);
  EXPECT_EQ(spec.validate(),
            "axes[0].values[0] must be a string for axis 'aqm'");
}

TEST(CampaignValidate, NonPositiveNumericValue) {
  CampaignSpec spec = overload_spec();
  spec.axes[1].values[2] = axis_number(0);
  EXPECT_EQ(spec.validate(),
            "axes[1].values[2] must be a finite value > 0 (got 0)");
}

TEST(CampaignValidate, FractionalHops) {
  CampaignSpec spec;
  spec.name = "parking";
  spec.template_name = "parking_lot";
  Axis aqm;
  aqm.name = "aqm";
  aqm.values = {axis_text("coupled-pi2")};
  Axis hops;
  hops.name = "hops";
  hops.values = {axis_number(2.5)};
  spec.axes = {aqm, hops};
  EXPECT_EQ(spec.validate(),
            "axes[1].values[0] must be a whole number of hops in [1, 8] "
            "(got 2.5)");
}

TEST(CampaignValidate, UnknownAqmForSweepTemplate) {
  // dualpi2 is a fine topology AQM but the 15-18 sweep engine only labels
  // PIE and coupled PI2 records.
  CampaignSpec spec = sweep_spec();
  spec.axes[0].values[1] = axis_text("dualpi2");
  EXPECT_EQ(spec.validate(),
            "axes[0].values[1] 'dualpi2' is not a recognized aqm for "
            "template 'dumbbell_sweep'");
}

TEST(CampaignValidate, UnknownCcMix) {
  CampaignSpec spec = sweep_spec();
  spec.axes[1].values[0] = axis_text("reno/reno");
  EXPECT_EQ(spec.validate(),
            "axes[1].values[0] 'reno/reno' is not a recognized cc_mix "
            "(cubic/ecn-cubic, cubic/dctcp)");
}

TEST(CampaignValidate, UnknownEcnCodepoint) {
  CampaignSpec spec = overload_spec();
  spec.axes[0].values[1] = axis_text("ect9");
  EXPECT_EQ(spec.validate(),
            "axes[0].values[1] 'ect9' is not a recognized ecn codepoint "
            "(not-ect, ect1, ect0)");
}

TEST(CampaignValidate, EmptyFaultScheduleValue) {
  CampaignSpec spec = resilience_spec();
  spec.axes[1].values[2] = axis_text("");
  EXPECT_EQ(spec.validate(),
            "axes[1].values[2] must be a non-empty fault preset name or "
            "literal");
}

TEST(CampaignValidate, FractionalFluidFlows) {
  CampaignSpec spec = resilience_spec();
  spec.axes[2].values[1] = axis_number(10.5);
  EXPECT_EQ(spec.validate(),
            "axes[2].values[1] must be a whole number of fluid flows >= 0 "
            "(got 10.5)");
}

TEST(CampaignValidate, NegativeFluidFlows) {
  CampaignSpec spec = resilience_spec();
  spec.axes[2].values[0] = axis_number(-1);
  EXPECT_EQ(spec.validate(),
            "axes[2].values[0] must be a whole number of fluid flows >= 0 "
            "(got -1)");
}

TEST(CampaignValidate, ZeroFluidFlowsIsLegal) {
  // 0 is the no-background baseline of the resilience grid.
  EXPECT_EQ(resilience_spec().validate(), "");
}

TEST(CampaignValidate, UnknownAqmForResilienceTemplate) {
  // The resilience grid compares the paper's contenders only.
  CampaignSpec spec = resilience_spec();
  spec.axes[0].values[1] = axis_text("red");
  EXPECT_EQ(spec.validate(),
            "axes[0].values[1] 'red' is not a recognized aqm for "
            "template 'resilience'");
}

TEST(CampaignValidate, UnknownAqmForStepResponseTemplate) {
  // The step-response record labels "PIE" / "PI2(coupled)" only.
  CampaignSpec spec = step_spec();
  spec.axes[0].values[1] = axis_text("dualpi2");
  EXPECT_EQ(spec.validate(),
            "axes[0].values[1] 'dualpi2' is not a recognized aqm for "
            "template 'step_response'");
}

TEST(CampaignValidate, FullValuesAreCheckedToo) {
  CampaignSpec spec = sweep_spec();
  spec.axes[3].full_values[2] = axis_number(-20);
  EXPECT_EQ(spec.validate(),
            "axes[3].full[2] must be a finite value > 0 (got -20)");
}

TEST(CampaignValidate, MissingRequiredAxis) {
  CampaignSpec spec = sweep_spec();
  spec.axes.pop_back();  // drop rtt_ms
  EXPECT_EQ(spec.validate(), "template 'dumbbell_sweep' requires axis 'rtt_ms'");
}

TEST(CampaignValidate, LinkRateUnreadByDumbbellSweep) {
  // The rate_mbps axis sets the link; a fixed link_mbps would be digested
  // and then ignored.
  CampaignSpec spec = sweep_spec();
  spec.link_mbps = 40;
  EXPECT_EQ(spec.validate(),
            "link_mbps is not read by template 'dumbbell_sweep'");
}

TEST(CampaignValidate, RttUnreadByDumbbellSweep) {
  CampaignSpec spec = sweep_spec();
  spec.rtt_ms = 20;
  EXPECT_EQ(spec.validate(), "rtt_ms is not read by template 'dumbbell_sweep'");
}

TEST(CampaignValidate, RttUnreadByRttMix) {
  // The branch RTTs are fixed at 10/50/100 ms; the bottleneck rate is read.
  EXPECT_EQ(validate_parsed(
                R"({"name": "x", "template": "rtt_mix", "rtt_ms": 20,
                    "axes": [{"name": "aqm", "values": ["pie"]}]})"),
            "rtt_ms is not read by template 'rtt_mix'");
  EXPECT_EQ(validate_parsed(
                R"({"name": "x", "template": "rtt_mix", "link_mbps": 20,
                    "axes": [{"name": "aqm", "values": ["pie"]}]})"),
            "");
}

TEST(CampaignValidate, FixedKeysReadByTheirTemplates) {
  for (const TemplateRule& rule : template_rules()) {
    const bool dumbbell = rule.id == TemplateId::kDumbbellSweep;
    EXPECT_EQ(rule.reads_link_mbps, !dumbbell) << rule.name;
    EXPECT_EQ(rule.reads_rtt_ms, !dumbbell && rule.id != TemplateId::kRttMix)
        << rule.name;
  }
}

// --- the template registry ---------------------------------------------------

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

TEST(TemplateRegistry, EveryNameMapsToAnIdThatNamesItBack) {
  ASSERT_FALSE(template_names().empty());
  std::set<TemplateId> ids;
  for (const std::string& name : template_names()) {
    CampaignSpec spec;
    spec.template_name = name;
    const TemplateId id = spec.template_id();
    EXPECT_EQ(to_string(id), name);
    EXPECT_TRUE(ids.insert(id).second) << name << " shares an id";
  }
}

TEST(TemplateRegistry, RowsAreInTemplateIdOrder) {
  const std::vector<TemplateRule>& rules = template_rules();
  ASSERT_EQ(rules.size(), template_names().size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(rules[i].id), i) << rules[i].name;
    EXPECT_EQ(&template_rule(rules[i].id), &rules[i]);
    EXPECT_EQ(template_names()[i], rules[i].name);
  }
}

TEST(TemplateRegistry, TemplateAxesAreRecognizedAxes) {
  const std::vector<std::string>& all = axis_names();
  for (const std::string& name : template_names()) {
    CampaignSpec spec;
    spec.template_name = name;
    const std::vector<std::string>& axes =
        axes_of_template(spec.template_id());
    EXPECT_FALSE(axes.empty()) << name;
    for (const std::string& axis : axes) {
      EXPECT_NE(std::find(all.begin(), all.end(), axis), all.end())
          << name << " requires unknown axis " << axis;
    }
  }
}

TEST(TemplateRegistry, AcceptedAqmsAreAqmNames) {
  for (const TemplateRule& rule : template_rules()) {
    for (const std::string& aqm : rule.aqms) {
      EXPECT_TRUE(scenario::aqm_from_string(aqm).has_value())
          << rule.name << " accepts unknown aqm " << aqm;
    }
  }
}

TEST(TemplateRegistry, UnknownTemplateMessageListsEveryTemplate) {
  CampaignSpec spec = sweep_spec();
  spec.template_name = "trident";
  EXPECT_EQ(spec.validate(),
            "template 'trident' is not a recognized template (" +
                joined(template_names()) + ")");
}

// --- parse_spec(): strict grammar, parse-level messages -------------------

TEST(CampaignParse, UnknownTopLevelKeyIsRejected) {
  EXPECT_EQ(validate_parsed(
                R"({"name": "x", "template": "rtt_mix", "frobnicate": 1,
                    "axes": [{"name": "aqm", "values": ["pie"]}]})"),
            "spec: unknown key 'frobnicate'");
}

TEST(CampaignParse, UnknownAxisKeyIsRejected) {
  EXPECT_EQ(validate_parsed(
                R"({"name": "x", "template": "rtt_mix",
                    "axes": [{"name": "aqm", "caps": true,
                              "values": ["pie"]}]})"),
            "spec: unknown axis key 'caps'");
}

TEST(CampaignParse, TopLevelMustBeObject) {
  EXPECT_EQ(validate_parsed("[1, 2, 3]"), "spec: top level must be an object");
}

TEST(CampaignParse, SeedMustBeWholeNumber) {
  EXPECT_EQ(validate_parsed(
                R"({"name": "x", "template": "rtt_mix", "seed": -3,
                    "axes": [{"name": "aqm", "values": ["pie"]}]})"),
            "spec: 'seed' must be a non-negative whole number");
}

TEST(CampaignParse, NonFiniteNumbersAreRefusedByKey) {
  // The shared reader accepts nan/inf spellings (poisoned metric rows must
  // parse); a spec refuses each of them, naming where it sits.
  for (const std::string bad : {"nan", "-nan", "1e309"}) {
    EXPECT_EQ(validate_parsed(R"({"name": "x", "template": "parking_lot",
                                  "link_mbps": )" + bad + R"(,
                                  "axes": [{"name": "aqm", "values": ["pie"]},
                                           {"name": "hops", "values": [1]}]})"),
              "spec: 'link_mbps' must be finite (got " + bad + ")");
    EXPECT_EQ(validate_parsed(R"({"name": "x", "template": "parking_lot",
                                  "axes": [{"name": "aqm", "values": ["pie"]},
                                           {"name": "hops", "values": [1, )" +
                              bad + R"(]}]})"),
              "spec: 'values' holds a non-finite number (" + bad + ")");
    EXPECT_EQ(validate_parsed(R"({"name": "x", "template": "rtt_mix", "seed": )" +
                              bad + R"(,
                                  "axes": [{"name": "aqm", "values": ["pie"]}]})"),
              "spec: 'seed' must be a non-negative whole number");
  }
}

TEST(CampaignParse, SeedDigitsAreReadExactlyUpTo64Bits) {
  CampaignSpec spec;
  ASSERT_EQ(parse_spec(R"({"name": "x", "template": "rtt_mix",
                           "seed": 18446744073709551615,
                           "axes": [{"name": "aqm", "values": ["pie"]}]})",
                       spec),
            "");
  EXPECT_EQ(spec.seed, ~0ull);
  EXPECT_EQ(parse_spec(R"({"name": "x", "template": "rtt_mix",
                           "seed": 18446744073709551616,
                           "axes": [{"name": "aqm", "values": ["pie"]}]})",
                       spec),
            "spec: 'seed' must be a non-negative whole number");
}

TEST(CampaignParse, AxisValuesMustBeScalars) {
  EXPECT_EQ(validate_parsed(
                R"({"name": "x", "template": "rtt_mix",
                    "axes": [{"name": "aqm", "values": [["pie"]]}]})"),
            "spec: axis values must be numbers or strings");
}

TEST(CampaignParse, CapMustBeBoolean) {
  EXPECT_EQ(validate_parsed(
                R"({"name": "x", "template": "rtt_mix",
                    "axes": [{"name": "aqm", "cap": 1,
                              "values": ["pie"]}]})"),
            "spec: 'cap' must be true or false");
}

TEST(CampaignParse, MinimalSpecParsesWithDefaults) {
  CampaignSpec spec;
  ASSERT_EQ(parse_spec(R"({"name": "tiny", "template": "rtt_mix",
                           "axes": [{"name": "aqm", "values": ["pie"]}]})",
                       spec),
            "");
  EXPECT_EQ(spec.validate(), "");
  EXPECT_EQ(spec.seed, 1u) << "seed defaults to 1 like the fig binaries";
  EXPECT_TRUE(spec.axes[0].cap) << "cap defaults to true";
  EXPECT_EQ(spec.link_mbps, 0.0) << "0 = template default";
}

// --- shard arithmetic ------------------------------------------------------

TEST(ShardRange, ParsesWellFormedArguments) {
  std::size_t index = 0;
  std::size_t count = 0;
  EXPECT_TRUE(parse_shard("2/3", index, count));
  EXPECT_EQ(index, 2u);
  EXPECT_EQ(count, 3u);
  EXPECT_FALSE(parse_shard("0/3", index, count)) << "shards are 1-based";
  EXPECT_FALSE(parse_shard("4/3", index, count));
  EXPECT_FALSE(parse_shard("2of3", index, count));
  EXPECT_FALSE(parse_shard("/3", index, count));
  EXPECT_FALSE(parse_shard("2/", index, count));
}

TEST(ShardRange, TilesUnevenCountsWithinOnePoint) {
  // 10 points over 3 shards: 3+3+4 (floor formula), no gaps, no overlap.
  const ShardRange a = shard_range(10, 1, 3);
  const ShardRange b = shard_range(10, 2, 3);
  const ShardRange c = shard_range(10, 3, 3);
  EXPECT_EQ(a.lo, 0u);
  EXPECT_EQ(a.hi, b.lo);
  EXPECT_EQ(b.hi, c.lo);
  EXPECT_EQ(c.hi, 10u);
  EXPECT_LE(b.hi - b.lo, (a.hi - a.lo) + 1);
}

TEST(ShardRange, MoreShardsThanPointsLeavesEmptyShards) {
  std::size_t covered = 0;
  for (std::size_t i = 1; i <= 5; ++i) {
    const ShardRange r = shard_range(3, i, 5);
    EXPECT_EQ(r.lo, covered);
    covered = r.hi;
  }
  EXPECT_EQ(covered, 3u) << "empty shards are legal, lost points are not";
}

// --- property sweep over generated and committed specs ---------------------

TEST(CampaignProperties, HoldForGeneratedSpecs) {
  ExpandOptions quick;
  ExpandOptions smoke;
  smoke.grid_cap = 2;
  ExpandOptions full;
  full.full = true;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const CampaignSpec spec = check::random_campaign_spec(seed);
    ASSERT_EQ(spec.validate(), "") << "generator must emit well-formed specs "
                                   << "(seed " << seed << ")";
    EXPECT_EQ(check::check_campaign_properties(spec, quick), "")
        << "seed " << seed << " quick";
    EXPECT_EQ(check::check_campaign_properties(spec, smoke), "")
        << "seed " << seed << " smoke";
    EXPECT_EQ(check::check_campaign_properties(spec, full), "")
        << "seed " << seed << " full";
  }
}

TEST(CampaignProperties, GeneratedDigestsAreDistinct) {
  std::set<std::uint64_t> digests;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Expansion x =
        expand(check::random_campaign_spec(seed), ExpandOptions{});
    EXPECT_TRUE(digests.insert(x.digest).second)
        << "two generated campaigns collide on a digest (seed " << seed << ")";
  }
}

TEST(CampaignProperties, HoldForCommittedCampaignFiles) {
  const char* files[] = {
      "fig15.json",       "fig_overload.json",   "fig_parking_lot.json",
      "fig_rtt_mix.json", "fig_resilience.json", "fig_response.json",
  };
  ExpandOptions smoke;
  smoke.grid_cap = 2;
  for (const char* file : files) {
    CampaignSpec spec;
    const std::string err =
        load_spec(std::string(PI2_CAMPAIGN_DIR "/") + file, spec);
    ASSERT_EQ(err, "") << file;
    EXPECT_EQ(check::check_campaign_properties(spec, ExpandOptions{}), "")
        << file;
    EXPECT_EQ(check::check_campaign_properties(spec, smoke), "") << file;
  }
}

}  // namespace
}  // namespace pi2::campaign
