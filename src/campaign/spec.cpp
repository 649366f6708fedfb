#include "campaign/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "durable/wire.hpp"
#include "sim/rng.hpp"

namespace pi2::campaign {

namespace {

using durable::JsonValue;
using durable::json_escape;

/// Shortest round-trip rendering (4 -> "4", 0.5 -> "0.5"), so serialized
/// specs stay human-readable and parse back to the identical double.
std::string format_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// ---- spec mapping -----------------------------------------------------------
// The shared reader accepts nan/inf spellings (a poisoned metric row must
// still parse); a spec refuses every non-finite number, naming its key.

std::string finite_from_json(const JsonValue& value, const std::string& key,
                             double& out) {
  if (value.type != JsonValue::Type::kNumber) {
    return "spec: '" + key + "' must be a number";
  }
  if (!std::isfinite(value.number)) {
    return "spec: '" + key + "' must be finite (got " + value.text + ")";
  }
  out = value.number;
  return "";
}

/// Plain digits are reread exactly: 64-bit seeds overflow the double's
/// 53-bit mantissa. Other spellings (1e3) go through the double.
std::string seed_from_json(const JsonValue& value, std::uint64_t& seed) {
  if (value.type == JsonValue::Type::kNumber &&
      durable::parse_decimal(value.text, seed)) {
    return "";
  }
  const double v = value.number;
  if (value.type != JsonValue::Type::kNumber || !(v >= 0 && v < 0x1p64) ||
      v != std::floor(v)) {
    return "spec: 'seed' must be a non-negative whole number";
  }
  seed = static_cast<std::uint64_t>(v);
  return "";
}

std::string values_from_json(const JsonValue& array, const char* what,
                             std::vector<AxisValue>& out) {
  if (array.type != JsonValue::Type::kArray) {
    return std::string("spec: '") + what + "' must be an array";
  }
  out.clear();
  for (const JsonValue& item : array.items) {
    if (item.type == JsonValue::Type::kNumber) {
      if (!std::isfinite(item.number)) {
        return std::string("spec: '") + what + "' holds a non-finite number (" +
               item.text + ")";
      }
      out.push_back(axis_number(item.number));
    } else if (item.type == JsonValue::Type::kString) {
      out.push_back(axis_text(item.text));
    } else {
      return "spec: axis values must be numbers or strings";
    }
  }
  return "";
}

std::string axis_from_json(const JsonValue& object, Axis& axis) {
  if (object.type != JsonValue::Type::kObject) {
    return "spec: axis entries must be objects";
  }
  for (const auto& [key, value] : object.fields) {
    if (key == "name") {
      if (value.type != JsonValue::Type::kString) {
        return "spec: axis 'name' must be a string";
      }
      axis.name = value.text;
    } else if (key == "cap") {
      if (value.type != JsonValue::Type::kBool) {
        return "spec: 'cap' must be true or false";
      }
      axis.cap = value.boolean;
    } else if (key == "values") {
      const std::string err = values_from_json(value, "values", axis.values);
      if (!err.empty()) return err;
    } else if (key == "full") {
      const std::string err = values_from_json(value, "full", axis.full_values);
      if (!err.empty()) return err;
    } else {
      return "spec: unknown axis key '" + key + "'";
    }
  }
  return "";
}

struct AxisRule {
  const char* name;
  bool numeric;
};

/// All recognizable axes, alphabetical (the error message lists them).
constexpr AxisRule kAxes[] = {
    {"aqm", false},      {"cc_mix", false},      {"ecn", false},
    {"fault_schedule", false}, {"fluid_flows", true}, {"hops", true},
    {"rate_mbps", true}, {"rtt_ms", true},       {"udp_mult", true},
};

const AxisRule* axis_rule(const std::string& name) {
  for (const AxisRule& rule : kAxes) {
    if (name == rule.name) return &rule;
  }
  return nullptr;
}

const TemplateRule* find_template(const std::string& name) {
  for (const TemplateRule& rule : template_rules()) {
    if (name == rule.name) return &rule;
  }
  return nullptr;
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

bool known_cc_mix(const std::string& name) {
  return name == "cubic/ecn-cubic" || name == "cubic/dctcp";
}

bool known_ecn(const std::string& name) {
  return name == "not-ect" || name == "ect1" || name == "ect0";
}

/// One axis value against its rule; `label` is e.g. "axes[0].values[2]".
std::string validate_value(const TemplateRule& tmpl, const AxisRule& rule,
                           const AxisValue& value, const std::string& label) {
  if (rule.numeric) {
    if (!value.is_number) {
      return label + " must be a number for axis '" + rule.name + "'";
    }
    if (std::string("fluid_flows") == rule.name) {
      // 0 is a legal background level (the no-fluid baseline) and counts are
      // whole flows; the fluid tier is O(1) in count, so 10^5+ is fine.
      if (!std::isfinite(value.number) || value.number < 0 ||
          value.number != std::floor(value.number)) {
        return label + " must be a whole number of fluid flows >= 0 (got " +
               format_number(value.number) + ")";
      }
      return "";
    }
    if (!std::isfinite(value.number) || value.number <= 0) {
      return label + " must be a finite value > 0 (got " +
             format_number(value.number) + ")";
    }
    if (std::string("hops") == rule.name &&
        (value.number != std::floor(value.number) || value.number > 8)) {
      return label + " must be a whole number of hops in [1, 8] (got " +
             format_number(value.number) + ")";
    }
    return "";
  }
  if (value.is_number) {
    return label + " must be a string for axis '" + rule.name + "'";
  }
  if (std::string("fault_schedule") == rule.name) {
    // Opaque to the campaign layer: presets / literals resolve against
    // faults::resolve_schedule() in the driver (the spec stays scenario-free).
    if (value.text.empty()) {
      return label + " must be a non-empty fault preset name or literal";
    }
    return "";
  }
  if (std::string("aqm") == rule.name &&
      std::ranges::find(tmpl.aqms, value.text) == tmpl.aqms.end()) {
    return label + " '" + value.text + "' is not a recognized aqm for template '" +
           tmpl.name + "'";
  }
  if (std::string("cc_mix") == rule.name && !known_cc_mix(value.text)) {
    return label + " '" + value.text +
           "' is not a recognized cc_mix (cubic/ecn-cubic, cubic/dctcp)";
  }
  if (std::string("ecn") == rule.name && !known_ecn(value.text)) {
    return label + " '" + value.text +
           "' is not a recognized ecn codepoint (not-ect, ect1, ect0)";
  }
  return "";
}

std::string values_to_json(const std::vector<AxisValue>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    if (values[i].is_number) {
      out += format_number(values[i].number);
    } else {
      out += '"';
      out += json_escape(values[i].text);
      out += '"';
    }
  }
  return out + "]";
}

}  // namespace

const std::vector<TemplateRule>& template_rules() {
  // Every scenario::AqmType, by its to_string() name.
  static const std::vector<std::string> any_aqm{
      "fifo", "pie",   "bare-pie",  "pi",   "pi2",    "coupled-pi2",
      "red",  "codel", "curvy-red", "step", "dualpi2"};
  static const std::vector<TemplateRule> rules{
      // Figures 15-18: the rate_mbps/rtt_ms axes set the link, and the
      // records label "PIE" / "PI2(coupled)" only.
      {.id = TemplateId::kDumbbellSweep, .name = "dumbbell_sweep",
       .axes = {"aqm", "cc_mix", "rate_mbps", "rtt_ms"},
       .aqms = {"pie", "coupled-pi2"}, .quick_s = 40.0, .full_s = 100.0,
       .stats_quick_s = 15.0, .stats_full_s = 30.0, .link_mbps = 0,
       .rtt_ms = 0, .reads_link_mbps = false, .reads_rtt_ms = false},
      {.id = TemplateId::kOverload, .name = "overload",
       .axes = {"ecn", "udp_mult"}},
      {.id = TemplateId::kParkingLot, .name = "parking_lot",
       .axes = {"aqm", "hops"}, .aqms = any_aqm},
      // The branch RTTs are fixed at 10/50/100 ms.
      {.id = TemplateId::kRttMix, .name = "rtt_mix", .axes = {"aqm"},
       .aqms = any_aqm, .reads_rtt_ms = false},
      // Recovery compared across the paper's contenders.
      {.id = TemplateId::kResilience, .name = "resilience",
       .axes = {"aqm", "fault_schedule", "fluid_flows"},
       .aqms = {"coupled-pi2", "dualpi2", "pie"}},
      // The section 4.4 capacity step, stats from T/10; labels as above.
      {.id = TemplateId::kStepResponse, .name = "step_response",
       .axes = {"aqm"}, .aqms = {"pie", "coupled-pi2"}, .quick_s = 30.0,
       .stats_divisor = 10.0},
  };
  return rules;
}

const TemplateRule& template_rule(TemplateId id) {
  return template_rules()[static_cast<std::size_t>(id)];
}

const char* to_string(TemplateId id) { return template_rule(id).name; }

const std::vector<std::string>& axis_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const AxisRule& rule : kAxes) out.emplace_back(rule.name);
    return out;
  }();
  return names;
}

const std::vector<std::string>& template_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const TemplateRule& rule : template_rules()) {
      out.emplace_back(rule.name);
    }
    return out;
  }();
  return names;
}

const std::vector<std::string>& axes_of_template(TemplateId id) {
  return template_rule(id).axes;
}

AxisValue axis_number(double v) {
  AxisValue value;
  value.is_number = true;
  value.number = v;
  return value;
}

AxisValue axis_text(std::string v) {
  AxisValue value;
  value.text = std::move(v);
  return value;
}

TemplateId CampaignSpec::template_id() const {
  const TemplateRule* rule = find_template(template_name);
  return rule != nullptr ? rule->id : template_rules().front().id;
}

std::string CampaignSpec::validate() const {
  if (name.empty()) return "name must be a non-empty string";
  const TemplateRule* tmpl = find_template(template_name);
  if (tmpl == nullptr) {
    return "template '" + template_name + "' is not a recognized template (" +
           joined(template_names()) + ")";
  }
  if (link_mbps != 0 && !tmpl->reads_link_mbps) {
    return "link_mbps is not read by template '" + template_name + "'";
  }
  if (rtt_ms != 0 && !tmpl->reads_rtt_ms) {
    return "rtt_ms is not read by template '" + template_name + "'";
  }
  if (link_mbps < 0 || (link_mbps != 0 && !std::isfinite(link_mbps))) {
    return "link_mbps must be a finite rate > 0 (got " +
           format_number(link_mbps) + ")";
  }
  if (rtt_ms < 0 || (rtt_ms != 0 && !std::isfinite(rtt_ms))) {
    return "rtt_ms must be a finite delay > 0 (got " + format_number(rtt_ms) +
           ")";
  }
  if (axes.empty()) return "axes must list at least one axis";
  const std::vector<std::string>& allowed = tmpl->axes;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const Axis& axis = axes[i];
    const std::string label = "axes[" + std::to_string(i) + "]";
    if (axis.name.empty()) return label + ".name must be a non-empty name";
    const AxisRule* rule = axis_rule(axis.name);
    if (rule == nullptr) {
      return label + ".name '" + axis.name + "' is not a recognized axis (" +
             joined(axis_names()) + ")";
    }
    if (std::find(allowed.begin(), allowed.end(), axis.name) == allowed.end()) {
      return label + ".name '" + axis.name + "' is not an axis of template '" +
             template_name + "'";
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (axes[j].name == axis.name) {
        return label + ".name '" + axis.name + "' duplicates axes[" +
               std::to_string(j) + "]";
      }
    }
    if (axis.values.empty()) {
      return label + ".values must list at least one value";
    }
    for (std::size_t j = 0; j < axis.values.size(); ++j) {
      const std::string err =
          validate_value(*tmpl, *rule, axis.values[j],
                         label + ".values[" + std::to_string(j) + "]");
      if (!err.empty()) return err;
    }
    for (std::size_t j = 0; j < axis.full_values.size(); ++j) {
      const std::string err =
          validate_value(*tmpl, *rule, axis.full_values[j],
                         label + ".full[" + std::to_string(j) + "]");
      if (!err.empty()) return err;
    }
  }
  for (const std::string& required : allowed) {
    const bool present =
        std::any_of(axes.begin(), axes.end(),
                    [&](const Axis& a) { return a.name == required; });
    if (!present) {
      return "template '" + template_name + "' requires axis '" + required +
             "'";
    }
  }
  return "";
}

std::string parse_spec(const std::string& text, CampaignSpec& spec) {
  spec = CampaignSpec{};
  JsonValue doc;
  std::string err = durable::parse_json(text, doc);
  if (!err.empty()) return "spec: " + err;
  if (doc.type != JsonValue::Type::kObject) {
    return "spec: top level must be an object";
  }
  for (const auto& [key, value] : doc.fields) {
    if (key == "name") {
      if (value.type != JsonValue::Type::kString) {
        return "spec: 'name' must be a string";
      }
      spec.name = value.text;
    } else if (key == "template") {
      if (value.type != JsonValue::Type::kString) {
        return "spec: 'template' must be a string";
      }
      spec.template_name = value.text;
    } else if (key == "seed") {
      err = seed_from_json(value, spec.seed);
    } else if (key == "link_mbps") {
      err = finite_from_json(value, key, spec.link_mbps);
    } else if (key == "rtt_ms") {
      err = finite_from_json(value, key, spec.rtt_ms);
    } else if (key == "axes") {
      if (value.type != JsonValue::Type::kArray) {
        return "spec: 'axes' must be an array of axis objects";
      }
      for (const JsonValue& item : value.items) {
        Axis axis;
        err = axis_from_json(item, axis);
        if (!err.empty()) return err;
        spec.axes.push_back(std::move(axis));
      }
    } else {
      return "spec: unknown key '" + key + "'";
    }
    if (!err.empty()) return err;
  }
  return "";
}

std::string load_spec(const std::string& path, CampaignSpec& spec) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return "spec: cannot open " + path;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string err = parse_spec(text.str(), spec);
  if (!err.empty()) return err + " (" + path + ")";
  return "";
}

std::string serialize_spec(const CampaignSpec& spec) {
  std::string out = "{\n";
  out += "  \"name\": \"" + json_escape(spec.name) + "\",\n";
  out += "  \"template\": \"" + json_escape(spec.template_name) + "\",\n";
  out += "  \"seed\": " + std::to_string(spec.seed) + ",\n";
  if (spec.link_mbps != 0) {
    out += "  \"link_mbps\": " + format_number(spec.link_mbps) + ",\n";
  }
  if (spec.rtt_ms != 0) {
    out += "  \"rtt_ms\": " + format_number(spec.rtt_ms) + ",\n";
  }
  out += "  \"axes\": [\n";
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    const Axis& axis = spec.axes[i];
    out += "    {\"name\": \"" + json_escape(axis.name) + "\"";
    if (!axis.cap) out += ", \"cap\": false";
    out += ", \"values\": " + values_to_json(axis.values);
    if (!axis.full_values.empty()) {
      out += ", \"full\": " + values_to_json(axis.full_values);
    }
    out += i + 1 < spec.axes.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

int Expansion::axis_of(const std::string& axis) const {
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (axes[i].name == axis) return static_cast<int>(i);
  }
  return -1;
}

double Expansion::number(const CampaignPoint& point,
                         const std::string& axis) const {
  const int i = axis_of(axis);
  return i >= 0 ? point.values[static_cast<std::size_t>(i)].number : 0.0;
}

const std::string& Expansion::text(const CampaignPoint& point,
                                   const std::string& axis) const {
  static const std::string kEmpty;
  const int i = axis_of(axis);
  return i >= 0 ? point.values[static_cast<std::size_t>(i)].text : kEmpty;
}

Expansion expand(const CampaignSpec& spec, const ExpandOptions& opts) {
  Expansion out;
  out.name = spec.name;
  out.template_id = spec.template_id();
  out.base_seed = opts.use_seed ? opts.seed : spec.seed;

  // Durations and fixed parameters: the template's defaults unless the CLI
  // overrides or the spec sets them.
  const TemplateRule& rule = template_rule(out.template_id);
  if (opts.duration_s_override > 0) {
    out.duration_s = opts.duration_s_override;
  } else {
    out.duration_s = opts.full ? rule.full_s : rule.quick_s;
  }
  const double stats_fixed_s =
      opts.full ? rule.stats_full_s : rule.stats_quick_s;
  if (opts.stats_start_s_override > 0) {
    out.stats_start_s = opts.stats_start_s_override;
  } else if (stats_fixed_s > 0) {
    out.stats_start_s = stats_fixed_s;
  } else {
    out.stats_start_s = out.duration_s / rule.stats_divisor;
  }
  out.link_mbps = spec.link_mbps != 0 ? spec.link_mbps : rule.link_mbps;
  out.rtt_ms = spec.rtt_ms != 0 ? spec.rtt_ms : rule.rtt_ms;

  // Resolve each axis: mode selection, rate filter, smoke cap — the same
  // order bench_common applies to the hand-rolled grids.
  for (const Axis& axis : spec.axes) {
    Axis resolved;
    resolved.name = axis.name;
    resolved.cap = axis.cap;
    resolved.values = opts.full && !axis.full_values.empty() ? axis.full_values
                                                             : axis.values;
    if (axis.name == "rate_mbps" && opts.min_link_mbps > 0) {
      std::erase_if(resolved.values, [&](const AxisValue& v) {
        return v.number < opts.min_link_mbps;
      });
    }
    if (axis.cap && opts.grid_cap > 0 &&
        resolved.values.size() > static_cast<std::size_t>(opts.grid_cap)) {
      resolved.values.resize(static_cast<std::size_t>(opts.grid_cap));
    }
    out.axes.push_back(std::move(resolved));
  }

  durable::Fnv1a digest;
  digest.mix_string("pi2-campaign-v1");
  digest.mix_string(out.name);
  digest.mix_string(to_string(out.template_id));
  digest.mix_u64(out.base_seed);
  digest.mix_double(out.duration_s);
  digest.mix_double(out.stats_start_s);
  digest.mix_double(out.link_mbps);
  digest.mix_double(out.rtt_ms);
  digest.mix_u64(out.axes.size());
  std::size_t total = out.axes.empty() ? 0 : 1;
  for (const Axis& axis : out.axes) {
    digest.mix_string(axis.name);
    digest.mix_u64(axis.values.size());
    for (const AxisValue& v : axis.values) {
      digest.mix_u64(v.is_number ? 1 : 0);
      if (v.is_number) {
        digest.mix_double(v.number);
      } else {
        digest.mix_string(v.text);
      }
    }
    total *= axis.values.size();
  }
  out.digest = digest.state;

  // Row-major, last axis fastest — the loop nesting of the fig binaries.
  out.points.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    CampaignPoint point;
    point.index = i;
    point.seed = sim::Rng::derive_seed(out.base_seed, i);
    point.values.resize(out.axes.size());
    std::size_t remainder = i;
    for (std::size_t a = out.axes.size(); a-- > 0;) {
      const std::vector<AxisValue>& values = out.axes[a].values;
      point.values[a] = values[remainder % values.size()];
      remainder /= values.size();
    }
    durable::Fnv1a key;
    key.mix_string("pi2-campaign-point-v1");
    key.mix_u64(out.digest);
    key.mix_u64(point.index);
    key.mix_u64(point.seed);
    for (const AxisValue& v : point.values) {
      key.mix_u64(v.is_number ? 1 : 0);
      if (v.is_number) {
        key.mix_double(v.number);
      } else {
        key.mix_string(v.text);
      }
    }
    point.key = key.state;
    out.points.push_back(std::move(point));
  }
  return out;
}

}  // namespace pi2::campaign
