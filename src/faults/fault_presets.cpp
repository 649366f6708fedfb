#include "faults/fault_presets.hpp"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <map>
#include <utility>

#include "durable/wire.hpp"

namespace pi2::faults {

using pi2::durable::parse_decimal;
using pi2::sim::from_millis;
using pi2::sim::from_seconds;
using pi2::sim::to_seconds;

namespace {

// Each preset is itself an inline literal, so presets exercise exactly the
// parser/scaling path user literals take.
const std::pair<const char*, const char*> kPresets[] = {
    {"none", ""},
    {"rate_step_4x", "rate_step@0.4:rate=0.25;rate_step@0.7:rate=1"},
    {"rtt_flap", "rtt_step@0.4:rtt=3;rtt_step@0.6:rtt=1"},
    {"burst_loss_2pct", "random_loss@0.4..0.6:p=0.02"},
    {"ecn_bleach", "ecn_bleach@0.4..0.6:p=1"},
    {"reorder", "reorder@0.4..0.6:p=0.05,delay_ms=5"},
};

std::string known_presets() {
  std::string out;
  for (const auto& [name, literal] : kPresets) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::string literal_error(std::size_t index, const std::string& what) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "fault literal event #%zu: ", index);
  return buf + what;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t pos = s.find(sep);
    if (pos == std::string_view::npos) {
      out.push_back(trim(s));
      return out;
    }
    out.push_back(trim(s.substr(0, pos)));
    s.remove_prefix(pos + 1);
  }
}

bool windowed_kind(FaultKind kind) {
  return kind == FaultKind::kRateFlap || kind == FaultKind::kRandomLoss ||
         kind == FaultKind::kEcnBleach || kind == FaultKind::kReorder;
}

const std::pair<const char*, FaultKind> kKinds[] = {
    {"rate_step", FaultKind::kRateStep},   {"rate_flap", FaultKind::kRateFlap},
    {"rtt_step", FaultKind::kRttStep},     {"burst_loss", FaultKind::kBurstLoss},
    {"random_loss", FaultKind::kRandomLoss},
    {"ecn_bleach", FaultKind::kEcnBleach}, {"reorder", FaultKind::kReorder},
};

std::string known_kinds() {
  std::string out;
  for (const auto& [name, kind] : kKinds) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Parses one `kind@start[..end][:k=v,...]` event and appends it to `out`.
std::string parse_event(std::string_view text, std::size_t index,
                        const PresetContext& ctx, FaultSchedule* out) {
  const std::size_t at_pos = text.find('@');
  if (at_pos == std::string_view::npos) {
    return literal_error(index, "expected `kind@start` (got '" +
                                    std::string(text) + "')");
  }
  const std::string_view kind_name = trim(text.substr(0, at_pos));
  FaultKind kind{};
  bool known = false;
  for (const auto& [name, k] : kKinds) {
    if (kind_name == name) {
      kind = k;
      known = true;
      break;
    }
  }
  if (!known) {
    return literal_error(index, "unknown kind '" + std::string(kind_name) +
                                    "' (kinds: " + known_kinds() + ")");
  }
  std::string_view rest = text.substr(at_pos + 1);
  std::string_view time_part = rest;
  std::string_view param_part;
  if (const std::size_t colon = rest.find(':');
      colon != std::string_view::npos) {
    time_part = trim(rest.substr(0, colon));
    param_part = trim(rest.substr(colon + 1));
  }
  double start_frac = 0.0;
  double end_frac = 0.0;
  const std::size_t dots = time_part.find("..");
  const bool has_window = dots != std::string_view::npos;
  if (has_window != windowed_kind(kind)) {
    return literal_error(
        index, windowed_kind(kind)
                   ? std::string(kind_name) + " needs a window (`start..end`)"
                   : std::string(kind_name) + " takes a single `@start` time");
  }
  if (!parse_decimal(trim(time_part.substr(0, dots)), start_frac)) {
    return literal_error(index, "`start` must be a number (got '" +
                                    std::string(time_part) + "')");
  }
  if (!(start_frac >= 0.0 && start_frac < 1.0)) {
    return literal_error(
        index, "`start` must be a duration fraction in [0, 1)");
  }
  if (has_window) {
    if (!parse_decimal(trim(time_part.substr(dots + 2)), end_frac)) {
      return literal_error(index, "`end` must be a number (got '" +
                                      std::string(time_part) + "')");
    }
    if (!(end_frac > start_frac && end_frac <= 1.0)) {
      return literal_error(
          index, "`end` must be a duration fraction in (start, 1]");
    }
  }

  // Per-kind parameter defaults, overridable via `key=value` pairs.
  std::map<std::string, double> params;
  const char* valid_keys = "";
  switch (kind) {
    case FaultKind::kRateStep:
      params = {{"rate", 0.25}};
      valid_keys = "rate";
      break;
    case FaultKind::kRateFlap:
      params = {{"low", 0.25}, {"high", 1.0}, {"period_s", 0.5}};
      valid_keys = "low, high, period_s";
      break;
    case FaultKind::kRttStep:
      params = {{"rtt", 3.0}};
      valid_keys = "rtt";
      break;
    case FaultKind::kBurstLoss:
      params = {{"packets", 50.0}};
      valid_keys = "packets";
      break;
    case FaultKind::kRandomLoss:
      params = {{"p", 0.02}};
      valid_keys = "p";
      break;
    case FaultKind::kEcnBleach:
      params = {{"p", 1.0}};
      valid_keys = "p";
      break;
    case FaultKind::kReorder:
      params = {{"p", 0.05}, {"delay_ms", 5.0}};
      valid_keys = "p, delay_ms";
      break;
  }
  if (!param_part.empty()) {
    for (const std::string_view pair : split(param_part, ',')) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        return literal_error(index, "expected `key=value` (got '" +
                                        std::string(pair) + "')");
      }
      const std::string key(trim(pair.substr(0, eq)));
      const auto it = params.find(key);
      if (it == params.end()) {
        return literal_error(index, std::string(kind_name) +
                                        " has no key '" + key +
                                        "' (keys: " + valid_keys + ")");
      }
      if (!parse_decimal(trim(pair.substr(eq + 1)), it->second)) {
        return literal_error(index, "`" + key + "` must be a number (got '" +
                                        std::string(pair) + "')");
      }
    }
  }

  if (kind == FaultKind::kBurstLoss &&
      !(params["packets"] >= 1.0 && params["packets"] <= INT_MAX)) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "`packets` must lie in [1, %d] (got %g)", INT_MAX,
                  params["packets"]);
    return literal_error(index, buf);
  }

  const double dur_s = to_seconds(ctx.duration);
  const pi2::sim::Time at = from_seconds(start_frac * dur_s);
  const pi2::sim::Time until = from_seconds(end_frac * dur_s);
  switch (kind) {
    case FaultKind::kRateStep:
      out->rate_step(at, params["rate"] * ctx.link_bps);
      break;
    case FaultKind::kRateFlap:
      out->rate_flap(at, until, params["low"] * ctx.link_bps,
                     params["high"] * ctx.link_bps,
                     from_seconds(params["period_s"]));
      break;
    case FaultKind::kRttStep:
      out->rtt_step(at, from_seconds(params["rtt"] *
                                     to_seconds(ctx.base_rtt)));
      break;
    case FaultKind::kBurstLoss:
      out->burst_loss(at, static_cast<int>(params["packets"]));
      break;
    case FaultKind::kRandomLoss:
      out->random_loss(at, until, params["p"]);
      break;
    case FaultKind::kEcnBleach:
      out->ecn_bleach(at, until, params["p"]);
      break;
    case FaultKind::kReorder:
      out->reorder(at, until, params["p"], from_millis(params["delay_ms"]));
      break;
  }
  return "";
}

std::string parse_literal(std::string_view text, const PresetContext& ctx,
                          FaultSchedule* out) {
  std::size_t index = 0;
  for (const std::string_view event : split(text, ';')) {
    if (event.empty()) continue;
    if (std::string e = parse_event(event, index, ctx, out); !e.empty()) {
      return e;
    }
    ++index;
  }
  return out->validate(ctx.duration);
}

}  // namespace

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& [name, literal] : kPresets) out.emplace_back(name);
    return out;
  }();
  return names;
}

bool is_preset(std::string_view name) {
  for (const auto& [known, literal] : kPresets) {
    if (name == known) return true;
  }
  return false;
}

std::string preset(std::string_view name, const PresetContext& ctx,
                   FaultSchedule* out) {
  out->events.clear();
  for (const auto& [known, literal] : kPresets) {
    if (name == known) return parse_literal(literal, ctx, out);
  }
  return "unknown fault preset '" + std::string(name) +
         "' (presets: " + known_presets() + ")";
}

std::string resolve_schedule(std::string_view value, const PresetContext& ctx,
                             FaultSchedule* out) {
  out->events.clear();
  if (is_preset(value)) return preset(value, ctx, out);
  if (value.find('@') != std::string_view::npos) {
    return parse_literal(value, ctx, out);
  }
  return "unknown fault preset '" + std::string(value) +
         "' (presets: " + known_presets() +
         "; or an inline literal like 'rate_step@0.4:rate=0.25')";
}

std::vector<FaultWindow> fault_windows(const FaultSchedule& schedule,
                                       pi2::sim::Time duration) {
  const double dur_s = to_seconds(duration);
  std::vector<FaultWindow> raw;
  for (const FaultEvent& e : schedule.events) {
    FaultWindow w;
    w.start_s = to_seconds(e.at);
    w.end_s = windowed_kind(e.kind)
                  ? std::min(to_seconds(e.until), dur_s)
                  : w.start_s;
    if (w.start_s > dur_s || w.end_s < w.start_s) continue;
    raw.push_back(w);
  }
  std::sort(raw.begin(), raw.end(), [](const FaultWindow& a,
                                       const FaultWindow& b) {
    return a.start_s < b.start_s || (a.start_s == b.start_s &&
                                     a.end_s < b.end_s);
  });
  std::vector<FaultWindow> merged;
  for (const FaultWindow& w : raw) {
    if (!merged.empty() && w.start_s <= merged.back().end_s) {
      merged.back().end_s = std::max(merged.back().end_s, w.end_s);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

}  // namespace pi2::faults
