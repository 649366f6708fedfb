#include "check/golden.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pi2::check {

namespace {

/// Cursor over a JSON text; the grammar here is only what SweepJsonWriter
/// and JsonlExporter emit (flat objects, string/number values, no nesting).
struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  [[nodiscard]] bool at(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }
  bool eat(char c) {
    if (!at(c)) return false;
    ++pos;
    return true;
  }
};

bool parse_string(Cursor& cur, std::string* out, std::string* error) {
  if (!cur.eat('"')) {
    *error = "expected '\"' at offset " + std::to_string(cur.pos);
    return false;
  }
  out->clear();
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos++];
    if (c == '"') return true;
    if (c == '\\') {
      if (cur.pos >= cur.text.size()) break;
      const char esc = cur.text[cur.pos++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'u':
          // The writers only escape control characters; decode the low byte.
          if (cur.pos + 4 <= cur.text.size()) {
            unsigned value = 0;
            std::from_chars(cur.text.data() + cur.pos,
                            cur.text.data() + cur.pos + 4, value, 16);
            *out += static_cast<char>(value);
            cur.pos += 4;
          }
          break;
        default: *out += esc; break;
      }
    } else {
      *out += c;
    }
  }
  *error = "unterminated string";
  return false;
}

bool parse_number(Cursor& cur, double* out, std::string* error) {
  cur.skip_ws();
  const std::size_t start = cur.pos;
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos];
    if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
        c == 'e' || c == 'E' || c == 'n' || c == 'a' || c == 'i' || c == 'f') {
      ++cur.pos;  // accepts nan/inf spellings so a poisoned metric parses
    } else {
      break;
    }
  }
  if (cur.pos == start) {
    *error = "expected number at offset " + std::to_string(start);
    return false;
  }
  char* end = nullptr;
  const std::string token = cur.text.substr(start, cur.pos - start);
  *out = std::strtod(token.c_str(), &end);
  if (end == token.c_str()) {
    *error = "bad number '" + token + "'";
    return false;
  }
  return true;
}

bool parse_object(Cursor& cur, JsonRecord* out, std::string* error) {
  if (!cur.eat('{')) {
    *error = "expected '{' at offset " + std::to_string(cur.pos);
    return false;
  }
  out->numbers.clear();
  out->strings.clear();
  if (cur.eat('}')) return true;
  while (true) {
    std::string key;
    if (!parse_string(cur, &key, error)) return false;
    if (!cur.eat(':')) {
      *error = "expected ':' after key '" + key + "'";
      return false;
    }
    cur.skip_ws();
    if (cur.at('"')) {
      std::string value;
      if (!parse_string(cur, &value, error)) return false;
      out->strings[key] = value;
    } else if (cur.at('{') || cur.at('[')) {
      *error = "nested value under key '" + key + "' (flat objects only)";
      return false;
    } else if (cur.at('t') || cur.at('f')) {  // true / false
      const bool value = cur.text[cur.pos] == 't';
      cur.pos += value ? 4 : 5;
      out->numbers[key] = value ? 1.0 : 0.0;
    } else {
      double value = 0;
      if (!parse_number(cur, &value, error)) return false;
      out->numbers[key] = value;
    }
    if (cur.eat(',')) continue;
    if (cur.eat('}')) return true;
    *error = "expected ',' or '}' at offset " + std::to_string(cur.pos);
    return false;
  }
}

std::string record_label(const std::vector<JsonRecord>& records, std::size_t i) {
  std::string label = "record " + std::to_string(i);
  const auto& r = records[i];
  if (auto it = r.strings.find("aqm"); it != r.strings.end()) {
    label += " (" + it->second;
    if (auto mix = r.strings.find("mix"); mix != r.strings.end()) {
      label += ", " + mix->second;
    }
    label += ")";
  }
  return label;
}

}  // namespace

bool parse_flat_object(const std::string& text, JsonRecord* out,
                       std::string* error) {
  Cursor cur{text};
  return parse_object(cur, out, error);
}

std::vector<JsonRecord> parse_records(const std::string& path, std::string* error) {
  std::ifstream in{path};
  if (!in) {
    *error = "cannot open " + path;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::vector<JsonRecord> records;
  Cursor cur{text};
  if (!cur.eat('[')) {
    *error = path + ": expected a JSON array";
    return {};
  }
  if (cur.eat(']')) return records;
  while (true) {
    JsonRecord record;
    if (!parse_object(cur, &record, error)) {
      *error = path + ": " + *error;
      return {};
    }
    records.push_back(std::move(record));
    if (cur.eat(',')) continue;
    if (cur.eat(']')) return records;
    *error = path + ": expected ',' or ']' after record " +
             std::to_string(records.size() - 1);
    return {};
  }
}

GoldenOptions default_golden_options() {
  GoldenOptions options;
  options.default_rel_tol = 0.10;
  // Headline figure metrics: tight bands.
  options.metric_rel_tol["utilization"] = 0.05;
  options.metric_rel_tol["mean_qdelay_ms"] = 0.10;
  options.metric_rel_tol["p99_qdelay_ms"] = 0.15;
  options.metric_rel_tol["signal_rate"] = 0.20;
  options.metric_rel_tol["cubic_mbps"] = 0.10;
  options.metric_rel_tol["other_mbps"] = 0.10;
  // Raw counts drift more with tiny timing differences: loose bands.
  options.metric_rel_tol["enqueued"] = 0.15;
  options.metric_rel_tol["forwarded"] = 0.15;
  options.metric_rel_tol["aqm_dropped"] = 0.50;
  options.metric_rel_tol["tail_dropped"] = 0.50;
  options.metric_rel_tol["marked"] = 0.50;
  options.metric_rel_tol["events_executed"] = 0.20;
  // Machinery health: any nonzero is a regression, so the band is absolute
  // (abs_floor) — these are 0 in every committed baseline.
  options.metric_rel_tol["invariant_violations"] = 0.0;
  options.metric_rel_tol["clamped_events"] = 0.0;
  options.metric_rel_tol["guard_events"] = 0.0;
  // Step-response settle metrics: -1 means "never settled", so relative
  // bands work for both signs; peaks wobble more.
  options.metric_rel_tol["settle_drop_s"] = 0.25;
  options.metric_rel_tol["settle_rise_s"] = 0.25;
  options.metric_rel_tol["peak_qdelay_ms"] = 0.25;
  // Resilience recovery metrics share the settle semantics (-1 = never
  // reconverged, so a sign flip always trips a relative band); the
  // post-fault delta hovers near zero, so it gets a loose band.
  options.metric_rel_tol["worst_recovery_s"] = 0.25;
  options.metric_rel_tol["mean_recovery_s"] = 0.25;
  options.metric_rel_tol["post_fault_delta_ms"] = 0.50;
  // A violation in quiet time is a regression at any count.
  options.metric_rel_tol["violations_outside"] = 0.0;
  return options;
}

std::vector<std::string> compare_golden(const std::string& baseline_path,
                                        const std::string& candidate_path,
                                        const GoldenOptions& options) {
  std::vector<std::string> mismatches;
  std::string error;
  const auto baseline = parse_records(baseline_path, &error);
  if (!error.empty()) return {"baseline: " + error};
  const auto candidate = parse_records(candidate_path, &error);
  if (!error.empty()) return {"candidate: " + error};

  if (baseline.size() != candidate.size()) {
    mismatches.push_back("record count differs: baseline " +
                         std::to_string(baseline.size()) + " vs candidate " +
                         std::to_string(candidate.size()));
  }
  const auto ignored = [&options](const std::string& key) {
    return std::find(options.ignore_fields.begin(), options.ignore_fields.end(),
                     key) != options.ignore_fields.end();
  };
  const std::size_t n = std::min(baseline.size(), candidate.size());
  for (std::size_t i = 0; i < n; ++i) {
    const JsonRecord& b = baseline[i];
    const JsonRecord& c = candidate[i];
    const std::string label = record_label(baseline, i);

    for (const auto& [key, value] : b.strings) {
      if (ignored(key)) continue;
      const auto it = c.strings.find(key);
      if (it == c.strings.end()) {
        mismatches.push_back(label + ": candidate missing field \"" + key + "\"");
      } else if (it->second != value) {
        mismatches.push_back(label + ": \"" + key + "\" differs: baseline \"" +
                             value + "\" vs candidate \"" + it->second + "\"");
      }
    }
    for (const auto& [key, value] : b.numbers) {
      if (ignored(key)) continue;
      const auto it = c.numbers.find(key);
      if (it == c.numbers.end()) {
        mismatches.push_back(label + ": candidate missing field \"" + key + "\"");
        continue;
      }
      const double got = it->second;
      if (!std::isfinite(got)) {
        mismatches.push_back(label + ": \"" + key + "\" is non-finite");
        continue;
      }
      bool exact = false;
      for (const auto& field : options.exact_fields) exact = exact || field == key;
      double rel_tol = options.default_rel_tol;
      if (const auto tol = options.metric_rel_tol.find(key);
          tol != options.metric_rel_tol.end()) {
        rel_tol = tol->second;
      }
      const double diff = std::abs(got - value);
      const double scale = std::max(std::abs(got), std::abs(value));
      const bool pass = exact ? got == value
                              : diff <= options.abs_floor || diff <= rel_tol * scale;
      if (!pass) {
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "\"%s\" out of band: baseline %.9g vs candidate %.9g "
                      "(rel %.3g > tol %.3g)",
                      key.c_str(), value, got, scale > 0 ? diff / scale : 0.0,
                      exact ? 0.0 : rel_tol);
        mismatches.push_back(label + ": " + buf);
      }
    }
    for (const auto& [key, value] : c.numbers) {
      (void)value;
      if (ignored(key)) continue;
      if (b.numbers.count(key) == 0 && b.strings.count(key) == 0) {
        mismatches.push_back(label + ": candidate has extra field \"" + key + "\"");
      }
    }
  }
  return mismatches;
}

std::string write_perturbed_copy(const std::string& baseline_path,
                                 const std::string& out_path,
                                 const GoldenOptions& options) {
  std::string error;
  auto records = parse_records(baseline_path, &error);
  if (!error.empty() || records.empty()) return "";

  // Pick the first tolerance-checked (non-exact) metric of record 0 and push
  // it far outside its band.
  std::string perturbed;
  for (auto& [key, value] : records[0].numbers) {
    bool exact = false;
    for (const auto& field : options.exact_fields) exact = exact || field == key;
    if (exact) continue;
    double rel_tol = options.default_rel_tol;
    if (const auto tol = options.metric_rel_tol.find(key);
        tol != options.metric_rel_tol.end()) {
      rel_tol = tol->second;
    }
    const double bump = std::max({std::abs(value) * (3.0 * rel_tol + 0.5),
                                  10.0 * options.abs_floor, 1.0});
    value += bump;
    perturbed = key;
    break;
  }
  if (perturbed.empty()) return "";

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) return "";
  std::fputs("[", out);
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(out, "%s\n  {", i == 0 ? "" : ",");
    bool first = true;
    for (const auto& [key, value] : records[i].strings) {
      std::fprintf(out, "%s\"%s\": \"%s\"", first ? "" : ", ", key.c_str(),
                   value.c_str());
      first = false;
    }
    for (const auto& [key, value] : records[i].numbers) {
      std::fprintf(out, "%s\"%s\": %.17g", first ? "" : ", ", key.c_str(), value);
      first = false;
    }
    std::fputs("}", out);
  }
  std::fputs("\n]\n", out);
  std::fclose(out);
  return perturbed;
}

}  // namespace pi2::check
