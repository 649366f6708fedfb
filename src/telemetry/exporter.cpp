#include "telemetry/exporter.hpp"

#include <cctype>
#include <charconv>

namespace pi2::telemetry {

namespace {

// std::to_chars is specified to format exactly like printf in the "C"
// locale, so these produce the same bytes as %.9g / %.9f at a fraction of
// the stdio cost — the row exporters run once per sampled metric.
void append_g9(std::string& out, double v) {
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, 9);
  out.append(buf, r.ptr);
}

void append_f9(std::string& out, double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::fixed, 9);
  out.append(buf, r.ptr);
}

}  // namespace

void JsonlExporter::on_sample(pi2::sim::Time t, const MetricsRegistry& registry) {
  if (!file_.healthy()) return;
  line_.clear();
  line_ += "{\"t_s\": ";
  append_f9(line_, pi2::sim::to_seconds(t));
  for (const auto& [name, value] : registry.snapshot_view()) {
    line_ += ", \"";
    line_ += name;
    line_ += "\": ";
    append_g9(line_, value);
  }
  line_ += "}\n";
  file_.write(line_);
}

bool JsonlExporter::finish(const MetricsRegistry&) { return commit(); }

void PrometheusExporter::on_sample(pi2::sim::Time, const MetricsRegistry&) {}

bool PrometheusExporter::finish(const MetricsRegistry& registry) {
  for (const auto& [name, c] : registry.counters()) {
    const std::string prom = prometheus_name(name);
    file_.printf("# TYPE %s counter\n%s %llu\n", prom.c_str(), prom.c_str(),
                 static_cast<unsigned long long>(c.value()));
  }
  for (const auto& [name, g] : registry.gauges()) {
    const std::string prom = prometheus_name(name);
    file_.printf("# TYPE %s gauge\n%s %.9g\n", prom.c_str(), prom.c_str(),
                 g.value());
  }
  for (const auto& [name, h] : registry.histograms()) {
    const std::string prom = prometheus_name(name);
    file_.printf("# TYPE %s histogram\n", prom.c_str());
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      cumulative += h.bucket_value(i);
      // Skip interior empty deltas but always emit the first and last
      // bucket so the exposition stays parseable and bounded in size.
      if (h.bucket_value(i) == 0 && i != 0 && i + 1 != h.bucket_count()) continue;
      if (i + 1 == h.bucket_count()) {
        file_.printf("%s_bucket{le=\"+Inf\"} %llu\n", prom.c_str(),
                     static_cast<unsigned long long>(cumulative));
      } else {
        file_.printf("%s_bucket{le=\"%.9g\"} %llu\n", prom.c_str(),
                     h.bucket_upper_bound(i),
                     static_cast<unsigned long long>(cumulative));
      }
    }
    file_.printf("%s_sum %.9g\n%s_count %llu\n", prom.c_str(), h.sum(),
                 prom.c_str(), static_cast<unsigned long long>(h.count()));
  }
  return commit();
}

std::string prometheus_name(const std::string& name) {
  std::string out = "pi2_";
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return out;
}

}  // namespace pi2::telemetry
