#include "telemetry/sampler.hpp"

#include <stdexcept>

namespace pi2::telemetry {

Sampler::Sampler(MetricsRegistry& registry, pi2::sim::Duration interval)
    : registry_(registry), interval_(interval) {
  if (interval_ <= pi2::sim::Duration{0}) {
    throw std::invalid_argument("Sampler: interval must be > 0");
  }
}

void Sampler::add_exporter(Exporter* exporter) {
  if (exporter != nullptr) exporters_.push_back(exporter);
}

void Sampler::start(pi2::sim::Simulator& sim) {
  sim_ = &sim;
  sim_->arm(tick_, sim_->now() + interval_);
}

void Sampler::stop() {
  tick_.disarm();
  sim_ = nullptr;
}

void Sampler::tick() {
  sample_at(sim_->now());
  sim_->arm(tick_, sim_->now() + interval_);
}

void Sampler::sample_at(pi2::sim::Time t) {
  if (sampled_any_ && t <= last_sample_) return;
  do_sample(t);
}

void Sampler::sample_final(pi2::sim::Time t) {
  if (sampled_any_ && t < last_sample_) return;
  do_sample(t);
}

void Sampler::do_sample(pi2::sim::Time t) {
  sampled_any_ = true;
  last_sample_ = t;
  ++samples_;
  const auto& snapshot = registry_.snapshot_view();
  if (series_layout_version_ != registry_.layout_version()) {
    series_slots_.clear();
    series_slots_.reserve(snapshot.size());
    for (const auto& [name, value] : snapshot) {
      series_slots_.push_back(&series_[name]);
    }
    series_layout_version_ = registry_.layout_version();
  }
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    series_slots_[i]->add(t, snapshot[i].second);
  }
  for (Exporter* exporter : exporters_) exporter->on_sample(t, registry_);
}

}  // namespace pi2::telemetry
