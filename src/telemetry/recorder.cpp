#include "telemetry/recorder.hpp"

#include <filesystem>
#include <system_error>

namespace pi2::telemetry {

Recorder::Recorder(RecorderConfig config)
    : config_(std::move(config)), sampler_(registry_, config_.interval) {
  std::error_code ec;  // a failed mkdir surfaces as exporter open failures
  std::filesystem::create_directories(config_.dir, ec);
  jsonl_ = std::make_unique<JsonlExporter>(jsonl_path());
  prometheus_ = std::make_unique<PrometheusExporter>(prometheus_path());
  sampler_.add_exporter(jsonl_.get());
  sampler_.add_exporter(prometheus_.get());
  manifest_.run_id = config_.run_id;
  manifest_.build_flags = build_flags_string();
}

bool Recorder::ok() const {
  if (finished_) return finish_ok_;
  return jsonl_->ok() && prometheus_->ok();
}

durable::Status Recorder::status() const {
  durable::Status status;
  status.update(jsonl_->status());
  status.update(prometheus_->status());
  status.update(manifest_status_);
  return status;
}

bool Recorder::finish(pi2::sim::Time end) {
  if (finished_) return finish_ok_;
  finished_ = true;
  // Stop first so the final sample does not count the sampler's own pending
  // tick in the scheduler gauges it is about to record.
  sampler_.stop();
  sampler_.sample_final(end);
  registry_.freeze_gauges();
  manifest_.capture_final(registry_);
  bool ok = jsonl_->finish(registry_);
  ok = prometheus_->finish(registry_) && ok;
  manifest_status_ = manifest_.write_json(manifest_path());
  ok = manifest_status_.ok() && ok;
  finish_ok_ = ok;
  return ok;
}

}  // namespace pi2::telemetry
