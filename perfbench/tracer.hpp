// In-memory span tracer for the benchmark driver.
//
// A span records one call into a layer: name ("<layer>.<call>"), start and
// end on the steady clock, the span that caused it, the thread it ran on,
// the pass it belongs to and the campaign point it served (-1 = none).
// Spans nest per thread through a thread-local stack; a span opened on a
// runner worker names its parent explicitly (the main thread's runner
// span). Completed spans are kept in memory and written out once, when the
// run ends. With tracing disabled a ScopedSpan costs one atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = a root span
  std::uint32_t thread = 0;
  std::uint32_t pass = 0;
  std::int64_t point = -1;
  const char* name = "";
  double start_s = 0.0;  ///< seconds since the tracer's origin
  double end_s = 0.0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kInheritParent = UINT32_MAX;

  static Tracer& get() {
    static Tracer tracer;
    return tracer;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_pass(std::uint32_t pass) {
    pass_.store(pass, std::memory_order_relaxed);
  }

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Small per-thread number, assigned on first use.
  [[nodiscard]] static std::uint32_t thread_id() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t id = next.fetch_add(1);
    return id;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return spans_;
  }

  /// Writes one JSON object per line: `header` (already a JSON object)
  /// first, then every span in completion order.
  bool write_jsonl(const std::string& path, const std::string& header) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "%s\n", header.c_str());
    for (const Span& s : spans()) {
      std::fprintf(out,
                   "{\"pass\": %u, \"id\": %u, \"parent\": %u, \"name\": "
                   "\"%s\", \"thread\": %u, \"point\": %lld, \"start_s\": "
                   "%.9f, \"end_s\": %.9f}\n",
                   s.pass, s.id, s.parent, s.name, s.thread,
                   static_cast<long long>(s.point), s.start_s, s.end_s);
    }
    return std::fclose(out) == 0;
  }

 private:
  friend class ScopedSpan;
  using Clock = std::chrono::steady_clock;

  Tracer() : origin_(Clock::now()) {}

  static std::vector<std::uint32_t>& open_stack() {
    thread_local std::vector<std::uint32_t> stack;
    return stack;
  }

  void record(const Span& span) {
    const std::lock_guard<std::mutex> lock{mutex_};
    spans_.push_back(span);
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> pass_{0};
  std::atomic<std::uint32_t> next_id_{1};
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// Records one span from construction to destruction (when tracing is on).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t point = -1,
                      std::uint32_t parent = Tracer::kInheritParent) {
    Tracer& tracer = Tracer::get();
    if (!tracer.enabled()) return;
    active_ = true;
    auto& stack = Tracer::open_stack();
    span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
    span_.parent = parent != Tracer::kInheritParent ? parent
                   : stack.empty()                  ? 0
                                                    : stack.back();
    span_.thread = Tracer::thread_id();
    span_.pass = tracer.pass_.load(std::memory_order_relaxed);
    span_.point = point;
    span_.name = name;
    stack.push_back(span_.id);
    span_.start_s = tracer.now();
  }
  ~ScopedSpan() {
    if (!active_) return;
    Tracer& tracer = Tracer::get();
    span_.end_s = tracer.now();
    Tracer::open_stack().pop_back();
    tracer.record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when tracing is off (children then have no span to attach to).
  [[nodiscard]] std::uint32_t id() const { return span_.id; }

 private:
  bool active_ = false;
  Span span_;
};

}  // namespace perfbench
