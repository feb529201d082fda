// Span recorder for the traced run. The benchmark wraps each call it makes
// into a module's public function in a Span (name, start, end, parent,
// request id); the program itself carries no instrumentation. Spans
// collect in per-thread buffers, so recording takes no lock, and are
// written out after the run. A disabled Tracer makes Span a no-op that
// reads no clock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

struct SpanRecord {
  const char* name;      // "<module>.<Class>::<function>" or a phase name
  std::uint64_t id;      // 1-based; 0 = none
  std::uint64_t parent;  // enclosing span id, 0 at top level
  std::int64_t request;  // input / request index, -1 when not per request
  std::int64_t t0_ns, t1_ns;  // since the Tracer was built
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const SpanRecord& s);
  // Every span recorded so far, ordered by start time.
  std::vector<SpanRecord> collect() const;
  // One JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards buffers_ (registration, collect)
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
  std::uint64_t generation_;
};

class Span {
 public:
  Span(Tracer& t, const char* name, std::uint64_t parent = 0, std::int64_t request = -1)
      : t_(t.enabled() ? &t : nullptr) {
    if (t_) {
      rec_ = {name, t.next_id(), parent, request, t.now_ns(), 0};
    }
  }
  ~Span() {
    if (t_) {
      rec_.t1_ns = t_->now_ns();
      t_->record(rec_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return t_ ? rec_.id : 0; }

 private:
  Tracer* t_;
  SpanRecord rec_{};
};

}  // namespace servebench
