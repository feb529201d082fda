#include "trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace servebench {

namespace {

std::atomic<std::uint64_t> g_generation{0};

// This thread's buffer, tagged with the Tracer generation that owns it.
struct ThreadBuffer {
  std::uint64_t generation = 0;
  std::vector<SpanRecord>* buf = nullptr;
};
thread_local ThreadBuffer t_buffer;

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      origin_(std::chrono::steady_clock::now()),
      generation_(g_generation.fetch_add(1) + 1) {}

void Tracer::record(const SpanRecord& s) {
  if (t_buffer.generation != generation_) {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
    buffers_.back()->reserve(1 << 14);
    t_buffer = {generation_, buffers_.back().get()};
  }
  t_buffer.buf->push_back(s);
}

std::vector<SpanRecord> Tracer::collect() const {
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns : a.id < b.id;
  });
  return all;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  for (const SpanRecord& s : collect()) {
    f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << ",\"start_ns\":" << s.t0_ns << ",\"end_ns\":" << s.t1_ns
      << "}\n";
  }
}

}  // namespace servebench
