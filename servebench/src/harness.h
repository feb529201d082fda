// Shared state and helpers of the serving-benchmark harness (main.cpp runs
// the phases, probes.cpp the per-layer probes of the traced run).
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/server.h"
#include "quant/export.h"
#include "serve/registry.h"
#include "trace.h"
#include "workload.h"

namespace servebench {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Median of a copy (0 for an empty sample).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)) + hi) / 2.0;
}

// Nearest-rank quantile of an ascending-sorted sample.
inline double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

// CPU affinity of the calling thread; threads it starts later inherit it.
inline cpu_set_t current_affinity() {
  cpu_set_t s;
  CPU_ZERO(&s);
  if (sched_getaffinity(0, sizeof s, &s) != 0) throw std::runtime_error("sched_getaffinity failed");
  return s;
}
inline void set_affinity(const cpu_set_t& s) {
  if (sched_setaffinity(0, sizeof s, &s) != 0) throw std::runtime_error("sched_setaffinity failed");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;         // short phases, every check on
  std::string out_dir = "."; // archives and span files
};

// Everything prepared once per process, before any timed phase.
struct Prepared {
  WorkloadSpec spec;
  std::string archive;             // the saved builtin package
  std::vector<Row> pool;           // single-sample inputs
  std::vector<vsq::Tensor> pool_t; // the same as [1, n] tensors
  std::vector<Row> refs;           // sequential single-sample forward of each input
  std::vector<vsq::Tensor> batches;            // offline batches of 16 (padded)
  std::vector<std::vector<std::size_t>> batch_members;  // pool indices per batch
};

// Bitwise comparison of a served row with its sequential reference.
inline bool bitwise_equal(const Row& got, const Row& want) {
  return got.size() == want.size() &&
         std::equal(got.begin(), got.end(), want.begin(), [](float a, float b) {
           return std::memcmp(&a, &b, sizeof(float)) == 0;
         });
}

// The live serving stack of a start-up. The server goes down before the
// registry it routes into.
struct Stack {
  std::unique_ptr<vsq::ModelRegistry> registry;
  std::unique_ptr<vsq::net::NetServer> server;

  Stack() = default;
  Stack(Stack&&) = default;
  Stack& operator=(Stack&& o) noexcept {
    reset();
    registry = std::move(o.registry);
    server = std::move(o.server);
    return *this;
  }
  ~Stack() { reset(); }
  void reset() {
    server.reset();
    registry.reset();
  }
};

struct ProbeResult {
  Metrics metrics;
  std::vector<std::string> errors;  // failed checks; empty when all agree
  std::uint64_t attempted = 0;
};

// Per-layer probes of the traced run (probes.cpp). `stack` is the live
// serving stack of the traced pass; spans go to `tracer`.
// The network and session probes run on the serving CPU like the phases;
// the forward and layer probes widen the affinity back to `all_cpus` so
// the default-size pool gets its CPUs.
ProbeResult run_probes(const Options& opt, const Prepared& prep, Stack& stack, Tracer& tracer,
                       const cpu_set_t& all_cpus);

}  // namespace servebench
