// servebench: the repository's end-to-end serving benchmark. One process
// serves one zoo workload through the public APIs in four phases
// (start-up, wire closed loop, in-process open loop, offline batches),
// checks every answer, and prints host, ledger and metric lines; the last
// stdout line is the result object. See servebench/README.md.
//
//   servebench --workload bert_mixed --seed 3 --seconds 10 --trace 0
//              [--quick] [--out-dir DIR]

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exp/ptq.h"
#include "harness.h"
#include "kernels/isa.h"
#include "net/client.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace servebench {
namespace {

using vsq::Shape;
using vsq::Tensor;
namespace net = vsq::net;

// Fake-quant agreement tolerances, relative to the row's largest
// magnitude (derivation: README "Fake-quant check").
constexpr double kFakeQuantRelTol = 0.1;
constexpr double kFakeQuantMedianRelTol = 1e-4;
constexpr std::size_t kBatch = 16;
constexpr int kWireClients = 4;  // capped at nproc
// Open-loop samples needed before p99 is reported: ten beyond p99.
constexpr std::size_t kMinP99Samples = 1000;

struct Ledger {
  std::uint64_t attempted = 0, ok = 0, failed = 0;
};

// Correctness record shared by every phase: a failure message keeps the
// first few occurrences, every failure counts.
struct Verdict {
  bool correct = true;
  std::vector<std::string> errors;
  std::mutex mu;
  void fail(const std::string& what) {
    std::lock_guard<std::mutex> lk(mu);
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

struct PassResult {
  double setup_s = 0.0, wire_rps = 0.0, open_p50_ms = 0.0, open_p99_ms = NAN;
  double offline_rows_per_s = 0.0, peak_rss_mib = 0.0;
  Ledger setup, wire, open, offline;
  std::size_t open_samples = 0;
  double lag_p50_ms = 0.0, lag_max_ms = 0.0;
  // Open-loop ServeStats deltas.
  std::uint64_t open_batches = 0, open_requests = 0, open_mixed = 0;
  double steal_share = 0.0;
  std::uint64_t useful_tokens = 0, padded_tokens = 0;
};

// ---------------------------------------------------------------- host ---

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

// Aggregate CPU jiffies from /proc/stat: {steal, total}.
std::pair<double, double> cpu_steal_total() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double v[10] = {0};
  for (double& x : v) f >> x;
  double total = 0;
  for (int i = 0; i < 8; ++i) total += v[i];  // guest time is inside user
  return {v[7], total};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string env_or(const char* name, const char* dflt) {
  const char* v = std::getenv(name);
  return v ? v : dflt;
}

std::string json_str(const std::string& s) { return "\"" + net::json_escape(s) + "\""; }

std::string json_list(const std::vector<double>& v) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
  return os.str();
}

// ------------------------------------------------------------- prepare ---

bool same_file_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  const std::string sa((std::istreambuf_iterator<char>(fa)), std::istreambuf_iterator<char>());
  const std::string sb((std::istreambuf_iterator<char>(fb)), std::istreambuf_iterator<char>());
  return !sa.empty() && sa == sb;
}

Tensor row_tensor(const Row& r) {
  return Tensor::from_vector(Shape{1, static_cast<std::int64_t>(r.size())}, r);
}

Prepared prepare(const Options& opt, Verdict& verdict) {
  Prepared p;
  p.spec = workload_spec(opt.workload);
  const std::string& model = p.spec.model;
  const vsq::QuantizedModelPackage builtin = vsq::builtin_serving_package(model);
  p.archive = opt.out_dir + "/" + model + ".vsqa";
  builtin.save(p.archive);

  // The fake-quant reference must come from the very calibration that was
  // exported: its layers, swapped into the builtin package, must save to
  // the same bytes.
  std::unique_ptr<FakeQuantModel> fq = make_fake_quant_model(model);
  {
    vsq::QuantizedModelPackage mine = builtin;
    mine.layers = fq->package().layers;
    const std::string mine_path = opt.out_dir + "/" + model + ".recipe.vsqa";
    mine.save(mine_path);
    if (!same_file_bytes(p.archive, mine_path)) {
      verdict.fail("fake-quant recipe does not reproduce builtin_serving_package(" + model + ")");
    }
  }

  p.pool = make_inputs(model, opt.seed, model == "resnet" ? 128 : 512);
  for (const Row& r : p.pool) p.pool_t.push_back(row_tensor(r));

  // Sequential single-sample references from the archive that is served.
  const vsq::QuantizedModelPackage loaded = vsq::QuantizedModelPackage::load(p.archive);
  const vsq::QuantizedModelRunner runner(loaded);
  for (const Tensor& x : p.pool_t) p.refs.push_back(runner.forward(x).to_vector());

  // A seeded sample agrees with the fp32 fake-quant forward: every sample
  // within kFakeQuantRelTol of its row's largest magnitude (a rounding
  // boundary may flip one activation code), and the median sample at
  // fp32 rounding level (kFakeQuantMedianRelTol).
  vsq::Rng pick = vsq::Rng(opt.seed).split(7);
  const std::size_t n_fq = opt.quick ? 8 : 32;
  std::vector<double> rel;
  for (std::size_t s = 0; s < n_fq; ++s) {
    const std::size_t i = pick.uniform_u64(p.pool.size());
    const Row want = fq->forward(p.pool[i]);
    double mag = 0.0;
    for (float v : want) mag = std::max(mag, static_cast<double>(std::fabs(v)));
    const double r = max_abs_diff(p.refs[i], want) / std::max(mag, 1e-30);
    rel.push_back(r);
    if (!(r <= kFakeQuantRelTol)) {
      std::ostringstream os;
      os << "input " << i << " differs from the fake-quant forward by " << r
         << " of its largest magnitude (tolerance " << kFakeQuantRelTol << ")";
      verdict.fail(os.str());
    }
  }
  const double med = median(rel);
  if (!(med <= kFakeQuantMedianRelTol)) {
    verdict.fail("median fake-quant difference " + std::to_string(med) + " exceeds " +
                 std::to_string(kFakeQuantMedianRelTol));
  }
  std::cout << "fake_quant_check {\"samples\": " << n_fq << ", \"max_rel_diff\": "
            << *std::max_element(rel.begin(), rel.end()) << ", \"median_rel_diff\": " << med
            << ", \"rel_tolerance\": " << kFakeQuantRelTol
            << ", \"median_rel_tolerance\": " << kFakeQuantMedianRelTol << "}\n";

  // Offline batches of 16 consecutive pool inputs; token rows padded to the
  // widest member with the -1 sentinel.
  for (std::size_t b = 0; b + kBatch <= p.pool.size(); b += kBatch) {
    std::size_t width = 0;
    for (std::size_t j = 0; j < kBatch; ++j) width = std::max(width, p.pool[b + j].size());
    Tensor x(Shape{static_cast<std::int64_t>(kBatch), static_cast<std::int64_t>(width)});
    std::vector<std::size_t> members;
    for (std::size_t j = 0; j < kBatch; ++j) {
      const Row& r = p.pool[b + j];
      float* dst = x.data() + j * width;
      std::copy(r.begin(), r.end(), dst);
      std::fill(dst + r.size(), dst + width, -1.0f);
      members.push_back(b + j);
    }
    p.batches.push_back(std::move(x));
    p.batch_members.push_back(std::move(members));
  }
  return p;
}

// ------------------------------------------------------------- phases ---

void check_row(Verdict& v, const Prepared& p, std::size_t idx, const Row& got,
               const char* phase) {
  if (!bitwise_equal(got, p.refs[idx])) {
    v.fail(std::string(phase) + ": output for input " + std::to_string(idx) +
           " is not bitwise equal to the sequential single-sample forward");
  }
}

// One start-up: registry + load_file, NetServer, first kOk response.
Stack start_up(const Prepared& p, Tracer& tr, std::uint64_t parent, Verdict& v, Ledger& led,
               double* seconds) {
  const Clock::time_point t0 = Clock::now();
  Stack s;
  s.registry = std::make_unique<vsq::ModelRegistry>();
  {
    Span sp(tr, "serve.ModelRegistry::load_file", parent);
    s.registry->load_file(p.spec.model, p.archive);
  }
  {
    Span sp(tr, "net.NetServer::NetServer", parent);
    s.server = std::make_unique<net::NetServer>(*s.registry);
  }
  ++led.attempted;
  try {
    net::NetClient client(s.server->host(), s.server->port());
    net::ResponseFrame r;
    {
      Span sp(tr, "net.NetClient::infer", parent, 0);
      r = client.infer(p.spec.model, p.pool[0]);
    }
    *seconds = seconds_between(t0, Clock::now());
    if (r.status != net::Status::kOk) {
      ++led.failed;
      v.fail(std::string("start-up: first response is ") + net::status_name(r.status));
    } else {
      ++led.ok;
      check_row(v, p, 0, r.row, "start-up");
    }
  } catch (const std::exception& e) {
    ++led.failed;
    v.fail(std::string("start-up: ") + e.what());
    *seconds = seconds_between(t0, Clock::now());
  }
  return s;
}

// The wire closed loop runs in rounds interleaved with the other phases;
// its connections, RNG streams and ledger baselines persist across rounds.
struct WireLoop {
  std::vector<std::unique_ptr<net::NetClient>> conns;
  std::vector<vsq::Rng> rngs;
  std::array<std::uint64_t, 7> frames0{}, client_status{};
  // ServeStats deltas summed over the wire rounds only (the open loop
  // shares the session between them).
  std::uint64_t requests = 0, errors = 0, shed = 0, deadline_expired = 0;
  std::vector<double> round_rps;
};

WireLoop wire_open(const Options& opt, Stack& s) {
  WireLoop w;
  const int clients =
      std::min<int>(kWireClients, static_cast<int>(std::thread::hardware_concurrency()));
  for (int c = 0; c < clients; ++c) {
    w.conns.push_back(std::make_unique<net::NetClient>(s.server->host(), s.server->port()));
    w.rngs.push_back(vsq::Rng(opt.seed).split(100 + static_cast<std::uint64_t>(c)));
  }
  for (std::size_t k = 0; k < w.frames0.size(); ++k) {
    w.frames0[k] = s.server->frames_by_status(static_cast<net::Status>(k));
  }
  return w;
}

// One round: every connection sends, waits for its reply, sends again
// until the round's time is up.
void wire_round(const Prepared& p, vsq::InferenceSession& session, WireLoop& w, Tracer& tr,
                std::uint64_t parent, double seconds, Verdict& v, PassResult& out) {
  const std::size_t clients = w.conns.size();
  const vsq::ServeStatsSnapshot st0 = session.stats();
  std::vector<Ledger> led(clients);
  std::vector<std::array<std::uint64_t, 7>> by_status(clients);
  std::vector<Clock::time_point> finished(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::NetClient& cl = *w.conns[c];
      while (Clock::now() < stop) {
        const std::size_t idx = w.rngs[c].uniform_u64(p.pool.size());
        ++led[c].attempted;
        try {
          net::ResponseFrame r;
          {
            Span sp(tr, "net.NetClient::infer", parent, static_cast<std::int64_t>(idx));
            r = cl.infer(p.spec.model, p.pool[idx]);
          }
          ++by_status[c][static_cast<std::size_t>(r.status)];
          if (r.status == net::Status::kOk) {
            ++led[c].ok;
            check_row(v, p, idx, r.row, "wire");
          } else {
            ++led[c].failed;
            v.fail(std::string("wire: response status ") + net::status_name(r.status));
          }
        } catch (const std::exception& e) {
          ++led[c].failed;
          v.fail(std::string("wire: ") + e.what());
          try {
            cl.reconnect();  // the connection is unusable after a transport failure
          } catch (const std::exception&) {
            break;
          }
        }
      }
      finished[c] = Clock::now();
    });
  }
  for (auto& t : threads) t.join();
  std::uint64_t ok = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    out.wire.attempted += led[c].attempted;
    out.wire.ok += led[c].ok;
    out.wire.failed += led[c].failed;
    ok += led[c].ok;
    for (std::size_t k = 0; k < 7; ++k) w.client_status[k] += by_status[c][k];
  }
  const Clock::time_point end = *std::max_element(finished.begin(), finished.end());
  const vsq::ServeStatsSnapshot st1 = session.stats();
  w.requests += st1.requests - st0.requests;
  w.errors += st1.errors - st0.errors;
  w.shed += st1.shed - st0.shed;
  w.deadline_expired += st1.deadline_expired - st0.deadline_expired;
  w.round_rps.push_back(static_cast<double>(ok) / seconds_between(start, end));
}

// Cross-checks the client tally against the server's frame ledger and the
// session's counters, then prints the wire ledger.
void wire_close(Stack& s, WireLoop& w, Verdict& v, PassResult& out) {
  w.conns.clear();
  out.wire_rps = median(w.round_rps);
  std::ostringstream srv;
  for (std::size_t k = 0; k < 7; ++k) {
    const auto status = static_cast<net::Status>(k);
    const std::uint64_t d = s.server->frames_by_status(status) - w.frames0[k];
    srv << (k ? ", " : "") << json_str(net::status_name(status)) << ": " << d;
    if (d != w.client_status[k]) {
      v.fail(std::string("wire: server sent ") + std::to_string(d) + " " +
             net::status_name(status) + " frames, clients received " +
             std::to_string(w.client_status[k]));
    }
  }
  const std::uint64_t d_req = w.requests, d_err = w.errors, d_shed = w.shed,
                      d_dead = w.deadline_expired;
  if (d_req != out.wire.ok || d_err != 0 || d_shed != 0 || d_dead != 0) {
    v.fail("wire: ServeStats disagree with the client tally (requests " + std::to_string(d_req) +
           ", errors " + std::to_string(d_err) + ", shed " + std::to_string(d_shed) +
           ", deadline_expired " + std::to_string(d_dead) + "; client ok " +
           std::to_string(out.wire.ok) + ")");
  }
  std::cout << "wire_ledger {\"clients\": " << w.rngs.size()
            << ", \"attempted\": " << out.wire.attempted << ", \"ok\": " << out.wire.ok
            << ", \"failed\": " << out.wire.failed << ", \"server_frames\": {" << srv.str()
            << "}, \"serve_stats\": {\"requests\": " << d_req << ", \"errors\": " << d_err
            << ", \"shed\": " << d_shed << ", \"deadline_expired\": " << d_dead << "}}\n";
}

// The open loop's generator stream and samples persist across rounds.
struct OpenLoop {
  explicit OpenLoop(vsq::Rng r) : rng(r) {}
  vsq::Rng rng;
  std::vector<double> lat_ms, lag_ms, round_p50;
  // ServeStats deltas summed over the open-loop rounds.
  std::uint64_t batches = 0, requests = 0, mixed = 0, errors = 0, shed = 0, deadline_expired = 0;
};

// One round: a generator thread (this one) submits on a seeded Poisson
// schedule, a collector thread gathers the results. Latency runs from each
// request's scheduled send, so generator lag counts against it.
void open_round(const Prepared& p, vsq::InferenceSession& session, OpenLoop& ol, Tracer& tr,
                std::uint64_t parent, double seconds, Verdict& v, PassResult& out) {
  const vsq::ServeStatsSnapshot st0 = session.stats();
  struct Pending {
    std::future<Tensor> fut;
    std::size_t idx;
    Clock::time_point scheduled;
    std::uint64_t span_id;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> q;
  bool done = false;
  std::vector<double> lat;

  std::thread collector([&] {
    for (;;) {
      Pending item;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return done || !q.empty(); });
        if (q.empty()) return;
        item = std::move(q.front());
        q.pop_front();
      }
      try {
        Tensor y;
        {
          Span sp(tr, "serve.future::get", item.span_id, static_cast<std::int64_t>(item.idx));
          y = item.fut.get();
        }
        lat.push_back(seconds_between(item.scheduled, Clock::now()) * 1e3);
        ++out.open.ok;
        check_row(v, p, item.idx, y.to_vector(), "open loop");
      } catch (const std::exception& e) {
        ++out.open.failed;
        v.fail(std::string("open loop: ") + e.what());
      }
    }
  });

  const double rate = p.spec.open_rate_rps;
  const Clock::time_point start = Clock::now();
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - ol.rng.uniform()) / rate;
    if (t >= seconds) break;
    const Clock::time_point when =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t));
    std::this_thread::sleep_until(when);
    const std::size_t idx = ol.rng.uniform_u64(p.pool.size());
    ol.lag_ms.push_back(seconds_between(when, Clock::now()) * 1e3);
    ++out.open.attempted;
    try {
      const Span sp(tr, "serve.InferenceSession::submit", parent, static_cast<std::int64_t>(idx));
      std::future<Tensor> f = session.submit(p.pool_t[idx]);
      std::lock_guard<std::mutex> lk(mu);
      q.push_back({std::move(f), idx, when, sp.id()});
      cv.notify_one();
    } catch (const std::exception& e) {
      ++out.open.failed;
      v.fail(std::string("open loop submit: ") + e.what());
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_all();
  collector.join();
  const vsq::ServeStatsSnapshot st1 = session.stats();
  ol.batches += st1.batches - st0.batches;
  ol.requests += st1.requests - st0.requests;
  ol.mixed += st1.mixed_bucket_batches - st0.mixed_bucket_batches;
  ol.errors += st1.errors - st0.errors;
  ol.shed += st1.shed - st0.shed;
  ol.deadline_expired += st1.deadline_expired - st0.deadline_expired;
  ol.round_p50.push_back(median(lat));
  ol.lat_ms.insert(ol.lat_ms.end(), lat.begin(), lat.end());
}

void open_close(const Prepared& p, OpenLoop& ol, Verdict& v, PassResult& out) {
  std::sort(ol.lat_ms.begin(), ol.lat_ms.end());
  out.open_samples = ol.lat_ms.size();
  out.open_p50_ms = median(ol.round_p50);
  if (ol.lat_ms.size() >= kMinP99Samples) out.open_p99_ms = sorted_quantile(ol.lat_ms, 0.99);
  out.lag_p50_ms = median(ol.lag_ms);
  out.lag_max_ms = ol.lag_ms.empty() ? 0.0 : *std::max_element(ol.lag_ms.begin(), ol.lag_ms.end());
  out.open_batches = ol.batches;
  out.open_requests = ol.requests;
  out.open_mixed = ol.mixed;
  if (ol.requests != out.open.ok || ol.errors != 0 || ol.shed != 0 || ol.deadline_expired != 0) {
    v.fail("open loop: ServeStats disagree with the collector tally");
  }
  std::cout << "open_ledger {\"rate_rps\": " << p.spec.open_rate_rps
            << ", \"attempted\": " << out.open.attempted << ", \"ok\": " << out.open.ok
            << ", \"failed\": " << out.open.failed << ", \"lag_p50_ms\": " << out.lag_p50_ms
            << ", \"lag_max_ms\": " << out.lag_max_ms << ", \"batches\": " << out.open_batches
            << ", \"mean_batch\": "
            << (out.open_batches ? static_cast<double>(out.open_requests) /
                                       static_cast<double>(out.open_batches)
                                 : 0.0)
            << ", \"mixed_bucket_batches\": " << out.open_mixed << "}\n";
}

// One offline round: QuantizedModelRunner::forward over batches of 16
// (cycling through the prepared batches); returns rows per busy second.
double offline_round(const Prepared& p, const vsq::QuantizedModelRunner& runner,
                     std::size_t* cursor, Tracer& tr, std::uint64_t parent, double seconds,
                     Verdict& v, PassResult& out) {
  const auto per_token = static_cast<std::size_t>(runner.out_per_token());
  double busy = 0.0;
  std::uint64_t rows = 0;
  const Clock::time_point stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                    std::chrono::duration<double>(seconds));
  do {
    const std::size_t bi = (*cursor)++ % p.batches.size();
    const Tensor& x = p.batches[bi];
    ++out.offline.attempted;
    try {
      Tensor y;
      const Clock::time_point t0 = Clock::now();
      {
        Span sp(tr, "export.QuantizedModelRunner::forward", parent, static_cast<std::int64_t>(bi));
        y = runner.forward(x);
      }
      busy += seconds_between(t0, Clock::now());
      ++out.offline.ok;
      const std::int64_t cols = y.shape()[1];
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::size_t idx = p.batch_members[bi][j];
        const std::size_t keep =
            runner.seq() ? p.pool[idx].size() * per_token : static_cast<std::size_t>(cols);
        const float* yr = y.data() + static_cast<std::int64_t>(j) * cols;
        check_row(v, p, idx, Row(yr, yr + keep), "offline");
        out.useful_tokens += runner.seq() ? p.pool[idx].size() : 1;
        out.padded_tokens += runner.seq() ? static_cast<std::uint64_t>(x.shape()[1]) : 1;
      }
      rows += kBatch;
    } catch (const std::exception& e) {
      ++out.offline.failed;
      v.fail(std::string("offline: ") + e.what());
    }
  } while (Clock::now() < stop);
  return static_cast<double>(rows) / busy;
}

// Runs all four phases once: start-up (repeated, median), then rounds that
// interleave the wire closed loop, the open loop and the offline batches,
// so a burst of noise from other tenants lands in a few rounds of every
// phase rather than in all of one; throughput and p50 are medians over
// rounds. Returns the live stack (for the probes).
Stack run_pass(const Options& opt, const Prepared& p, Tracer& tr, Verdict& v, PassResult& out) {
  std::cout << "pass {\"traced\": " << (tr.enabled() ? "true" : "false") << "}\n";
  const auto st0 = cpu_steal_total();
  const int setups = opt.quick ? 2 : 15;
  const int rounds = opt.quick ? 2 : 12;
  const double round_s = opt.seconds / rounds;
  const double offline_share = std::max(0.05, 1.0 - p.spec.wire_share - p.spec.open_share);
  Stack stack;
  std::vector<double> setup_times;
  {
    Span phase(tr, "phase.start_up");
    for (int i = 0; i < setups; ++i) {
      stack.reset();  // tear the previous start-up down first
      double secs = 0.0;
      stack = start_up(p, tr, phase.id(), v, out.setup, &secs);
      setup_times.push_back(secs);
    }
  }
  out.setup_s = median(setup_times);

  auto session = stack.registry->session(p.spec.model);
  WireLoop wire = wire_open(opt, stack);
  OpenLoop open(vsq::Rng(opt.seed).split(200));
  std::vector<double> offline_rps;
  std::size_t cursor = 0;
  std::vector<double> round_steal;
  for (int r = 0; r < rounds; ++r) {
    const auto rs0 = cpu_steal_total();
    {
      Span phase(tr, "phase.wire_closed_loop", 0, r);
      wire_round(p, *session, wire, tr, phase.id(), round_s * p.spec.wire_share, v, out);
    }
    {
      Span phase(tr, "phase.open_loop", 0, r);
      open_round(p, *session, open, tr, phase.id(), round_s * p.spec.open_share, v, out);
    }
    {
      Span phase(tr, "phase.offline", 0, r);
      offline_rps.push_back(offline_round(p, session->runner(), &cursor, tr, phase.id(),
                                          round_s * offline_share, v, out));
    }
    const auto rs1 = cpu_steal_total();
    round_steal.push_back((rs1.first - rs0.first) / std::max(1.0, rs1.second - rs0.second));
  }
  std::cout << "rounds {\"wire_rps\": " << json_list(wire.round_rps)
            << ", \"open_p50_ms\": " << json_list(open.round_p50)
            << ", \"offline_rows_per_s\": " << json_list(offline_rps)
            << ", \"steal_share\": " << json_list(round_steal) << "}\n";
  wire_close(stack, wire, v, out);
  open_close(p, open, v, out);
  out.offline_rows_per_s = median(offline_rps);
  out.peak_rss_mib = peak_rss_mib();
  const auto st1 = cpu_steal_total();
  const double dt = st1.second - st0.second;
  out.steal_share = dt > 0 ? (st1.first - st0.first) / dt : 0.0;
  return stack;
}

Metrics end_to_end(const PassResult& r) {
  Metrics m{{"wire_rps", r.wire_rps},
            {"open_p50_ms", r.open_p50_ms},
            {"offline_rows_per_s", r.offline_rows_per_s},
            {"setup_s", r.setup_s},
            {"peak_rss_mib", r.peak_rss_mib}};
  return m;
}

const std::map<std::string, std::string>& units() {
  static const std::map<std::string, std::string> u{
      {"wire_rps", "req/s"},        {"open_p50_ms", "ms"},  {"open_p99_ms", "ms"},
      {"offline_rows_per_s", "rows/s"}, {"setup_s", "s"}, {"peak_rss_mib", "MiB"}};
  return u;
}

std::string unit_of(const std::string& name) {
  const auto it = units().find(name);
  if (it != units().end()) return it->second;
  const auto ends = [&](const char* suf) {
    const std::string s(suf);
    return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("gmac_per_s")) return "GMAC/s";
  if (ends("bytes")) return "bytes";
  if (ends("ratio")) return "ratio";
  if (name == "serve.mean_batch") return "req/batch";
  return "count";
}

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

void print_ledger(const char* phase, const Ledger& l, bool first) {
  std::cout << (first ? "" : ", ") << json_str(phase) << ": {\"attempted\": " << l.attempted
            << ", \"ok\": " << l.ok << ", \"failed\": " << l.failed << "}";
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--out-dir") o.out_dir = value();
    else if (a == "--quick") o.quick = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

int run(const Options& opt) {
  // Every serving thread runs on one CPU (the highest this process may
  // use): a hand-off between threads is then a context switch on that CPU,
  // not a wake-up of another virtual CPU, whose cost the host sets (README
  // "Pool and CPU"). Set before any thread starts, so all inherit it.
  const cpu_set_t all_cpus = current_affinity();
  int serve_cpu = CPU_SETSIZE - 1;
  while (serve_cpu > 0 && !CPU_ISSET(serve_cpu, &all_cpus)) --serve_cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(serve_cpu, &one);
  set_affinity(one);

  Verdict verdict;
  const Prepared prep = prepare(opt, verdict);

  std::cout << "host {\"cpu\": " << json_str(cpu_model())
            << ", \"isa\": " << json_str(vsq::isa::summary())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpus_allowed\": " << CPU_COUNT(&all_cpus) << ", \"serving_cpu\": " << serve_cpu
            << ", \"pool_threads\": " << vsq::ThreadPool::global().concurrency()
            << ", \"VSQ_ISA\": " << json_str(env_or("VSQ_ISA", ""))
            << ", \"VSQ_THREADS\": " << json_str(env_or("VSQ_THREADS", "")) << "}\n";

  PassResult plain;
  {
    Tracer off(false);
    run_pass(opt, prep, off, verdict, plain);
  }
  const Metrics e2e = end_to_end(plain);
  std::cout << "steal {\"untraced_share\": " << plain.steal_share << "}\n";

  std::uint64_t attempted = plain.setup.attempted + plain.wire.attempted + plain.open.attempted +
                            plain.offline.attempted;
  std::uint64_t failed =
      plain.setup.failed + plain.wire.failed + plain.open.failed + plain.offline.failed;
  std::cout << "ledger {";
  print_ledger("start_up", plain.setup, true);
  print_ledger("wire_closed_loop", plain.wire, false);
  print_ledger("open_loop", plain.open, false);
  print_ledger("offline", plain.offline, false);
  std::cout << "}\n";
  for (const auto& [k, val] : e2e) {
    std::cout << "metric " << k << " " << num(val) << " " << unit_of(k) << "\n";
  }
  // Recorded, not gated: on a host with CPU steal the open-loop tail
  // follows the steal share of the run (README "End-to-end metrics").
  std::cout << "open_p99 {\"samples\": " << plain.open_samples;
  if (!std::isnan(plain.open_p99_ms)) std::cout << ", \"p99_ms\": " << num(plain.open_p99_ms);
  std::cout << "}\n";

  Metrics out = e2e;
  if (opt.trace) {
    // The traced pass runs half as long: its metrics are rates, medians and
    // counts per phase, and the shorter pass keeps a traced run within
    // twice an untraced one.
    Tracer tracer(true);
    PassResult traced;
    Options half = opt;
    half.seconds = opt.seconds / 2;
    Stack stack = run_pass(half, prep, tracer, verdict, traced);
    ProbeResult probes = run_probes(opt, prep, stack, tracer, all_cpus);
    stack.reset();
    const Metrics e2e_traced = end_to_end(traced);
    std::cout << "trace_overhead {";
    bool first = true;
    for (const auto& [k, val] : e2e) {
      const auto it = e2e_traced.find(k);
      if (it == e2e_traced.end()) continue;
      std::cout << (first ? "" : ", ") << json_str(k) << ": {\"untraced\": " << num(val)
                << ", \"traced\": " << num(it->second) << ", \"difference\": "
                << num(it->second - val) << ", \"unit\": " << json_str(unit_of(k)) << "}";
      first = false;
    }
    std::cout << "}\n";
    out = probes.metrics;
    out["serve.batches"] = static_cast<double>(traced.open_batches);
    out["serve.mean_batch"] = traced.open_batches ? static_cast<double>(traced.open_requests) /
                                                        static_cast<double>(traced.open_batches)
                                                  : 0.0;
    out["serve.mixed_bucket_batches"] = static_cast<double>(traced.open_mixed);
    out["export.useful_token_ratio"] = traced.padded_tokens
                                           ? static_cast<double>(traced.useful_tokens) /
                                                 static_cast<double>(traced.padded_tokens)
                                           : 0.0;
    std::cout << "useful_token_ratio_base {\"true_tokens\": " << traced.useful_tokens
              << ", \"rows_x_padded_width\": " << traced.padded_tokens << "}\n";
    for (const std::string& e : probes.errors) verdict.fail("probe: " + e);
    attempted += traced.setup.attempted + traced.wire.attempted + traced.open.attempted +
                 traced.offline.attempted + probes.attempted;
    failed += traced.setup.failed + traced.wire.failed + traced.open.failed + traced.offline.failed;
    const std::string spans = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                              std::to_string(opt.seed) + ".jsonl";
    tracer.write_jsonl(spans);
    std::cout << "spans " << tracer.collect().size() << " written to " << spans << "\n";
    for (const auto& [k, val] : out) {
      std::cout << "metric " << k << " " << num(val) << " " << unit_of(k) << "\n";
    }
  }

  for (const std::string& e : verdict.errors) std::cout << "error " << e << "\n";
  std::cout << "{\"correct\": " << (verdict.correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, val] : out) {
    std::cout << (first ? "" : ", ") << json_str(k) << ": {\"value\": " << num(val)
              << ", \"unit\": " << json_str(unit_of(k)) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::run(servebench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 2;
  }
}
