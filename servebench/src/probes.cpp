// Per-layer probes of the traced run. Every probe opens a parent span and
// wraps each call it makes into a module's public function in a child
// span; the metrics are computed afterwards from the recorded spans only.

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <stdexcept>

#include "exp/ptq.h"
#include "models/zoo.h"
#include "harness.h"
#include "net/client.h"
#include "net/protocol.h"
#include "nn/activations.h"
#include "nn/layernorm.h"
#include "nn/softmax.h"
#include "quant/quantized_tensor.h"
#include "tensor/gemm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace servebench {
namespace {

using vsq::ForwardStep;
using vsq::IntLayerPrimitive;
using vsq::QuantizedLayerPackage;
using vsq::QuantizedModelPackage;
using vsq::QuantizedModelRunner;
using vsq::Shape;
using vsq::Tensor;
namespace net = vsq::net;
using Op = ForwardStep::Op;

// A metric computed from the spans under one parent: spans named in
// `names` are grouped by request id; each group's value is its summed
// duration over its number of calls (spans / names), and the metric is the
// median over groups times `scale` (ns -> the metric's unit).
struct Agg {
  std::string metric;
  std::uint64_t parent;
  std::vector<std::string> names;
  double scale;
};

constexpr double kUs = 1e-3, kMs = 1e-6;

std::int64_t weight_rows(const QuantizedLayerPackage& l) {
  return static_cast<std::int64_t>(l.weights.q.size()) / l.weights.cols();
}

// One layer call at its batch-1 serving shape.
struct LayerCall {
  const IntLayerPrimitive* prim;
  Tensor x;
  double macs;
};

// Batch-1 input shape of every quantized layer, from the program: token
// rows for sequence models, [1, cols] rows for MLP and head GEMMs, NHWC
// images propagated through the convolutions for CNNs.
std::vector<LayerCall> layer_calls(const QuantizedModelRunner& runner,
                                   const QuantizedModelPackage& pkg, std::int64_t seq_len,
                                   vsq::Rng& rng) {
  std::vector<LayerCall> calls;
  const auto add = [&](const std::string& name, Shape s) {
    const IntLayerPrimitive* prim = runner.primitive(name);
    if (!prim) throw std::runtime_error("no primitive for layer " + name);
    const QuantizedLayerPackage& l = prim->layer();
    Tensor x(s);
    const bool unsigned_act = !l.act_spec.fmt.is_signed;
    for (float& v : x.span()) {
      const auto z = static_cast<float>(rng.normal());
      v = unsigned_act ? std::fabs(z) : z;
    }
    double macs = 0;
    if (l.kind == vsq::PackagedLayerKind::kConv) {
      const std::int64_t oh = (s[1] + 2 * l.pad - l.kernel) / l.stride + 1;
      const std::int64_t ow = (s[2] + 2 * l.pad - l.kernel) / l.stride + 1;
      macs = static_cast<double>(oh * ow * weight_rows(l) * l.weights.cols());
    } else {
      macs = static_cast<double>(s[0] * weight_rows(l) * l.weights.cols());
    }
    calls.push_back({prim, std::move(x), macs});
  };
  const auto gemm_in = [&](const std::string& name) {
    const std::int64_t cols = runner.primitive(name)->layer().weights.cols();
    return Shape{runner.seq() ? seq_len : 1, cols};
  };
  struct Hwc {
    std::int64_t h, w, c;
  };
  Hwc cur{pkg.in_h, pkg.in_w, pkg.in_c}, saved = cur;
  const auto conv_out = [&](const std::string& name, const Hwc& in) {
    const QuantizedLayerPackage& l = runner.primitive(name)->layer();
    add(name, Shape{1, in.h, in.w, in.c});
    return Hwc{(in.h + 2 * l.pad - l.kernel) / l.stride + 1,
               (in.w + 2 * l.pad - l.kernel) / l.stride + 1, weight_rows(l)};
  };
  for (const ForwardStep& st : runner.program()) {
    switch (st.op) {
      case Op::kGemm:
        add(st.layer, gemm_in(st.layer));
        break;
      case Op::kAttention:
        for (const char* suffix : {".q", ".k", ".v", ".out"}) {
          add(st.layer + suffix, gemm_in(st.layer + suffix));
        }
        break;
      case Op::kConv:
        cur = conv_out(st.layer, cur);
        break;
      case Op::kConvSaved:
        saved = conv_out(st.layer, saved);
        break;
      case Op::kSave:
        saved = cur;
        break;
      default:
        break;
    }
  }
  return calls;
}

class Prober {
 public:
  Prober(const Options& opt, const Prepared& prep, Stack& stack, Tracer& tr,
         const cpu_set_t& all_cpus)
      : opt_(opt), prep_(prep), stack_(stack), tr_(tr), all_cpus_(all_cpus),
        rounds_(opt.quick ? 3 : 15),
        calls_(opt.quick ? 20 : 200),
        samples_(opt.quick ? 4 : 16),
        pick_(vsq::Rng(opt.seed).split(300)) {}

  ProbeResult run() {
    auto session = stack_.registry->session(prep_.spec.model);
    const QuantizedModelRunner& runner = session->runner();
    live_pkg_ = &session->package();
    sample_idx_.clear();
    for (std::size_t k = 0; k < samples_; ++k) {
      sample_idx_.push_back(pick_.uniform_u64(prep_.pool.size()));
    }
    load_and_build();
    network(*session);
    set_affinity(all_cpus_);
    {
      // Layer and forward probes run at the stack's default pool size
      // (nproc), whatever pool the serving phases were pinned to.
      vsq::ThreadPool pool(0);  // 0 = the default size, hardware_concurrency()
      vsq::ThreadPoolScope scope(pool);
      forward(runner);
      for (const char* m : {"tiny", "tiny_bert", "resnet"}) layers(m, runner);
      side_ops();
    }
    finish();
    return std::move(res_);
  }

 private:
  std::uint64_t probe(const char* name) {
    // Parent spans are recorded on close; the id is what children need.
    open_.push_back(std::make_unique<Span>(tr_, name));
    return open_.back()->id();
  }
  void close() { open_.pop_back(); }
  void agg(std::string metric, std::uint64_t parent, std::vector<std::string> names,
           double scale) {
    aggs_.push_back({std::move(metric), parent, std::move(names), scale});
  }
  void check(std::size_t idx, const Row& got, const char* what) {
    ++res_.attempted;
    if (!bitwise_equal(got, prep_.refs[idx])) {
      res_.errors.push_back(std::string(what) + ": output for input " + std::to_string(idx) +
                            " differs from the sequential reference");
    }
  }

  void load_and_build() {
    const int reps = opt_.quick ? 2 : 7;
    const std::uint64_t pl = probe("probe.package_load");
    for (int r = 0; r < reps; ++r) {
      Span s(tr_, "util.QuantizedModelPackage::load", pl, r);
      loaded_ = QuantizedModelPackage::load(prep_.archive);
    }
    close();
    agg("util.package_load_ms", pl, {"util.QuantizedModelPackage::load"}, kMs);
    const std::uint64_t rb = probe("probe.runner_build");
    for (int r = 0; r < reps; ++r) {
      Span s(tr_, "export.QuantizedModelRunner::QuantizedModelRunner", rb, r);
      const QuantizedModelRunner built(loaded_);
    }
    close();
    agg("export.runner_build_ms", rb, {"export.QuantizedModelRunner::QuantizedModelRunner"}, kMs);
  }

  void network(vsq::InferenceSession& session) {
    const std::string& model = prep_.spec.model;
    net::NetClient client(stack_.server->host(), stack_.server->port());
    const std::uint64_t rtt = probe("probe.net_rtt");
    for (std::size_t c = 0; c < calls_; ++c) {
      const std::size_t idx = pick_.uniform_u64(prep_.pool.size());
      net::ResponseFrame r;
      {
        Span s(tr_, "net.NetClient::infer", rtt, static_cast<std::int64_t>(c));
        r = client.infer(model, prep_.pool[idx]);
      }
      check(idx, r.status == net::Status::kOk ? r.row : Row{}, "net rtt probe");
    }
    close();
    agg("net.rtt_us", rtt, {"net.NetClient::infer"}, kUs);

    const std::uint64_t codec = probe("probe.net_codec");
    for (std::size_t c = 0; c < calls_; ++c) {
      const std::size_t idx = pick_.uniform_u64(prep_.pool.size());
      const auto req_id = static_cast<std::int64_t>(c);
      const net::RequestFrame req{model, vsq::Priority::kNormal, 0, prep_.pool[idx]};
      net::ResponseFrame resp;
      resp.row = prep_.refs[idx];
      std::vector<std::uint8_t> rq, rs;
      net::RequestFrame req_back;
      net::ResponseFrame resp_back;
      std::string err;
      bool ok = true;
      {
        Span s(tr_, "net.encode_request", codec, req_id);
        rq = net::encode_request(req);
      }
      {
        Span s(tr_, "net.decode_request", codec, req_id);
        ok &= net::decode_request(std::span(rq).subspan(net::kHeaderBytes), &req_back, &err);
      }
      {
        Span s(tr_, "net.encode_response", codec, req_id);
        rs = net::encode_response(resp);
      }
      {
        Span s(tr_, "net.decode_response", codec, req_id);
        ok &= net::decode_response(std::span(rs).subspan(net::kHeaderBytes), &resp_back, &err);
      }
      ++res_.attempted;
      if (!ok || !bitwise_equal(req_back.row, prep_.pool[idx]) ||
          !bitwise_equal(resp_back.row, prep_.refs[idx])) {
        res_.errors.push_back("codec probe: round trip changed the payload " + err);
      }
    }
    close();
    agg("net.codec_us", codec,
        {"net.encode_request", "net.decode_request", "net.encode_response", "net.decode_response"},
        kUs);

    const std::uint64_t inf = probe("probe.serve_infer");
    for (std::size_t c = 0; c < calls_; ++c) {
      const std::size_t idx = pick_.uniform_u64(prep_.pool.size());
      Tensor y;
      {
        Span s(tr_, "serve.InferenceSession::infer", inf, static_cast<std::int64_t>(c));
        y = session.infer(prep_.pool_t[idx]);
      }
      check(idx, y.to_vector(), "serve infer probe");
    }
    close();
    agg("serve.infer_us", inf, {"serve.InferenceSession::infer"}, kUs);
  }

  // Batch-1 forward over the sampled inputs, `rounds_` times; one group
  // per round so the per-call mean covers the same length mix as the
  // per-layer probes.
  std::uint64_t forward_rounds(const QuantizedModelRunner& runner, const char* probe_name) {
    const std::uint64_t p = probe(probe_name);
    for (int r = 0; r < rounds_; ++r) {
      for (std::size_t idx : sample_idx_) {
        Tensor y;
        {
          Span s(tr_, "export.QuantizedModelRunner::forward", p, r);
          y = runner.forward(prep_.pool_t[idx]);
        }
        check(idx, y.to_vector(), probe_name);
      }
    }
    close();
    return p;
  }

  void forward(const QuantizedModelRunner& runner) {
    agg("export.forward_b1_us", forward_rounds(runner, "probe.forward_b1"),
        {"export.QuantizedModelRunner::forward"}, kUs);
    {
      vsq::ThreadPool one(1);
      vsq::ThreadPoolScope scope(one);
      agg("export.forward_b1_serial_us", forward_rounds(runner, "probe.forward_b1_serial"),
          {"export.QuantizedModelRunner::forward"}, kUs);
    }
    const std::uint64_t b16 = probe("probe.forward_b16");
    const std::size_t nb = std::min<std::size_t>(2, prep_.batches.size());
    for (int r = 0; r < rounds_; ++r) {
      for (std::size_t b = 0; b < nb; ++b) {
        Span s(tr_, "export.QuantizedModelRunner::forward", b16, r);
        (void)runner.forward(prep_.batches[b]);
      }
    }
    close();
    agg("export.forward_b16_us", b16, {"export.QuantizedModelRunner::forward"}, kUs);
  }

  // quant.<layer>.execute_us / act_quant_us for every quantized layer of
  // `model`, at the batch-1 shapes of that model's workload inputs.
  void layers(const std::string& model, const QuantizedModelRunner& live) {
    const bool own = model == prep_.spec.model;
    std::unique_ptr<QuantizedModelPackage> pkg;
    std::unique_ptr<QuantizedModelRunner> built;
    const QuantizedModelRunner* runner = &live;
    const QuantizedModelPackage* package = live_pkg_;
    std::vector<Row> other_inputs;
    if (!own) {
      pkg = std::make_unique<QuantizedModelPackage>(vsq::builtin_serving_package(model));
      built = std::make_unique<QuantizedModelRunner>(*pkg);
      runner = built.get();
      package = pkg.get();
      other_inputs = make_inputs(model, opt_.seed, model == "resnet" ? 128 : 512);
    }
    const std::vector<Row>& inputs = own ? prep_.pool : other_inputs;
    vsq::Rng rng = vsq::Rng(opt_.seed).split(400);
    std::vector<std::vector<LayerCall>> per_sample;
    for (std::size_t k = 0; k < samples_; ++k) {
      const Row& in = inputs[own ? sample_idx_[k] : rng.uniform_u64(inputs.size())];
      per_sample.push_back(layer_calls(*runner, *package, true_rows(model, in), rng));
    }
    const std::size_t n_layers = per_sample[0].size();
    std::vector<std::uint64_t> exec_parent(n_layers), quant_parent(n_layers, 0);
    for (std::size_t li = 0; li < n_layers; ++li) {
      const IntLayerPrimitive* prim = per_sample[0][li].prim;
      const QuantizedLayerPackage& l = prim->layer();
      exec_parent[li] = probe("probe.layer_execute");
      for (int r = 0; r < rounds_; ++r) {
        for (const auto& calls : per_sample) {
          Span s(tr_, "quant.IntLayerPrimitive::execute", exec_parent[li], r);
          (void)prim->execute(calls[li].x);
        }
      }
      close();
      agg("quant." + l.name + ".execute_us", exec_parent[li], {"quant.IntLayerPrimitive::execute"},
          kUs);
      if (l.kind == vsq::PackagedLayerKind::kGemm) {
        quant_parent[li] = probe("probe.layer_act_quant");
        for (int r = 0; r < rounds_; ++r) {
          for (const auto& calls : per_sample) {
            Span s(tr_, "quant.quantize_activations_int", quant_parent[li], r);
            (void)vsq::quantize_activations_int(calls[li].x, l.act_spec, l.act_amax, l.act_gamma);
          }
        }
        close();
        agg("quant." + l.name + ".act_quant_us", quant_parent[li],
            {"quant.quantize_activations_int"}, kUs);
      }
    }
    if (own) {
      own_layers_.clear();
      for (std::size_t li = 0; li < n_layers; ++li) {
        double macs = 0;
        for (const auto& calls : per_sample) macs += calls[li].macs;
        own_layers_.push_back({per_sample[0][li].prim->layer().name,
                               macs / static_cast<double>(per_sample.size())});
        weight_bytes_ += static_cast<double>(per_sample[0][li].prim->resident_bytes());
      }
    }
  }

  // fp32 side ops of tiny_bert at its per-head shapes, over the length mix
  // of the bert_mixed inputs.
  void side_ops() {
    const vsq::TransformerConfig cfg = vsq::tiny_bert_config();
    const std::int64_t d = cfg.dim, dh = cfg.dim / cfg.heads, ffn = cfg.dim * cfg.ffn_mult;
    const std::vector<Row> rows = make_inputs("tiny_bert", opt_.seed, 512);
    vsq::Rng rng = vsq::Rng(opt_.seed).split(500);
    const auto fill = [&](Shape s) {
      Tensor t(s);
      for (float& v : t.span()) v = static_cast<float>(rng.normal());
      return t;
    };
    struct Shapes {
      std::int64_t l;
      Tensor scores, hidden, ffn_act, q, k, v, ctx;
    };
    std::vector<Shapes> mix;
    for (std::size_t k = 0; k < samples_; ++k) {
      const auto l = static_cast<std::int64_t>(rows[rng.uniform_u64(rows.size())].size());
      mix.push_back({l, fill(Shape{l, l}), fill(Shape{l, d}), fill(Shape{l, ffn}),
                     fill(Shape{l, d}), fill(Shape{l, d}), fill(Shape{l, d}), Tensor(Shape{l, d})});
    }
    vsq::GELU gelu;
    vsq::LayerNorm ln("probe.ln", d);

    const std::uint64_t sm = probe("probe.softmax");
    for (int r = 0; r < rounds_; ++r) {
      for (const Shapes& s : mix) {
        Span sp(tr_, "nn.softmax_last_axis", sm, r);
        (void)vsq::softmax_last_axis(s.scores);
      }
    }
    close();
    agg("nn.softmax_us", sm, {"nn.softmax_last_axis"}, kUs);

    const std::uint64_t ge = probe("probe.gelu");
    for (int r = 0; r < rounds_; ++r) {
      for (const Shapes& s : mix) {
        Span sp(tr_, "nn.GELU::forward", ge, r);
        (void)gelu.forward(s.ffn_act, false);
      }
    }
    close();
    agg("nn.gelu_us", ge, {"nn.GELU::forward"}, kUs);

    const std::uint64_t lnp = probe("probe.layernorm");
    for (int r = 0; r < rounds_; ++r) {
      for (const Shapes& s : mix) {
        Span sp(tr_, "nn.LayerNorm::forward", lnp, r);
        (void)ln.forward(s.hidden, false);
      }
    }
    close();
    agg("nn.layernorm_us", lnp, {"nn.LayerNorm::forward"}, kUs);

    const std::uint64_t ag = probe("probe.attn_gemm");
    for (int r = 0; r < rounds_; ++r) {
      for (Shapes& s : mix) {
        Tensor scores(Shape{s.l, s.l});
        {
          Span sp(tr_, "tensor.gemm_nt_strided", ag, r);
          vsq::gemm_nt_strided(s.q.data(), d, s.k.data(), d, scores.data(), s.l, s.l, s.l, dh);
        }
        {
          Span sp(tr_, "tensor.gemm_nn_strided", ag, r);
          vsq::gemm_nn_strided(s.scores.data(), s.l, s.v.data(), d, s.ctx.data(), d, s.l, dh,
                               s.l);
        }
      }
    }
    close();
    agg("tensor.attn_gemm_us", ag, {"tensor.gemm_nt_strided", "tensor.gemm_nn_strided"}, kUs);
  }

  void finish() {
    const std::vector<SpanRecord> spans = tr_.collect();
    std::map<std::uint64_t, std::vector<const SpanRecord*>> by_parent;
    for (const SpanRecord& s : spans) by_parent[s.parent].push_back(&s);
    Metrics& m = res_.metrics;
    for (const Agg& a : aggs_) {
      std::map<std::int64_t, std::pair<double, std::size_t>> groups;
      for (const SpanRecord* s : by_parent[a.parent]) {
        if (std::find(a.names.begin(), a.names.end(), s->name) == a.names.end()) continue;
        auto& g = groups[s->request];
        g.first += static_cast<double>(s->t1_ns - s->t0_ns);
        ++g.second;
      }
      std::vector<double> vals;
      for (const auto& [req, g] : groups) {
        const double calls = static_cast<double>(g.second) / static_cast<double>(a.names.size());
        vals.push_back(g.first / calls * a.scale);
      }
      m[a.metric] = median(vals);
    }
    double layer_us = 0, macs = 0;
    for (const auto& [name, layer_macs] : own_layers_) {
      layer_us += m.at("quant." + name + ".execute_us");
      macs += layer_macs;
    }
    m["export.side_ops_b1_us"] = m.at("export.forward_b1_us") - layer_us;
    m["kernels.gmac_per_s"] = macs / layer_us / 1e3;  // MAC/us -> GMAC/s
    m["kernels.weight_bytes"] = weight_bytes_;
  }

  const Options& opt_;
  const Prepared& prep_;
  Stack& stack_;
  Tracer& tr_;
  const cpu_set_t all_cpus_;
  const int rounds_;
  const std::size_t calls_, samples_;
  vsq::Rng pick_;
  std::vector<std::size_t> sample_idx_;
  QuantizedModelPackage loaded_;
  const QuantizedModelPackage* live_pkg_ = nullptr;
  std::vector<std::unique_ptr<Span>> open_;
  std::vector<Agg> aggs_;
  std::vector<std::pair<std::string, double>> own_layers_;
  double weight_bytes_ = 0;
  ProbeResult res_;
};

}  // namespace

ProbeResult run_probes(const Options& opt, const Prepared& prep, Stack& stack, Tracer& tracer,
                       const cpu_set_t& all_cpus) {
  return Prober(opt, prep, stack, tracer, all_cpus).run();
}

}  // namespace servebench
