#include "workload.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "exp/ptq.h"
#include "hw/mac_config.h"
#include "models/resnetv.h"
#include "models/transformer.h"
#include "models/zoo.h"
#include "util/rng.h"

namespace servebench {

using vsq::QuantMode;
using vsq::Rng;
using vsq::Shape;
using vsq::Tensor;

WorkloadSpec workload_spec(const std::string& name) {
  if (name == "mlp_wire") return {name, "tiny", 10000.0, 0.3, 0.5};
  if (name == "bert_mixed") return {name, "tiny_bert", 800.0, 0.3, 0.5};
  if (name == "resnet_conv") return {name, "resnet", 120.0, 0.15, 0.7};
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<Row> make_inputs(const std::string& model, std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Row> out;
  out.reserve(count);
  if (model == "tiny") {
    for (std::size_t i = 0; i < count; ++i) {
      Row r(static_cast<std::size_t>(vsq::TinyMlp::kIn));
      for (float& v : r) v = static_cast<float>(rng.normal());
      out.push_back(std::move(r));
    }
  } else if (model == "tiny_bert") {
    const vsq::TransformerConfig cfg = vsq::tiny_bert_config();
    // Exact quotas per default bucket (8/16/32), so every seed gives the
    // same length make-up and only the draws within a bucket vary.
    const std::size_t n16 = std::max<std::size_t>(1, count / 5);
    const std::size_t n32 = std::max<std::size_t>(1, count / 10);
    const std::size_t n8 = count - n16 - n32;
    std::vector<std::int64_t> lens;
    const auto draw = [&](std::size_t n, std::int64_t lo, std::int64_t hi) {
      for (std::size_t i = 0; i < n; ++i) {
        lens.push_back(lo + static_cast<std::int64_t>(
                                rng.uniform_u64(static_cast<std::uint64_t>(hi - lo + 1))));
      }
    };
    draw(n8, 1, 8);
    draw(n16, 9, 16);
    draw(n32, 17, cfg.max_len);
    for (std::size_t i : rng.permutation(lens.size())) {
      Row r(static_cast<std::size_t>(lens[i]));
      for (float& v : r) {
        v = static_cast<float>(rng.uniform_u64(static_cast<std::uint64_t>(cfg.vocab)));
      }
      out.push_back(std::move(r));
    }
  } else if (model == "resnet") {
    const vsq::ResNetVConfig cfg;
    const auto n = static_cast<std::size_t>(cfg.in_h * cfg.in_w * cfg.in_c);
    for (std::size_t i = 0; i < count; ++i) {
      Row r(n);
      for (float& v : r) v = static_cast<float>(rng.uniform(-2.0, 2.0));
      out.push_back(std::move(r));
    }
  } else {
    throw std::invalid_argument("no input generator for model " + model);
  }
  return out;
}

std::int64_t true_rows(const std::string& model, const Row& input) {
  return model == "tiny_bert" ? static_cast<std::int64_t>(input.size()) : 1;
}

double max_abs_diff(const Row& a, const Row& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    if (!(d <= m)) m = d;  // NaN propagates as a failure
  }
  return m;
}

namespace {

Row to_row(const Tensor& t) { return t.to_vector(); }

// Each recipe below mirrors builtin_serving_package (exp/ptq.cpp) line for
// line; the harness proves the export byte-identical before it trusts the
// fake-quant forward.

class TinyFq : public FakeQuantModel {
 public:
  TinyFq() : rng_(7), model_(rng_) {
    Tensor calib(Shape{32, vsq::TinyMlp::kIn});
    for (auto& v : calib.span()) v = static_cast<float>(rng_.normal());
    const vsq::MacConfig mac = vsq::MacConfig::parse("4/8/6/10");
    pkg_ = vsq::calibrate_and_export(model_.gemms(), mac.weight_spec(), mac.act_spec(),
                                     [&] { model_.forward(calib, false); });
    vsq::set_mode_all(model_.gemms(), QuantMode::kQuantEval);
  }
  Row forward(const Row& input) override {
    const Tensor x = Tensor::from_vector(Shape{1, static_cast<std::int64_t>(input.size())}, input);
    return to_row(model_.forward(x, false));
  }

 private:
  Rng rng_;
  vsq::TinyMlp model_;
};

class BertFq : public FakeQuantModel {
 public:
  BertFq() : model_(vsq::tiny_bert_config()) {
    const vsq::TransformerConfig config = vsq::tiny_bert_config();
    Rng rng(7);
    Tensor calib(Shape{32, config.max_len});
    for (auto& v : calib.span()) {
      auto id = static_cast<std::int64_t>(rng.uniform(0.0, static_cast<double>(config.vocab)));
      if (id >= config.vocab) id = config.vocab - 1;
      v = static_cast<float>(id);
    }
    const vsq::MacConfig mac = vsq::MacConfig::parse("4/8/6/10");
    pkg_ = vsq::calibrate_and_export(model_.gemms(), mac.weight_spec(), mac.act_spec(),
                                     [&] { model_.forward(calib, false); });
    vsq::set_mode_all(model_.gemms(), QuantMode::kQuantEval);
  }
  Row forward(const Row& input) override {
    const Tensor x = Tensor::from_vector(Shape{1, static_cast<std::int64_t>(input.size())}, input);
    return to_row(model_.forward(x, false));
  }

 private:
  vsq::TransformerEncoder model_;
};

vsq::ResNetVConfig resnet_config() {
  vsq::ResNetVConfig config;
  config.blocks_per_stage = 1;
  config.seed = 11;
  return config;
}

class ResnetFq : public FakeQuantModel {
 public:
  ResnetFq() : config_(resnet_config()), model_(config_) {
    model_.fold_batchnorm();
    Rng rng(11);
    Tensor calib(Shape{8, config_.in_h, config_.in_w, config_.in_c});
    for (auto& v : calib.span()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
    vsq::MacConfig mac = vsq::MacConfig::parse("4/8/6/10");
    mac.act_unsigned = true;
    pkg_ = vsq::calibrate_and_export(model_.gemms(), mac.weight_spec(), mac.act_spec(),
                                     [&] { model_.forward(calib, false); });
    vsq::set_mode_all(model_.gemms(), QuantMode::kQuantEval);
  }
  Row forward(const Row& input) override {
    const Tensor x =
        Tensor::from_vector(Shape{1, config_.in_h, config_.in_w, config_.in_c}, input);
    return to_row(model_.forward(x, false));
  }

 private:
  vsq::ResNetVConfig config_;
  vsq::ResNetV model_;
};

}  // namespace

std::unique_ptr<FakeQuantModel> make_fake_quant_model(const std::string& model) {
  if (model == "tiny") return std::make_unique<TinyFq>();
  if (model == "tiny_bert") return std::make_unique<BertFq>();
  if (model == "resnet") return std::make_unique<ResnetFq>();
  throw std::invalid_argument("no fake-quant recipe for model " + model);
}

}  // namespace servebench
