// Workload definitions for the serving benchmark: which zoo model each
// workload serves, how its inputs are generated from the run's seed, the
// open-loop rate it is offered, and the fp32 fake-quant reference model
// the integer outputs are checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "quant/export.h"

namespace servebench {

using Row = std::vector<float>;

struct WorkloadSpec {
  std::string name;   // mlp_wire / bert_mixed / resnet_conv
  std::string model;  // builtin_serving_package name
  // Open-loop offered load (requests/s); see README for the capacity it
  // was set under.
  double open_rate_rps = 0.0;
  // Share of the measured seconds given to the wire closed loop and the
  // open loop; the offline phase gets the rest.
  double wire_share = 0.3, open_share = 0.5;
};

// Throws std::invalid_argument for an unknown name.
WorkloadSpec workload_spec(const std::string& name);

// `count` single-sample inputs for `model`, a pure function of the seed:
//   tiny       256 standard-normal floats
//   tiny_bert  unpadded token rows, lengths 70% in 1..8, 20% in 9..16,
//              10% in 17..32 (exact quotas, shuffled), ids uniform in [0,64)
//   resnet     16x16x3 images, uniform in [-2, 2)
std::vector<Row> make_inputs(const std::string& model, std::uint64_t seed, std::size_t count);

// Sequence inputs: number of tokens (the true length). Others: 1.
std::int64_t true_rows(const std::string& model, const Row& input);

// The calibrated fp32 model behind a builtin serving package, kept in
// QuantMode::kQuantEval: its forward simulates the quantization in fp32
// (fake quant) and never enters the integer datapath.
class FakeQuantModel {
 public:
  virtual ~FakeQuantModel() = default;
  // One sample in, the flattened output row out (for token rows: the
  // [L, 2] span logits of its L tokens).
  virtual Row forward(const Row& input) = 0;
  // The package this calibration exports; must equal
  // builtin_serving_package(model) (checked by the harness).
  const vsq::QuantizedModelPackage& package() const { return pkg_; }

 protected:
  vsq::QuantizedModelPackage pkg_;
};

// Rebuilds the builtin recipe for `model` (same seeds, calibration batch
// and MAC configuration as exp/ptq.cpp) and keeps the fp32 model.
std::unique_ptr<FakeQuantModel> make_fake_quant_model(const std::string& model);

// Max |a - b| over two equally long rows (infinity on a length mismatch).
double max_abs_diff(const Row& a, const Row& b);

}  // namespace servebench
