#include "nn/network.h"

#include <algorithm>

#include "common/check.h"
#include "common/snapshot.h"
#include "common/timer.h"

namespace ccperf::nn {

Network::Network(std::string name, Shape input_shape)
    : name_(std::move(name)), input_shape_(std::move(input_shape)) {
  CCPERF_CHECK(input_shape_.Rank() == 3, "network input shape must be CHW, got ",
               input_shape_.ToString());
}

std::int64_t Network::IndexOf(const std::string& name) const {
  if (name == "input") return -1;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].layer->Name() == name) return static_cast<std::int64_t>(i);
  }
  CCPERF_CHECK(false, "unknown layer '", name, "' in network ", name_);
}

Layer& Network::Add(std::unique_ptr<Layer> layer,
                    std::vector<std::string> inputs) {
  CCPERF_CHECK(layer != nullptr, "null layer");
  CCPERF_CHECK(FindLayer(layer->Name()) == nullptr, "duplicate layer name '",
               layer->Name(), "'");
  Node node;
  if (inputs.empty()) {
    node.inputs.push_back(nodes_.empty()
                              ? -1
                              : static_cast<std::int64_t>(nodes_.size()) - 1);
  } else {
    node.inputs.reserve(inputs.size());
    for (const auto& in : inputs) node.inputs.push_back(IndexOf(in));
  }
  node.layer = std::move(layer);
  nodes_.push_back(std::move(node));
  return *nodes_.back().layer;
}

Layer& Network::LayerAt(std::size_t i) {
  CCPERF_CHECK(i < nodes_.size(), "layer index out of range");
  return *nodes_[i].layer;
}

const Layer& Network::LayerAt(std::size_t i) const {
  CCPERF_CHECK(i < nodes_.size(), "layer index out of range");
  return *nodes_[i].layer;
}

const std::vector<std::int64_t>& Network::NodeInputs(std::size_t i) const {
  CCPERF_CHECK(i < nodes_.size(), "node index out of range");
  return nodes_[i].inputs;
}

Layer* Network::FindLayer(const std::string& name) {
  for (auto& node : nodes_) {
    if (node.layer->Name() == name) return node.layer.get();
  }
  return nullptr;
}

const Layer* Network::FindLayer(const std::string& name) const {
  for (const auto& node : nodes_) {
    if (node.layer->Name() == name) return node.layer.get();
  }
  return nullptr;
}

Shape Network::OutputShape(std::int64_t batch) const {
  CCPERF_CHECK(!nodes_.empty(), "empty network");
  std::vector<Shape> shapes(nodes_.size());
  const Shape in_shape{batch, input_shape_.Dim(0), input_shape_.Dim(1),
                       input_shape_.Dim(2)};
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::vector<Shape> ins;
    ins.reserve(nodes_[i].inputs.size());
    for (auto idx : nodes_[i].inputs) {
      ins.push_back(idx < 0 ? in_shape : shapes[static_cast<std::size_t>(idx)]);
    }
    shapes[i] = nodes_[i].layer->OutputShape(ins);
  }
  return shapes.back();
}

Tensor Network::Forward(const Tensor& input,
                        std::vector<LayerTiming>* timings) const {
  CCPERF_CHECK(!nodes_.empty(), "empty network");
  const Shape& in = input.GetShape();
  CCPERF_CHECK(in.Rank() == 4 && in.Dim(1) == input_shape_.Dim(0) &&
                   in.Dim(2) == input_shape_.Dim(1) &&
                   in.Dim(3) == input_shape_.Dim(2),
               "input shape ", in.ToString(), " incompatible with network ",
               name_, " expecting CHW ", input_shape_.ToString());

  if (timings) {
    timings->clear();
    timings->reserve(nodes_.size());
  }

  // Remaining-consumer counts so intermediates can be released eagerly.
  std::vector<int> remaining(nodes_.size(), 0);
  for (const auto& node : nodes_) {
    for (auto idx : node.inputs) {
      if (idx >= 0) ++remaining[static_cast<std::size_t>(idx)];
    }
  }
  // The final node's output survives the loop.
  remaining.back() += 1;

  std::vector<std::optional<Tensor>> outputs(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::vector<const Tensor*> ins;
    ins.reserve(nodes_[i].inputs.size());
    for (auto idx : nodes_[i].inputs) {
      if (idx < 0) {
        ins.push_back(&input);
      } else {
        const auto& slot = outputs[static_cast<std::size_t>(idx)];
        CCPERF_CHECK(slot.has_value(), "activation released too early");
        ins.push_back(&*slot);
      }
    }
    // The last reader of a single intermediate (never the caller's input)
    // is handed its storage, so ReLU and dropout need not copy it.
    const std::vector<std::int64_t>& from = nodes_[i].inputs;
    const bool last_read = from.size() == 1 && from[0] >= 0 &&
                           remaining[static_cast<std::size_t>(from[0])] == 1;
    Timer timer;
    if (last_read) {
      outputs[i] = nodes_[i].layer->ForwardInPlace(
          std::move(*outputs[static_cast<std::size_t>(from[0])]));
    } else {
      outputs[i] = nodes_[i].layer->Forward(ins);
    }
    if (timings) {
      timings->push_back({nodes_[i].layer->Name(), nodes_[i].layer->Kind(),
                          timer.ElapsedSeconds()});
    }
    for (auto idx : nodes_[i].inputs) {
      if (idx >= 0 && --remaining[static_cast<std::size_t>(idx)] == 0) {
        outputs[static_cast<std::size_t>(idx)].reset();
      }
    }
  }
  return std::move(*outputs.back());
}

std::int64_t Network::ParameterCount() const {
  std::int64_t count = 0;
  for (const auto& node : nodes_) {
    if (node.layer->HasWeights()) {
      count += node.layer->Weights().NumElements();
      // Bias: every weighted layer here carries one bias per output unit.
      count += node.layer->Weights().GetShape().Dim(0);
    }
  }
  return count;
}

Network Network::Clone() const {
  Network copy(name_, input_shape_);
  for (const auto& node : nodes_) {
    std::vector<std::string> inputs;
    inputs.reserve(node.inputs.size());
    for (auto idx : node.inputs) {
      inputs.push_back(idx < 0 ? "input"
                               : nodes_[static_cast<std::size_t>(idx)]
                                     .layer->Name());
    }
    copy.Add(node.layer->Clone(), std::move(inputs));
  }
  // The clone holds byte-identical weights, so the integrity baseline
  // transfers verbatim.
  copy.weight_crcs_ = weight_crcs_;
  copy.crcs_captured_ = crcs_captured_;
  return copy;
}

namespace {

LayerCrc ComputeLayerCrc(const Layer& layer) {
  LayerCrc crc;
  crc.name = layer.Name();
  const std::span<const float> w = layer.Weights().Data();
  const std::span<const float> b = layer.Bias().Data();
  crc.weights_crc = Crc32(w.data(), w.size_bytes());
  crc.bias_crc = Crc32(b.data(), b.size_bytes());
  return crc;
}

}  // namespace

std::size_t Network::CaptureWeightCrcs() {
  weight_crcs_.clear();
  for (const auto& node : nodes_) {
    if (node.layer->HasWeights()) {
      weight_crcs_.push_back(ComputeLayerCrc(*node.layer));
    }
  }
  crcs_captured_ = true;
  return weight_crcs_.size();
}

IntegrityReport Network::VerifyIntegrity() const {
  CCPERF_CHECK(crcs_captured_,
               "VerifyIntegrity before CaptureWeightCrcs on network ", name_);
  IntegrityReport report;
  std::size_t next = 0;
  for (const auto& node : nodes_) {
    if (!node.layer->HasWeights()) continue;
    if (next >= weight_crcs_.size()) {
      // A weighted layer appeared after capture: structural divergence.
      report.ok = false;
      report.corrupted_layers.push_back(node.layer->Name());
      continue;
    }
    const LayerCrc& baseline = weight_crcs_[next++];
    const LayerCrc current = ComputeLayerCrc(*node.layer);
    ++report.layers_checked;
    if (current.name != baseline.name ||
        current.weights_crc != baseline.weights_crc ||
        current.bias_crc != baseline.bias_crc) {
      report.ok = false;
      report.corrupted_layers.push_back(node.layer->Name());
    }
  }
  if (next != weight_crcs_.size()) report.ok = false;
  return report;
}

void Network::SetInt8Execution(bool enabled) {
  for (auto& node : nodes_) node.layer->SetInt8Execution(enabled);
}

bool Network::Int8Execution() const {
  for (const auto& node : nodes_) {
    if (node.layer->Int8Execution()) return true;
  }
  return false;
}

std::vector<std::string> Network::WeightedLayerNames() const {
  std::vector<std::string> names;
  for (const auto& node : nodes_) {
    if (node.layer->HasWeights()) names.push_back(node.layer->Name());
  }
  return names;
}

std::vector<std::int64_t> ArgMax(const Tensor& logits) {
  const Shape& s = logits.GetShape();
  CCPERF_CHECK(s.Rank() == 4 && s.Dim(2) == 1 && s.Dim(3) == 1,
               "ArgMax expects [N,C,1,1]");
  const std::int64_t batch = s.Dim(0);
  const std::int64_t classes = s.Dim(1);
  const float* data = logits.Data().data();
  std::vector<std::int64_t> result(static_cast<std::size_t>(batch));
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* row = data + b * classes;
    result[static_cast<std::size_t>(b)] =
        std::max_element(row, row + classes) - row;
  }
  return result;
}

std::vector<std::vector<std::int64_t>> TopK(const Tensor& logits,
                                            std::size_t k) {
  const Shape& s = logits.GetShape();
  CCPERF_CHECK(s.Rank() == 4 && s.Dim(2) == 1 && s.Dim(3) == 1,
               "TopK expects [N,C,1,1]");
  const std::int64_t batch = s.Dim(0);
  const std::int64_t classes = s.Dim(1);
  CCPERF_CHECK(k >= 1 && static_cast<std::int64_t>(k) <= classes,
               "k out of range");
  const float* data = logits.Data().data();
  std::vector<std::vector<std::int64_t>> result(
      static_cast<std::size_t>(batch));
  std::vector<std::int64_t> order(static_cast<std::size_t>(classes));
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* row = data + b * classes;
    for (std::int64_t c = 0; c < classes; ++c) {
      order[static_cast<std::size_t>(c)] = c;
    }
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::int64_t>(k), order.end(),
                      [row](std::int64_t x, std::int64_t y) {
                        return row[x] > row[y];
                      });
    result[static_cast<std::size_t>(b)].assign(order.begin(),
                                               order.begin() + static_cast<std::int64_t>(k));
  }
  return result;
}

}  // namespace ccperf::nn
