// Network: a topologically-ordered DAG of layers with per-layer timing.
//
// Layers are added in topological order (each input must already exist), so
// GoogLeNet's inception branches are expressed naturally. Forward() releases
// intermediate activations after their last consumer to bound memory, and
// hands a single-input last consumer its input's storage
// (Layer::ForwardInPlace), so ReLU and dropout run in place. Layers run one
// after another; at batch >= 2 the image-wise ones (conv, LRN, pool, ReLU,
// concat) split their images over the pool, one task per image (see
// ForEachImage in nn/layer.h), and the batched fc is one pooled multiply.
// Every image's output bits are independent of the pool size.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace ccperf::nn {

/// Wall-clock time attributed to one layer during a Forward() call.
struct LayerTiming {
  std::string name;
  LayerKind kind = LayerKind::kInput;
  double seconds = 0.0;
};

/// One weighted layer's reference checksums: CRC32 (common/snapshot) over
/// the raw float bytes of its weight tensor and bias vector.
struct LayerCrc {
  std::string name;
  std::uint32_t weights_crc = 0;
  std::uint32_t bias_crc = 0;
};

/// Outcome of an integrity scrub (Network::VerifyIntegrity).
struct IntegrityReport {
  /// True iff every weighted layer's CRCs match the captured baseline.
  bool ok = true;
  /// Weighted layers compared (2 CRCs each).
  std::size_t layers_checked = 0;
  /// Names of layers whose weights or bias diverged, topological order.
  std::vector<std::string> corrupted_layers;
};

/// Inference DAG. The virtual node "input" feeds layers with no explicit
/// predecessor list.
class Network {
 public:
  /// `input_shape` is CHW (batch is supplied per Forward call).
  Network(std::string name, Shape input_shape);

  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  [[nodiscard]] const std::string& Name() const { return name_; }
  [[nodiscard]] const Shape& InputShape() const { return input_shape_; }

  /// Add a layer consuming the named predecessors ("input" = network input).
  /// An empty list wires it to the most recently added layer (or the input).
  /// Returns a stable reference to the stored layer.
  Layer& Add(std::unique_ptr<Layer> layer,
             std::vector<std::string> inputs = {});

  [[nodiscard]] std::size_t LayerCount() const { return nodes_.size(); }
  [[nodiscard]] Layer& LayerAt(std::size_t i);
  [[nodiscard]] const Layer& LayerAt(std::size_t i) const;

  /// Indices into LayerAt() of the i-th node's inputs; -1 = network input.
  [[nodiscard]] const std::vector<std::int64_t>& NodeInputs(std::size_t i) const;

  /// Find a layer by name (nullptr if absent).
  [[nodiscard]] Layer* FindLayer(const std::string& name);
  [[nodiscard]] const Layer* FindLayer(const std::string& name) const;

  /// Output shape of the final layer for a given batch size.
  [[nodiscard]] Shape OutputShape(std::int64_t batch) const;

  /// Run inference on a [B, C, H, W] batch; returns the last layer's output.
  /// If `timings` is non-null it is filled with one entry per layer.
  [[nodiscard]] Tensor Forward(const Tensor& input,
                               std::vector<LayerTiming>* timings = nullptr) const;

  /// Total number of parameters (weights + biases) across weighted layers.
  [[nodiscard]] std::int64_t ParameterCount() const;

  /// Deep copy including weights and cached sparse state.
  [[nodiscard]] Network Clone() const;

  /// Opt every weighted layer into (or out of) int8 quantized execution.
  /// Layers re-dispatch immediately; Clone() preserves the setting.
  void SetInt8Execution(bool enabled);

  /// True if any layer currently opts into int8 execution.
  [[nodiscard]] bool Int8Execution() const;

  /// Names of all weighted (prunable) layers, in topological order.
  [[nodiscard]] std::vector<std::string> WeightedLayerNames() const;

  /// Capture per-layer weight/bias CRC32s as the integrity baseline for
  /// VerifyIntegrity. Returns the number of weighted layers registered.
  /// Re-capture after any legitimate weight mutation (pruning, weight
  /// loading) — the scrub cannot distinguish intent from corruption.
  std::size_t CaptureWeightCrcs();

  /// The captured baseline (empty until CaptureWeightCrcs runs).
  [[nodiscard]] const std::vector<LayerCrc>& WeightCrcs() const {
    return weight_crcs_;
  }

  /// Integrity scrub: recompute every weighted layer's CRCs and compare to
  /// the captured baseline. Requires a prior CaptureWeightCrcs (checked);
  /// also fails if the set of weighted layers itself changed.
  [[nodiscard]] IntegrityReport VerifyIntegrity() const;

 private:
  struct Node {
    std::unique_ptr<Layer> layer;
    std::vector<std::int64_t> inputs;  // -1 = network input
  };

  [[nodiscard]] std::int64_t IndexOf(const std::string& name) const;

  std::string name_;
  Shape input_shape_;  // CHW
  std::vector<Node> nodes_;
  std::vector<LayerCrc> weight_crcs_;  // integrity baseline; may be empty
  bool crcs_captured_ = false;
};

/// Index of the class with the highest score per batch element.
std::vector<std::int64_t> ArgMax(const Tensor& logits);

/// Indices of the top-k classes (descending score) per batch element.
std::vector<std::vector<std::int64_t>> TopK(const Tensor& logits, std::size_t k);

}  // namespace ccperf::nn
