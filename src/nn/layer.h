// Layer: the node type of the inference DAG.
//
// Every layer consumes one or more rank-4 NCHW tensors and produces one.
// Layers carrying weights (convolution, fully-connected) expose them for the
// pruning toolkit and rebuild their sparse execution state when notified.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ccperf::nn {

enum class LayerKind {
  kInput,
  kConvolution,
  kReLU,
  kLRN,
  kMaxPool,
  kAvgPool,
  kFullyConnected,
  kSoftmax,
  kConcat,
  kDropout,
};

/// Human-readable name of a layer kind ("conv", "fc", ...).
const char* LayerKindName(LayerKind kind);

/// The image loop of an image-wise layer: runs fn(img) for img in
/// [0, batch). At batch >= 2 each image is one pool task, and the kernels it
/// calls run inline on its worker (as nested parallel loops do), making the
/// calls a one-image pass makes on the same inputs; so an image's output
/// bits depend on neither the batch nor the pool size, and the pool joins
/// once per layer. A one-image batch runs on the caller, whose kernels use
/// the pool themselves.
void ForEachImage(std::int64_t batch,
                  const std::function<void(std::int64_t)>& fn);

/// Static cost of executing a layer once for a given input shape.
struct LayerCost {
  double flops = 0.0;             // floating-point ops (2 per MAC)
  double weight_bytes = 0.0;      // bytes of (surviving) parameters read
  double activation_bytes = 0.0;  // bytes of activations read + written
};

/// Abstract DAG node. Subclasses are value-like and deep-Clone()able so a
/// network can be duplicated per pruning variant.
class Layer {
 public:
  Layer(std::string name, LayerKind kind);
  virtual ~Layer();

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  Layer& operator=(Layer&&) = delete;

  [[nodiscard]] const std::string& Name() const { return name_; }
  [[nodiscard]] LayerKind Kind() const { return kind_; }

  /// Output shape for the given input shapes (batch included). Throws
  /// CheckError on incompatible inputs.
  [[nodiscard]] virtual Shape OutputShape(
      const std::vector<Shape>& inputs) const = 0;

  /// Run the layer. `inputs` are non-null and match the arity expected by
  /// OutputShape.
  [[nodiscard]] virtual Tensor Forward(
      const std::vector<const Tensor*>& inputs) const = 0;

  /// Run the layer on its one input when the caller will not read that
  /// input again (Network::Forward calls it for the last reader of an
  /// intermediate). The layer may move from `input` and write its output
  /// into that storage; the default leaves `input` alone and returns
  /// Forward({&input}).
  [[nodiscard]] virtual Tensor ForwardInPlace(Tensor&& input) const;

  /// Per-execution cost model for one batch of the given input shapes.
  /// Weighted layers discount flops/weight bytes by parameter density.
  [[nodiscard]] virtual LayerCost Cost(const std::vector<Shape>& inputs) const;

  /// Deep copy (weights included).
  [[nodiscard]] virtual std::unique_ptr<Layer> Clone() const = 0;

  /// True if the layer owns prunable parameters.
  [[nodiscard]] virtual bool HasWeights() const { return false; }

  /// Mutable access to the weight tensor; throws if HasWeights() is false.
  /// Call NotifyWeightsChanged() after in-place edits.
  [[nodiscard]] virtual Tensor& MutableWeights();
  [[nodiscard]] virtual const Tensor& Weights() const;

  /// Mutable access to the bias vector; throws if HasWeights() is false.
  [[nodiscard]] virtual Tensor& MutableBias();
  [[nodiscard]] virtual const Tensor& Bias() const;

  /// Rebuild any cached execution state (e.g. CSR weights) after an edit.
  virtual void NotifyWeightsChanged() {}

  /// Fraction of nonzero weights in (0, 1]; 1.0 for weightless layers.
  [[nodiscard]] virtual double WeightDensity() const { return 1.0; }

  /// Opt this layer into (or out of) int8 quantized execution. Weighted
  /// layers re-dispatch their cached kernel format; the base class ignores
  /// the request (weightless layers have nothing to quantize).
  virtual void SetInt8Execution(bool) {}

  /// True if the layer is opted into int8 quantized execution (whether or
  /// not the dispatcher currently picks the int8 kernel over sparse).
  [[nodiscard]] virtual bool Int8Execution() const { return false; }

 protected:
  /// Subclasses are move-constructible (factories return them by value);
  /// use Clone() for copies.
  Layer(Layer&&) noexcept = default;

 private:
  std::string name_;
  LayerKind kind_;
};

}  // namespace ccperf::nn
