// Cached-kernel-format invalidation: conv/fc layers cache a packed build of
// their weights (packed float panels are implicit, CSR/BSR and int8 packs
// are explicit members), and every weight mutation must flow through
// NotifyWeightsChanged so the cache is rebuilt AND the format re-dispatched.
// The latent bug class this pins down: a layer keeps serving a stale pack
// (old weights, or the wrong engine) after re-pruning or re-quantizing.
// Every transition below compares the mutated layer's forward against a
// freshly rebuilt Clone() — bitwise, because both sides run the same
// deterministic kernels on the same weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "nn/conv_layer.h"
#include "nn/fc_layer.h"
#include "nn/model_zoo.h"
#include "nn/network.h"
#include "pruning/filter_pruner.h"
#include "pruning/magnitude_pruner.h"
#include "tensor/sparse_dispatch.h"

namespace ccperf::nn {
namespace {

std::vector<float> ForwardVec(const Layer& layer, const Tensor& input) {
  const Tensor out = layer.Forward({&input});
  const std::span<const float> data = out.Data();
  return {data.begin(), data.end()};
}

/// Forward through a freshly rebuilt copy — the "no stale cache possible"
/// reference (Clone re-runs NotifyWeightsChanged from the current weights).
std::vector<float> FreshForward(const Layer& layer, const Tensor& input) {
  return ForwardVec(*layer.Clone(), input);
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what;
}

TEST(KernelDispatch, ChooseKernelFormatPolicy) {
  // Dense weights: float unless quantization is on.
  static_assert(ChooseKernelFormat(1.0, 1.0, false) == KernelFormat::kFloat);
  static_assert(ChooseKernelFormat(1.0, 1.0, true) == KernelFormat::kInt8);
  // Deep element pruning: CSR wins regardless of the int8 knob (analytic
  // sparse factor = density 0.1 beats kInt8TimeFactor = 0.45).
  static_assert(ChooseKernelFormat(0.1, 0.1, false) == KernelFormat::kCsr);
  static_assert(ChooseKernelFormat(0.1, 0.1, true) == KernelFormat::kCsr);
  // Moderate block-aligned pruning: BSR float, but int8 overrides it while
  // density >= kInt8TimeFactor (quantized dense is cheaper than the sparse
  // run at that density).
  static_assert(ChooseKernelFormat(0.5, 1.0, false) == KernelFormat::kBsr);
  static_assert(ChooseKernelFormat(0.5, 1.0, true) == KernelFormat::kInt8);
  static_assert(ChooseKernelFormat(0.25, 1.0, true) == KernelFormat::kBsr);
  // Format -> float-engine mapping (int8 runs its own dense-shaped kernel).
  static_assert(ToSparseKernel(KernelFormat::kInt8) == SparseKernel::kDense);
  static_assert(ToSparseKernel(KernelFormat::kCsr) == SparseKernel::kCsr);
  // Analytic time factor mirrors the dispatch.
  static_assert(AnalyticQuantTimeFactor(1.0, false) == 1.0);
  static_assert(AnalyticQuantTimeFactor(1.0, true) == kInt8TimeFactor);
  static_assert(AnalyticQuantTimeFactor(0.1, true) == 0.1);
  static_assert(AnalyticQuantTimeFactor(0.5, true) == kInt8TimeFactor);
}

TEST(KernelDispatch, ConvFormatFollowsWeightChanges) {
  ConvParams params;
  params.out_channels = 32;
  params.kernel = 3;
  params.stride = 1;
  params.pad = 1;
  ConvLayer layer("conv", params, 16);
  Rng rng(91);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
  layer.MutableBias().FillGaussian(rng, 0.1f, 0.05f);
  layer.NotifyWeightsChanged();
  Tensor input(Shape{1, 16, 9, 9});
  input.FillGaussian(rng, 0.0f, 1.0f);

  EXPECT_EQ(layer.Format(), KernelFormat::kFloat);
  const std::vector<float> f_float = ForwardVec(layer, input);

  // float -> int8: dense weights, quantization enabled.
  layer.SetInt8Execution(true);
  EXPECT_EQ(layer.Format(), KernelFormat::kInt8);
  EXPECT_EQ(layer.Kernel(), SparseKernel::kDense);
  EXPECT_FALSE(layer.UsesSparsePath());
  const std::vector<float> f_int8 = ForwardVec(layer, input);
  ExpectBitwiseEqual(f_int8, FreshForward(layer, input), "int8 vs rebuilt");
  EXPECT_NE(0, std::memcmp(f_int8.data(), f_float.data(),
                           f_int8.size() * sizeof(float)))
      << "quantized forward should not be bit-identical to float";

  // int8 -> csr: deep element pruning drops density below every crossover,
  // so the sparse engine wins even with int8 still enabled.
  pruning::MagnitudePruner magnitude;
  magnitude.Prune(layer, 0.92);
  EXPECT_TRUE(layer.Int8Execution());
  EXPECT_EQ(layer.Format(), KernelFormat::kCsr);
  ExpectBitwiseEqual(ForwardVec(layer, input), FreshForward(layer, input),
                     "csr after re-prune vs rebuilt");

  // csr -> int8: re-densify the weights; the stale CSR pack must go.
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
  layer.NotifyWeightsChanged();
  EXPECT_EQ(layer.Format(), KernelFormat::kInt8);
  const std::vector<float> f_redense = ForwardVec(layer, input);
  ExpectBitwiseEqual(f_redense, FreshForward(layer, input),
                     "re-quantized vs rebuilt");
  EXPECT_NE(0, std::memcmp(f_redense.data(), f_int8.data(),
                           f_redense.size() * sizeof(float)))
      << "new weights must produce a new quantized pack, not the cached one";

  // int8 -> bsr: block-aligned pruning past the int8 break-even.
  pruning::L1FilterPruner blocks(/*block_aligned=*/true);
  blocks.Prune(layer, 0.75);
  EXPECT_EQ(layer.Format(), KernelFormat::kBsr);
  ExpectBitwiseEqual(ForwardVec(layer, input), FreshForward(layer, input),
                     "bsr vs rebuilt");

  // back to float: switching quantization off re-dispatches without any
  // weight change (density 0.25 block-aligned stays BSR; then re-densify).
  layer.SetInt8Execution(false);
  EXPECT_EQ(layer.Format(), KernelFormat::kBsr);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
  layer.NotifyWeightsChanged();
  EXPECT_EQ(layer.Format(), KernelFormat::kFloat);
  ExpectBitwiseEqual(ForwardVec(layer, input), FreshForward(layer, input),
                     "float after full cycle vs rebuilt");
}

TEST(KernelDispatch, ConvInt8OverridesBsrAtModerateBlockPruning) {
  // Density 0.5 with full block fill: float dispatch says BSR, the int8
  // policy says the quantized dense kernel is cheaper (0.5 >= 0.45).
  ConvParams params;
  params.out_channels = 32;
  params.kernel = 3;
  ConvLayer layer("conv", params, 16);
  Rng rng(92);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
  layer.MutableBias().FillGaussian(rng, 0.0f, 0.05f);
  layer.NotifyWeightsChanged();
  pruning::L1FilterPruner blocks(/*block_aligned=*/true);
  blocks.Prune(layer, 0.5);
  EXPECT_EQ(layer.Format(), KernelFormat::kBsr);
  layer.SetInt8Execution(true);
  EXPECT_EQ(layer.Format(), KernelFormat::kInt8);
  Tensor input(Shape{1, 16, 9, 9});
  input.FillGaussian(rng, 0.0f, 1.0f);
  ExpectBitwiseEqual(ForwardVec(layer, input), FreshForward(layer, input),
                     "int8-over-bsr vs rebuilt");
}

TEST(KernelDispatch, GroupedConvRunsOneFormatForAllGroups) {
  // Group 0 dense, group 1 zeroed: density 0.5 and mean block fill 1.0 put
  // the whole layer on BSR, although group 0 alone would dispatch float.
  ConvParams params;
  params.out_channels = 16;
  params.kernel = 3;
  params.groups = 2;
  ConvLayer layer("conv", params, 16);
  Rng rng(95);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
  layer.MutableBias().FillGaussian(rng, 0.1f, 0.05f);
  const std::span<float> w = layer.MutableWeights().Data();
  std::fill(w.begin() + static_cast<std::ptrdiff_t>(w.size() / 2), w.end(),
            0.0f);
  layer.NotifyWeightsChanged();
  EXPECT_DOUBLE_EQ(layer.WeightDensity(), 0.5);
  EXPECT_EQ(layer.Format(), KernelFormat::kBsr);

  Tensor input(Shape{2, 16, 7, 7});
  input.FillGaussian(rng, 0.0f, 1.0f);
  const std::vector<float> got = ForwardVec(layer, input);
  ExpectBitwiseEqual(got, FreshForward(layer, input), "bsr vs rebuilt");

  // Float reference: the direct convolution (kernel 3, stride 1, pad 0).
  const Tensor& weights = layer.Weights();
  std::size_t i = 0;
  for (std::int64_t img = 0; img < 2; ++img) {
    for (std::int64_t oc = 0; oc < 16; ++oc) {
      const std::int64_t first_in = (oc / 8) * 8;  // the group's channels
      for (std::int64_t oh = 0; oh < 5; ++oh) {
        for (std::int64_t ow = 0; ow < 5; ++ow, ++i) {
          float want = layer.Bias().At(oc);
          for (std::int64_t ic = 0; ic < 8; ++ic) {
            for (std::int64_t kh = 0; kh < 3; ++kh) {
              for (std::int64_t kw = 0; kw < 3; ++kw) {
                want += weights.At4(oc, ic, kh, kw) *
                        input.At4(img, first_in + ic, oh + kh, ow + kw);
              }
            }
          }
          EXPECT_NEAR(got[i], want, 1e-4f) << "output " << i;
        }
      }
    }
  }
}

TEST(KernelDispatch, FcFormatFollowsWeightChanges) {
  FcLayer layer("fc", /*in_features=*/128, /*out_features=*/64);
  Rng rng(93);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.3f);
  layer.MutableBias().FillGaussian(rng, 0.05f, 0.02f);
  layer.NotifyWeightsChanged();
  // Batched and batch-1 inputs cover both fc execution paths.
  Tensor batched(Shape{3, 128, 1, 1});
  batched.FillGaussian(rng, 0.0f, 1.0f);
  Tensor single(Shape{1, 128, 1, 1});
  single.FillGaussian(rng, 0.0f, 1.0f);

  EXPECT_EQ(layer.Format(), KernelFormat::kFloat);
  layer.SetInt8Execution(true);
  EXPECT_EQ(layer.Format(), KernelFormat::kInt8);
  const std::vector<float> f_int8 = ForwardVec(layer, batched);
  ExpectBitwiseEqual(f_int8, FreshForward(layer, batched),
                     "fc int8 batched vs rebuilt");
  ExpectBitwiseEqual(ForwardVec(layer, single), FreshForward(layer, single),
                     "fc int8 batch-1 vs rebuilt");

  // Weight mutation must invalidate the quantized pack.
  for (float& w : layer.MutableWeights().Data()) w *= 2.0f;
  layer.NotifyWeightsChanged();
  EXPECT_EQ(layer.Format(), KernelFormat::kInt8);
  const std::vector<float> f_doubled = ForwardVec(layer, batched);
  ExpectBitwiseEqual(f_doubled, FreshForward(layer, batched),
                     "fc re-quantized vs rebuilt");
  EXPECT_NE(0, std::memcmp(f_doubled.data(), f_int8.data(),
                           f_doubled.size() * sizeof(float)))
      << "doubled weights must not reuse the old quantized pack";

  // int8 -> csr -> float.
  pruning::MagnitudePruner magnitude;
  magnitude.Prune(layer, 0.92);
  EXPECT_EQ(layer.Format(), KernelFormat::kCsr);
  ExpectBitwiseEqual(ForwardVec(layer, batched), FreshForward(layer, batched),
                     "fc csr vs rebuilt");
  layer.SetInt8Execution(false);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.3f);
  layer.NotifyWeightsChanged();
  EXPECT_EQ(layer.Format(), KernelFormat::kFloat);
  ExpectBitwiseEqual(ForwardVec(layer, batched), FreshForward(layer, batched),
                     "fc float after cycle vs rebuilt");
}

TEST(KernelDispatch, CloneCarriesInt8ModeAndMatchesBitwise) {
  ConvParams params;
  params.out_channels = 16;
  params.kernel = 3;
  ConvLayer layer("conv", params, 8);
  Rng rng(94);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
  layer.MutableBias().FillGaussian(rng, 0.0f, 0.05f);
  layer.NotifyWeightsChanged();
  layer.SetInt8Execution(true);
  const auto clone = layer.Clone();
  auto* conv_clone = dynamic_cast<ConvLayer*>(clone.get());
  ASSERT_NE(conv_clone, nullptr);
  EXPECT_TRUE(conv_clone->Int8Execution());
  EXPECT_EQ(conv_clone->Format(), KernelFormat::kInt8);
  Tensor input(Shape{1, 8, 7, 7});
  input.FillGaussian(rng, 0.0f, 1.0f);
  ExpectBitwiseEqual(ForwardVec(layer, input), ForwardVec(*conv_clone, input),
                     "clone vs original");
}

TEST(KernelDispatch, NetworkInt8TogglePropagatesToEveryWeightedLayer) {
  ModelConfig config;
  config.channel_scale = 1.0;
  config.num_classes = 10;
  config.weight_seed = 5;
  Network net = BuildTinyCnn(config);
  EXPECT_FALSE(net.Int8Execution());
  net.SetInt8Execution(true);
  EXPECT_TRUE(net.Int8Execution());
  int quantized = 0;
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    Layer& layer = net.LayerAt(i);
    if (!layer.HasWeights()) continue;
    EXPECT_TRUE(layer.Int8Execution()) << layer.Name();
    ++quantized;
  }
  EXPECT_GT(quantized, 0);
  // The network clone must preserve the mode (the EvaluateInt8 contract).
  const Network copy = net.Clone();
  EXPECT_TRUE(copy.Int8Execution());
  net.SetInt8Execution(false);
  EXPECT_FALSE(net.Int8Execution());
  EXPECT_TRUE(copy.Int8Execution()) << "clone must be independent";
}

}  // namespace
}  // namespace ccperf::nn
