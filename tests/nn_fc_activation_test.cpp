#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "nn/activation_layers.h"
#include "nn/fc_layer.h"
#include "pruning/filter_pruner.h"
#include "pruning/magnitude_pruner.h"

namespace ccperf::nn {
namespace {

TEST(FcLayer, HandComputed) {
  FcLayer fc("fc", 3, 2);
  // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5]
  auto w = fc.MutableWeights().Data();
  for (int i = 0; i < 6; ++i) w[i] = static_cast<float>(i + 1);
  fc.MutableBias().Set(0, 0.5f);
  fc.MutableBias().Set(1, -0.5f);
  fc.NotifyWeightsChanged();

  Tensor in(Shape{1, 3, 1, 1}, {1.0f, 1.0f, 1.0f});
  const Tensor out = fc.Forward({&in});
  ASSERT_EQ(out.GetShape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out.At(0), 6.5f);
  EXPECT_FLOAT_EQ(out.At(1), 14.5f);
}

TEST(FcLayer, FlattensSpatialInput) {
  FcLayer fc("fc", 2 * 2 * 2, 1);
  auto w = fc.MutableWeights().Data();
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = 1.0f;
  fc.NotifyWeightsChanged();
  Tensor in(Shape{1, 2, 2, 2}, std::vector<float>(8, 1.0f));
  EXPECT_FLOAT_EQ(fc.Forward({&in}).At(0), 8.0f);
}

TEST(FcLayer, BatchRowsIndependent) {
  FcLayer fc("fc", 2, 2);
  auto w = fc.MutableWeights().Data();
  w[0] = 1.0f; w[1] = 0.0f; w[2] = 0.0f; w[3] = 1.0f;  // identity
  fc.NotifyWeightsChanged();
  Tensor in(Shape{2, 2, 1, 1}, {1.0f, 2.0f, 3.0f, 4.0f});
  const Tensor out = fc.Forward({&in});
  EXPECT_FLOAT_EQ(out.At(0), 1.0f);
  EXPECT_FLOAT_EQ(out.At(1), 2.0f);
  EXPECT_FLOAT_EQ(out.At(2), 3.0f);
  EXPECT_FLOAT_EQ(out.At(3), 4.0f);
}

TEST(FcLayer, SparsePathMatchesDense) {
  FcLayer fc("fc", 64, 32);
  Rng rng(11);
  fc.MutableWeights().FillGaussian(rng, 0.0f, 1.0f);
  fc.MutableBias().FillGaussian(rng, 0.0f, 0.1f);
  fc.NotifyWeightsChanged();
  Tensor in(Shape{3, 64, 1, 1});
  in.FillGaussian(rng, 0.0f, 1.0f);
  pruning::MagnitudePruner pruner;
  pruner.Prune(fc, 0.85);  // density 0.15, below the measured CSR crossover
  ASSERT_TRUE(fc.UsesSparsePath());
  ASSERT_EQ(fc.Kernel(), SparseKernel::kCsr);
  const Tensor sparse_out = fc.Forward({&in});

  // The batch of 3 runs the one-shot batched SpMM path; compare against a
  // manual per-sample GEMV on the same pruned weights.
  const Tensor& w = fc.Weights();
  for (std::int64_t b = 0; b < 3; ++b) {
    for (std::int64_t o = 0; o < 32; ++o) {
      float acc = fc.MutableBias().At(o);
      for (std::int64_t i = 0; i < 64; ++i) {
        acc += w.At(o * 64 + i) * in.At(b * 64 + i);
      }
      EXPECT_NEAR(sparse_out.At(b * 32 + o), acc, 1e-3f);
    }
  }
}

TEST(FcLayer, BlockSparseBatchedPathMatchesDense) {
  FcLayer fc("fc", 64, 32);
  Rng rng(13);
  fc.MutableWeights().FillGaussian(rng, 0.0f, 1.0f);
  fc.MutableBias().FillGaussian(rng, 0.0f, 0.1f);
  fc.NotifyWeightsChanged();
  Tensor in(Shape{3, 64, 1, 1});
  in.FillGaussian(rng, 0.0f, 1.0f);
  // Block-aligned neuron pruning keeps fill at 1.0 so the dispatch picks
  // BSR; the batch of 3 runs the batched block-sparse SpMM.
  pruning::L1FilterPruner pruner(/*block_aligned=*/true);
  pruner.Prune(fc, 0.5);
  ASSERT_TRUE(fc.UsesSparsePath());
  ASSERT_EQ(fc.Kernel(), SparseKernel::kBsr);
  const Tensor sparse_out = fc.Forward({&in});

  const Tensor& w = fc.Weights();
  for (std::int64_t b = 0; b < 3; ++b) {
    for (std::int64_t o = 0; o < 32; ++o) {
      float acc = fc.MutableBias().At(o);
      for (std::int64_t i = 0; i < 64; ++i) {
        acc += w.At(o * 64 + i) * in.At(b * 64 + i);
      }
      EXPECT_NEAR(sparse_out.At(b * 32 + o), acc, 1e-3f);
    }
  }
}

TEST(FcLayer, RejectsWrongFeatureCount) {
  FcLayer fc("fc", 10, 4);
  EXPECT_THROW(fc.OutputShape({Shape{1, 3, 2, 2}}), CheckError);
}

TEST(FcLayer, CloneIsDeep) {
  FcLayer fc("fc", 2, 2);
  fc.MutableWeights().Set(0, 5.0f);
  fc.NotifyWeightsChanged();
  auto clone = fc.Clone();
  fc.MutableWeights().Set(0, -1.0f);
  EXPECT_FLOAT_EQ(clone->Weights().At(0), 5.0f);
}

TEST(ReluLayer, ClampsNegatives) {
  ReluLayer relu("r");
  Tensor in(Shape{1, 4, 1, 1}, {-1.0f, 0.0f, 2.0f, -3.5f});
  const Tensor out = relu.Forward({&in});
  EXPECT_FLOAT_EQ(out.At(0), 0.0f);
  EXPECT_FLOAT_EQ(out.At(1), 0.0f);
  EXPECT_FLOAT_EQ(out.At(2), 2.0f);
  EXPECT_FLOAT_EQ(out.At(3), 0.0f);
}

TEST(ReluLayer, MatchesStdMaxBitwise) {
  // EXPECT_FLOAT_EQ cannot tell -0 from +0 or one NaN from another, so
  // compare bits with std::max(v, 0.0f): NaN payloads and -0 pass through,
  // negative denormals clamp to +0. 19 values per image cover the vector
  // body and the scalar tail, and batch 3 the per-image split.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> values = {
      -1.0f, 0.0f,  -0.0f,   nan,     -nan,   inf,   -inf,
      denorm, -denorm, 2.5f, -3.5f,  1e-38f, -1e-38f, 3.4e38f,
      -3.4e38f, 7.0f, -7.0f, nan,    -0.0f};
  constexpr std::int64_t kBatch = 3;
  const auto count = static_cast<std::int64_t>(values.size());
  std::vector<float> data;
  for (std::int64_t b = 0; b < kBatch; ++b) {
    data.insert(data.end(), values.begin(), values.end());
  }
  Tensor in(Shape{kBatch, count, 1, 1}, data);
  const ReluLayer relu("r");
  const Tensor out = relu.Forward({&in});
  const Tensor in_place = relu.ForwardInPlace(Tensor(in));
  for (std::size_t i = 0; i < data.size(); ++i) {
    const float want = std::max(data[i], 0.0f);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out.Data()[i]),
              std::bit_cast<std::uint32_t>(want))
        << "element " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(in_place.Data()[i]),
              std::bit_cast<std::uint32_t>(want))
        << "element " << i;
  }
}

TEST(SoftmaxLayer, RowsSumToOne) {
  SoftmaxLayer softmax("s");
  Tensor in(Shape{2, 5, 1, 1});
  Rng rng(3);
  in.FillGaussian(rng, 0.0f, 3.0f);
  const Tensor out = softmax.Forward({&in});
  for (std::int64_t b = 0; b < 2; ++b) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < 5; ++c) {
      const float v = out.At(b * 5 + c);
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxLayer, PreservesArgmaxOrder) {
  SoftmaxLayer softmax("s");
  Tensor in(Shape{1, 3, 1, 1}, {1.0f, 3.0f, 2.0f});
  const Tensor out = softmax.Forward({&in});
  EXPECT_GT(out.At(1), out.At(2));
  EXPECT_GT(out.At(2), out.At(0));
}

TEST(SoftmaxLayer, NumericallyStableOnLargeLogits) {
  SoftmaxLayer softmax("s");
  Tensor in(Shape{1, 2, 1, 1}, {1000.0f, 1001.0f});
  const Tensor out = softmax.Forward({&in});
  EXPECT_FALSE(std::isnan(out.At(0)));
  EXPECT_NEAR(out.At(0) + out.At(1), 1.0f, 1e-5f);
}

TEST(SoftmaxLayer, RejectsSpatialInput) {
  SoftmaxLayer softmax("s");
  EXPECT_THROW(softmax.OutputShape({Shape{1, 3, 2, 2}}), CheckError);
}

TEST(DropoutLayer, IdentityAtInference) {
  DropoutLayer dropout("d");
  Tensor in(Shape{1, 3, 1, 1}, {1.0f, -2.0f, 3.0f});
  const Tensor out = dropout.Forward({&in});
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(out.At(i), in.At(i));
}

TEST(WeightlessLayers, HaveNoWeights) {
  ReluLayer relu("r");
  EXPECT_FALSE(relu.HasWeights());
  EXPECT_THROW(relu.MutableWeights(), CheckError);
  EXPECT_THROW(relu.Weights(), CheckError);
  EXPECT_THROW(relu.MutableBias(), CheckError);
  EXPECT_DOUBLE_EQ(relu.WeightDensity(), 1.0);
}

}  // namespace
}  // namespace ccperf::nn
