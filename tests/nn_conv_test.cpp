#include "nn/conv_layer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "pruning/filter_pruner.h"
#include "pruning/magnitude_pruner.h"
#include "tensor/gemm.h"

namespace ccperf::nn {
namespace {

/// Direct (non-im2col) grouped convolution used as the correctness oracle.
Tensor NaiveConv(const Tensor& input, const Tensor& weights,
                 const Tensor& bias, const ConvParams& p) {
  const auto& in = input.GetShape();
  const std::int64_t batch = in.Dim(0);
  const std::int64_t in_c = in.Dim(1);
  const std::int64_t in_h = in.Dim(2);
  const std::int64_t in_w = in.Dim(3);
  const std::int64_t out_h = (in_h + 2 * p.pad - p.kernel) / p.stride + 1;
  const std::int64_t out_w = (in_w + 2 * p.pad - p.kernel) / p.stride + 1;
  const std::int64_t group_in = in_c / p.groups;
  const std::int64_t group_out = p.out_channels / p.groups;
  Tensor out(Shape{batch, p.out_channels, out_h, out_w});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t oc = 0; oc < p.out_channels; ++oc) {
      const std::int64_t grp = oc / group_out;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow) {
          float acc = bias.At(oc);
          for (std::int64_t ic = 0; ic < group_in; ++ic) {
            for (std::int64_t kh = 0; kh < p.kernel; ++kh) {
              for (std::int64_t kw = 0; kw < p.kernel; ++kw) {
                const std::int64_t ih = oh * p.stride - p.pad + kh;
                const std::int64_t iw = ow * p.stride - p.pad + kw;
                if (ih < 0 || ih >= in_h || iw < 0 || iw >= in_w) continue;
                acc += input.At4(n, grp * group_in + ic, ih, iw) *
                       weights.At4(oc, ic, kh, kw);
              }
            }
          }
          out.Set4(n, oc, oh, ow, acc);
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  std::string name;
  std::int64_t batch, in_c, in_hw;
  ConvParams params;
};

// CTest names end with this text; without it gtest dumps the object's raw
// bytes, the std::string's heap address among them.
void PrintTo(const ConvCase& c, std::ostream* os) {
  const ConvParams& p = c.params;
  *os << c.name << " (batch " << c.batch << ", in " << c.in_c << "x"
      << c.in_hw << "x" << c.in_hw << ", out " << p.out_channels << ", k"
      << p.kernel << " s" << p.stride << " p" << p.pad << " g" << p.groups
      << ")";
}

class ConvMatchesNaive : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvMatchesNaive, ForwardEqualsDirectConvolution) {
  const ConvCase& c = GetParam();
  ConvLayer layer("conv", c.params, c.in_c);
  Rng rng(42);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
  layer.MutableBias().FillGaussian(rng, 0.1f, 0.05f);
  layer.NotifyWeightsChanged();

  Tensor input(Shape{c.batch, c.in_c, c.in_hw, c.in_hw});
  input.FillGaussian(rng, 0.0f, 1.0f);

  const Tensor got = layer.Forward({&input});
  const Tensor want =
      NaiveConv(input, layer.Weights(), layer.MutableBias(), c.params);
  ASSERT_EQ(got.GetShape(), want.GetShape());
  for (std::int64_t i = 0; i < got.NumElements(); ++i) {
    EXPECT_NEAR(got.At(i), want.At(i), 1e-3f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvMatchesNaive,
    ::testing::Values(
        ConvCase{"k1s1p0", 1, 4, 5, {.out_channels = 3, .kernel = 1}},
        ConvCase{"k3s1p1", 2, 3, 8,
                 {.out_channels = 6, .kernel = 3, .stride = 1, .pad = 1}},
        ConvCase{"k5s1p2", 1, 2, 9,
                 {.out_channels = 4, .kernel = 5, .stride = 1, .pad = 2}},
        ConvCase{"k3s2p0", 1, 3, 9,
                 {.out_channels = 2, .kernel = 3, .stride = 2}},
        ConvCase{"k11s4p0", 1, 3, 23,
                 {.out_channels = 4, .kernel = 11, .stride = 4}},
        ConvCase{"grouped", 2, 4, 6,
                 {.out_channels = 6, .kernel = 3, .stride = 1, .pad = 1,
                  .groups = 2}},
        ConvCase{"grouped4", 1, 8, 5,
                 {.out_channels = 8, .kernel = 3, .stride = 1, .pad = 1,
                  .groups = 4}}),
    [](const auto& info) { return info.param.name; });

TEST(ConvLayer, SparsePathMatchesDensePath) {
  ConvParams p{.out_channels = 8, .kernel = 3, .stride = 1, .pad = 1,
               .groups = 2};
  ConvLayer layer("conv", p, 6);
  Rng rng(7);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
  layer.MutableBias().FillGaussian(rng, 0.0f, 0.1f);
  layer.NotifyWeightsChanged();

  Tensor input(Shape{2, 6, 7, 7});
  input.FillGaussian(rng, 0.0f, 1.0f);

  // Prune past the measured CSR crossover (density < kCsrCrossoverDensity);
  // the pruned weights define the truth, so compare sparse execution
  // against the naive oracle on the same weights.
  pruning::MagnitudePruner pruner;
  pruner.Prune(layer, 0.85);
  ASSERT_TRUE(layer.UsesSparsePath());
  ASSERT_EQ(layer.Kernel(), SparseKernel::kCsr);

  const Tensor got = layer.Forward({&input});
  const Tensor want =
      NaiveConv(input, layer.Weights(), layer.MutableBias(), p);
  for (std::int64_t i = 0; i < got.NumElements(); ++i) {
    EXPECT_NEAR(got.At(i), want.At(i), 1e-3f);
  }
}

TEST(ConvLayer, BlockSparsePathMatchesDensePath) {
  ConvParams p{.out_channels = 8, .kernel = 3, .stride = 1, .pad = 1,
               .groups = 2};
  ConvLayer layer("conv", p, 6);
  Rng rng(17);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
  layer.MutableBias().FillGaussian(rng, 0.0f, 0.1f);
  layer.NotifyWeightsChanged();

  Tensor input(Shape{2, 6, 7, 7});
  input.FillGaussian(rng, 0.0f, 1.0f);

  // Block-aligned filter pruning keeps BSR fill at 1.0, so the dispatch
  // picks the block-sparse kernel once density drops below the BSR
  // crossover.
  pruning::L1FilterPruner pruner(/*block_aligned=*/true);
  pruner.Prune(layer, 0.5);
  ASSERT_TRUE(layer.UsesSparsePath());
  ASSERT_EQ(layer.Kernel(), SparseKernel::kBsr);

  const Tensor got = layer.Forward({&input});
  const Tensor want =
      NaiveConv(input, layer.Weights(), layer.MutableBias(), p);
  for (std::int64_t i = 0; i < got.NumElements(); ++i) {
    EXPECT_NEAR(got.At(i), want.At(i), 1e-3f);
  }
}

/// `layer` lowered by hand the way ConvLayer lowers every geometry: per
/// image and group, Im2Col into a column buffer, then the multiply of the
/// layer's dispatched format on a fresh build of the same weights, then the
/// bias (fused into the int8 epilogue).
Tensor Im2ColConv(const ConvLayer& layer, const Tensor& input) {
  const ConvParams& p = layer.Params();
  const Shape& in = input.GetShape();
  const ConvGeometry g{.in_channels = layer.InChannels() / p.groups,
                       .in_h = in.Dim(2), .in_w = in.Dim(3),
                       .kernel_h = p.kernel, .kernel_w = p.kernel,
                       .stride = p.stride, .pad = p.pad};
  const std::int64_t group_out = p.out_channels / p.groups;
  const std::int64_t patch = g.PatchSize();
  const std::int64_t pixels = g.OutPixels();
  const std::int64_t image_size = g.in_channels * g.in_h * g.in_w;
  Tensor out(layer.OutputShape({in}));
  std::vector<float> columns(static_cast<std::size_t>(patch * pixels));
  for (std::int64_t img = 0; img < in.Dim(0); ++img) {
    for (std::int64_t grp = 0; grp < p.groups; ++grp) {
      Im2Col(g,
             input.Data().subspan(
                 static_cast<std::size_t>((img * p.groups + grp) * image_size),
                 static_cast<std::size_t>(image_size)),
             columns);
      const auto w = layer.Weights().Data().subspan(
          static_cast<std::size_t>(grp * group_out * patch),
          static_cast<std::size_t>(group_out * patch));
      const auto b = layer.Bias().Data().subspan(
          static_cast<std::size_t>(grp * group_out),
          static_cast<std::size_t>(group_out));
      const std::span<float> dst = out.Data().subspan(
          static_cast<std::size_t>((img * p.out_channels + grp * group_out) *
                                   pixels),
          static_cast<std::size_t>(group_out * pixels));
      switch (layer.Format()) {
        case KernelFormat::kFloat:
          GemmPacked(PackA(group_out, patch, w), pixels, columns, dst);
          break;
        case KernelFormat::kCsr:
          CsrMatrix::FromDense(group_out, patch, w)
              .MultiplyDense(columns, pixels, dst);
          break;
        case KernelFormat::kBsr:
          BsrMatrix::FromDense(group_out, patch, w)
              .MultiplyDense(columns, pixels, dst);
          break;
        case KernelFormat::kInt8:
          GemmInt8(QuantizePackA(group_out, patch, w), pixels, columns, dst,
                   {.bias = b});
          continue;
      }
      for (std::int64_t oc = 0; oc < group_out; ++oc) {
        for (std::int64_t px = 0; px < pixels; ++px) {
          dst[static_cast<std::size_t>(oc * pixels + px)] +=
              b[static_cast<std::size_t>(oc)];
        }
      }
    }
  }
  return out;
}

// A 1x1, stride-1, unpadded conv hands its image to the multiply without
// Im2Col. On every format, grouped or not, that must be bit for bit the
// conv lowered through Im2Col.
TEST(ConvLayer, OneByOneSkipsIm2ColBitwise) {
  for (const std::int64_t groups : {1, 2}) {
    for (const KernelFormat format :
         {KernelFormat::kFloat, KernelFormat::kCsr, KernelFormat::kBsr,
          KernelFormat::kInt8}) {
      SCOPED_TRACE(::testing::Message() << "groups " << groups << ", format "
                                        << static_cast<int>(format));
      ConvLayer layer("conv1x1", {.out_channels = 16, .groups = groups}, 8);
      Rng rng(static_cast<std::uint64_t>(31 + groups));
      layer.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
      layer.MutableBias().FillGaussian(rng, 0.0f, 0.1f);
      layer.NotifyWeightsChanged();
      switch (format) {
        case KernelFormat::kFloat:
          break;
        case KernelFormat::kCsr:
          pruning::MagnitudePruner().Prune(layer, 0.85);
          break;
        case KernelFormat::kBsr:
          pruning::L1FilterPruner(/*block_aligned=*/true).Prune(layer, 0.5);
          break;
        case KernelFormat::kInt8:
          layer.SetInt8Execution(true);
          break;
      }
      ASSERT_EQ(layer.Format(), format);

      Tensor input(Shape{2, 8, 5, 6});
      input.FillGaussian(rng, 0.0f, 1.0f);
      const Tensor got = layer.Forward({&input});
      const Tensor want = Im2ColConv(layer, input);
      ASSERT_EQ(got.GetShape(), want.GetShape());
      EXPECT_EQ(0, std::memcmp(got.Data().data(), want.Data().data(),
                               got.Data().size_bytes()));
    }
  }
}

TEST(ConvLayer, DensePathBelowThreshold) {
  ConvLayer layer("conv", {.out_channels = 4, .kernel = 3}, 4);
  Rng rng(3);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 1.0f);
  layer.NotifyWeightsChanged();
  EXPECT_FALSE(layer.UsesSparsePath());
}

TEST(ConvLayer, OutputShape) {
  ConvLayer layer("conv1", {.out_channels = 96, .kernel = 11, .stride = 4}, 3);
  const Shape out = layer.OutputShape({Shape{1, 3, 227, 227}});
  EXPECT_EQ(out, (Shape{1, 96, 55, 55}));
}

TEST(ConvLayer, RejectsWrongChannelCount) {
  ConvLayer layer("conv", {.out_channels = 4, .kernel = 3}, 8);
  EXPECT_THROW(layer.OutputShape({Shape{1, 4, 8, 8}}), CheckError);
}

TEST(ConvLayer, RejectsIndivisibleGroups) {
  EXPECT_THROW(
      ConvLayer("conv", {.out_channels = 4, .kernel = 3, .groups = 3}, 8),
      CheckError);
}

TEST(ConvLayer, CloneIsDeep) {
  ConvLayer layer("conv", {.out_channels = 2, .kernel = 1}, 2);
  Rng rng(1);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 1.0f);
  layer.NotifyWeightsChanged();
  auto clone = layer.Clone();
  layer.MutableWeights().Set(0, 999.0f);
  EXPECT_NE(clone->Weights().At(0), 999.0f);
}

TEST(ConvLayer, WeightDensityTracksZeros) {
  ConvLayer layer("conv", {.out_channels = 2, .kernel = 1}, 2);
  auto w = layer.MutableWeights().Data();
  w[0] = 1.0f;  // 1 of 4 nonzero
  layer.NotifyWeightsChanged();
  EXPECT_DOUBLE_EQ(layer.WeightDensity(), 0.25);
}

TEST(ConvLayer, CostScalesWithDensity) {
  ConvLayer layer("conv", {.out_channels = 4, .kernel = 3, .pad = 1}, 4);
  Rng rng(5);
  layer.MutableWeights().FillGaussian(rng, 0.0f, 1.0f);
  layer.NotifyWeightsChanged();
  const Shape in{1, 4, 8, 8};
  const double dense_flops = layer.Cost({in}).flops;
  pruning::MagnitudePruner pruner;
  pruner.Prune(layer, 0.5);
  const double sparse_flops = layer.Cost({in}).flops;
  EXPECT_NEAR(sparse_flops, dense_flops * 0.5, dense_flops * 0.02);
}

}  // namespace
}  // namespace ccperf::nn
