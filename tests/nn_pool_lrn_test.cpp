#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "nn/concat_layer.h"
#include "nn/lrn_layer.h"
#include "nn/pool_layer.h"

namespace ccperf::nn {
namespace {

TEST(PoolLayer, MaxPoolHandComputed) {
  PoolLayer pool("p", LayerKind::kMaxPool, {.kernel = 2, .stride = 2});
  Tensor in(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) in.Set(i, static_cast<float>(i));
  const Tensor out = pool.Forward({&in});
  ASSERT_EQ(out.GetShape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.At4(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.At4(0, 0, 0, 1), 7.0f);
  EXPECT_FLOAT_EQ(out.At4(0, 0, 1, 0), 13.0f);
  EXPECT_FLOAT_EQ(out.At4(0, 0, 1, 1), 15.0f);
}

TEST(PoolLayer, AvgPoolHandComputed) {
  PoolLayer pool("p", LayerKind::kAvgPool, {.kernel = 2, .stride = 2});
  Tensor in(Shape{1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const Tensor out = pool.Forward({&in});
  EXPECT_FLOAT_EQ(out.At(0), 2.5f);
}

TEST(PoolLayer, CeilModeMatchesCaffe) {
  // Caffe's 3x3 stride-2 pooling on 55 -> 27 (ceil((55-3)/2)+1 = 27) and
  // on 13 -> 6; GoogLeNet's 112 -> 56 chain relies on the same rounding.
  PoolLayer pool("p", LayerKind::kMaxPool, {.kernel = 3, .stride = 2});
  EXPECT_EQ(pool.OutputShape({Shape{1, 1, 55, 55}}).Dim(2), 27);
  EXPECT_EQ(pool.OutputShape({Shape{1, 1, 27, 27}}).Dim(2), 13);
  EXPECT_EQ(pool.OutputShape({Shape{1, 1, 13, 13}}).Dim(2), 6);
  EXPECT_EQ(pool.OutputShape({Shape{1, 1, 112, 112}}).Dim(2), 56);
  EXPECT_EQ(pool.OutputShape({Shape{1, 1, 56, 56}}).Dim(2), 28);
  EXPECT_EQ(pool.OutputShape({Shape{1, 1, 28, 28}}).Dim(2), 14);
  EXPECT_EQ(pool.OutputShape({Shape{1, 1, 14, 14}}).Dim(2), 7);
}

TEST(PoolLayer, PaddedPoolingKeepsSize) {
  // Inception's 3x3 stride-1 pad-1 pooling preserves the map size.
  PoolLayer pool("p", LayerKind::kMaxPool,
                 {.kernel = 3, .stride = 1, .pad = 1});
  EXPECT_EQ(pool.OutputShape({Shape{1, 8, 14, 14}}), (Shape{1, 8, 14, 14}));
}

TEST(PoolLayer, PaddedAvgExcludesOutOfBounds) {
  // Average over the valid window only (count excludes padding).
  PoolLayer pool("p", LayerKind::kAvgPool,
                 {.kernel = 3, .stride = 1, .pad = 1});
  Tensor in(Shape{1, 1, 2, 2}, {4.0f, 4.0f, 4.0f, 4.0f});
  const Tensor out = pool.Forward({&in});
  for (std::int64_t i = 0; i < out.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(out.At(i), 4.0f);
  }
}

TEST(PoolLayer, GlobalAveragePool) {
  PoolLayer pool("p", LayerKind::kAvgPool, {.kernel = 7, .stride = 1});
  Tensor in(Shape{1, 2, 7, 7});
  for (std::int64_t i = 0; i < 49; ++i) in.Set(i, 2.0f);         // chan 0
  for (std::int64_t i = 49; i < 98; ++i) in.Set(i, 6.0f);        // chan 1
  const Tensor out = pool.Forward({&in});
  ASSERT_EQ(out.GetShape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out.At(0), 2.0f);
  EXPECT_FLOAT_EQ(out.At(1), 6.0f);
}

TEST(PoolLayer, RejectsWrongKind) {
  EXPECT_THROW(PoolLayer("p", LayerKind::kReLU, {}), CheckError);
}

TEST(PoolLayer, LastWindowPastTheImageIsClipped) {
  // Ceil mode alone gives 3 windows per axis in both cases, the last one
  // starting past the image: at row 3 of a 3-row map (in the padding), and
  // at row 6 of a 5-row unpadded map. Both are clipped, so 1..9 pools to
  // [1 3; 7 9] as in Caffe, and the unpadded map keeps rows/columns 0 and 3.
  Tensor in(Shape{1, 1, 3, 3});
  for (std::int64_t i = 0; i < 9; ++i) in.Set(i, static_cast<float>(i + 1));
  const Tensor padded = PoolLayer("p", LayerKind::kMaxPool,
                                  {.kernel = 2, .stride = 2, .pad = 1})
                            .Forward({&in});
  ASSERT_EQ(padded.GetShape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(padded.At(0), 1.0f);
  EXPECT_EQ(padded.At(1), 3.0f);
  EXPECT_EQ(padded.At(2), 7.0f);
  EXPECT_EQ(padded.At(3), 9.0f);

  Tensor wide(Shape{1, 1, 5, 5});
  for (std::int64_t i = 0; i < 25; ++i) wide.Set(i, static_cast<float>(i));
  const Tensor strided =
      PoolLayer("p", LayerKind::kMaxPool, {.kernel = 1, .stride = 3})
          .Forward({&wide});
  ASSERT_EQ(strided.GetShape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(strided.At(0), 0.0f);
  EXPECT_EQ(strided.At(1), 3.0f);
  EXPECT_EQ(strided.At(2), 15.0f);
  EXPECT_EQ(strided.At(3), 18.0f);
}

TEST(PoolLayer, RejectsPadNotBelowKernel) {
  // Caffe's CHECK_LT(pad, kernel): a window that could lie wholly in the
  // padding has nothing to pool.
  EXPECT_THROW(PoolLayer("p", LayerKind::kMaxPool,
                         {.kernel = 2, .stride = 1, .pad = 2}),
               CheckError);
  EXPECT_THROW(PoolLayer("p", LayerKind::kAvgPool,
                         {.kernel = 3, .stride = 2, .pad = 3}),
               CheckError);
  EXPECT_NO_THROW(PoolLayer("p", LayerKind::kMaxPool,
                            {.kernel = 3, .stride = 2, .pad = 2}));
}

TEST(PoolLayer, NegativeValuesMaxPool) {
  PoolLayer pool("p", LayerKind::kMaxPool, {.kernel = 2, .stride = 2});
  Tensor in(Shape{1, 1, 2, 2}, {-5.0f, -3.0f, -9.0f, -4.0f});
  EXPECT_FLOAT_EQ(pool.Forward({&in}).At(0), -3.0f);
}

TEST(LrnLayer, IdentityWhenAlphaZero) {
  LrnLayer lrn("n", {.local_size = 5, .alpha = 0.0f, .beta = 0.75f});
  Tensor in(Shape{1, 8, 2, 2});
  for (std::int64_t i = 0; i < in.NumElements(); ++i) {
    in.Set(i, static_cast<float>(i % 5) - 2.0f);
  }
  const Tensor out = lrn.Forward({&in});
  for (std::int64_t i = 0; i < in.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(out.At(i), in.At(i));
  }
}

TEST(LrnLayer, HandComputedSingleChannel) {
  LrnLayer lrn("n", {.local_size = 1, .alpha = 1.0f, .beta = 1.0f, .k = 0.0f});
  Tensor in(Shape{1, 1, 1, 1}, {2.0f});
  // denom = (0 + 1/1 * 4)^1 = 4 -> 2/4 = 0.5
  EXPECT_FLOAT_EQ(lrn.Forward({&in}).At(0), 0.5f);
}

TEST(LrnLayer, CrossChannelWindow) {
  LrnLayer lrn("n", {.local_size = 3, .alpha = 3.0f, .beta = 1.0f, .k = 1.0f});
  Tensor in(Shape{1, 3, 1, 1}, {1.0f, 2.0f, 3.0f});
  // Channel 1 window = {1,2,3}: ss = 14, scale = 1/(1 + 1*14) = 1/15.
  EXPECT_NEAR(lrn.Forward({&in}).At(1), 2.0f / 15.0f, 1e-6f);
  // Channel 0 window = {1,2}: ss = 5, scale = 1/6.
  EXPECT_NEAR(lrn.Forward({&in}).At(0), 1.0f / 6.0f, 1e-6f);
}

/// The per-pixel LrnLayer::Forward loop that the channel-outer one
/// replaced, kept as its bitwise oracle. This file builds with the same
/// portable flags as lrn_layer.cpp, so both round alike.
Tensor PerPixelLrn(const Tensor& in, const LrnParams& params) {
  Tensor out(in.GetShape());
  const std::int64_t batch = in.GetShape().Dim(0);
  const std::int64_t channels = in.GetShape().Dim(1);
  const std::int64_t plane = in.GetShape().Dim(2) * in.GetShape().Dim(3);
  const std::int64_t half = params.local_size / 2;
  const float alpha_over_n =
      params.alpha / static_cast<float>(params.local_size);
  const float* src = in.Data().data();
  float* dst = out.Data().data();
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* img = src + b * channels * plane;
    float* oimg = dst + b * channels * plane;
    for (std::int64_t p = 0; p < plane; ++p) {
      for (std::int64_t c = 0; c < channels; ++c) {
        const std::int64_t c0 = std::max<std::int64_t>(0, c - half);
        const std::int64_t c1 = std::min(channels, c + half + 1);
        float ss = 0.0f;
        for (std::int64_t cc = c0; cc < c1; ++cc) {
          const float v = img[cc * plane + p];
          ss += v * v;
        }
        const float scale =
            std::pow(params.k + alpha_over_n * ss, -params.beta);
        oimg[c * plane + p] = img[c * plane + p] * scale;
      }
    }
  }
  return out;
}

TEST(LrnLayer, MatchesPerPixelLoopBitwise) {
  struct Case {
    Shape shape;
    LrnParams params;
  };
  const Case cases[] = {
      {Shape{3, 8, 5, 7}, {}},                      // batch 3, CaffeNet params
      {Shape{2, 3, 5, 7}, {.local_size = 5}},       // channels < local_size
      {Shape{3, 1, 5, 7}, {.local_size = 5}},       // a single channel
      {Shape{1, 12, 5, 7},
       {.local_size = 3, .alpha = 0.5f, .beta = 0.6f, .k = 2.0f}},
  };
  Rng rng(606);
  for (const Case& c : cases) {
    LrnLayer lrn("n", c.params);
    Tensor in(c.shape);
    in.FillGaussian(rng, 0.0f, 4.0f);
    const Tensor got = lrn.Forward({&in});
    const Tensor want = PerPixelLrn(in, c.params);
    EXPECT_EQ(0, std::memcmp(got.Data().data(), want.Data().data(),
                             got.Data().size_bytes()))
        << c.shape.ToString() << " local_size " << c.params.local_size;
  }
}

TEST(LrnLayer, RejectsEvenWindow) {
  EXPECT_THROW(LrnLayer("n", {.local_size = 4}), CheckError);
}

TEST(ConcatLayer, JoinsChannels) {
  ConcatLayer concat("c");
  Tensor a(Shape{1, 2, 2, 2}, std::vector<float>(8, 1.0f));
  Tensor b(Shape{1, 3, 2, 2}, std::vector<float>(12, 2.0f));
  const Tensor out = concat.Forward({&a, &b});
  ASSERT_EQ(out.GetShape(), (Shape{1, 5, 2, 2}));
  EXPECT_FLOAT_EQ(out.At4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.At4(0, 1, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(out.At4(0, 2, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.At4(0, 4, 1, 1), 2.0f);
}

TEST(ConcatLayer, BatchInterleavingCorrect) {
  ConcatLayer concat("c");
  Tensor a(Shape{2, 1, 1, 1}, {1.0f, 3.0f});
  Tensor b(Shape{2, 1, 1, 1}, {2.0f, 4.0f});
  const Tensor out = concat.Forward({&a, &b});
  ASSERT_EQ(out.GetShape(), (Shape{2, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out.At4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.At4(0, 1, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.At4(1, 0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.At4(1, 1, 0, 0), 4.0f);
}

TEST(ConcatLayer, RejectsMismatchedSpatial) {
  ConcatLayer concat("c");
  EXPECT_THROW(
      concat.OutputShape({Shape{1, 2, 4, 4}, Shape{1, 2, 5, 5}}), CheckError);
}

TEST(ConcatLayer, RejectsSingleInput) {
  ConcatLayer concat("c");
  EXPECT_THROW(concat.OutputShape({Shape{1, 2, 4, 4}}), CheckError);
}

}  // namespace
}  // namespace ccperf::nn
