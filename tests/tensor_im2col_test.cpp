#include "tensor/im2col.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace ccperf {
namespace {

TEST(ConvGeometry, OutputExtents) {
  ConvGeometry g{.in_channels = 3, .in_h = 227, .in_w = 227, .kernel_h = 11,
                 .kernel_w = 11, .stride = 4, .pad = 0};
  EXPECT_EQ(g.OutH(), 55);
  EXPECT_EQ(g.OutW(), 55);
  EXPECT_EQ(g.PatchSize(), 363);
  EXPECT_EQ(g.OutPixels(), 3025);
}

TEST(ConvGeometry, SamePadding3x3) {
  ConvGeometry g{.in_channels = 1, .in_h = 13, .in_w = 13, .kernel_h = 3,
                 .kernel_w = 3, .stride = 1, .pad = 1};
  EXPECT_EQ(g.OutH(), 13);
  EXPECT_EQ(g.OutW(), 13);
}

TEST(Im2Col, OneByOneKernelIsIdentity) {
  ConvGeometry g{.in_channels = 2, .in_h = 3, .in_w = 3, .kernel_h = 1,
                 .kernel_w = 1, .stride = 1, .pad = 0};
  std::vector<float> img(18);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> col(18);
  Im2Col(g, img, col);
  EXPECT_EQ(col, img);
}

TEST(Im2Col, KnownSmallCase) {
  // 1-channel 3x3 image, 2x2 kernel, stride 1, no pad -> 4 patches.
  ConvGeometry g{.in_channels = 1, .in_h = 3, .in_w = 3, .kernel_h = 2,
                 .kernel_w = 2, .stride = 1, .pad = 0};
  const std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(static_cast<std::size_t>(g.PatchSize() * g.OutPixels()));
  Im2Col(g, img, col);
  // Row layout: (kh=0,kw=0), (0,1), (1,0), (1,1) across 4 output pixels.
  const std::vector<float> expected{
      1, 2, 4, 5,   // top-left of each patch
      2, 3, 5, 6,   // top-right
      4, 5, 7, 8,   // bottom-left
      5, 6, 8, 9};  // bottom-right
  EXPECT_EQ(col, expected);
}

TEST(Im2Col, PaddingWritesZeros) {
  ConvGeometry g{.in_channels = 1, .in_h = 2, .in_w = 2, .kernel_h = 3,
                 .kernel_w = 3, .stride = 1, .pad = 1};
  const std::vector<float> img{1, 2, 3, 4};
  std::vector<float> col(static_cast<std::size_t>(g.PatchSize() * g.OutPixels()));
  Im2Col(g, img, col);
  // Patch at output (0,0), kernel element (0,0) samples (-1,-1) -> 0.
  EXPECT_FLOAT_EQ(col[0], 0.0f);
  // Kernel element (1,1) (center) at output (0,0) samples (0,0) -> 1.
  const std::int64_t row_center = 1 * 3 + 1;
  EXPECT_FLOAT_EQ(col[static_cast<std::size_t>(row_center * g.OutPixels())], 1.0f);
}

TEST(Im2Col, StrideSkipsPixels) {
  ConvGeometry g{.in_channels = 1, .in_h = 4, .in_w = 4, .kernel_h = 2,
                 .kernel_w = 2, .stride = 2, .pad = 0};
  std::vector<float> img(16);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> col(static_cast<std::size_t>(g.PatchSize() * g.OutPixels()));
  Im2Col(g, img, col);
  EXPECT_EQ(g.OutPixels(), 4);
  // (kh=0, kw=0) row: top-left corner of each 2x2 patch at stride 2.
  EXPECT_FLOAT_EQ(col[0], 0.0f);
  EXPECT_FLOAT_EQ(col[1], 2.0f);
  EXPECT_FLOAT_EQ(col[2], 8.0f);
  EXPECT_FLOAT_EQ(col[3], 10.0f);
}

TEST(Im2Col, MultiChannelBlocks) {
  ConvGeometry g{.in_channels = 2, .in_h = 2, .in_w = 2, .kernel_h = 2,
                 .kernel_w = 2, .stride = 1, .pad = 0};
  const std::vector<float> img{1, 2, 3, 4, 10, 20, 30, 40};
  std::vector<float> col(8);
  Im2Col(g, img, col);
  // Channel 0 rows first, then channel 1.
  EXPECT_FLOAT_EQ(col[0], 1.0f);
  EXPECT_FLOAT_EQ(col[4], 10.0f);
}

// Im2Col against its per-element definition: column (oh, ow) of row
// (c, kh, kw) holds image[c][oh*stride - pad + kh][ow*stride - pad + kw],
// or 0 where that sample lies in the padding. The small maps put whole
// rows and whole columns of some kernel offsets in the padding.
TEST(Im2Col, MatchesPerElementDefinition) {
  constexpr std::int64_t kMaps[][2] = {{1, 2}, {3, 1}, {5, 7}, {12, 13},
                                       {23, 17}};
  Rng rng(2024);
  int checked = 0;
  for (const std::int64_t stride : {1, 2, 4}) {
    for (const std::int64_t pad : {0, 1, 2}) {
      for (const std::int64_t kernel : {1, 3, 5, 11}) {
        for (const auto& map : kMaps) {
          const std::int64_t in_h = map[0];
          const std::int64_t in_w = map[1];
          const ConvGeometry g{.in_channels = 2, .in_h = in_h, .in_w = in_w,
                               .kernel_h = kernel, .kernel_w = kernel,
                               .stride = stride, .pad = pad};
          if (in_h + 2 * pad < kernel || in_w + 2 * pad < kernel) continue;
          std::vector<float> img(static_cast<std::size_t>(2 * in_h * in_w));
          for (float& v : img) v = rng.NextFloat(-1.0f, 1.0f);
          std::vector<float> col(
              static_cast<std::size_t>(g.PatchSize() * g.OutPixels()), -9.0f);
          Im2Col(g, img, col);

          std::vector<float> want(col.size());
          std::size_t at = 0;
          for (std::int64_t c = 0; c < g.in_channels; ++c) {
            for (std::int64_t kh = 0; kh < kernel; ++kh) {
              for (std::int64_t kw = 0; kw < kernel; ++kw) {
                for (std::int64_t oh = 0; oh < g.OutH(); ++oh) {
                  for (std::int64_t ow = 0; ow < g.OutW(); ++ow, ++at) {
                    const std::int64_t ih = oh * stride - pad + kh;
                    const std::int64_t iw = ow * stride - pad + kw;
                    const bool inside =
                        ih >= 0 && ih < in_h && iw >= 0 && iw < in_w;
                    want[at] = inside ? img[static_cast<std::size_t>(
                                            (c * in_h + ih) * in_w + iw)]
                                      : 0.0f;
                  }
                }
              }
            }
          }
          ASSERT_EQ(0, std::memcmp(col.data(), want.data(),
                                   col.size() * sizeof(float)))
              << "stride " << stride << " pad " << pad << " kernel "
              << kernel << " map " << in_h << "x" << in_w;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(Im2Col, RejectsBadSizes) {
  ConvGeometry g{.in_channels = 1, .in_h = 3, .in_w = 3, .kernel_h = 2,
                 .kernel_w = 2, .stride = 1, .pad = 0};
  std::vector<float> img(9), col(3);
  EXPECT_THROW(Im2Col(g, img, col), CheckError);
  std::vector<float> img_bad(5),
      col_ok(static_cast<std::size_t>(g.PatchSize() * g.OutPixels()));
  EXPECT_THROW(Im2Col(g, img_bad, col_ok), CheckError);
}

TEST(Im2Col, RejectsCollapsedOutput) {
  ConvGeometry g{.in_channels = 1, .in_h = 2, .in_w = 2, .kernel_h = 5,
                 .kernel_w = 5, .stride = 1, .pad = 0};
  std::vector<float> img(4), col(1);
  EXPECT_THROW(Im2Col(g, img, col), CheckError);
}

}  // namespace
}  // namespace ccperf
