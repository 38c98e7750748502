#include "tensor/im2col.h"

#include <algorithm>

#include "common/check.h"

namespace ccperf {

namespace {
std::int64_t CeilDiv(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }
}  // namespace

void Im2Col(const ConvGeometry& g, std::span<const float> image,
            std::span<float> columns) {
  CCPERF_CHECK(g.stride >= 1 && g.pad >= 0, "invalid conv geometry");
  CCPERF_CHECK(static_cast<std::int64_t>(image.size()) ==
                   g.in_channels * g.in_h * g.in_w,
               "image size mismatch");
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  CCPERF_CHECK(out_h > 0 && out_w > 0, "conv output collapses to zero");
  CCPERF_CHECK(static_cast<std::int64_t>(columns.size()) ==
                   g.PatchSize() * g.OutPixels(),
               "columns size mismatch");

  float* col = columns.data();
  const float* img = image.data();
  const std::int64_t out_pixels = out_h * out_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const float* plane = img + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        // Output columns [ow_lo, ow_hi) sample inside the image
        // (iw = ow * stride - pad + kw); the rest read padding.
        const std::int64_t ow_lo =
            std::min(out_w, CeilDiv(std::max<std::int64_t>(0, g.pad - kw),
                                    g.stride));
        const std::int64_t ow_hi = std::clamp(
            CeilDiv(std::max<std::int64_t>(0, g.in_w + g.pad - kw), g.stride),
            ow_lo, out_w);
        float* dst = col + row * out_pixels;
        for (std::int64_t oh = 0; oh < out_h; ++oh, dst += out_w) {
          const std::int64_t ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= g.in_h || ow_lo == ow_hi) {
            std::fill(dst, dst + out_w, 0.0f);
            continue;
          }
          const float* src = plane + ih * g.in_w + ow_lo * g.stride - g.pad + kw;
          std::fill(dst, dst + ow_lo, 0.0f);
          if (g.stride == 1) {
            std::copy(src, src + (ow_hi - ow_lo), dst + ow_lo);
          } else {
            for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow, src += g.stride) {
              dst[ow] = *src;
            }
          }
          std::fill(dst + ow_hi, dst + out_w, 0.0f);
        }
      }
    }
  }
}

void Col2Im(const ConvGeometry& g, std::span<const float> columns,
            std::span<float> image) {
  CCPERF_CHECK(g.stride >= 1 && g.pad >= 0, "invalid conv geometry");
  CCPERF_CHECK(static_cast<std::int64_t>(image.size()) ==
                   g.in_channels * g.in_h * g.in_w,
               "image size mismatch");
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  CCPERF_CHECK(out_h > 0 && out_w > 0, "conv output collapses to zero");
  CCPERF_CHECK(static_cast<std::int64_t>(columns.size()) ==
                   g.PatchSize() * g.OutPixels(),
               "columns size mismatch");

  std::fill(image.begin(), image.end(), 0.0f);
  const float* col = columns.data();
  float* img = image.data();
  const std::int64_t out_pixels = out_h * out_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    float* plane = img + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = col + row * out_pixels;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= g.in_h) continue;
          float* dst_row = plane + ih * g.in_w;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * g.stride - g.pad + kw;
            if (iw >= 0 && iw < g.in_w) dst_row[iw] += src[oh * out_w + ow];
          }
        }
      }
    }
  }
}

}  // namespace ccperf
