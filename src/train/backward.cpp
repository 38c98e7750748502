#include "train/backward.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "nn/activation_layers.h"
#include "nn/concat_layer.h"
#include "nn/conv_layer.h"
#include "nn/fc_layer.h"
#include "nn/lrn_layer.h"
#include "nn/pool_layer.h"
#include "tensor/im2col.h"

namespace ccperf::train {

namespace {

/// C[M,N] += A[M,K] * B[N,K]^T (row-major). Used for dW = G * columns^T.
void GemmNTAccumulate(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* a, const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

/// C[M,N] = A[K,M]^T * B[K,N] (row-major). Used for dColumns = W^T * G.
void GemmTN(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
            const float* b, float* c) {
  std::fill(c, c + m * n, 0.0f);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float aik = arow[i];
      if (aik == 0.0f) continue;
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

}  // namespace

bool IsDifferentiable(const nn::Layer& layer) {
  switch (layer.Kind()) {
    case nn::LayerKind::kConvolution:
    case nn::LayerKind::kFullyConnected:
    case nn::LayerKind::kReLU:
    case nn::LayerKind::kMaxPool:
    case nn::LayerKind::kAvgPool:
    case nn::LayerKind::kDropout:
    case nn::LayerKind::kConcat:
    case nn::LayerKind::kSoftmax:
    case nn::LayerKind::kLRN:
      return true;
    default:
      return false;
  }
}

std::vector<Tensor> BackwardLayer(const nn::Layer& layer,
                                  const std::vector<const Tensor*>& inputs,
                                  const Tensor& output,
                                  const Tensor& grad_output,
                                  LayerGrads* grads) {
  CCPERF_CHECK(grad_output.GetShape() == output.GetShape(),
               "grad_output shape mismatch for ", layer.Name());
  switch (layer.Kind()) {
    case nn::LayerKind::kConvolution: {
      CCPERF_CHECK(inputs.size() == 1, "conv arity");
      const auto& conv = static_cast<const nn::ConvLayer&>(layer);
      // BackwardConv writes parameter grads and returns grad_input via the
      // shared implementation below.
      CCPERF_CHECK(grads != nullptr &&
                       grads->weights.GetShape() == conv.Weights().GetShape(),
                   "gradient store mis-shaped for ", layer.Name());
      // Re-run the core and capture grad_input.
      const Shape& in_shape = inputs[0]->GetShape();
      Tensor grad_input(in_shape);
      {
        // Inline of BackwardConv with grad capture (see above helper).
        const nn::ConvParams& p = conv.Params();
        const std::int64_t batch = in_shape.Dim(0);
        const std::int64_t groups = p.groups;
        const std::int64_t group_in = conv.InChannels() / groups;
        const std::int64_t group_out = p.out_channels / groups;
        ConvGeometry g{group_in, in_shape.Dim(2), in_shape.Dim(3), p.kernel,
                       p.kernel, p.stride, p.pad};
        const std::int64_t patch = g.PatchSize();
        const std::int64_t pixels = g.OutPixels();
        const std::int64_t in_plane = g.in_h * g.in_w;
        std::vector<float> columns(static_cast<std::size_t>(patch * pixels));
        std::vector<float> grad_columns(
            static_cast<std::size_t>(patch * pixels));
        std::vector<float> grad_group(
            static_cast<std::size_t>(group_in * in_plane));
        const std::span<const float> w = conv.Weights().Data();
        const std::span<const float> x = inputs[0]->Data();
        const std::span<const float> gout = grad_output.Data();
        std::span<float> gx = grad_input.Data();
        std::span<float> dw = grads->weights.Data();
        std::span<float> db = grads->bias.Data();
        for (std::int64_t img = 0; img < batch; ++img) {
          for (std::int64_t grp = 0; grp < groups; ++grp) {
            const std::int64_t in_off =
                (img * conv.InChannels() + grp * group_in) * in_plane;
            const std::int64_t out_off =
                (img * p.out_channels + grp * group_out) * pixels;
            const float* go = gout.data() + out_off;
            Im2Col(g, x.subspan(static_cast<std::size_t>(in_off),
                                static_cast<std::size_t>(group_in * in_plane)),
                   columns);
            GemmNTAccumulate(group_out, patch, pixels, go, columns.data(),
                             dw.data() + grp * group_out * patch);
            for (std::int64_t oc = 0; oc < group_out; ++oc) {
              float acc = 0.0f;
              const float* row = go + oc * pixels;
              for (std::int64_t px = 0; px < pixels; ++px) acc += row[px];
              db[static_cast<std::size_t>(grp * group_out + oc)] += acc;
            }
            GemmTN(patch, pixels, group_out,
                   w.data() + grp * group_out * patch, go,
                   grad_columns.data());
            Col2Im(g, grad_columns, grad_group);
            float* dst = gx.data() + in_off;
            for (std::size_t i = 0; i < grad_group.size(); ++i) {
              dst[i] = grad_group[i];
            }
          }
        }
      }
      std::vector<Tensor> result;
      result.push_back(std::move(grad_input));
      return result;
    }

    case nn::LayerKind::kFullyConnected: {
      CCPERF_CHECK(inputs.size() == 1, "fc arity");
      const auto& fc = static_cast<const nn::FcLayer&>(layer);
      CCPERF_CHECK(grads != nullptr &&
                       grads->weights.GetShape() == fc.Weights().GetShape(),
                   "gradient store mis-shaped for ", layer.Name());
      const Shape& in_shape = inputs[0]->GetShape();
      const std::int64_t batch = in_shape.Dim(0);
      const std::int64_t in_f = fc.InFeatures();
      const std::int64_t out_f = fc.OutFeatures();
      Tensor grad_input(in_shape);
      const std::span<const float> w = fc.Weights().Data();
      const std::span<const float> x = inputs[0]->Data();
      const std::span<const float> go = grad_output.Data();
      std::span<float> gx = grad_input.Data();
      std::span<float> dw = grads->weights.Data();
      std::span<float> db = grads->bias.Data();
      for (std::int64_t b = 0; b < batch; ++b) {
        const float* xb = x.data() + b * in_f;
        const float* gb = go.data() + b * out_f;
        float* gxb = gx.data() + b * in_f;
        std::fill(gxb, gxb + in_f, 0.0f);
        for (std::int64_t o = 0; o < out_f; ++o) {
          const float grad = gb[o];
          db[static_cast<std::size_t>(o)] += grad;
          if (grad == 0.0f) continue;
          float* dwrow = dw.data() + o * in_f;
          const float* wrow = w.data() + o * in_f;
          for (std::int64_t i = 0; i < in_f; ++i) {
            dwrow[i] += grad * xb[i];
            gxb[i] += grad * wrow[i];
          }
        }
      }
      std::vector<Tensor> result;
      result.push_back(std::move(grad_input));
      return result;
    }

    case nn::LayerKind::kReLU: {
      CCPERF_CHECK(inputs.size() == 1, "relu arity");
      Tensor grad_input(inputs[0]->GetShape());
      const auto out = output.Data();
      const auto go = grad_output.Data();
      auto gi = grad_input.Data();
      for (std::size_t i = 0; i < gi.size(); ++i) {
        gi[i] = out[i] > 0.0f ? go[i] : 0.0f;
      }
      std::vector<Tensor> result;
      result.push_back(std::move(grad_input));
      return result;
    }

    case nn::LayerKind::kDropout: {
      CCPERF_CHECK(inputs.size() == 1, "dropout arity");
      std::vector<Tensor> result;
      result.push_back(grad_output);
      return result;
    }

    case nn::LayerKind::kSoftmax: {
      // dL/dz_i = p_i * (g_i - sum_j g_j p_j) over the channel axis.
      CCPERF_CHECK(inputs.size() == 1, "softmax arity");
      const Shape& s = output.GetShape();
      const std::int64_t batch = s.Dim(0);
      const std::int64_t classes = s.Dim(1);
      Tensor grad_input(inputs[0]->GetShape());
      const auto p = output.Data();
      const auto g = grad_output.Data();
      auto gi = grad_input.Data();
      for (std::int64_t b = 0; b < batch; ++b) {
        const float* pb = p.data() + b * classes;
        const float* gb = g.data() + b * classes;
        float* gib = gi.data() + b * classes;
        float dot = 0.0f;
        for (std::int64_t c = 0; c < classes; ++c) dot += gb[c] * pb[c];
        for (std::int64_t c = 0; c < classes; ++c) {
          gib[c] = pb[c] * (gb[c] - dot);
        }
      }
      std::vector<Tensor> result;
      result.push_back(std::move(grad_input));
      return result;
    }

    case nn::LayerKind::kMaxPool:
    case nn::LayerKind::kAvgPool: {
      CCPERF_CHECK(inputs.size() == 1, "pool arity");
      const auto& pool = static_cast<const nn::PoolLayer&>(layer);
      const nn::PoolParams& pp = pool.Params();
      const Shape& in_shape = inputs[0]->GetShape();
      const Shape& out_shape = output.GetShape();
      const std::int64_t nc = in_shape.Dim(0) * in_shape.Dim(1);
      const std::int64_t in_h = in_shape.Dim(2);
      const std::int64_t in_w = in_shape.Dim(3);
      const std::int64_t out_h = out_shape.Dim(2);
      const std::int64_t out_w = out_shape.Dim(3);
      const bool is_max = layer.Kind() == nn::LayerKind::kMaxPool;
      Tensor grad_input(in_shape, 0.0f);
      const float* src = inputs[0]->Data().data();
      const float* go = grad_output.Data().data();
      float* gi = grad_input.Data().data();
      for (std::int64_t plane = 0; plane < nc; ++plane) {
        const float* in_p = src + plane * in_h * in_w;
        const float* go_p = go + plane * out_h * out_w;
        float* gi_p = gi + plane * in_h * in_w;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t h0 =
              std::max<std::int64_t>(0, oh * pp.stride - pp.pad);
          const std::int64_t h1 =
              std::min(in_h, oh * pp.stride - pp.pad + pp.kernel);
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t w0 =
                std::max<std::int64_t>(0, ow * pp.stride - pp.pad);
            const std::int64_t w1 =
                std::min(in_w, ow * pp.stride - pp.pad + pp.kernel);
            const float grad = go_p[oh * out_w + ow];
            if (grad == 0.0f) continue;
            if (is_max) {
              // Route to the (first) argmax, matching forward's max.
              std::int64_t best_h = h0, best_w = w0;
              float best = -std::numeric_limits<float>::infinity();
              for (std::int64_t h = h0; h < h1; ++h) {
                for (std::int64_t ww = w0; ww < w1; ++ww) {
                  if (in_p[h * in_w + ww] > best) {
                    best = in_p[h * in_w + ww];
                    best_h = h;
                    best_w = ww;
                  }
                }
              }
              gi_p[best_h * in_w + best_w] += grad;
            } else {
              const float share =
                  grad / static_cast<float>((h1 - h0) * (w1 - w0));
              for (std::int64_t h = h0; h < h1; ++h) {
                for (std::int64_t ww = w0; ww < w1; ++ww) {
                  gi_p[h * in_w + ww] += share;
                }
              }
            }
          }
        }
      }
      std::vector<Tensor> result;
      result.push_back(std::move(grad_input));
      return result;
    }

    case nn::LayerKind::kLRN: {
      // y_i = x_i s_i^{-b} with s_i = k + (a/n) sum_{j in w(i)} x_j^2, so
      //   dx_j = s_j^{-b} g_j - (2ab/n) x_j sum_{i: j in w(i)} g_i x_i
      //          s_i^{-b-1}.
      CCPERF_CHECK(inputs.size() == 1, "lrn arity");
      const auto& lrn = static_cast<const nn::LrnLayer&>(layer);
      const nn::LrnParams& pp = lrn.Params();
      const Shape& s = inputs[0]->GetShape();
      const std::int64_t batch = s.Dim(0);
      const std::int64_t channels = s.Dim(1);
      const std::int64_t plane = s.Dim(2) * s.Dim(3);
      const std::int64_t half = pp.local_size / 2;
      const float alpha_over_n =
          pp.alpha / static_cast<float>(pp.local_size);
      Tensor grad_input(s);
      const float* x = inputs[0]->Data().data();
      const float* g = grad_output.Data().data();
      float* gx = grad_input.Data().data();
      std::vector<float> scale(static_cast<std::size_t>(channels));
      for (std::int64_t b = 0; b < batch; ++b) {
        const float* xb = x + b * channels * plane;
        const float* gb = g + b * channels * plane;
        float* gxb = gx + b * channels * plane;
        for (std::int64_t px = 0; px < plane; ++px) {
          for (std::int64_t c = 0; c < channels; ++c) {
            const std::int64_t c0 = std::max<std::int64_t>(0, c - half);
            const std::int64_t c1 = std::min(channels, c + half + 1);
            float ss = 0.0f;
            for (std::int64_t cc = c0; cc < c1; ++cc) {
              const float v = xb[cc * plane + px];
              ss += v * v;
            }
            scale[static_cast<std::size_t>(c)] = pp.k + alpha_over_n * ss;
          }
          for (std::int64_t j = 0; j < channels; ++j) {
            const std::int64_t i0 = std::max<std::int64_t>(0, j - half);
            const std::int64_t i1 = std::min(channels, j + half + 1);
            float cross = 0.0f;
            for (std::int64_t i = i0; i < i1; ++i) {
              const float si = scale[static_cast<std::size_t>(i)];
              cross += gb[i * plane + px] * xb[i * plane + px] *
                       std::pow(si, -pp.beta - 1.0f);
            }
            const float sj = scale[static_cast<std::size_t>(j)];
            gxb[j * plane + px] =
                std::pow(sj, -pp.beta) * gb[j * plane + px] -
                2.0f * alpha_over_n * pp.beta * xb[j * plane + px] * cross;
          }
        }
      }
      std::vector<Tensor> result;
      result.push_back(std::move(grad_input));
      return result;
    }

    case nn::LayerKind::kConcat: {
      CCPERF_CHECK(inputs.size() >= 2, "concat arity");
      const Shape& out_shape = output.GetShape();
      const std::int64_t batch = out_shape.Dim(0);
      const std::int64_t plane = out_shape.Dim(2) * out_shape.Dim(3);
      const std::int64_t out_chan = out_shape.Dim(1);
      std::vector<Tensor> result;
      std::int64_t chan_off = 0;
      for (const Tensor* in : inputs) {
        const std::int64_t c = in->GetShape().Dim(1);
        Tensor grad(in->GetShape());
        for (std::int64_t b = 0; b < batch; ++b) {
          const float* src = grad_output.Data().data() +
                             (b * out_chan + chan_off) * plane;
          float* dst = grad.Data().data() + b * c * plane;
          std::copy(src, src + c * plane, dst);
        }
        chan_off += c;
        result.push_back(std::move(grad));
      }
      return result;
    }

    default:
      CCPERF_CHECK(false, "layer '", layer.Name(), "' (",
                   nn::LayerKindName(layer.Kind()),
                   ") has no backward implementation");
  }
}

}  // namespace ccperf::train
