// Differential harness for the int8 quantized GEMM path (quant.h). Two
// oracles, two contracts:
//
//  1. Bitwise: GemmInt8 must equal NaiveGemmInt8 byte-for-byte on every
//     shape, epilogue, and input regime. Both sides make identical
//     quantization decisions and accumulate in exact int32, and they share
//     the single DequantRow epilogue, so any mismatch is a packing/blocking
//     bug — not noise.
//  2. Bounded: against a double-precision float GEMM the quantized result
//     must stay inside the per-element error bound derived from the scales
//     (s_a = per-row weight scale, s_b = per-tensor activation scale):
//       |c_q - c_f| <= s_a/2 * sum_k|b_kj| + s_b/2 * sum_k|a_ik|
//                      + K * s_a*s_b/4
//     which is the triangle inequality over the three quantization error
//     terms (a*e_b, b*e_a, e_a*e_b with |e| <= scale/2). A small relative
//     fudge absorbs the float rounding in computing 1/scale and in the
//     dequant epilogue itself.
//
// The shape schedule sweeps ~200 seeded (shape x scale-regime) samples:
// degenerate extents, microkernel tile straddles (mr = 6, nr <= 32,
// kc = 256, and the int8 k-group of 2/4), primes, and five input magnitude
// regimes that move the quantization grid across six decades.
#include "tensor/quant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/threading.h"
#include "nn/fc_layer.h"
#include "tensor/tensor.h"

namespace ccperf {
namespace {

// Input magnitude regimes: each one puts the quantization step (scale) in a
// different decade, so the derived bound — not a fixed epsilon — is what
// keeps the sweep honest.
enum class Regime {
  kUnit,      // uniform [-1, 1]
  kTiny,      // uniform [-1e-4, 1e-4]: denormal-adjacent grid
  kLarge,     // uniform [-1e3, 1e3]: coarse grid, big accumulators
  kOutlier,   // unit values + rare 100x spikes: outlier-dominated scale
  kRowScaled  // row r magnified by 10^(r % 5 - 2): per-channel scales differ
};

struct QSample {
  std::int64_t m, n, k;
  Regime regime;
};

std::vector<float> RandomMatrix(Rng& rng, std::int64_t rows, std::int64_t cols,
                                Regime regime) {
  std::vector<float> v(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    float mag = 1.0f;
    switch (regime) {
      case Regime::kUnit:
        break;
      case Regime::kTiny:
        mag = 1e-4f;
        break;
      case Regime::kLarge:
        mag = 1e3f;
        break;
      case Regime::kOutlier:
        break;
      case Regime::kRowScaled:
        mag = std::pow(10.0f, static_cast<float>(r % 5) - 2.0f);
        break;
    }
    for (std::int64_t c = 0; c < cols; ++c) {
      float x = rng.NextFloat(-mag, mag);
      if (regime == Regime::kOutlier && rng.NextDouble() < 0.01) x *= 100.0f;
      v[static_cast<std::size_t>(r * cols + c)] = x;
    }
  }
  return v;
}

/// The per-row weight scale exactly as the kernel computes it (float max of
/// finite |values| is exact and order-independent, then one float divide).
float RowScale(std::span<const float> row) {
  float m = 0.0f;
  for (const float x : row) {
    const float a = std::fabs(x);
    if (a <= std::numeric_limits<float>::max()) m = std::max(m, a);
  }
  return m / 127.0f;
}

/// Ground-truth float GEMM in double precision — quantization error is the
/// only significant difference between this and the int8 path.
std::vector<double> DoubleGemm(std::int64_t m, std::int64_t n, std::int64_t k,
                               std::span<const float> a,
                               std::span<const float> b) {
  std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double av = a[static_cast<std::size_t>(i * k + kk)];
      for (std::int64_t j = 0; j < n; ++j) {
        c[static_cast<std::size_t>(i * n + j)] +=
            av * b[static_cast<std::size_t>(kk * n + j)];
      }
    }
  }
  return c;
}

/// ~200-sample (shape x regime) schedule. Tile geometry from kernel_tile.h:
/// mr = 6 row panels, nr <= 32 column panels, kc = 256 K slices, and the
/// int8 kernel's K-group of 4 (VNNI quads) or 2 (int16 pairs).
std::vector<QSample> ShapeSchedule() {
  std::vector<QSample> samples;
  // Degenerate extents in every position (27).
  for (std::int64_t m : {0, 1, 2}) {
    for (std::int64_t n : {0, 1, 2}) {
      for (std::int64_t k : {0, 1, 2}) samples.push_back({m, n, k, Regime::kUnit});
    }
  }
  // mr / nr straddles, alternating regimes (36).
  {
    int idx = 0;
    for (std::int64_t m : {5, 6, 7, 11, 12, 13}) {
      for (std::int64_t n : {31, 32, 33}) {
        samples.push_back({m, n, 40, static_cast<Regime>(idx++ % 5)});
      }
    }
    for (std::int64_t n : {63, 64, 65}) {
      samples.push_back({9, n, 17, static_cast<Regime>(idx++ % 5)});
    }
  }
  // K straddles: the kc = 256 slice boundary and every k-group remainder
  // (k mod 4 in {0,1,2,3} — the group zero-pad path) (14).
  for (std::int64_t k : {3, 4, 5, 6, 7, 253, 254, 255, 256, 257, 258, 259,
                         511, 513}) {
    samples.push_back({7, 33, k, Regime::kUnit});
  }
  // Primes everywhere, one per regime (12).
  {
    int idx = 0;
    for (std::int64_t m : {13, 29}) {
      for (std::int64_t n : {37, 101}) {
        for (std::int64_t k : {23, 127}) {
          samples.push_back({m, n, k, static_cast<Regime>(idx++ % 5)});
        }
      }
    }
  }
  // Seeded random fill to >= 200, cycling regimes.
  Rng rng(0xD1FF8u);
  while (samples.size() < 200) {
    samples.push_back(
        {static_cast<std::int64_t>(rng.NextIndex(64)) + 1,
         static_cast<std::int64_t>(rng.NextIndex(96)) + 1,
         static_cast<std::int64_t>(rng.NextIndex(280)) + 1,
         static_cast<Regime>(samples.size() % 5)});
  }
  return samples;
}

TEST(QuantDifferential, BitwiseNaiveAndBoundedFloatAcrossShapeSchedule) {
  const std::vector<QSample> samples = ShapeSchedule();
  ASSERT_GE(samples.size(), 200u);
  std::size_t bound_checked = 0;
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const auto [m, n, k, regime] = samples[s];
    Rng rng(0xC0FFEEu + s);
    const auto a = RandomMatrix(rng, m, k, regime);
    const auto b = RandomMatrix(rng, k, n, regime);
    std::vector<float> c_fast(static_cast<std::size_t>(m * n), -7.0f);
    std::vector<float> c_naive(static_cast<std::size_t>(m * n), 7.0f);
    GemmInt8(m, n, k, a, b, c_fast);
    NaiveGemmInt8(m, n, k, a, b, c_naive);
    // Contract 1: bitwise agreement with the exact-int32 oracle. (Empty
    // outputs skip the memcmp: data() of an empty vector may be null.)
    if (m == 0 || n == 0) continue;
    ASSERT_EQ(0, std::memcmp(c_fast.data(), c_naive.data(),
                             c_fast.size() * sizeof(float)))
        << "sample " << s << " (m=" << m << " n=" << n << " k=" << k << ")";

    // Contract 2: the scale-derived bound against the float ground truth.
    const auto c_f = DoubleGemm(m, n, k, a, b);
    const double s_b = ActivationScale(b);
    std::vector<double> row_abs(static_cast<std::size_t>(m), 0.0);
    std::vector<double> col_abs(static_cast<std::size_t>(n), 0.0);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        row_abs[static_cast<std::size_t>(i)] +=
            std::fabs(a[static_cast<std::size_t>(i * k + kk)]);
      }
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < n; ++j) {
        col_abs[static_cast<std::size_t>(j)] +=
            std::fabs(b[static_cast<std::size_t>(kk * n + j)]);
      }
    }
    for (std::int64_t i = 0; i < m; ++i) {
      const double s_a = RowScale(
          std::span<const float>(a).subspan(static_cast<std::size_t>(i * k),
                                            static_cast<std::size_t>(k)));
      for (std::int64_t j = 0; j < n; ++j) {
        const std::size_t idx = static_cast<std::size_t>(i * n + j);
        const double bound = s_a / 2.0 * col_abs[static_cast<std::size_t>(j)] +
                             s_b / 2.0 * row_abs[static_cast<std::size_t>(i)] +
                             static_cast<double>(k) * s_a * s_b / 4.0;
        // 1e-3 relative fudge: 1/scale and the dequant multiply each round
        // once in float; 1e-6 absolute + 1e-6 * |c_f| floors the k = 0 /
        // all-zero cases and large-magnitude ULP effects.
        const double tol =
            bound * 1.001 + 1e-6 + 1e-6 * std::fabs(c_f[idx]);
        ASSERT_LE(std::fabs(static_cast<double>(c_fast[idx]) - c_f[idx]), tol)
            << "sample " << s << " (m=" << m << " n=" << n << " k=" << k
            << " regime=" << static_cast<int>(regime) << ") at (" << i << ","
            << j << "): c_q=" << c_fast[idx] << " c_f=" << c_f[idx]
            << " s_a=" << s_a << " s_b=" << s_b;
        ++bound_checked;
      }
    }
  }
  EXPECT_GT(bound_checked, 0u);
}

TEST(QuantDifferential, FusedEpiloguesMatchNaiveBitwise) {
  // Bias / ReLU / bias+ReLU: all through the one shared DequantRow, so the
  // packed and naive paths must stay bitwise equal with any epilogue. The
  // semantic checks (bias adds, ReLU clamps) ride along.
  constexpr std::int64_t m = 13, n = 65, k = 129;
  Rng rng(0xE417u);
  const auto a = RandomMatrix(rng, m, k, Regime::kRowScaled);
  const auto b = RandomMatrix(rng, k, n, Regime::kUnit);
  std::vector<float> bias(static_cast<std::size_t>(m));
  for (auto& x : bias) x = rng.NextFloat(-2.0f, 2.0f);

  for (const bool with_bias : {false, true}) {
    for (const bool relu : {false, true}) {
      Int8Epilogue epi;
      if (with_bias) epi.bias = bias;
      epi.relu = relu;
      std::vector<float> c_fast(static_cast<std::size_t>(m * n));
      std::vector<float> c_naive(static_cast<std::size_t>(m * n));
      GemmInt8(m, n, k, a, b, c_fast);  // plain, reused as the baseline
      std::vector<float> c_base = c_fast;
      GemmInt8(m, n, k, a, b, c_fast, epi);
      NaiveGemmInt8(m, n, k, a, b, c_naive, epi);
      ASSERT_EQ(0, std::memcmp(c_fast.data(), c_naive.data(),
                               c_fast.size() * sizeof(float)))
          << "bias=" << with_bias << " relu=" << relu;
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          const std::size_t idx = static_cast<std::size_t>(i * n + j);
          float expected = c_base[idx];
          if (with_bias) expected += bias[static_cast<std::size_t>(i)];
          if (relu) expected = std::max(0.0f, expected);
          // NEAR, not EQ: the fused epilogue contracts acc*deq + bias into
          // one FMA (single rounding); this recomputation rounds twice.
          ASSERT_NEAR(expected, c_fast[idx],
                      1e-6f * std::max(1.0f, std::fabs(expected)))
              << "bias=" << with_bias << " relu=" << relu << " at (" << i
              << "," << j << ")";
          if (relu) ASSERT_GE(c_fast[idx], 0.0f);
        }
      }
    }
  }
}

TEST(QuantDifferential, CachedPackReusedAcrossMultiplies) {
  // One QuantizePackA serving several B operands (the conv/fc cached-weight
  // pattern) must match the pack-on-the-fly entry point bitwise.
  constexpr std::int64_t m = 23, n = 57, k = 301;
  Rng rng(404);
  const auto a = RandomMatrix(rng, m, k, Regime::kOutlier);
  const QuantizedPackedA packed = QuantizePackA(m, k, a);
  EXPECT_EQ(packed.M(), m);
  EXPECT_EQ(packed.K(), k);
  EXPECT_FALSE(packed.Empty());
  ASSERT_EQ(packed.RowScales().size(), static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    EXPECT_EQ(packed.RowScales()[static_cast<std::size_t>(i)],
              RowScale(std::span<const float>(a).subspan(
                  static_cast<std::size_t>(i * k),
                  static_cast<std::size_t>(k))))
        << "row " << i;
  }
  for (int trial = 0; trial < 3; ++trial) {
    const auto b = RandomMatrix(rng, k, n, Regime::kUnit);
    std::vector<float> c_cached(static_cast<std::size_t>(m * n));
    std::vector<float> c_fresh(static_cast<std::size_t>(m * n));
    GemmInt8(packed, n, b, c_cached);
    GemmInt8(m, n, k, a, b, c_fresh);
    EXPECT_EQ(0, std::memcmp(c_cached.data(), c_fresh.data(),
                             c_cached.size() * sizeof(float)))
        << "trial " << trial;
  }
}

TEST(QuantDifferential, PoolSizeIndependentAndBitwiseDeterministic) {
  // Exact int32 accumulation makes the result independent of how the
  // ParallelForChunks sweeps are carved up: serial == pooled, bitwise.
  constexpr std::int64_t m = 67, n = 129, k = 300;
  Rng rng(55);
  const auto a = RandomMatrix(rng, m, k, Regime::kUnit);
  const auto b = RandomMatrix(rng, k, n, Regime::kUnit);
  std::vector<float> pooled(static_cast<std::size_t>(m * n));
  std::vector<float> repeat(static_cast<std::size_t>(m * n));
  std::vector<float> serial(static_cast<std::size_t>(m * n));
  GemmInt8(m, n, k, a, b, pooled);
  GemmInt8(m, n, k, a, b, repeat);
  {
    ScopedSerial serial_scope;
    GemmInt8(m, n, k, a, b, serial);
  }
  EXPECT_EQ(0, std::memcmp(pooled.data(), repeat.data(),
                           pooled.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(pooled.data(), serial.data(),
                           pooled.size() * sizeof(float)));
}

// --- Edge-case regression pins (ISSUE 7 satellite 2) ----------------------

TEST(QuantEdgeCases, AllZeroChannelKeepsScaleZeroAndBiasFlowsThrough) {
  // A row of exact zeros must quantize with scale 0 (not a NaN or Inf from
  // a 0/0), contribute nothing, and still receive its bias in the epilogue.
  constexpr std::int64_t m = 4, n = 33, k = 50;
  Rng rng(11);
  auto a = RandomMatrix(rng, m, k, Regime::kUnit);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    a[static_cast<std::size_t>(1 * k + kk)] = 0.0f;  // row 1: all zeros
  }
  const auto b = RandomMatrix(rng, k, n, Regime::kUnit);
  const QuantizedPackedA packed = QuantizePackA(m, k, a);
  EXPECT_EQ(packed.RowScales()[1], 0.0f);
  EXPECT_GT(packed.RowScales()[0], 0.0f);
  std::vector<float> bias = {0.5f, -1.25f, 2.0f, 0.0f};
  std::vector<float> c_fast(static_cast<std::size_t>(m * n), -9.0f);
  std::vector<float> c_naive(static_cast<std::size_t>(m * n), 9.0f);
  GemmInt8(packed, n, b, c_fast, {.bias = bias});
  NaiveGemmInt8(m, n, k, a, b, c_naive, {.bias = bias});
  ASSERT_EQ(0, std::memcmp(c_fast.data(), c_naive.data(),
                           c_fast.size() * sizeof(float)));
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(c_fast[static_cast<std::size_t>(n + j)], -1.25f)
        << "zero row must pass its bias through untouched, col " << j;
  }
}

TEST(QuantEdgeCases, AllZeroActivationsProduceBiasOnly) {
  constexpr std::int64_t m = 3, n = 17, k = 20;
  Rng rng(12);
  const auto a = RandomMatrix(rng, m, k, Regime::kUnit);
  const std::vector<float> b(static_cast<std::size_t>(k * n), 0.0f);
  EXPECT_EQ(ActivationScale(b), 0.0f);
  std::vector<float> bias = {1.0f, -2.0f, 3.0f};
  std::vector<float> c(static_cast<std::size_t>(m * n));
  GemmInt8(m, n, k, a, b, c, {.bias = bias, .relu = true});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(c[static_cast<std::size_t>(i * n + j)],
                std::max(0.0f, bias[static_cast<std::size_t>(i)]));
    }
  }
}

TEST(QuantEdgeCases, QuantizeToInt8SaturatesAndPinsSpecialValues) {
  // Saturating clamp at +/-127 (never -128: the grid is symmetric).
  EXPECT_EQ(QuantizeToInt8(1000.0f, 1.0f), 127);
  EXPECT_EQ(QuantizeToInt8(-1000.0f, 1.0f), -127);
  EXPECT_EQ(QuantizeToInt8(127.49f, 1.0f), 127);
  EXPECT_EQ(QuantizeToInt8(-127.49f, 1.0f), -127);
  // Non-finite pinning: NaN -> 0, +/-Inf -> +/-127.
  EXPECT_EQ(QuantizeToInt8(std::numeric_limits<float>::quiet_NaN(), 1.0f), 0);
  EXPECT_EQ(QuantizeToInt8(std::numeric_limits<float>::infinity(), 1.0f), 127);
  EXPECT_EQ(QuantizeToInt8(-std::numeric_limits<float>::infinity(), 1.0f),
            -127);
  // Zero / invalid scale maps everything to 0 (the scale-0 guard).
  EXPECT_EQ(QuantizeToInt8(5.0f, 0.0f), 0);
  EXPECT_EQ(QuantizeToInt8(5.0f, -1.0f), 0);
  EXPECT_EQ(QuantizeToInt8(5.0f, std::numeric_limits<float>::quiet_NaN()), 0);
  // Denormals and signed zero collapse to code 0.
  EXPECT_EQ(QuantizeToInt8(std::numeric_limits<float>::denorm_min(), 1.0f), 0);
  EXPECT_EQ(QuantizeToInt8(0.0f, 1.0f), 0);
  EXPECT_EQ(QuantizeToInt8(-0.0f, 1.0f), 0);
  // Round-to-nearest-EVEN at the .5 boundaries — lrintf under the default
  // rounding mode, matched exactly by the vector quantizer's vcvtps2dq.
  EXPECT_EQ(QuantizeToInt8(0.5f, 1.0f), 0);
  EXPECT_EQ(QuantizeToInt8(1.5f, 1.0f), 2);
  EXPECT_EQ(QuantizeToInt8(2.5f, 1.0f), 2);
  EXPECT_EQ(QuantizeToInt8(-0.5f, 1.0f), 0);
  EXPECT_EQ(QuantizeToInt8(-1.5f, 1.0f), -2);
}

TEST(QuantEdgeCases, NonFiniteActivationsAreContained) {
  // NaN activations quantize to 0 and Inf saturates to +/-127; neither may
  // poison the scale (FiniteMaxAbs ignores them) or the output tile.
  constexpr std::int64_t m = 5, n = 34, k = 40;
  Rng rng(13);
  const auto a = RandomMatrix(rng, m, k, Regime::kUnit);
  auto b = RandomMatrix(rng, k, n, Regime::kUnit);
  b[3] = std::numeric_limits<float>::quiet_NaN();
  b[40] = std::numeric_limits<float>::infinity();
  b[77] = -std::numeric_limits<float>::infinity();
  b[100] = std::numeric_limits<float>::denorm_min();
  b[141] = -0.0f;
  // Scale comes from the finite entries only.
  std::vector<float> finite_only;
  for (const float x : b) {
    if (std::isfinite(x)) finite_only.push_back(x);
  }
  EXPECT_EQ(ActivationScale(b), ActivationScale(finite_only));
  std::vector<float> c_fast(static_cast<std::size_t>(m * n));
  std::vector<float> c_naive(static_cast<std::size_t>(m * n));
  GemmInt8(m, n, k, a, b, c_fast);
  NaiveGemmInt8(m, n, k, a, b, c_naive);
  ASSERT_EQ(0, std::memcmp(c_fast.data(), c_naive.data(),
                           c_fast.size() * sizeof(float)));
  for (const float v : c_fast) {
    EXPECT_TRUE(std::isfinite(v)) << "a poisoned activation leaked through";
  }
}

TEST(QuantEdgeCases, NoOverflowAtTableOneMaxDepth) {
  // fc6 is Table 1's deepest GEMM (K = 9216). Worst-case inputs put every
  // quantized value at the +/-127 rail; the int32 accumulators must carry
  // it exactly (bitwise naive agreement proves no intermediate wrapped).
  constexpr std::int64_t m = 3, n = 8, k = 9216;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  Rng rng(14);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextDouble() < 0.5 ? 1.0f : -1.0f;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = rng.NextDouble() < 0.5 ? 1.0f : -1.0f;
  }
  std::vector<float> c_fast(static_cast<std::size_t>(m * n));
  std::vector<float> c_naive(static_cast<std::size_t>(m * n));
  GemmInt8(m, n, k, a, b, c_fast);
  NaiveGemmInt8(m, n, k, a, b, c_naive);
  EXPECT_EQ(0, std::memcmp(c_fast.data(), c_naive.data(),
                           c_fast.size() * sizeof(float)));
}

TEST(QuantEdgeCases, NoOverflowAtInt8MaxDepthRails) {
  // The documented bound itself: at k = kInt8MaxDepth with every value on
  // the +127 rail, the biased VNNI path's worst intermediate k * 127 * 255
  // lands within one k-step of INT32_MAX. All-ones inputs make the exact
  // answer k (q_a*q_b = 127^2 cancels the two 1/127 scales), so a wrapped
  // accumulator anywhere would be glaring.
  constexpr std::int64_t k = kInt8MaxDepth;
  static_assert(k * 127LL * 255LL <= 2147483647LL);
  static_assert((k + 1) * 127LL * 255LL > 2147483647LL);
  for (const float a_val : {1.0f, -1.0f}) {
    const std::vector<float> a(static_cast<std::size_t>(k), a_val);
    const std::vector<float> b(static_cast<std::size_t>(k), 1.0f);
    std::vector<float> c_fast(1), c_naive(1);
    GemmInt8(1, 1, k, a, b, c_fast);
    NaiveGemmInt8(1, 1, k, a, b, c_naive);
    EXPECT_EQ(c_fast[0], c_naive[0]);
    EXPECT_NEAR(c_fast[0], a_val * static_cast<float>(k),
                1e-4f * static_cast<float>(k));
  }
}

TEST(QuantEdgeCases, DepthBeyondBoundIsRejected) {
  const std::int64_t k = kInt8MaxDepth + 1;
  const std::vector<float> a(static_cast<std::size_t>(k), 1.0f);
  const std::vector<float> b(static_cast<std::size_t>(k), 1.0f);
  std::vector<float> c(1);
  EXPECT_THROW(QuantizePackA(1, k, a), CheckError);
  EXPECT_THROW(NaiveGemmInt8(1, 1, k, a, b, c), CheckError);
}

TEST(QuantEdgeCases, SizeMismatchesAreRejected) {
  std::vector<float> a(5);
  EXPECT_THROW(QuantizePackA(2, 3, a), CheckError);
  const QuantizedPackedA packed = QuantizePackA(1, 5, a);
  std::vector<float> b(5), c(2), bias(3);
  EXPECT_THROW(GemmInt8(packed, 2, b, c), CheckError);  // B is 5, needs 10
  std::vector<float> b2(10);
  EXPECT_THROW(GemmInt8(packed, 2, b2, c, {.bias = bias}), CheckError);
}

// --- batched fc fast path (ISSUE 8 satellite 2) -----------------------------
//
// FcLayer's batch > 1 int8 path runs ONE GemmInt8 against the transposed
// batch (y^T = W x^T with the bias fused into the dequant epilogue). These
// gates pin that orientation: skinny-N panels (N = batch is small for fc),
// bitwise agreement of the whole layer against a transpose + naive oracle,
// and batch-permutation equivariance of the per-tensor activation scale.

TEST(QuantBatchedFc, SkinnyNBitwiseAcrossBatchWidths) {
  // fc batches occupy the narrow-B corner (N << nr): every width from a
  // single column through one microkernel panel must stay bitwise equal to
  // the naive oracle when served from one cached weight pack.
  constexpr std::int64_t m = 50, k = 120;
  Rng rng(0xFCBA7u);
  const auto a = RandomMatrix(rng, m, k, Regime::kRowScaled);
  const QuantizedPackedA packed = QuantizePackA(m, k, a);
  std::vector<float> bias(static_cast<std::size_t>(m));
  for (auto& x : bias) x = rng.NextFloat(-1.0f, 1.0f);
  for (const std::int64_t n : {1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 31, 33}) {
    const auto b = RandomMatrix(rng, k, n, Regime::kUnit);
    std::vector<float> c_fast(static_cast<std::size_t>(m * n), -3.0f);
    std::vector<float> c_naive(static_cast<std::size_t>(m * n), 3.0f);
    GemmInt8(packed, n, b, c_fast, {.bias = bias});
    NaiveGemmInt8(m, n, k, a, b, c_naive, {.bias = bias});
    ASSERT_EQ(0, std::memcmp(c_fast.data(), c_naive.data(),
                             c_fast.size() * sizeof(float)))
        << "batch width n=" << n;
  }
}

TEST(QuantBatchedFc, FcForwardMatchesTransposedNaiveOracle) {
  // The full layer, batch > 1: Forward must equal transpose -> one naive
  // int8 GEMM with fused bias -> transpose back, bitwise. Any drift means
  // the layer stopped feeding the batch through the single blocked multiply
  // (or re-quantized per sample).
  constexpr std::int64_t in = 72, out = 35, batch = 9;
  nn::FcLayer fc("fc_gate", in, out);
  Rng rng(0xFCB17u);
  for (auto& w : fc.MutableWeights().Data()) w = rng.NextFloat(-0.5f, 0.5f);
  for (auto& b : fc.MutableBias().Data()) b = rng.NextFloat(-2.0f, 2.0f);
  fc.SetInt8Execution(true);
  ASSERT_EQ(fc.Format(), KernelFormat::kInt8);

  Tensor input(Shape{batch, in, 1, 1});
  for (auto& x : input.Data()) x = rng.NextFloat(-1.0f, 1.0f);
  const Tensor got = fc.Forward({&input});

  std::vector<float> xt(static_cast<std::size_t>(in * batch));
  for (std::int64_t img = 0; img < batch; ++img) {
    for (std::int64_t f = 0; f < in; ++f) {
      xt[static_cast<std::size_t>(f * batch + img)] =
          input.Data()[static_cast<std::size_t>(img * in + f)];
    }
  }
  std::vector<float> yt(static_cast<std::size_t>(out * batch));
  NaiveGemmInt8(out, batch, in, fc.Weights().Data(), xt, yt,
                {.bias = fc.Bias().Data()});
  for (std::int64_t img = 0; img < batch; ++img) {
    for (std::int64_t o = 0; o < out; ++o) {
      const float expected = yt[static_cast<std::size_t>(o * batch + img)];
      const float actual =
          got.Data()[static_cast<std::size_t>(img * out + o)];
      ASSERT_EQ(0, std::memcmp(&expected, &actual, sizeof(float)))
          << "img=" << img << " o=" << o << " expected=" << expected
          << " actual=" << actual;
    }
  }
}

TEST(QuantBatchedFc, BatchPermutationEquivariance) {
  // The activation scale is per-tensor — a permutation-invariant max — and
  // quantization is element-wise, so permuting the batch rows must permute
  // the output rows bitwise. A per-sample re-quantization would break this.
  constexpr std::int64_t in = 48, out = 21, batch = 7;
  nn::FcLayer fc("fc_perm", in, out);
  Rng rng(0xFCB27u);
  for (auto& w : fc.MutableWeights().Data()) w = rng.NextFloat(-0.5f, 0.5f);
  for (auto& b : fc.MutableBias().Data()) b = rng.NextFloat(-1.0f, 1.0f);
  fc.SetInt8Execution(true);
  ASSERT_EQ(fc.Format(), KernelFormat::kInt8);

  Tensor input(Shape{batch, in, 1, 1});
  for (auto& x : input.Data()) x = rng.NextFloat(-1.0f, 1.0f);
  const std::vector<std::int64_t> perm{4, 0, 6, 2, 5, 1, 3};
  Tensor permuted(Shape{batch, in, 1, 1});
  for (std::int64_t img = 0; img < batch; ++img) {
    for (std::int64_t f = 0; f < in; ++f) {
      permuted.Data()[static_cast<std::size_t>(img * in + f)] =
          input.Data()[static_cast<std::size_t>(
              perm[static_cast<std::size_t>(img)] * in + f)];
    }
  }
  const Tensor y = fc.Forward({&input});
  const Tensor y_perm = fc.Forward({&permuted});
  for (std::int64_t img = 0; img < batch; ++img) {
    ASSERT_EQ(0,
              std::memcmp(
                  y_perm.Data().data() + img * out,
                  y.Data().data() + perm[static_cast<std::size_t>(img)] * out,
                  static_cast<std::size_t>(out) * sizeof(float)))
        << "img=" << img;
  }
}

}  // namespace
}  // namespace ccperf
