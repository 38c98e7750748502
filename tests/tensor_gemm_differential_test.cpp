// Differential kernel-correctness harness: the blocked+packed Gemm is
// cross-checked against GemmReference (the pre-blocking row-panel kernel)
// and NaiveGemm (the ground-truth triple loop) over ~200 seeded shape
// samples, including degenerate extents, primes, tile-boundary straddles,
// and highly sparse A panels. Tolerances are scaled by a per-element
// magnitude bound (|A|·|B|) because the packed kernel reassociates the
// K-accumulation into kc-blocks and may contract multiply-add into FMA.
#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace ccperf {
namespace {

struct Sample {
  std::int64_t m, n, k;
  double sparsity;  // fraction of A entries forced to exactly 0.0f
};

std::vector<float> RandomMatrix(Rng& rng, std::int64_t count,
                                double sparsity = 0.0) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (auto& x : v) {
    x = rng.NextDouble() < sparsity ? 0.0f : rng.NextFloat(-1.0f, 1.0f);
  }
  return v;
}

/// |A|·|B|: per-element accumulation-magnitude bound for tolerance scaling.
std::vector<float> AbsBound(std::int64_t m, std::int64_t n, std::int64_t k,
                            const std::vector<float>& a,
                            const std::vector<float>& b) {
  std::vector<float> aa(a.size()), ab(b.size());
  for (std::size_t i = 0; i < a.size(); ++i) aa[i] = std::fabs(a[i]);
  for (std::size_t i = 0; i < b.size(); ++i) ab[i] = std::fabs(b[i]);
  std::vector<float> bound(static_cast<std::size_t>(m * n));
  NaiveGemm(m, n, k, aa, ab, bound);
  return bound;
}

/// The ~200-sample shape schedule: every degenerate/tile-edge case the
/// blocked kernel has a code path for, plus seeded random fill-in.
std::vector<Sample> ShapeSchedule() {
  std::vector<Sample> samples;
  // Degenerate extents in every position (27 samples).
  for (std::int64_t m : {0, 1, 2}) {
    for (std::int64_t n : {0, 1, 2}) {
      for (std::int64_t k : {0, 1, 2}) samples.push_back({m, n, k, 0.0});
    }
  }
  // Microkernel tile boundaries: mr = 6 rows, nr <= 32 columns, kc = 256.
  // Straddle each boundary by one in both directions.
  for (std::int64_t m : {5, 6, 7, 11, 12, 13}) {
    for (std::int64_t n : {31, 32, 33}) samples.push_back({m, n, 40, 0.0});
  }
  for (std::int64_t n : {63, 64, 65, 95, 96, 97}) {
    samples.push_back({9, n, 17, 0.0});
  }
  for (std::int64_t k : {255, 256, 257, 511, 512, 513}) {
    samples.push_back({7, 33, k, 0.0});
  }
  // Primes everywhere (no extent divides any tile dimension).
  for (std::int64_t m : {13, 29, 61}) {
    for (std::int64_t n : {37, 101}) {
      for (std::int64_t k : {23, 127}) samples.push_back({m, n, k, 0.0});
    }
  }
  // Highly sparse A panels — exercises the reference kernel's zero skip
  // against the packed kernel's dense multiply.
  for (double sparsity : {0.5, 0.9, 0.99}) {
    samples.push_back({17, 43, 97, sparsity});
    samples.push_back({48, 64, 256, sparsity});
    samples.push_back({6, 32, 128, sparsity});
  }
  // Seeded random fill-in up to ~200 total.
  Rng rng(0xD1FFu);
  while (samples.size() < 200) {
    samples.push_back({static_cast<std::int64_t>(rng.NextIndex(96)) + 1,
                       static_cast<std::int64_t>(rng.NextIndex(160)) + 1,
                       static_cast<std::int64_t>(rng.NextIndex(300)) + 1,
                       rng.NextDouble() < 0.25 ? 0.8 : 0.0});
  }
  return samples;
}

TEST(GemmDifferential, PackedMatchesReferenceAcrossShapeSchedule) {
  const std::vector<Sample> samples = ShapeSchedule();
  ASSERT_GE(samples.size(), 200u);
  std::size_t checked = 0;
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const auto [m, n, k, sparsity] = samples[s];
    Rng rng(0xC0FFEEu + s);
    const auto a = RandomMatrix(rng, m * k, sparsity);
    const auto b = RandomMatrix(rng, k * n);
    std::vector<float> c_fast(static_cast<std::size_t>(m * n), -7.0f);
    std::vector<float> c_ref(static_cast<std::size_t>(m * n), 7.0f);
    Gemm(m, n, k, a, b, c_fast);
    GemmReference(m, n, k, a, b, c_ref);
    if (m == 0 || n == 0) continue;
    const auto bound = AbsBound(m, n, k, a, b);
    for (std::size_t i = 0; i < c_fast.size(); ++i) {
      const float tol = 1e-5f * std::max(1.0f, bound[i]);
      ASSERT_NEAR(c_fast[i], c_ref[i], tol)
          << "sample " << s << " (m=" << m << " n=" << n << " k=" << k
          << " sparsity=" << sparsity << ") at index " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(GemmDifferential, PackedMatchesNaiveOnTileStraddlingShapes) {
  // Smaller sweep against the O(MNK) ground truth (quadratic cost).
  for (const auto& [m, n, k] :
       {std::tuple<std::int64_t, std::int64_t, std::int64_t>{6, 32, 256},
        {7, 33, 257}, {5, 31, 255}, {13, 97, 129}, {1, 1, 1000}, {96, 1, 1}}) {
    Rng rng(static_cast<std::uint64_t>(m * 131 + n * 17 + k));
    const auto a = RandomMatrix(rng, m * k);
    const auto b = RandomMatrix(rng, k * n);
    std::vector<float> c_fast(static_cast<std::size_t>(m * n));
    std::vector<float> c_naive(static_cast<std::size_t>(m * n));
    Gemm(m, n, k, a, b, c_fast);
    NaiveGemm(m, n, k, a, b, c_naive);
    const auto bound = AbsBound(m, n, k, a, b);
    for (std::size_t i = 0; i < c_fast.size(); ++i) {
      ASSERT_NEAR(c_fast[i], c_naive[i], 1e-5f * std::max(1.0f, bound[i]))
          << "m=" << m << " n=" << n << " k=" << k << " index " << i;
    }
  }
}

TEST(GemmDifferential, PackedAReusedAcrossMultiplies) {
  // One PackA serving several B operands (the conv weight-reuse pattern)
  // must give bitwise the same answer as Gemm, which packs each A panel in
  // place just before the microkernel reads it. The shapes straddle the
  // row tile (kMr = 6), the k block (kKc = 256) and the column block
  // (kNc = 1024), at the batched fc layer's narrow n and past one block.
  struct Shape {
    std::int64_t m, k;
  };
  constexpr Shape kShapes[] = {{23, 301}, {5, 255}, {6, 256}, {7, 257},
                               {13, 513}};
  constexpr std::int64_t kColumns[] = {57, 1, 16, 17, 1025};
  Rng rng(404);
  for (const Shape& shape : kShapes) {
    const std::int64_t m = shape.m;
    const std::int64_t k = shape.k;
    const auto a = RandomMatrix(rng, m * k);
    const PackedA packed = PackA(m, k, a);
    EXPECT_EQ(packed.M(), m);
    EXPECT_EQ(packed.K(), k);
    EXPECT_FALSE(packed.Empty());
    for (const std::int64_t n : kColumns) {
      const auto b = RandomMatrix(rng, k * n);
      std::vector<float> c_cached(static_cast<std::size_t>(m * n));
      std::vector<float> c_fresh(static_cast<std::size_t>(m * n));
      GemmPacked(packed, n, b, c_cached);
      Gemm(m, n, k, a, b, c_fresh);
      EXPECT_EQ(0, std::memcmp(c_cached.data(), c_fresh.data(),
                               c_cached.size() * sizeof(float)))
          << "m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(GemmDifferential, RepeatedRunsAreBitwiseDeterministic) {
  constexpr std::int64_t m = 67, n = 129, k = 300;
  Rng rng(55);
  const auto a = RandomMatrix(rng, m * k);
  const auto b = RandomMatrix(rng, k * n);
  std::vector<float> c1(static_cast<std::size_t>(m * n));
  std::vector<float> c2(static_cast<std::size_t>(m * n));
  Gemm(m, n, k, a, b, c1);
  Gemm(m, n, k, a, b, c2);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

// --- The reference kernel's aik == 0.0f skip ------------------------------
// GemmReference skips A entries equal to 0.0f. For finite inputs the skip is
// value-preserving (0 * finite == +/-0, which cannot move a sum), but with
// non-finite B it silently differs from IEEE arithmetic. The packed kernel
// intentionally drops the skip and multiplies densely; these tests pin down
// both halves of that decision.

TEST(GemmZeroSkip, NegativeZerosAndDenormalsArePreserved) {
  constexpr std::int64_t m = 8, n = 33, k = 64;
  Rng rng(98);
  auto a = RandomMatrix(rng, m * k);
  auto b = RandomMatrix(rng, k * n);
  const float denormal = std::numeric_limits<float>::denorm_min() * 64.0f;
  for (std::size_t i = 0; i < a.size(); i += 3) a[i] = -0.0f;
  for (std::size_t i = 1; i < a.size(); i += 5) a[i] = denormal;
  for (std::size_t i = 0; i < b.size(); i += 7) b[i] = -denormal;
  std::vector<float> c_fast(static_cast<std::size_t>(m * n));
  std::vector<float> c_ref(static_cast<std::size_t>(m * n));
  std::vector<float> c_naive(static_cast<std::size_t>(m * n));
  Gemm(m, n, k, a, b, c_fast);
  GemmReference(m, n, k, a, b, c_ref);
  NaiveGemm(m, n, k, a, b, c_naive);
  const auto bound = AbsBound(m, n, k, a, b);
  for (std::size_t i = 0; i < c_fast.size(); ++i) {
    const float tol = 1e-5f * std::max(1.0f, bound[i]);
    ASSERT_NEAR(c_fast[i], c_naive[i], tol) << "packed vs naive at " << i;
    ASSERT_NEAR(c_ref[i], c_naive[i], tol) << "reference vs naive at " << i;
  }
}

TEST(GemmZeroSkip, AllZeroRowTimesNonFiniteBDivergesByDesign) {
  // A row of exact zeros against a B containing NaN: IEEE says 0 * NaN is
  // NaN, so the packed kernel and NaiveGemm propagate it; GemmReference's
  // skip returns 0. This is the documented, intentional divergence — the
  // skip was a speed hack for sparse-ish panels, superseded by the CSR path.
  constexpr std::int64_t m = 2, n = 4, k = 3;
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
  for (std::int64_t kk = 0; kk < k; ++kk) a[static_cast<std::size_t>(k + kk)] = 1.0f;
  std::vector<float> b(static_cast<std::size_t>(k * n), 1.0f);
  b[1] = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> c_fast(static_cast<std::size_t>(m * n));
  std::vector<float> c_ref(static_cast<std::size_t>(m * n));
  std::vector<float> c_naive(static_cast<std::size_t>(m * n));
  Gemm(m, n, k, a, b, c_fast);
  GemmReference(m, n, k, a, b, c_ref);
  NaiveGemm(m, n, k, a, b, c_naive);
  // Row 0 (all-zero A row), column 1 (NaN in B): packed/naive propagate.
  EXPECT_TRUE(std::isnan(c_fast[1]));
  EXPECT_TRUE(std::isnan(c_naive[1]));
  EXPECT_EQ(c_ref[1], 0.0f);  // the reference skip hides the NaN
  // Row 1 multiplies the NaN by 1 — every kernel must propagate it there.
  EXPECT_TRUE(std::isnan(c_fast[static_cast<std::size_t>(n + 1)]));
  EXPECT_TRUE(std::isnan(c_ref[static_cast<std::size_t>(n + 1)]));
  // All-finite columns agree everywhere.
  for (std::size_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(c_fast[i], c_ref[i]);
    EXPECT_EQ(c_fast[n + i], c_ref[n + i]);
  }
}

// Gemv keeps several rows in flight per pass over x, and its pool chunks
// start wherever the pool splits. Each row must still be the single-row
// chain bit for bit, whether it lands in a group, in the tail or at a chunk
// edge, so Gemv(1, k) on that row alone is the oracle. NaiveGemm is not:
// GCC vectorizes and fuses its loops differently, and with -march=native it
// already differs from Gemv in the last bits at k = 7 and k = 53.
TEST(GemvDifferential, EveryRowMatchesTheRowAlone) {
  constexpr std::int64_t kMaxRows = 4099;
  for (const std::int64_t k : {1, 7, 17, 53, 1000, 9217}) {
    Rng rng(static_cast<std::uint64_t>(k));
    const auto a = RandomMatrix(rng, kMaxRows * k);
    const auto x = RandomMatrix(rng, k);
    const std::span<const float> rows(a);
    for (const std::int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 4099}) {
      std::vector<float> y(static_cast<std::size_t>(m));
      Gemv(m, k, rows.first(static_cast<std::size_t>(m * k)), x, y);
      for (std::int64_t i = 0; i < m; ++i) {
        float alone = 0.0f;
        Gemv(1, k,
             rows.subspan(static_cast<std::size_t>(i * k),
                          static_cast<std::size_t>(k)),
             x, std::span<float>(&alone, 1));
        ASSERT_EQ(std::bit_cast<std::uint32_t>(y[static_cast<std::size_t>(i)]),
                  std::bit_cast<std::uint32_t>(alone))
            << "m=" << m << " k=" << k << " row " << i;
      }
    }
  }
}

TEST(GemmDifferential, PackARejectsSizeMismatch) {
  std::vector<float> a(5);
  EXPECT_THROW(PackA(2, 3, a), CheckError);
}

}  // namespace
}  // namespace ccperf
