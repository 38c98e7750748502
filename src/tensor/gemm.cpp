#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/threading.h"
#include "tensor/kernel_tile.h"

#if defined(__GNUC__) || defined(__clang__)
#define CCPERF_GEMM_RESTRICT __restrict__
#else
#define CCPERF_GEMM_RESTRICT
#endif

namespace ccperf {

namespace {

// Blocked kernel tile geometry — shared with the sparse kernel TU so packed
// B panels have the same ISA-sized width in both (see kernel_tile.h).
using kernel::kKc;
using kernel::kMr;
using kernel::kNc;
using kernel::kNr;

// Row panels assigned per task in the reference kernel; each C row stays
// resident in L1 while its K-long accumulation streams over B. For very wide
// rows the j-range is blocked so the C slice still fits L1.
constexpr std::int64_t kRefBlockM = 16;
constexpr std::int64_t kRefBlockN = 4096;

// Rows in flight per pass over x in Gemv (four measured best on the fc
// shapes; two and eight were slower).
constexpr std::size_t kGemvRows = 4;

void CheckGemmArgs(std::int64_t m, std::int64_t n, std::int64_t k,
                   std::span<const float> a, std::span<const float> b,
                   std::span<float> c) {
  CCPERF_CHECK(m >= 0 && n >= 0 && k >= 0, "negative GEMM extent");
  CCPERF_CHECK(static_cast<std::int64_t>(a.size()) == m * k, "A size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(b.size()) == k * n, "B size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(c.size()) == m * n, "C size mismatch");
}

// Register tile: acc[kMr][kNr] += A_panel[kc x kMr] * B_panel[kc x kNr],
// then the valid mv x nv corner is written back to C — overwriting on the
// first K block, accumulating on later ones. Tail lanes beyond mv/nv operate
// on packed zero padding and are never written back, so every C element sees
// the exact same ascending-k accumulation order regardless of tile
// alignment, chunk boundaries, or pool size (bitwise-deterministic output).
void MicroKernel(std::int64_t kc, const float* CCPERF_GEMM_RESTRICT ap,
                 const float* CCPERF_GEMM_RESTRICT bp,
                 float* CCPERF_GEMM_RESTRICT c, std::int64_t ldc,
                 std::int64_t mv, std::int64_t nv, bool first) {
  float acc[kMr][kNr] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* CCPERF_GEMM_RESTRICT brow = bp + kk * kNr;
    const float* CCPERF_GEMM_RESTRICT arow = ap + kk * kMr;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (std::int64_t j = 0; j < kNr; ++j) {
        acc[r][j] += av * brow[j];
      }
    }
  }
  if (mv == kMr && nv == kNr) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      float* CCPERF_GEMM_RESTRICT crow = c + r * ldc;
      if (first) {
        for (std::int64_t j = 0; j < kNr; ++j) crow[j] = acc[r][j];
      } else {
        for (std::int64_t j = 0; j < kNr; ++j) crow[j] += acc[r][j];
      }
    }
  } else {
    for (std::int64_t r = 0; r < mv; ++r) {
      float* crow = c + r * ldc;
      if (first) {
        for (std::int64_t j = 0; j < nv; ++j) crow[j] = acc[r][j];
      } else {
        for (std::int64_t j = 0; j < nv; ++j) crow[j] += acc[r][j];
      }
    }
  }
}

// Multiply rows [row_lo, row_hi) of A into C (reference kernel body).
void GemmRowPanel(std::int64_t row_lo, std::int64_t row_hi, std::int64_t n,
                  std::int64_t k, const float* a, const float* b, float* c) {
  for (std::int64_t i = row_lo; i < row_hi; ++i) {
    float* crow = c + i * n;
    std::memset(crow, 0, static_cast<std::size_t>(n) * sizeof(float));
    const float* arow = a + i * k;
    for (std::int64_t j0 = 0; j0 < n; j0 += kRefBlockN) {
      const std::int64_t j1 = std::min(n, j0 + kRefBlockN);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;  // free win on sparse-ish panels
        const float* brow = b + kk * n;
        for (std::int64_t j = j0; j < j1; ++j) {
          crow[j] += aik * brow[j];
        }
      }
    }
  }
}

// Writes the kMr x kc A panel whose rows start at `a` (row stride lda) in
// the microkernel's k-major order; rows mv..kMr are zero, and multiply into
// accumulator lanes the write-back discards.
void PackPanel(const float* CCPERF_GEMM_RESTRICT a, std::int64_t lda,
               std::int64_t mv, std::int64_t kc,
               float* CCPERF_GEMM_RESTRICT panel) {
  for (std::int64_t r = 0; r < mv; ++r) {
    const float* arow = a + r * lda;
    for (std::int64_t kk = 0; kk < kc; ++kk) panel[kk * kMr + r] = arow[kk];
  }
  for (std::int64_t r = mv; r < kMr; ++r) {
    for (std::int64_t kk = 0; kk < kc; ++kk) panel[kk * kMr + r] = 0.0f;
  }
}

// The blocked multiply C[m,n] = A[m,k] * B[k,n] behind both public entry
// points. An A panel comes from `packed` (PackA's layout) when it is
// non-null; otherwise the task packs it from row-major `a` into a buffer of
// its own just before the microkernel reads it. Either way the microkernel
// sees the same panel bytes, so Gemm and GemmPacked(PackA(a)) agree bitwise.
void GemmBlocked(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float* packed, const float* a, const float* bsrc,
                 std::span<float> c) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c.begin(), c.end(), 0.0f);
    return;
  }
  float* cp = c.data();
  const std::int64_t panels = (m + kMr - 1) / kMr;
  const std::int64_t max_npanels =
      (std::min(n, kNc) + kNr - 1) / kNr;
  std::vector<float> bpack(
      static_cast<std::size_t>(max_npanels * kNr * std::min(k, kKc)));
  float* bpk = bpack.data();

  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nc_eff = std::min(kNc, n - jc);
    const std::int64_t npanels = (nc_eff + kNr - 1) / kNr;
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
      const std::int64_t kc_eff = std::min(kKc, k - pc);
      // Pack B[pc:pc+kc, jc:jc+nc] into kNr-wide column panels so the
      // microkernel reads B contiguously; tail columns are zero-padded.
      for (std::int64_t jp = 0; jp < npanels; ++jp) {
        float* panel = bpk + jp * kNr * kc_eff;
        const std::int64_t j0 = jc + jp * kNr;
        const std::int64_t nv = std::min(kNr, n - j0);
        for (std::int64_t kk = 0; kk < kc_eff; ++kk) {
          const float* srow = bsrc + (pc + kk) * n + j0;
          float* drow = panel + kk * kNr;
          std::int64_t j = 0;
          for (; j < nv; ++j) drow[j] = srow[j];
          for (; j < kNr; ++j) drow[j] = 0.0f;
        }
      }
      const float* pa_block =
          packed != nullptr ? packed + panels * kMr * pc : nullptr;
      const bool first = pc == 0;
      // Tasks own disjoint mr-panels (disjoint C rows); bpack is read-only
      // here, so the parallel sweep is race-free and the k-accumulation
      // order of every C element is independent of the chunking.
      ParallelForChunks(
          0, static_cast<std::size_t>(panels),
          [=](std::size_t lo, std::size_t hi) {
            float apanel[kMr * kKc];
            for (std::size_t i = lo; i < hi; ++i) {
              const std::int64_t row0 = static_cast<std::int64_t>(i) * kMr;
              const std::int64_t mv = std::min(kMr, m - row0);
              const float* ap = apanel;
              if (pa_block != nullptr) {
                ap = pa_block + row0 * kc_eff;
              } else {
                PackPanel(a + row0 * k + pc, k, mv, kc_eff, apanel);
              }
              float* crow = cp + row0 * n + jc;
              for (std::int64_t jp = 0; jp < npanels; ++jp) {
                const std::int64_t nv = std::min(kNr, nc_eff - jp * kNr);
                MicroKernel(kc_eff, ap, bpk + jp * kNr * kc_eff,
                            crow + jp * kNr, n, mv, nv, first);
              }
            }
          },
          1);
    }
  }
}

}  // namespace

PackedA PackA(std::int64_t m, std::int64_t k, std::span<const float> a) {
  CCPERF_CHECK(m >= 0 && k >= 0, "negative GEMM extent");
  CCPERF_CHECK(static_cast<std::int64_t>(a.size()) == m * k, "A size mismatch");
  PackedA packed;
  packed.m_ = m;
  packed.k_ = k;
  if (m == 0 || k == 0) return packed;
  const std::int64_t panels = (m + kMr - 1) / kMr;
  packed.data_.resize(static_cast<std::size_t>(panels * kMr * k));
  for (std::int64_t pc = 0; pc < k; pc += kKc) {
    const std::int64_t kc_eff = std::min(kKc, k - pc);
    float* block = packed.data_.data() + panels * kMr * pc;
    for (std::int64_t i = 0; i < panels; ++i) {
      PackPanel(a.data() + i * kMr * k + pc, k, std::min(kMr, m - i * kMr),
                kc_eff, block + i * kMr * kc_eff);
    }
  }
  return packed;
}

void FlipPackedBit(PackedA& a, std::int64_t row, std::int64_t k, int bit) {
  CCPERF_CHECK(row >= 0 && row < a.m_ && k >= 0 && k < a.k_,
               "packed element (", row, ", ", k, ") out of range");
  CCPERF_CHECK(bit >= 0 && bit <= 31, "bit must be in [0, 31], got ", bit);
  // Mirror of the PackA layout arithmetic: element (row, k) of the K block
  // at pc sits at panels*kMr*pc + panel*kMr*kc_eff + kk*kMr + r.
  const std::int64_t panels = (a.m_ + kMr - 1) / kMr;
  const std::int64_t pc = (k / kKc) * kKc;
  const std::int64_t kk = k - pc;
  const std::int64_t kc_eff = std::min(kKc, a.k_ - pc);
  const std::int64_t offset = panels * kMr * pc +
                              (row / kMr) * kMr * kc_eff + kk * kMr +
                              row % kMr;
  float& value = a.data_[static_cast<std::size_t>(offset)];
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1u << static_cast<unsigned>(bit);
  std::memcpy(&value, &bits, sizeof(bits));
}

void GemmPacked(const PackedA& a, std::int64_t n, std::span<const float> b,
                std::span<float> c) {
  const std::int64_t m = a.m_;
  const std::int64_t k = a.k_;
  CCPERF_CHECK(n >= 0, "negative GEMM extent");
  CCPERF_CHECK(static_cast<std::int64_t>(b.size()) == k * n, "B size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(c.size()) == m * n, "C size mismatch");
  GemmBlocked(m, n, k, a.data_.data(), nullptr, b.data(), c);
}

void Gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          std::span<const float> a, std::span<const float> b,
          std::span<float> c) {
  CheckGemmArgs(m, n, k, a, b, c);
  GemmBlocked(m, n, k, nullptr, a.data(), b.data(), c);
}

void GemmReference(std::int64_t m, std::int64_t n, std::int64_t k,
                   std::span<const float> a, std::span<const float> b,
                   std::span<float> c) {
  CheckGemmArgs(m, n, k, a, b, c);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c.begin(), c.end(), 0.0f);
    return;
  }
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  ParallelForChunks(
      0, static_cast<std::size_t>(m),
      [=](std::size_t lo, std::size_t hi) {
        GemmRowPanel(static_cast<std::int64_t>(lo),
                     static_cast<std::int64_t>(hi), n, k, ap, bp, cp);
      },
      static_cast<std::size_t>(kRefBlockM));
}

void NaiveGemm(std::int64_t m, std::int64_t n, std::int64_t k,
               std::span<const float> a, std::span<const float> b,
               std::span<float> c) {
  CheckGemmArgs(m, n, k, a, b, c);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += a[static_cast<std::size_t>(i * k + kk)] *
               b[static_cast<std::size_t>(kk * n + j)];
      }
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
}

void Gemv(std::int64_t m, std::int64_t k, std::span<const float> a,
          std::span<const float> x, std::span<float> y) {
  CCPERF_CHECK(static_cast<std::int64_t>(a.size()) == m * k, "A size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(x.size()) == k, "x size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(y.size()) == m, "y size mismatch");
  const float* ap = a.data();
  const float* xp = x.data();
  float* yp = y.data();
  ParallelForChunks(
      0, static_cast<std::size_t>(m),
      [=](std::size_t lo, std::size_t hi) {
        // A row's sum is one serial add chain, so a lone row waits on the
        // add latency; kGemvRows rows share each pass over x instead. Every
        // row, grouped or in the single-row tail, is the same ascending-k
        // chain from 0.0f, so neither the grouping nor the chunking moves a
        // bit of y.
        std::size_t i = lo;
        for (; i + kGemvRows <= hi; i += kGemvRows) {
          const float* rows = ap + static_cast<std::int64_t>(i) * k;
          float acc[kGemvRows] = {};
          for (std::int64_t kk = 0; kk < k; ++kk) {
            const float xv = xp[kk];
            for (std::size_t r = 0; r < kGemvRows; ++r) {
              acc[r] += rows[static_cast<std::int64_t>(r) * k + kk] * xv;
            }
          }
          for (std::size_t r = 0; r < kGemvRows; ++r) yp[i + r] = acc[r];
        }
        for (; i < hi; ++i) {
          const float* row = ap + static_cast<std::int64_t>(i) * k;
          float acc = 0.0f;
          for (std::int64_t kk = 0; kk < k; ++kk) acc += row[kk] * xp[kk];
          yp[i] = acc;
        }
      },
      64);
}

}  // namespace ccperf
