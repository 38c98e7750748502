#include "tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/threading.h"
#include "tensor/kernel_tile.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define CCPERF_QUANT_RESTRICT __restrict__
#else
#define CCPERF_QUANT_RESTRICT
#endif

namespace ccperf {

namespace {

// The int8 kernel reuses the float kernel's tile geometry (kernel_tile.h):
// same mr-row panels, same ISA-sized column panels, same L1-resident K
// slices. K is consumed in GROUPS sized to the ISA's dot-product step:
// quads of int8 for vpdpbusd on VNNI parts (64 MACs per instruction — the
// 4x-over-FMA ceiling the bench chases), pairs of int16 for vpmaddwd /
// the scalar fallback. Every group occupies kMr * 2 int16 slots of A panel
// and kNr * 2 int16 slots of B panel in BOTH layouts (4 bytes per lane
// word either way), so all the blocking arithmetic below is
// layout-independent.
using kernel::kKc;
using kernel::kMr;
using kernel::kNc;
using kernel::kNr;

#if defined(__AVX512BW__) && defined(__AVX512VNNI__)
#define CCPERF_INT8_QUAD 1
#endif

#if defined(CCPERF_INT8_QUAD)
/// K steps per packed lane word: int8 quads for vpdpbusd.
constexpr std::int64_t kKGroup = 4;
/// vpdpbusd multiplies UNSIGNED bytes by signed bytes, so activations are
/// packed biased: u = q_b + 128 in [1, 255]. The kernel accumulates
/// sum(a * (b + 128)) and the C image is pre-filled with
/// -128 * sum(a) per row, so the final int32s are exactly sum(a * b) —
/// bitwise identical to the signed naive oracle (all exact int32;
/// kInt8MaxDepth bounds every intermediate below 2^31).
constexpr std::int32_t kBOffset = 128;
#else
constexpr std::int64_t kKGroup = 2;
constexpr std::int32_t kBOffset = 0;
#endif
static_assert(kKc % kKGroup == 0, "K slices pack whole k-groups");

/// kc rounded up to a whole number of k-groups.
constexpr std::int64_t KPad(std::int64_t kc) {
  return (kc + kKGroup - 1) & ~(kKGroup - 1);
}

/// Max |v| over finite entries (non-finite entries are ignored). This runs
/// over the whole activation tensor once per GemmInt8 call, so the AVX-512
/// path below matters; it computes the identical float (replacing excluded
/// lanes by 0 cannot change a max over non-negative values, and float max
/// is exact and order-independent).
float FiniteMaxAbs(std::span<const float> v) {
#if defined(__AVX512F__)
  const __m512 absmask =
      _mm512_castsi512_ps(_mm512_set1_epi32(0x7FFFFFFF));
  const __m512 fmax = _mm512_set1_ps(std::numeric_limits<float>::max());
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= v.size(); i += 32) {
    const __m512 a0 = _mm512_and_ps(_mm512_loadu_ps(v.data() + i), absmask);
    const __m512 a1 =
        _mm512_and_ps(_mm512_loadu_ps(v.data() + i + 16), absmask);
    // Unordered (NaN) and |x| > FLT_MAX lanes fail the LE compare and are
    // left out of the running max.
    acc0 = _mm512_mask_max_ps(acc0, _mm512_cmp_ps_mask(a0, fmax, _CMP_LE_OQ),
                              acc0, a0);
    acc1 = _mm512_mask_max_ps(acc1, _mm512_cmp_ps_mask(a1, fmax, _CMP_LE_OQ),
                              acc1, a1);
  }
  float m = _mm512_reduce_max_ps(_mm512_max_ps(acc0, acc1));
  for (; i < v.size(); ++i) {
    const float a = std::fabs(v[i]);
    if (a <= std::numeric_limits<float>::max()) m = std::max(m, a);
  }
  return m;
#else
  float m = 0.0f;
  for (const float x : v) {
    const float a = std::fabs(x);
    if (a <= std::numeric_limits<float>::max()) m = std::max(m, a);
  }
  return m;
#endif
}

/// Shared quantizer core: see QuantizeToInt8's contract in quant.h.
inline std::int32_t QuantizeCore(float v, float inv_scale) {
  const float scaled = v * inv_scale;
  if (std::isnan(scaled)) return 0;
  if (scaled >= 127.0f) return 127;
  if (scaled <= -127.0f) return -127;
  return static_cast<std::int32_t>(std::lrintf(scaled));
}

/// Dequantize one finished int32 row: c = acc * deq [+ bias] [relu]. Both
/// GemmInt8 and NaiveGemmInt8 funnel through this ONE function so their
/// float epilogue math is instruction-identical — that is what upgrades the
/// differential oracle from tolerance-based to bitwise.
void DequantRow(const std::int32_t* CCPERF_QUANT_RESTRICT acc,
                std::int64_t count, float deq, float bias, bool relu,
                float* CCPERF_QUANT_RESTRICT out) {
  for (std::int64_t j = 0; j < count; ++j) {
    float v = static_cast<float>(acc[j]) * deq + bias;
    if (relu) v = std::max(0.0f, v);
    out[j] = v;
  }
}

/// Register tile: acc[kMr][kNr] += A_panel[groups x kMr] *
/// B_panel[groups x kNr], accumulated into the valid mv x nv corner of the
/// (pre-filled) int32 C image. Tail lanes multiply packed zeros and are
/// never written back. All arithmetic is exact int32, so the result is
/// independent of tile alignment, chunk boundaries, blocking, and pool
/// size.
void MicroKernelInt8(std::int64_t groups,
                     const std::int16_t* CCPERF_QUANT_RESTRICT ap,
                     const std::int16_t* CCPERF_QUANT_RESTRICT bp,
                     std::int32_t* CCPERF_QUANT_RESTRICT c, std::int64_t ldc,
                     std::int64_t mv, std::int64_t nv) {
  alignas(64) std::int32_t acc[kMr][kNr];
#if defined(__AVX512BW__)
  // One zmm holds 16 int32 lanes; kNr = 32 under AVX-512 (kernel_tile.h),
  // so each row carries two accumulators. Per k-group: one 32-bit
  // broadcast of the row's packed A lane word and a dot-product against 32
  // interleaved B lane words — vpdpbusd (u8 x s8 quads, 64 MACs/instr) on
  // VNNI parts, else vpmaddwd + vpaddd on int16 pairs. Either way the
  // int32s are exact.
  static_assert(kNr == 32, "AVX-512 int8 microkernel assumes 32-wide panels");
  __m512i vacc[kMr][2];
  for (std::int64_t r = 0; r < kMr; ++r) {
    vacc[r][0] = _mm512_setzero_si512();
    vacc[r][1] = _mm512_setzero_si512();
  }
  for (std::int64_t kk = 0; kk < groups; ++kk) {
    const std::int16_t* brow = bp + kk * kNr * 2;
    const std::int16_t* arow = ap + kk * kMr * 2;
    const __m512i b0 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(brow));
    const __m512i b1 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(brow + kNr));
    for (std::int64_t r = 0; r < kMr; ++r) {
      std::int32_t lane;
      std::memcpy(&lane, arow + r * 2, sizeof(lane));
      const __m512i av = _mm512_set1_epi32(lane);
#if defined(CCPERF_INT8_QUAD)
      // src1 = unsigned (biased B bytes), src2 = signed (A bytes).
      vacc[r][0] = _mm512_dpbusd_epi32(vacc[r][0], b0, av);
      vacc[r][1] = _mm512_dpbusd_epi32(vacc[r][1], b1, av);
#else
      vacc[r][0] = _mm512_add_epi32(vacc[r][0], _mm512_madd_epi16(av, b0));
      vacc[r][1] = _mm512_add_epi32(vacc[r][1], _mm512_madd_epi16(av, b1));
#endif
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    _mm512_store_si512(reinterpret_cast<void*>(&acc[r][0]), vacc[r][0]);
    _mm512_store_si512(reinterpret_cast<void*>(&acc[r][16]), vacc[r][1]);
  }
#else
  for (std::int64_t r = 0; r < kMr; ++r) {
    for (std::int64_t j = 0; j < kNr; ++j) acc[r][j] = 0;
  }
  for (std::int64_t kk = 0; kk < groups; ++kk) {
    const std::int16_t* brow = bp + kk * kNr * 2;
    const std::int16_t* arow = ap + kk * kMr * 2;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const std::int32_t a0 = arow[r * 2];
      const std::int32_t a1 = arow[r * 2 + 1];
      for (std::int64_t j = 0; j < kNr; ++j) {
        acc[r][j] += a0 * brow[j * 2] + a1 * brow[j * 2 + 1];
      }
    }
  }
#endif
  for (std::int64_t r = 0; r < mv; ++r) {
    std::int32_t* crow = c + r * ldc;
    for (std::int64_t j = 0; j < nv; ++j) crow[j] += acc[r][j];
  }
}

#if defined(__AVX512BW__)
/// 16-lane QuantizeCore: every lane makes the exact decision the scalar
/// path makes. min/max clamp to [-127, 127] first (MINPS/MAXPS return the
/// second operand when the first is NaN, so NaN lanes clamp to a finite
/// value), vcvtps2dq rounds nearest-even exactly like lrintf under the
/// default MXCSR mode, and the ordered-compare mask zeroes NaN lanes the
/// way the scalar isnan branch does.
inline __m512i QuantizeCore16(__m512 v, __m512 inv) {
  const __m512 scaled = _mm512_mul_ps(v, inv);
  const __mmask16 ord = _mm512_cmp_ps_mask(scaled, scaled, _CMP_ORD_Q);
  const __m512 lo = _mm512_max_ps(scaled, _mm512_set1_ps(-127.0f));
  const __m512 hi = _mm512_min_ps(lo, _mm512_set1_ps(127.0f));
  return _mm512_maskz_cvtps_epi32(ord, hi);
}
#endif

/// Quantize B[pc:pc+kc, jc:jc+nc] into kNr-wide, group-interleaved column
/// panels: K step kk of column j lands in the byte/int16 lane word at
/// panel int16 offset ((kk/kKGroup) * kNr + j) * 2. Tail columns and the
/// K-group pad are packed as quantized zero (0, or kBOffset on the biased
/// VNNI layout — a padded B zero times a padded A zero contributes
/// nothing, and padded K steps multiply A values that are packed zero).
/// This runs once per (jc, pc) block on the hot path, so the AVX-512
/// variants quantize 16 columns x one K-group per iteration; they must
/// (and do) make bitwise-identical decisions to the scalar QuantizeCore.
void PackQuantizedB(const float* bsrc, std::int64_t n, std::int64_t jc,
                    std::int64_t nc_eff, std::int64_t pc, std::int64_t kc_eff,
                    float inv_scale, std::int16_t* bpk) {
  const std::int64_t npanels = (nc_eff + kNr - 1) / kNr;
  const std::int64_t groups = KPad(kc_eff) / kKGroup;
#if defined(__AVX512BW__)
  static_assert(kNr == 32, "AVX-512 int8 pack assumes 32-wide panels");
  const __m512 inv = _mm512_set1_ps(inv_scale);
  for (std::int64_t jp = 0; jp < npanels; ++jp) {
    std::int16_t* panel = bpk + jp * kNr * groups * 2;
    const std::int64_t j0 = jc + jp * kNr;
    const std::int64_t nv = std::min(kNr, jc + nc_eff - j0);
    const __mmask16 m0 = nv >= 16 ? static_cast<__mmask16>(0xFFFF)
                                  : static_cast<__mmask16>((1u << nv) - 1u);
    const __mmask16 m1 =
        nv >= 32 ? static_cast<__mmask16>(0xFFFF)
        : nv > 16
            ? static_cast<__mmask16>((1u << (nv - 16)) - 1u)
            : static_cast<__mmask16>(0);
    for (std::int64_t kk = 0; kk < groups; ++kk) {
      // K steps kKGroup*kk .. kKGroup*kk+kKGroup-1 of this K slice; steps
      // past kc_eff are the K-group zero pad. Masked loads zero the column
      // tail, and zero quantizes to exactly 0 — the required padding.
      const float* g0 = bsrc + (pc + kKGroup * kk) * n + j0;
      std::int16_t* drow = panel + kk * kNr * 2;
      for (int half = 0; half < 2; ++half) {
        const __mmask16 m = half == 0 ? m0 : m1;
        __m512i q[kKGroup];
        for (std::int64_t t = 0; t < kKGroup; ++t) {
          // m == 0 (column tail) skips the load: never form an address
          // past the end of B.
          const bool in_k = kKGroup * kk + t < kc_eff;
          const __m512 v =
              in_k && m != 0
                  ? _mm512_maskz_loadu_ps(m, g0 + t * n + 16 * half)
                  : _mm512_setzero_ps();
          q[t] = QuantizeCore16(v, inv);
        }
#if defined(CCPERF_INT8_QUAD)
        // Biased to unsigned bytes (q + 128 in [1, 255]) and composed into
        // one lane word per column: byte t of the word is K step t.
        const __m512i off = _mm512_set1_epi32(kBOffset);
        const __m512i lane = _mm512_or_si512(
            _mm512_or_si512(_mm512_add_epi32(q[0], off),
                            _mm512_slli_epi32(_mm512_add_epi32(q[1], off), 8)),
            _mm512_or_si512(
                _mm512_slli_epi32(_mm512_add_epi32(q[2], off), 16),
                _mm512_slli_epi32(_mm512_add_epi32(q[3], off), 24)));
#else
        // Interleave (q0[j], q1[j]) into one 32-bit word per column: the
        // low int16 is q0 (values fit in 8 bits, so masking the low half
        // preserves the sign) and the high int16 is q1.
        const __m512i lane = _mm512_or_si512(
            _mm512_slli_epi32(q[1], 16),
            _mm512_and_si512(q[0], _mm512_set1_epi32(0xFFFF)));
#endif
        _mm512_storeu_si512(reinterpret_cast<void*>(drow + 32 * half), lane);
      }
    }
  }
#else
  for (std::int64_t jp = 0; jp < npanels; ++jp) {
    std::int16_t* panel = bpk + jp * kNr * groups * 2;
    const std::int64_t j0 = jc + jp * kNr;
    const std::int64_t nv = std::min(kNr, jc + nc_eff - j0);
    for (std::int64_t kk = 0; kk < groups * 2; ++kk) {
      const bool in_k = kk < kc_eff;  // false only for the odd-K pad row
      const float* srow = in_k ? bsrc + (pc + kk) * n + j0 : nullptr;
      std::int16_t* drow = panel + (kk / 2) * kNr * 2 + (kk % 2);
      for (std::int64_t j = 0; j < kNr; ++j) {
        const std::int32_t q =
            (in_k && j < nv) ? QuantizeCore(srow[j], inv_scale) : 0;
        drow[j * 2] = static_cast<std::int16_t>(q);
      }
    }
  }
#endif
}

}  // namespace

QuantizedPackedA::QuantizedPackedA() = default;
QuantizedPackedA::~QuantizedPackedA() = default;
QuantizedPackedA::QuantizedPackedA(const QuantizedPackedA&) = default;
QuantizedPackedA& QuantizedPackedA::operator=(const QuantizedPackedA&) =
    default;
QuantizedPackedA::QuantizedPackedA(QuantizedPackedA&&) noexcept = default;
QuantizedPackedA& QuantizedPackedA::operator=(QuantizedPackedA&&) noexcept =
    default;

std::int8_t QuantizeToInt8(float v, float scale) {
  if (scale <= 0.0f || std::isnan(scale)) return 0;
  return static_cast<std::int8_t>(QuantizeCore(v, 1.0f / scale));
}

float ActivationScale(std::span<const float> b) {
  return FiniteMaxAbs(b) / 127.0f;
}

QuantizedPackedA QuantizePackA(std::int64_t m, std::int64_t k,
                               std::span<const float> a) {
  CCPERF_CHECK(m >= 0 && k >= 0, "negative GEMM extent");
  CCPERF_CHECK(static_cast<std::int64_t>(a.size()) == m * k, "A size mismatch");
  CCPERF_CHECK(k <= kInt8MaxDepth, "int8 GEMM depth ", k,
               " exceeds the int32 no-overflow bound ", kInt8MaxDepth);
  QuantizedPackedA packed;
  packed.m_ = m;
  packed.k_ = k;
  if (m == 0) return packed;
  // Per-row (per output channel) symmetric scales. An all-zero row keeps
  // scale 0: every quantized value is 0 and the epilogue dequantizes by 0.
  packed.scales_.resize(static_cast<std::size_t>(m));
  packed.rowsums_.assign(static_cast<std::size_t>(m), 0);
  packed.colsums_.assign(static_cast<std::size_t>(k), 0);
  std::vector<float> inv(static_cast<std::size_t>(m), 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    const float s =
        FiniteMaxAbs(a.subspan(static_cast<std::size_t>(i * k),
                               static_cast<std::size_t>(k))) /
        127.0f;
    packed.scales_[static_cast<std::size_t>(i)] = s;
    inv[static_cast<std::size_t>(i)] = s > 0.0f ? 1.0f / s : 0.0f;
  }
  if (k == 0) return packed;

  const std::int64_t panels = (m + kMr - 1) / kMr;
  std::int64_t stored_k = 0;
  for (std::int64_t pc = 0; pc < k; pc += kKc) {
    stored_k += KPad(std::min(kKc, k - pc));
  }
  // Every K step stores one value: an int16 slot on the pair layout, a
  // byte (half a slot) on the quad layout.
  packed.data_.assign(
      static_cast<std::size_t>(panels * kMr * stored_k * 2 / kKGroup), 0);
  const float* src = a.data();
  std::int16_t* dst = packed.data_.data();
  for (std::int64_t pc = 0; pc < k; pc += kKc) {
    const std::int64_t kc_eff = std::min(kKc, k - pc);
    const std::int64_t kc_pad = KPad(kc_eff);
    // Full K slices are kKc long (a multiple of kKGroup), so the block at
    // pc starts at panels * kMr * pc K-step values; only the final slice
    // carries group padding.
    std::int16_t* block = dst + panels * kMr * pc * 2 / kKGroup;
    for (std::int64_t i = 0; i < panels; ++i) {
      std::int16_t* panel = block + i * kMr * kc_pad * 2 / kKGroup;
      const std::int64_t mv = std::min(kMr, m - i * kMr);
      for (std::int64_t r = 0; r < mv; ++r) {
        const std::int64_t row = i * kMr + r;
        const float* arow = src + row * k + pc;
        const float is = inv[static_cast<std::size_t>(row)];
        std::int32_t rsum = 0;
        for (std::int64_t kk = 0; kk < kc_eff; ++kk) {
          const std::int32_t q = QuantizeCore(arow[kk], is);
          rsum += q;
          packed.colsums_[static_cast<std::size_t>(pc + kk)] += q;
#if defined(CCPERF_INT8_QUAD)
          reinterpret_cast<std::int8_t*>(
              panel)[((kk / 4) * kMr + r) * 4 + kk % 4] =
              static_cast<std::int8_t>(q);
#else
          panel[(kk / 2) * kMr * 2 + r * 2 + (kk % 2)] =
              static_cast<std::int16_t>(q);
#endif
        }
        packed.rowsums_[static_cast<std::size_t>(row)] += rsum;
      }
      // Tail rows and the K-group pad stay zero from assign(); they
      // multiply into accumulator lanes the write-back discards (or add
      // exact 0 — biased B pad bytes meet packed-zero A bytes).
    }
  }
  return packed;
}

namespace {

/// Argument contract shared by GemmInt8 and GemmInt8Abft.
void CheckInt8Args(std::int64_t n, std::span<const float> b,
                   std::span<float> c, const Int8Epilogue& epilogue,
                   std::int64_t m, std::int64_t k) {
  CCPERF_CHECK(n >= 0, "negative GEMM extent");
  CCPERF_CHECK(static_cast<std::int64_t>(b.size()) == k * n, "B size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(c.size()) == m * n, "C size mismatch");
  CCPERF_CHECK(epilogue.bias.empty() ||
                   static_cast<std::int64_t>(epilogue.bias.size()) == m,
               "bias size mismatch");
}

/// The blocked int8 kernel: fills `cp` (an m x n int32 image) with the
/// exact unbiased accumulation sum_k q_ik * qb_kj. On the biased VNNI
/// layout the image starts at the per-row offset correction -128 * sum(q_a)
/// (see kBOffset above), which the kernel's biased products cancel exactly,
/// so the finished image is layout-independent.
void ComputeInt8Image(std::int64_t m, std::int64_t k,
                      const std::int16_t* pa, const std::int32_t* rowsums,
                      std::int64_t n, std::span<const float> b, float inv_b,
                      std::int32_t* cp) {
  if (kBOffset != 0 && k > 0) {
    for (std::int64_t i = 0; i < m; ++i) {
      const std::int32_t corr = -kBOffset * rowsums[i];
      if (corr != 0) std::fill(cp + i * n, cp + (i + 1) * n, corr);
    }
  }
  (void)rowsums;
  if (k > 0) {
    const std::int64_t panels = (m + kMr - 1) / kMr;
    const float* bsrc = b.data();
    const std::int64_t max_npanels = (std::min(n, kNc) + kNr - 1) / kNr;
    std::vector<std::int16_t> bpack(static_cast<std::size_t>(
        max_npanels * kNr * 2 * KPad(std::min(k, kKc)) / kKGroup));
    std::int16_t* bpk = bpack.data();

    for (std::int64_t jc = 0; jc < n; jc += kNc) {
      const std::int64_t nc_eff = std::min(kNc, n - jc);
      const std::int64_t npanels = (nc_eff + kNr - 1) / kNr;
      for (std::int64_t pc = 0; pc < k; pc += kKc) {
        const std::int64_t kc_eff = std::min(kKc, k - pc);
        const std::int64_t groups = KPad(kc_eff) / kKGroup;
        PackQuantizedB(bsrc, n, jc, nc_eff, pc, kc_eff, inv_b, bpk);
        const std::int16_t* pa_block = pa + panels * kMr * pc * 2 / kKGroup;
        // Tasks own disjoint mr-panels (disjoint C rows); bpack is
        // read-only here, so the sweep is race-free, and int32 addition is
        // exact, so the result is chunking-independent.
        ParallelForChunks(
            0, static_cast<std::size_t>(panels),
            [=](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) {
                const std::int64_t row0 = static_cast<std::int64_t>(i) * kMr;
                const std::int16_t* ap = pa_block + row0 * groups * 2;
                const std::int64_t mv = std::min(kMr, m - row0);
                std::int32_t* crow = cp + row0 * n + jc;
                for (std::int64_t jp = 0; jp < npanels; ++jp) {
                  const std::int64_t nv = std::min(kNr, nc_eff - jp * kNr);
                  MicroKernelInt8(groups, ap, bpk + jp * kNr * groups * 2,
                                  crow + jp * kNr, n, mv, nv);
                }
              }
            },
            1);
      }
    }
  }

}

/// Fused dequant + bias + ReLU over the finished int32 image.
void ApplyInt8Epilogue(std::int64_t m, std::int64_t n, const float* scales,
                       std::span<float> c, const Int8Epilogue& epilogue,
                       float b_scale, const std::int32_t* cp) {
  const float* bias = epilogue.bias.empty() ? nullptr : epilogue.bias.data();
  const bool relu = epilogue.relu;
  float* out = c.data();
  ParallelForChunks(
      0, static_cast<std::size_t>(m),
      [=](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          DequantRow(cp + static_cast<std::int64_t>(i) * n, n,
                     scales[i] * b_scale, bias != nullptr ? bias[i] : 0.0f,
                     relu, out + static_cast<std::int64_t>(i) * n);
        }
      },
      16);
}

/// ABFT verification of the finished int32 image: per column j the row sum
/// sum_i c32_ij must equal sum_k colsums_[k] * qb_kj, where qb is this
/// call's own re-quantization of B (bitwise-identical decisions to
/// PackQuantizedB's). All arithmetic is exact — int64 sums over int32
/// terms cannot overflow (m, k bounded by kInt8MaxDepth-scale shapes) —
/// so the comparison is equality: any nonzero residual is corruption, not
/// rounding.
AbftCheck VerifyInt8Image(std::int64_t m, std::int64_t k,
                          const std::int32_t* colsums, std::int64_t n,
                          std::span<const float> b, float inv_b,
                          const std::int32_t* cp) {
  AbftCheck check;
  if (n == 0) return check;
  std::vector<std::int64_t> residual(static_cast<std::size_t>(n), 0);
  std::int64_t* res = residual.data();
  const float* bsrc = b.data();
  ParallelForChunks(
      0, static_cast<std::size_t>(n),
      [=](std::size_t lo, std::size_t hi) {
        for (std::size_t jz = lo; jz < hi; ++jz) {
          const std::int64_t j = static_cast<std::int64_t>(jz);
          std::int64_t expect = 0;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            expect += static_cast<std::int64_t>(colsums[kk]) *
                      QuantizeCore(bsrc[kk * n + j], inv_b);
          }
          std::int64_t got = 0;
          for (std::int64_t i = 0; i < m; ++i) got += cp[i * n + j];
          res[jz] = got - expect;
        }
      },
      64);
  // Serial scan so the verdict fields are pool-size independent.
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int64_t r = res[static_cast<std::size_t>(j)];
    if (r == 0) continue;
    check.ok = false;
    ++check.bad_columns;
    if (check.first_bad_column < 0) check.first_bad_column = j;
    const double mag = std::abs(static_cast<double>(r));
    if (mag > check.max_ratio) check.max_ratio = mag;
  }
  return check;
}

}  // namespace

void GemmInt8(const QuantizedPackedA& a, std::int64_t n,
              std::span<const float> b, std::span<float> c,
              const Int8Epilogue& epilogue) {
  const std::int64_t m = a.m_;
  const std::int64_t k = a.k_;
  CheckInt8Args(n, b, c, epilogue, m, k);
  if (m == 0 || n == 0) return;
  const float b_scale = ActivationScale(b);
  const float inv_b = b_scale > 0.0f ? 1.0f / b_scale : 0.0f;
  std::vector<std::int32_t> c32(static_cast<std::size_t>(m * n), 0);
  ComputeInt8Image(m, k, a.data_.data(), a.rowsums_.data(), n, b, inv_b,
                   c32.data());
  ApplyInt8Epilogue(m, n, a.scales_.data(), c, epilogue, b_scale, c32.data());
}

AbftCheck GemmInt8Abft(const QuantizedPackedA& a, std::int64_t n,
                       std::span<const float> b, std::span<float> c,
                       const Int8Epilogue& epilogue) {
  const std::int64_t m = a.m_;
  const std::int64_t k = a.k_;
  CheckInt8Args(n, b, c, epilogue, m, k);
  AbftCheck check;
  if (m == 0 || n == 0) return check;
  const float b_scale = ActivationScale(b);
  const float inv_b = b_scale > 0.0f ? 1.0f / b_scale : 0.0f;
  std::vector<std::int32_t> c32(static_cast<std::size_t>(m * n), 0);
  ComputeInt8Image(m, k, a.data_.data(), a.rowsums_.data(), n, b, inv_b,
                   c32.data());
  check = VerifyInt8Image(m, k, a.colsums_.data(), n, b, inv_b, c32.data());
  ApplyInt8Epilogue(m, n, a.scales_.data(), c, epilogue, b_scale, c32.data());
  return check;
}

AbftCheck GemmInt8AbftCorruptForTest(const QuantizedPackedA& a,
                                     std::int64_t n, std::span<const float> b,
                                     std::span<float> c,
                                     const Int8Epilogue& epilogue,
                                     std::int64_t element, int bit) {
  const std::int64_t m = a.m_;
  const std::int64_t k = a.k_;
  CheckInt8Args(n, b, c, epilogue, m, k);
  CCPERF_CHECK(m > 0 && n > 0, "need a non-empty output to corrupt");
  CCPERF_CHECK(element >= 0 && element < m * n,
               "corrupt element out of range");
  CCPERF_CHECK(bit >= 0 && bit <= 31, "corrupt bit out of range");
  const float b_scale = ActivationScale(b);
  const float inv_b = b_scale > 0.0f ? 1.0f / b_scale : 0.0f;
  std::vector<std::int32_t> c32(static_cast<std::size_t>(m * n), 0);
  ComputeInt8Image(m, k, a.data_.data(), a.rowsums_.data(), n, b, inv_b,
                   c32.data());
  std::int32_t& target = c32[static_cast<std::size_t>(element)];
  target = static_cast<std::int32_t>(static_cast<std::uint32_t>(target) ^
                                     (1u << static_cast<unsigned>(bit)));
  const AbftCheck check =
      VerifyInt8Image(m, k, a.colsums_.data(), n, b, inv_b, c32.data());
  ApplyInt8Epilogue(m, n, a.scales_.data(), c, epilogue, b_scale, c32.data());
  return check;
}

void FlipQuantizedBit(QuantizedPackedA& a, std::int64_t row, std::int64_t k,
                      int bit) {
  CCPERF_CHECK(row >= 0 && row < a.m_ && k >= 0 && k < a.k_,
               "flip target (", row, ", ", k, ") outside ", a.m_, " x ", a.k_);
  CCPERF_CHECK(bit >= 0 && bit <= 7, "int8 flip bit must be in [0, 7], got ",
               bit);
  // Mirror QuantizePackA's layout arithmetic exactly (panel base, then the
  // ISA-dependent in-panel offset).
  const std::int64_t panels = (a.m_ + kMr - 1) / kMr;
  const std::int64_t pc = (k / kKc) * kKc;
  const std::int64_t kk = k - pc;
  const std::int64_t kc_pad = KPad(std::min(kKc, a.k_ - pc));
  std::int16_t* block = a.data_.data() + panels * kMr * pc * 2 / kKGroup;
  std::int16_t* panel = block + (row / kMr) * kMr * kc_pad * 2 / kKGroup;
  const std::int64_t r = row % kMr;
#if defined(CCPERF_INT8_QUAD)
  std::int8_t& value =
      reinterpret_cast<std::int8_t*>(panel)[((kk / 4) * kMr + r) * 4 + kk % 4];
  value = static_cast<std::int8_t>(static_cast<std::uint8_t>(value) ^
                                   (1u << static_cast<unsigned>(bit)));
#else
  std::int16_t& value = panel[(kk / 2) * kMr * 2 + r * 2 + (kk % 2)];
  value = static_cast<std::int16_t>(static_cast<std::uint16_t>(value) ^
                                    (1u << static_cast<unsigned>(bit)));
#endif
  // Row/column sums are left stale on purpose: a real SDC in the packed
  // weights would not update them either, and the stale references are
  // exactly what lets GemmInt8Abft detect the flip.
}

void GemmInt8(std::int64_t m, std::int64_t n, std::int64_t k,
              std::span<const float> a, std::span<const float> b,
              std::span<float> c, const Int8Epilogue& epilogue) {
  GemmInt8(QuantizePackA(m, k, a), n, b, c, epilogue);
}

void NaiveGemmInt8(std::int64_t m, std::int64_t n, std::int64_t k,
                   std::span<const float> a, std::span<const float> b,
                   std::span<float> c, const Int8Epilogue& epilogue) {
  CCPERF_CHECK(m >= 0 && n >= 0 && k >= 0, "negative GEMM extent");
  CCPERF_CHECK(static_cast<std::int64_t>(a.size()) == m * k, "A size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(b.size()) == k * n, "B size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(c.size()) == m * n, "C size mismatch");
  CCPERF_CHECK(k <= kInt8MaxDepth, "int8 GEMM depth ", k,
               " exceeds the int32 no-overflow bound ", kInt8MaxDepth);
  CCPERF_CHECK(epilogue.bias.empty() ||
                   static_cast<std::int64_t>(epilogue.bias.size()) == m,
               "bias size mismatch");
  if (m == 0 || n == 0) return;

  const float b_scale = ActivationScale(b);
  const float inv_b = b_scale > 0.0f ? 1.0f / b_scale : 0.0f;
  std::vector<std::int32_t> qb(static_cast<std::size_t>(k * n));
  for (std::size_t i = 0; i < qb.size(); ++i) qb[i] = QuantizeCore(b[i], inv_b);

  std::vector<std::int32_t> qa_row(static_cast<std::size_t>(k));
  std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < m; ++i) {
    const float scale =
        FiniteMaxAbs(a.subspan(static_cast<std::size_t>(i * k),
                               static_cast<std::size_t>(k))) /
        127.0f;
    const float inv_a = scale > 0.0f ? 1.0f / scale : 0.0f;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      qa_row[static_cast<std::size_t>(kk)] =
          QuantizeCore(a[static_cast<std::size_t>(i * k + kk)], inv_a);
    }
    std::fill(acc.begin(), acc.end(), 0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int32_t av = qa_row[static_cast<std::size_t>(kk)];
      for (std::int64_t j = 0; j < n; ++j) {
        acc[static_cast<std::size_t>(j)] +=
            av * qb[static_cast<std::size_t>(kk * n + j)];
      }
    }
    DequantRow(acc.data(), n, scale * b_scale,
               epilogue.bias.empty()
                   ? 0.0f
                   : epilogue.bias[static_cast<std::size_t>(i)],
               epilogue.relu, c.data() + i * n);
  }
}

}  // namespace ccperf
