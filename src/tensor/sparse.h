// Sparse weight formats (CSR and 4x4 block-CSR) and sparse-dense multiply.
//
// Pruned convolution/FC weights are stored sparsely so that inference cost
// scales with the number of surviving parameters — the mechanism behind the
// paper's time-vs-prune-ratio curves. Both formats multiply through the
// vectorized row-panel kernels in sparse_kernels.cpp, which pack the dense
// operand into the same ISA-sized column panels as the blocked GEMM; the
// format/dense choice per layer is made by sparse_dispatch.h.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ccperf {

/// Row-major CSR matrix of float32 values.
///
/// FromDense drops entries that compare equal to 0.0f. Like the dense
/// reference kernel's zero skip, this is value-preserving for finite
/// operands (-0.0f contributions cannot move a sum, and denormals are
/// kept), but a dropped zero times a non-finite B entry yields 0 instead
/// of NaN/Inf — the semantics pinned down by tensor_sparse_test.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from a dense row-major matrix, dropping exact zeros.
  static CsrMatrix FromDense(std::int64_t rows, std::int64_t cols,
                             std::span<const float> dense);

  [[nodiscard]] std::int64_t Rows() const { return rows_; }
  [[nodiscard]] std::int64_t Cols() const { return cols_; }
  [[nodiscard]] std::int64_t Nnz() const {
    return static_cast<std::int64_t>(values_.size());
  }

  /// Fraction of zero entries in [0, 1].
  [[nodiscard]] double Sparsity() const;

  /// Reconstruct the dense row-major matrix (tests / round-tripping).
  [[nodiscard]] std::vector<float> ToDense() const;

  /// C[rows, n] = this[rows, cols] * B[cols, n]; C overwritten.
  /// Vectorized row-panel kernel over packed B; parallelized over rows,
  /// each C element accumulated in fixed ascending-column order by exactly
  /// one task (bitwise-deterministic, pool-size independent).
  void MultiplyDense(std::span<const float> b, std::int64_t n,
                     std::span<float> c) const;

  /// The pre-blocking scalar row-loop kernel, kept as the portable fallback
  /// and as the differential-test oracle for the vectorized path.
  void MultiplyDenseScalar(std::span<const float> b, std::int64_t n,
                           std::span<float> c) const;

  /// y[rows] = this * x[cols].
  void MultiplyVector(std::span<const float> x, std::span<float> y) const;

  [[nodiscard]] std::span<const std::int64_t> RowPtr() const { return row_ptr_; }
  [[nodiscard]] std::span<const std::int32_t> ColIdx() const { return col_idx_; }
  [[nodiscard]] std::span<const float> Values() const { return values_; }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_;  // size rows_+1
  std::vector<std::int32_t> col_idx_;  // size nnz
  std::vector<float> values_;          // size nnz
};

/// Block compressed sparse row matrix with fixed kBlockRows x kBlockCols
/// micro-blocks, sized so the multiply kernel can hold a block-row x
/// panel-width register tile and reuse each packed-B row across the block's
/// rows (the same trick as the dense microkernel). A block is stored when
/// any of its entries is nonzero; interior zeros are stored explicitly, so
/// BSR only pays off when blocks are well filled — whole-filter pruning
/// (filter_pruner) leaves surviving rows dense and produces exactly that
/// structure. Fill() reports the ratio the dispatch policy thresholds on.
class BsrMatrix {
 public:
  static constexpr std::int64_t kBlockRows = 4;
  static constexpr std::int64_t kBlockCols = 4;
  static constexpr std::int64_t kBlockSize = kBlockRows * kBlockCols;

  BsrMatrix() = default;

  /// Build from a dense row-major matrix. Tail blocks are zero-padded.
  static BsrMatrix FromDense(std::int64_t rows, std::int64_t cols,
                             std::span<const float> dense);

  /// Block fill a dense matrix would have as BSR (nnz / stored-block
  /// capacity), without building anything. 1.0 for an all-zero matrix so a
  /// fully pruned layer still dispatches to the cheapest sparse kernel.
  static double DenseBlockFill(std::int64_t rows, std::int64_t cols,
                               std::span<const float> dense);

  [[nodiscard]] std::int64_t Rows() const { return rows_; }
  [[nodiscard]] std::int64_t Cols() const { return cols_; }
  /// Count of nonzero entries (not stored entries).
  [[nodiscard]] std::int64_t Nnz() const { return nnz_; }
  [[nodiscard]] std::int64_t StoredBlocks() const {
    return static_cast<std::int64_t>(col_idx_.size());
  }
  /// nnz / (StoredBlocks * kBlockSize); 1.0 when no blocks are stored.
  [[nodiscard]] double Fill() const;

  /// Reconstruct the dense row-major matrix (tests / round-tripping).
  [[nodiscard]] std::vector<float> ToDense() const;

  /// C[rows, n] = this[rows, cols] * B[cols, n]; C overwritten. Same
  /// determinism contract as CsrMatrix::MultiplyDense.
  void MultiplyDense(std::span<const float> b, std::int64_t n,
                     std::span<float> c) const;

  /// y[rows] = this * x[cols] (scalar; batch-1 latency path).
  void MultiplyVector(std::span<const float> x, std::span<float> y) const;

  [[nodiscard]] std::span<const std::int64_t> RowPtr() const { return row_ptr_; }
  [[nodiscard]] std::span<const std::int32_t> ColIdx() const { return col_idx_; }
  [[nodiscard]] std::span<const float> Values() const { return values_; }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t nnz_ = 0;
  std::vector<std::int64_t> row_ptr_;  // size block_rows+1, in blocks
  std::vector<std::int32_t> col_idx_;  // block-column index per stored block
  std::vector<float> values_;          // kBlockSize floats per stored block,
                                       // row-major within the block
};

}  // namespace ccperf
