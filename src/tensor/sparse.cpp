#include "tensor/sparse.h"

#include <limits>

#include "common/check.h"
#include "common/threading.h"
#include "tensor/sparse_kernels.h"

namespace ccperf {

namespace {

void CheckSparseExtents(std::int64_t rows, std::int64_t cols,
                        std::span<const float> dense) {
  CCPERF_CHECK(rows >= 0 && cols >= 0, "negative sparse extent");
  CCPERF_CHECK(static_cast<std::int64_t>(dense.size()) == rows * cols,
               "dense size mismatch");
  // col_idx_ is int32 to halve index bandwidth in the multiply kernels;
  // reject matrices whose column space it cannot address. (BSR stores
  // block-column indices, but guarding the element extent keeps both
  // formats interchangeable for the same matrix.)
  CCPERF_CHECK(cols <= std::numeric_limits<std::int32_t>::max(),
               "column count ", cols, " exceeds int32 index range");
}

}  // namespace

CsrMatrix CsrMatrix::FromDense(std::int64_t rows, std::int64_t cols,
                               std::span<const float> dense) {
  CheckSparseExtents(rows, cols, dense);
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.resize(static_cast<std::size_t>(rows) + 1, 0);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const float v = dense[static_cast<std::size_t>(r * cols + c)];
      if (v != 0.0f) {
        m.col_idx_.push_back(static_cast<std::int32_t>(c));
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[static_cast<std::size_t>(r) + 1] =
        static_cast<std::int64_t>(m.values_.size());
  }
  return m;
}

CsrMatrix CsrMatrix::FromTensor(const Tensor& t) {
  CCPERF_CHECK(t.GetShape().Rank() == 2, "FromTensor requires rank-2, got ",
               t.GetShape().ToString());
  return FromDense(t.GetShape().Dim(0), t.GetShape().Dim(1), t.Data());
}

double CsrMatrix::Sparsity() const {
  const std::int64_t total = rows_ * cols_;
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(Nnz()) / static_cast<double>(total);
}

std::vector<float> CsrMatrix::ToDense() const {
  std::vector<float> dense(static_cast<std::size_t>(rows_ * cols_), 0.0f);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t p = row_ptr_[static_cast<std::size_t>(r)];
         p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
      dense[static_cast<std::size_t>(r * cols_ + col_idx_[static_cast<std::size_t>(p)])] =
          values_[static_cast<std::size_t>(p)];
    }
  }
  return dense;
}

void CsrMatrix::MultiplyDense(std::span<const float> b, std::int64_t n,
                              std::span<float> c) const {
  CCPERF_CHECK(static_cast<std::int64_t>(b.size()) == cols_ * n,
               "B size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(c.size()) == rows_ * n,
               "C size mismatch");
  detail::SpmmCsr(rows_, cols_, n, row_ptr_.data(), col_idx_.data(),
                  values_.data(), b.data(), c.data());
}

void CsrMatrix::MultiplyDenseScalar(std::span<const float> b, std::int64_t n,
                                    std::span<float> c) const {
  CCPERF_CHECK(static_cast<std::int64_t>(b.size()) == cols_ * n,
               "B size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(c.size()) == rows_ * n,
               "C size mismatch");
  const float* bp = b.data();
  float* cp = c.data();
  ParallelForChunks(
      0, static_cast<std::size_t>(rows_),
      [this, bp, cp, n](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          float* crow = cp + static_cast<std::int64_t>(r) * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
          for (std::int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
            const float v = values_[static_cast<std::size_t>(p)];
            const float* brow =
                bp + static_cast<std::int64_t>(col_idx_[static_cast<std::size_t>(p)]) * n;
            for (std::int64_t j = 0; j < n; ++j) crow[j] += v * brow[j];
          }
        }
      },
      8);
}

void CsrMatrix::MultiplyVector(std::span<const float> x,
                               std::span<float> y) const {
  CCPERF_CHECK(static_cast<std::int64_t>(x.size()) == cols_, "x size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(y.size()) == rows_, "y size mismatch");
  for (std::int64_t r = 0; r < rows_; ++r) {
    float acc = 0.0f;
    for (std::int64_t p = row_ptr_[static_cast<std::size_t>(r)];
         p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
      acc += values_[static_cast<std::size_t>(p)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
}

// --- BsrMatrix --------------------------------------------------------------

BsrMatrix BsrMatrix::FromDense(std::int64_t rows, std::int64_t cols,
                               std::span<const float> dense) {
  CheckSparseExtents(rows, cols, dense);
  BsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  const std::int64_t block_rows = (rows + kBlockRows - 1) / kBlockRows;
  const std::int64_t block_cols = (cols + kBlockCols - 1) / kBlockCols;
  m.row_ptr_.resize(static_cast<std::size_t>(block_rows) + 1, 0);
  for (std::int64_t ib = 0; ib < block_rows; ++ib) {
    for (std::int64_t jb = 0; jb < block_cols; ++jb) {
      float blk[kBlockSize] = {};
      std::int64_t blk_nnz = 0;
      const std::int64_t rv = std::min(kBlockRows, rows - ib * kBlockRows);
      const std::int64_t cv = std::min(kBlockCols, cols - jb * kBlockCols);
      for (std::int64_t r = 0; r < rv; ++r) {
        const float* srow =
            dense.data() + (ib * kBlockRows + r) * cols + jb * kBlockCols;
        for (std::int64_t c = 0; c < cv; ++c) {
          const float v = srow[c];
          blk[r * kBlockCols + c] = v;
          if (v != 0.0f) ++blk_nnz;
        }
      }
      if (blk_nnz > 0) {
        m.col_idx_.push_back(static_cast<std::int32_t>(jb));
        m.values_.insert(m.values_.end(), blk, blk + kBlockSize);
        m.nnz_ += blk_nnz;
      }
    }
    m.row_ptr_[static_cast<std::size_t>(ib) + 1] =
        static_cast<std::int64_t>(m.col_idx_.size());
  }
  return m;
}

double BsrMatrix::DenseBlockFill(std::int64_t rows, std::int64_t cols,
                                 std::span<const float> dense) {
  CheckSparseExtents(rows, cols, dense);
  std::int64_t nnz = 0;
  std::int64_t blocks = 0;
  const std::int64_t block_rows = (rows + kBlockRows - 1) / kBlockRows;
  const std::int64_t block_cols = (cols + kBlockCols - 1) / kBlockCols;
  for (std::int64_t ib = 0; ib < block_rows; ++ib) {
    for (std::int64_t jb = 0; jb < block_cols; ++jb) {
      const std::int64_t rv = std::min(kBlockRows, rows - ib * kBlockRows);
      const std::int64_t cv = std::min(kBlockCols, cols - jb * kBlockCols);
      std::int64_t blk_nnz = 0;
      for (std::int64_t r = 0; r < rv; ++r) {
        const float* srow =
            dense.data() + (ib * kBlockRows + r) * cols + jb * kBlockCols;
        for (std::int64_t c = 0; c < cv; ++c) {
          if (srow[c] != 0.0f) ++blk_nnz;
        }
      }
      if (blk_nnz > 0) {
        ++blocks;
        nnz += blk_nnz;
      }
    }
  }
  if (blocks == 0) return 1.0;
  return static_cast<double>(nnz) /
         static_cast<double>(blocks * kBlockSize);
}

double BsrMatrix::Fill() const {
  if (col_idx_.empty()) return 1.0;
  return static_cast<double>(nnz_) /
         static_cast<double>(StoredBlocks() * kBlockSize);
}

std::vector<float> BsrMatrix::ToDense() const {
  std::vector<float> dense(static_cast<std::size_t>(rows_ * cols_), 0.0f);
  const std::int64_t block_rows = (rows_ + kBlockRows - 1) / kBlockRows;
  for (std::int64_t ib = 0; ib < block_rows; ++ib) {
    for (std::int64_t p = row_ptr_[static_cast<std::size_t>(ib)];
         p < row_ptr_[static_cast<std::size_t>(ib) + 1]; ++p) {
      const float* blk = values_.data() + p * kBlockSize;
      const std::int64_t c0 =
          static_cast<std::int64_t>(col_idx_[static_cast<std::size_t>(p)]) *
          kBlockCols;
      const std::int64_t rv = std::min(kBlockRows, rows_ - ib * kBlockRows);
      const std::int64_t cv = std::min(kBlockCols, cols_ - c0);
      for (std::int64_t r = 0; r < rv; ++r) {
        for (std::int64_t c = 0; c < cv; ++c) {
          dense[static_cast<std::size_t>((ib * kBlockRows + r) * cols_ + c0 +
                                         c)] = blk[r * kBlockCols + c];
        }
      }
    }
  }
  return dense;
}

void BsrMatrix::MultiplyDense(std::span<const float> b, std::int64_t n,
                              std::span<float> c) const {
  CCPERF_CHECK(static_cast<std::int64_t>(b.size()) == cols_ * n,
               "B size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(c.size()) == rows_ * n,
               "C size mismatch");
  detail::SpmmBsr(rows_, cols_, n, (rows_ + kBlockRows - 1) / kBlockRows,
                  row_ptr_.data(), col_idx_.data(), values_.data(), b.data(),
                  c.data());
}

void BsrMatrix::MultiplyVector(std::span<const float> x,
                               std::span<float> y) const {
  CCPERF_CHECK(static_cast<std::int64_t>(x.size()) == cols_, "x size mismatch");
  CCPERF_CHECK(static_cast<std::int64_t>(y.size()) == rows_, "y size mismatch");
  const std::int64_t block_rows = (rows_ + kBlockRows - 1) / kBlockRows;
  for (std::int64_t ib = 0; ib < block_rows; ++ib) {
    float acc[kBlockRows] = {};
    for (std::int64_t p = row_ptr_[static_cast<std::size_t>(ib)];
         p < row_ptr_[static_cast<std::size_t>(ib) + 1]; ++p) {
      const float* blk = values_.data() + p * kBlockSize;
      const std::int64_t c0 =
          static_cast<std::int64_t>(col_idx_[static_cast<std::size_t>(p)]) *
          kBlockCols;
      const std::int64_t cv = std::min(kBlockCols, cols_ - c0);
      for (std::int64_t cc = 0; cc < cv; ++cc) {
        const float xv = x[static_cast<std::size_t>(c0 + cc)];
        for (std::int64_t r = 0; r < kBlockRows; ++r) {
          acc[r] += blk[r * kBlockCols + cc] * xv;
        }
      }
    }
    const std::int64_t rv = std::min(kBlockRows, rows_ - ib * kBlockRows);
    for (std::int64_t r = 0; r < rv; ++r) {
      y[static_cast<std::size_t>(ib * kBlockRows + r)] = acc[r];
    }
  }
}

}  // namespace ccperf
