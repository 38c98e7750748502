#include "tensor/sparse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/gemm.h"

namespace ccperf {
namespace {

std::vector<float> RandomSparseMatrix(Rng& rng, std::int64_t n,
                                      double sparsity) {
  std::vector<float> m(static_cast<std::size_t>(n));
  for (auto& v : m) {
    v = rng.NextDouble() < sparsity ? 0.0f : rng.NextFloat(-1.0f, 1.0f);
  }
  return m;
}

TEST(Csr, RoundTripSmall) {
  const std::vector<float> dense{0, 1, 0, 2, 0, 0, 3, 0, 4};
  const CsrMatrix m = CsrMatrix::FromDense(3, 3, dense);
  EXPECT_EQ(m.Nnz(), 4);
  EXPECT_EQ(m.ToDense(), dense);
}

TEST(Csr, EmptyMatrix) {
  const CsrMatrix m = CsrMatrix::FromDense(0, 0, {});
  EXPECT_EQ(m.Nnz(), 0);
  EXPECT_EQ(m.Rows(), 0);
}

TEST(Csr, AllZerosMatrix) {
  const CsrMatrix m = CsrMatrix::FromDense(2, 3, std::vector<float>(6, 0.0f));
  EXPECT_EQ(m.Nnz(), 0);
  EXPECT_DOUBLE_EQ(m.Sparsity(), 1.0);
}

TEST(Csr, SparsityComputation) {
  const std::vector<float> dense{1, 0, 0, 0};
  const CsrMatrix m = CsrMatrix::FromDense(2, 2, dense);
  EXPECT_DOUBLE_EQ(m.Sparsity(), 0.75);
}

TEST(Csr, FromDenseRejectsSizeMismatch) {
  EXPECT_THROW(CsrMatrix::FromDense(2, 2, std::vector<float>(3)), CheckError);
}

TEST(Csr, MultiplyVectorHandComputed) {
  // [[1,0],[0,2]] * [3,4] = [3,8]
  const CsrMatrix m = CsrMatrix::FromDense(2, 2, std::vector<float>{1, 0, 0, 2});
  std::vector<float> x{3, 4}, y(2);
  m.MultiplyVector(x, y);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
}

TEST(Csr, MultiplyVectorSizeChecked) {
  const CsrMatrix m = CsrMatrix::FromDense(2, 2, std::vector<float>{1, 0, 0, 2});
  std::vector<float> x(3), y(2);
  EXPECT_THROW(m.MultiplyVector(x, y), CheckError);
}

class CsrMultiplyMatchesDense
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(CsrMultiplyMatchesDense, RandomMatrices) {
  const auto [rows, cols, n, sparsity] = GetParam();
  Rng rng(static_cast<std::uint64_t>(rows * 31 + cols * 7 + n));
  const auto a = RandomSparseMatrix(rng, rows * cols, sparsity);
  std::vector<float> b(static_cast<std::size_t>(cols * n));
  for (auto& v : b) v = rng.NextFloat(-1.0f, 1.0f);

  const CsrMatrix csr = CsrMatrix::FromDense(rows, cols, a);
  std::vector<float> c_sparse(static_cast<std::size_t>(rows * n));
  std::vector<float> c_dense(static_cast<std::size_t>(rows * n));
  csr.MultiplyDense(b, n, c_sparse);
  NaiveGemm(rows, n, cols, a, b, c_dense);
  for (std::size_t i = 0; i < c_sparse.size(); ++i) {
    EXPECT_NEAR(c_sparse[i], c_dense[i], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSparsities, CsrMultiplyMatchesDense,
    ::testing::Values(std::make_tuple(1, 1, 1, 0.0),
                      std::make_tuple(4, 6, 3, 0.5),
                      std::make_tuple(16, 16, 16, 0.9),
                      std::make_tuple(64, 32, 8, 0.3),
                      std::make_tuple(7, 100, 13, 0.99),
                      std::make_tuple(50, 50, 1, 0.7)));

TEST(Csr, NnzDropsWithSparsity) {
  Rng rng(2);
  const auto dense = RandomSparseMatrix(rng, 100 * 100, 0.8);
  const CsrMatrix m = CsrMatrix::FromDense(100, 100, dense);
  EXPECT_NEAR(m.Sparsity(), 0.8, 0.03);
  EXPECT_LT(m.Nnz(), 2500);
}

TEST(Csr, RowPtrInvariants) {
  Rng rng(8);
  const auto dense = RandomSparseMatrix(rng, 20 * 30, 0.6);
  const CsrMatrix m = CsrMatrix::FromDense(20, 30, dense);
  const auto row_ptr = m.RowPtr();
  ASSERT_EQ(row_ptr.size(), 21u);
  EXPECT_EQ(row_ptr.front(), 0);
  EXPECT_EQ(row_ptr.back(), m.Nnz());
  for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    EXPECT_LE(row_ptr[r], row_ptr[r + 1]);
  }
  // Column indices sorted within a row.
  const auto col = m.ColIdx();
  for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    for (auto p = row_ptr[r]; p + 1 < row_ptr[r + 1]; ++p) {
      EXPECT_LT(col[static_cast<std::size_t>(p)],
                col[static_cast<std::size_t>(p) + 1]);
    }
  }
}

// --- Hardening: extents, empty structure, and zero semantics ---------------

TEST(Csr, ColumnCountBeyondInt32Throws) {
  // col_idx_ is int32 to halve index bandwidth; the builders must reject a
  // column space that it cannot address (rows = 0 keeps the dense span
  // empty, so only the extent guard can fire).
  const std::int64_t huge =
      static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max()) + 1;
  EXPECT_THROW(CsrMatrix::FromDense(0, huge, {}), CheckError);
  EXPECT_THROW(BsrMatrix::FromDense(0, huge, {}), CheckError);
}

TEST(Csr, NegativeExtentsThrow) {
  EXPECT_THROW(CsrMatrix::FromDense(-1, 4, {}), CheckError);
  EXPECT_THROW(CsrMatrix::FromDense(4, -1, {}), CheckError);
  EXPECT_THROW(BsrMatrix::FromDense(-1, 4, {}), CheckError);
}

TEST(Csr, EmptyRowsOverwriteOutput) {
  // Rows 0 and 2 hold no nonzeros; MultiplyDense overwrites C, so a
  // sentinel prefill must come back as exact zeros there — the property
  // that lets layers reuse output buffers across forward passes.
  const std::vector<float> dense{0, 0, 0,   // row 0: empty
                                 1, 0, 2,   // row 1
                                 0, 0, 0,   // row 2: empty
                                 0, 3, 0};  // row 3
  const CsrMatrix m = CsrMatrix::FromDense(4, 3, dense);
  const std::vector<float> b(3 * 5, 1.0f);
  std::vector<float> c(4 * 5, -7.0f);
  m.MultiplyDense(b, 5, c);
  for (std::int64_t j = 0; j < 5; ++j) {
    EXPECT_EQ(c[static_cast<std::size_t>(j)], 0.0f);
    EXPECT_EQ(c[static_cast<std::size_t>(2 * 5 + j)], 0.0f);
    EXPECT_FLOAT_EQ(c[static_cast<std::size_t>(1 * 5 + j)], 3.0f);
    EXPECT_FLOAT_EQ(c[static_cast<std::size_t>(3 * 5 + j)], 3.0f);
  }
  std::vector<float> c_scalar(4 * 5, -7.0f);
  m.MultiplyDenseScalar(b, 5, c_scalar);
  EXPECT_EQ(c, c_scalar);
}

TEST(Csr, AllZeroMatrixMultiplyWritesZeros) {
  const CsrMatrix m = CsrMatrix::FromDense(3, 4, std::vector<float>(12, 0.0f));
  EXPECT_EQ(m.Nnz(), 0);
  const std::vector<float> b(4 * 6, 2.5f);
  std::vector<float> c(3 * 6, -7.0f);
  m.MultiplyDense(b, 6, c);
  for (const float v : c) EXPECT_EQ(v, 0.0f);
}

TEST(Csr, NegativeZeroIsDroppedValuePreservingly) {
  // -0.0f compares equal to 0.0f, so FromDense drops it. For finite B the
  // drop cannot move any sum (a -0.0f * b contribution is a signed zero),
  // so the multiply still matches the dense ground truth.
  std::vector<float> dense{-0.0f, 1.0f, 2.0f, -0.0f};
  const CsrMatrix m = CsrMatrix::FromDense(2, 2, dense);
  EXPECT_EQ(m.Nnz(), 2);
  const std::vector<float> b{3.0f, -4.0f, 5.0f, 6.0f};
  std::vector<float> c_sparse(4), c_naive(4);
  m.MultiplyDense(b, 2, c_sparse);
  NaiveGemm(2, 2, 2, dense, b, c_naive);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(c_sparse[i], c_naive[i], 1e-6f) << "index " << i;
  }
}

TEST(Csr, DenormalsAreRetained) {
  // Denormals are nonzero, so they must survive the zero drop bitwise —
  // only exact (signed) zeros are structural.
  const float denormal = std::numeric_limits<float>::denorm_min() * 64.0f;
  const std::vector<float> dense{denormal, 0.0f, -denormal, 1.0f};
  const CsrMatrix m = CsrMatrix::FromDense(2, 2, dense);
  EXPECT_EQ(m.Nnz(), 3);
  const std::vector<float> round_trip = m.ToDense();
  EXPECT_EQ(0, std::memcmp(round_trip.data(), dense.data(),
                           dense.size() * sizeof(float)));
}

TEST(Csr, DroppedZeroTimesNonFiniteGivesZeroByDesign) {
  // The structural-zero drop is value-preserving only for finite operands:
  // an all-zero row against a B containing NaN yields 0, where IEEE dense
  // arithmetic says NaN. Pinned here as the documented divergence (the
  // same trade the dense reference kernel's zero skip makes).
  const std::vector<float> dense{0.0f, 0.0f,   // row 0: structurally empty
                                 1.0f, 1.0f};  // row 1: multiplies the NaN
  const CsrMatrix m = CsrMatrix::FromDense(2, 2, dense);
  const std::vector<float> b{std::numeric_limits<float>::quiet_NaN(), 1.0f,
                             2.0f, 1.0f};
  std::vector<float> c(4, -7.0f);
  m.MultiplyDense(b, 2, c);
  EXPECT_EQ(c[0], 0.0f);  // dropped zeros hide the NaN
  EXPECT_EQ(c[1], 0.0f);
  EXPECT_TRUE(std::isnan(c[2]));  // a real nonzero still propagates it
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

// --- BSR structure ----------------------------------------------------------

TEST(Bsr, RoundTripWithTailPadding) {
  // 5x6 does not divide the 4x4 blocking in either dimension; tail blocks
  // are zero-padded internally but ToDense must return the original shape.
  Rng rng(21);
  const auto dense = RandomSparseMatrix(rng, 5 * 6, 0.4);
  const BsrMatrix m = BsrMatrix::FromDense(5, 6, dense);
  EXPECT_EQ(m.Rows(), 5);
  EXPECT_EQ(m.Cols(), 6);
  EXPECT_EQ(m.ToDense(), dense);
}

TEST(Bsr, StoredBlocksAndFill) {
  // One fully dense 4x4 block and one block holding a single nonzero:
  // 2 stored blocks, 17 nonzeros, fill 17/32.
  std::vector<float> dense(8 * 4, 0.0f);
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = 0; c < 4; ++c) dense[static_cast<std::size_t>(r * 4 + c)] = 1.0f;
  }
  dense[static_cast<std::size_t>(5 * 4 + 2)] = 3.0f;
  const BsrMatrix m = BsrMatrix::FromDense(8, 4, dense);
  EXPECT_EQ(m.StoredBlocks(), 2);
  EXPECT_EQ(m.Nnz(), 17);
  EXPECT_DOUBLE_EQ(m.Fill(), 17.0 / 32.0);
}

TEST(Bsr, AllZeroMatrix) {
  const BsrMatrix m = BsrMatrix::FromDense(4, 8, std::vector<float>(32, 0.0f));
  EXPECT_EQ(m.StoredBlocks(), 0);
  EXPECT_EQ(m.Nnz(), 0);
  EXPECT_DOUBLE_EQ(m.Fill(), 1.0);  // no stored blocks: fill is vacuous
  EXPECT_DOUBLE_EQ(
      BsrMatrix::DenseBlockFill(4, 8, std::vector<float>(32, 0.0f)), 1.0);
  const std::vector<float> b(8 * 3, 1.5f);
  std::vector<float> c(4 * 3, -7.0f);
  m.MultiplyDense(b, 3, c);
  for (const float v : c) EXPECT_EQ(v, 0.0f);
}

TEST(Bsr, EmptyBlockRowsOverwriteOutput) {
  // Block row 0 (rows 0-3) empty, block row 1 (rows 4-7) dense.
  std::vector<float> dense(8 * 4, 0.0f);
  for (std::size_t i = 4 * 4; i < dense.size(); ++i) dense[i] = 2.0f;
  const BsrMatrix m = BsrMatrix::FromDense(8, 4, dense);
  const std::vector<float> b(4 * 5, 1.0f);
  std::vector<float> c(8 * 5, -7.0f);
  m.MultiplyDense(b, 5, c);
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t j = 0; j < 5; ++j) {
      EXPECT_EQ(c[static_cast<std::size_t>(r * 5 + j)], 0.0f) << r;
      EXPECT_FLOAT_EQ(c[static_cast<std::size_t>((r + 4) * 5 + j)], 8.0f) << r;
    }
  }
}

TEST(Bsr, MultiplyVectorHandComputed) {
  // [[1,0],[0,2]] * [3,4] = [3,8] (stored as one padded 4x4 block).
  const BsrMatrix m =
      BsrMatrix::FromDense(2, 2, std::vector<float>{1, 0, 0, 2});
  EXPECT_EQ(m.StoredBlocks(), 1);
  std::vector<float> x{3, 4}, y(2);
  m.MultiplyVector(x, y);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
}

TEST(Bsr, DenseBlockFillMatchesBuiltFill) {
  Rng rng(33);
  const auto dense = RandomSparseMatrix(rng, 20 * 24, 0.7);
  const BsrMatrix m = BsrMatrix::FromDense(20, 24, dense);
  EXPECT_DOUBLE_EQ(BsrMatrix::DenseBlockFill(20, 24, dense), m.Fill());
}

}  // namespace
}  // namespace ccperf
