// Tests for src/sparse formats: CSR, BCRS, builders, conversions,
// MultiVector operations, partitioning.
#include <gtest/gtest.h>

#include <vector>

#include "dense/matrix.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/csr.hpp"
#include "sparse/multivector.hpp"
#include "sparse/partition.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;

TEST(Csr, BuilderSortsAndSumsDuplicates) {
  sparse::CooBuilder coo(3, 3);
  coo.add(0, 2, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(0, 2, 3.0);  // duplicate -> summed
  coo.add(2, 1, 4.0);
  const auto a = coo.build();
  EXPECT_EQ(a.nnz(), 3u);
  const auto d = a.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(d(2, 1), 4.0);
  // Columns sorted within each row.
  EXPECT_EQ(a.col_idx()[0], 0);
  EXPECT_EQ(a.col_idx()[1], 2);
}

TEST(Csr, MultiplyMatchesDense) {
  sparse::CooBuilder coo(4, 4);
  util::StreamRng rng(3);
  for (int k = 0; k < 10; ++k) {
    coo.add(static_cast<std::size_t>(rng.uniform() * 4) % 4,
            static_cast<std::size_t>(rng.uniform() * 4) % 4, rng.normal());
  }
  const auto a = coo.build();
  const auto d = a.to_dense();
  std::vector<double> x(4), y(4), y_ref(4, 0.0);
  for (double& v : x) v = rng.normal();
  a.multiply(x, y);
  dense::gemv(1.0, d, x, 0.0, y_ref);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-13);
}

TEST(Csr, EmptyRowsHandled) {
  sparse::CooBuilder coo(3, 3);
  coo.add(1, 1, 5.0);
  const auto a = coo.build();
  std::vector<double> x = {1, 1, 1}, y(3);
  a.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
}

TEST(Csr, OutOfRangeThrows) {
  sparse::CooBuilder coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(coo.add(0, 2, 1.0), std::out_of_range);
}

TEST(Bcrs, BuilderAccumulatesBlocks) {
  sparse::BcrsBuilder builder(2, 2);
  const double blk[9] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  builder.add_block(0, 1, std::span<const double, 9>(blk));
  builder.add_block(0, 1, std::span<const double, 9>(blk));  // summed
  builder.add_scaled_identity(1, 3.0);
  const auto a = builder.build();
  EXPECT_EQ(a.block_rows(), 2u);
  EXPECT_EQ(a.nnzb(), 2u);
  EXPECT_EQ(a.nnz(), 18u);
  const auto d = a.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 3), 2.0);   // block (0,1) entry (0,0)->(0,3)... value 2*1
  EXPECT_DOUBLE_EQ(d(0, 4), 4.0);
  EXPECT_DOUBLE_EQ(d(4, 4), 3.0);
  EXPECT_DOUBLE_EQ(d(3, 3), 3.0);
}

TEST(Bcrs, BlocksPerRowStatistic) {
  const auto a = sparse::make_random_bcrs(100, 11.0, 5);
  EXPECT_NEAR(a.blocks_per_row(), 11.0, 1.0);
  EXPECT_EQ(a.rows(), 300u);
}

TEST(Bcrs, RandomSymmetricIsSymmetric) {
  const auto a = sparse::make_random_bcrs(60, 9.0, 17, /*symmetric=*/true);
  EXPECT_DOUBLE_EQ(a.asymmetry(), 0.0);
}

TEST(Bcrs, RandomSymmetricIsPositiveDefinite) {
  const auto a = sparse::make_random_bcrs(20, 7.0, 23, /*symmetric=*/true);
  const auto d = a.to_dense();
  EXPECT_NO_THROW(dense::Cholesky{d});  // diagonally dominant => SPD
}

TEST(Bcrs, CsrRoundTrip) {
  const auto a = sparse::make_random_bcrs(30, 6.0, 7);
  const auto csr = a.to_csr();
  const auto back = sparse::csr_to_bcrs(csr);
  const auto d1 = a.to_dense();
  const auto d2 = back.to_dense();
  for (std::size_t i = 0; i < d1.rows(); ++i) {
    for (std::size_t j = 0; j < d1.cols(); ++j) {
      EXPECT_DOUBLE_EQ(d1(i, j), d2(i, j));
    }
  }
}

TEST(Bcrs, DiagonalBlocksExtraction) {
  sparse::BcrsBuilder builder(2, 2);
  builder.add_scaled_identity(0, 2.0);
  // Block row 1 has no diagonal block -> identity padding.
  const double blk[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  builder.add_block(1, 0, std::span<const double, 9>(blk));
  const auto a = builder.build();
  const auto diags = a.diagonal_blocks();
  EXPECT_DOUBLE_EQ(diags[0], 2.0);   // (0,0) of block 0
  EXPECT_DOUBLE_EQ(diags[9], 1.0);   // identity pad for block row 1
}

TEST(Bcrs, MatrixBytesAccountsValuesAndIndices) {
  const auto a = sparse::make_random_bcrs(10, 4.0, 1);
  const std::size_t expected = a.nnzb() * 9 * 8 + a.nnzb() * 4 + 11 * 8;
  EXPECT_EQ(a.matrix_bytes(), expected);
}

TEST(MultiVector, ColumnRoundTrip) {
  sparse::MultiVector v(5, 3);
  std::vector<double> col = {1, 2, 3, 4, 5};
  v.copy_col_in(1, col);
  std::vector<double> out(5);
  v.copy_col_out(1, out);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(out[i], col[i]);
  v.copy_col_out(0, out);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(out[i], 0.0);
}

TEST(MultiVector, RowMajorLayout) {
  sparse::MultiVector v(2, 3);
  v(0, 0) = 1;
  v(0, 2) = 3;
  v(1, 1) = 5;
  EXPECT_DOUBLE_EQ(v.data()[0], 1.0);
  EXPECT_DOUBLE_EQ(v.data()[2], 3.0);  // row 0 contiguous
  EXPECT_DOUBLE_EQ(v.data()[4], 5.0);
}

TEST(MultiVector, AxpyScaleNorms) {
  sparse::MultiVector x(4, 2), y(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = 2.0;
  }
  y.axpy(2.0, x);
  std::vector<double> norms(2);
  y.col_norms(norms);
  EXPECT_NEAR(norms[0], 2.0 * 2.0, 1e-14);        // ||(2,2,2,2)|| = 4
  EXPECT_NEAR(norms[1], 4.0 * 2.0, 1e-14);
  y.scale(0.5);
  y.col_norms(norms);
  EXPECT_NEAR(norms[0], 2.0, 1e-14);
}

TEST(MultiVector, ColDots) {
  sparse::MultiVector x(3, 2), y(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    x(i, 0) = 1.0;
    y(i, 0) = 2.0;
    x(i, 1) = static_cast<double>(i);
    y(i, 1) = 1.0;
  }
  std::vector<double> dots(2);
  x.col_dots(y, dots);
  EXPECT_DOUBLE_EQ(dots[0], 6.0);
  EXPECT_DOUBLE_EQ(dots[1], 3.0);
}

TEST(MultiVector, Axpby) {
  sparse::MultiVector x(2, 2), y(2, 2);
  x(0, 0) = 1.0;
  y(0, 0) = 10.0;
  sparse::axpby(2.0, x, 0.5, y);
  EXPECT_DOUBLE_EQ(y(0, 0), 7.0);
}

TEST(Partition, BalancedByNnz) {
  const auto a = sparse::make_random_bcrs(1000, 12.0, 9);
  for (std::size_t parts : {1u, 2u, 4u, 7u, 16u}) {
    const auto ranges = sparse::balanced_row_partition(a, parts);
    ASSERT_EQ(ranges.size(), parts);
    // Coverage: contiguous, disjoint, complete.
    EXPECT_EQ(ranges.front().begin, 0u);
    EXPECT_EQ(ranges.back().end, a.block_rows());
    for (std::size_t p = 1; p < parts; ++p) {
      EXPECT_EQ(ranges[p].begin, ranges[p - 1].end);
    }
    EXPECT_LT(sparse::partition_imbalance(a, ranges), 1.25);
  }
}

TEST(Partition, MorePartsThanRows) {
  const auto a = sparse::make_random_bcrs(3, 1.0, 2);
  const auto ranges = sparse::balanced_row_partition(a, 8);
  EXPECT_EQ(ranges.size(), 8u);
  EXPECT_EQ(ranges.back().end, 3u);
  std::size_t covered = 0;
  for (const auto& r : ranges) covered += r.size();
  EXPECT_EQ(covered, 3u);
}

}  // namespace
