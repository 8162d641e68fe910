// Tests for GSPMV kernels: reference vs SIMD vs dense ground truth,
// layout ablation, engine threading, parameterized m sweeps.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "dense/matrix.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/gspmv.hpp"
#include "sparse/multivector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace mrhs;

/// Ground truth Y = A X through the dense path.
sparse::MultiVector dense_gspmv(const sparse::BcrsMatrix& a,
                                const sparse::MultiVector& x) {
  const auto d = a.to_dense();
  sparse::MultiVector y(a.rows(), x.cols());
  std::vector<double> xc(a.cols()), yc(a.rows());
  for (std::size_t j = 0; j < x.cols(); ++j) {
    x.copy_col_out(j, xc);
    std::fill(yc.begin(), yc.end(), 0.0);
    dense::gemv(1.0, d, xc, 0.0, yc);
    y.copy_col_in(j, yc);
  }
  return y;
}

double max_diff(const sparse::MultiVector& a, const sparse::MultiVector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
    }
  }
  return worst;
}

class GspmvParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(GspmvParam, ReferenceMatchesDense) {
  const auto [m, blocks_per_row] = GetParam();
  const auto a = sparse::make_random_bcrs(40, blocks_per_row, 11);
  util::StreamRng rng(m);
  sparse::MultiVector x(a.cols(), m), y(a.rows(), m);
  x.fill_normal(rng);
  sparse::gspmv_reference(a, x, y);
  EXPECT_LT(max_diff(y, dense_gspmv(a, x)), 1e-11);
}

TEST_P(GspmvParam, SimdMatchesReference) {
  const auto [m, blocks_per_row] = GetParam();
  const auto a = sparse::make_random_bcrs(40, blocks_per_row, 13);
  util::StreamRng rng(m + 99);
  sparse::MultiVector x(a.cols(), m), y_ref(a.rows(), m), y_simd(a.rows(), m);
  x.fill_normal(rng);
  sparse::gspmv_reference(a, x, y_ref);
  const sparse::GspmvEngine engine(a, /*threads=*/1);
  engine.apply(x, y_simd, sparse::GspmvKernel::kAuto);
  EXPECT_LT(max_diff(y_ref, y_simd), 1e-12);
}

TEST_P(GspmvParam, EngineThreadedMatchesSerial) {
  const auto [m, blocks_per_row] = GetParam();
  const auto a = sparse::make_random_bcrs(64, blocks_per_row, 17);
  util::StreamRng rng(m + 5);
  sparse::MultiVector x(a.cols(), m), y1(a.rows(), m), y4(a.rows(), m);
  x.fill_normal(rng);
  sparse::GspmvEngine serial(a, 1), threaded(a, 4);
  serial.apply(x, y1);
  threaded.apply(x, y4);
  // Row partitioning does not change per-row summation order: exact.
  EXPECT_DOUBLE_EQ(max_diff(y1, y4), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GspmvParam,
    ::testing::Combine(
        ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 32),
        ::testing::Values(1.0, 5.6, 24.9)),
    [](const auto& param_info) {
      return "m" + std::to_string(std::get<0>(param_info.param)) + "_bpr" +
             std::to_string(
                 static_cast<int>(std::get<1>(param_info.param) * 10));
    });

TEST(Gspmv, SpmvMatchesSingleColumnGspmv) {
  const auto a = sparse::make_random_bcrs(50, 8.0, 23);
  util::StreamRng rng(2);
  std::vector<double> x(a.cols()), y(a.rows());
  rng.fill_normal(x);
  sparse::spmv_reference(a, x, y);

  sparse::MultiVector xm(a.cols(), 1), ym(a.rows(), 1);
  xm.copy_col_in(0, x);
  sparse::gspmv_reference(a, xm, ym);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_DOUBLE_EQ(y[i], ym(i, 0));
  }
}

TEST(Gspmv, ColMajorAblationMatchesRowMajor) {
  const auto a = sparse::make_random_bcrs(30, 6.0, 31);
  const std::size_t m = 5;
  util::StreamRng rng(3);
  sparse::MultiVector x(a.cols(), m), y(a.rows(), m);
  x.fill_normal(rng);
  sparse::gspmv_reference(a, x, y);

  // Column-major copies.
  std::vector<double> xc(a.cols() * m), yc(a.rows() * m, 0.0), col(a.cols());
  for (std::size_t j = 0; j < m; ++j) {
    x.copy_col_out(j, col);
    std::copy(col.begin(), col.end(), xc.begin() + j * a.cols());
  }
  sparse::gspmv_colmajor(a, xc.data(), yc.data(), m);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(yc[j * a.rows() + i], y(i, j), 1e-12);
    }
  }
}

TEST(Gspmv, EmptyBlockRowsProduceZero) {
  sparse::BcrsBuilder builder(4, 4);
  builder.add_scaled_identity(1, 2.0);  // rows 0, 2, 3 empty
  const auto a = builder.build();
  util::StreamRng rng(4);
  sparse::MultiVector x(a.cols(), 3), y(a.rows(), 3);
  x.fill_normal(rng);
  sparse::GspmvEngine engine(a, 1);
  engine.apply(x, y);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(y(0, j), 0.0);
    EXPECT_NEAR(y(3, j), 2.0 * x(3, j), 1e-14);
    EXPECT_DOUBLE_EQ(y(6, j), 0.0);
    EXPECT_DOUBLE_EQ(y(9, j), 0.0);
  }
}

TEST(Gspmv, DiagonalMatrixScalesVectors) {
  sparse::BcrsBuilder builder(5, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    builder.add_scaled_identity(i, static_cast<double>(i + 1));
  }
  const auto a = builder.build();
  util::StreamRng rng(8);
  sparse::MultiVector x(a.cols(), 4), y(a.rows(), 4);
  x.fill_normal(rng);
  sparse::GspmvEngine engine(a, 1);
  engine.apply(x, y);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double scale = static_cast<double>(i / 3 + 1);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(y(i, j), scale * x(i, j), 1e-13);
    }
  }
}

TEST(Gspmv, ShapeMismatchThrows) {
  const auto a = sparse::make_random_bcrs(10, 3.0, 1);
  sparse::GspmvEngine engine(a, 1);
  sparse::MultiVector bad_rows(a.cols() - 3, 2), y(a.rows(), 2);
  EXPECT_THROW(engine.apply(bad_rows, y), std::invalid_argument);
  sparse::MultiVector x(a.cols(), 2), bad_cols(a.rows(), 3);
  EXPECT_THROW(engine.apply(x, bad_cols), std::invalid_argument);
}

TEST(Gspmv, FlopsAndBytesAccounting) {
  const auto a = sparse::make_random_bcrs(20, 5.0, 3);
  sparse::GspmvEngine engine(a, 1);
  EXPECT_DOUBLE_EQ(engine.flops(4),
                   18.0 * static_cast<double>(a.nnzb()) * 4.0);
  EXPECT_GT(engine.min_bytes(2), engine.min_bytes(1));
  // The matrix term is m-independent.
  const double vec_traffic = engine.min_bytes(2) - engine.min_bytes(1);
  EXPECT_DOUBLE_EQ(engine.min_bytes(3) - engine.min_bytes(2), vec_traffic);
}

TEST(Gspmv, LinearityProperty) {
  // A (alpha x1 + x2) == alpha A x1 + A x2 (within roundoff).
  const auto a = sparse::make_random_bcrs(25, 7.0, 41);
  util::StreamRng rng(9);
  const std::size_t m = 6;
  sparse::MultiVector x1(a.cols(), m), x2(a.cols(), m);
  x1.fill_normal(rng);
  x2.fill_normal(rng);
  const double alpha = 2.5;

  sparse::MultiVector combo = x2;
  combo.axpy(alpha, x1);
  sparse::MultiVector y_combo(a.rows(), m);
  sparse::GspmvEngine engine(a, 1);
  engine.apply(combo, y_combo);

  sparse::MultiVector y1(a.rows(), m), y2(a.rows(), m);
  engine.apply(x1, y1);
  engine.apply(x2, y2);
  y2.axpy(alpha, y1);
  EXPECT_LT(max_diff(y_combo, y2), 1e-10);
}

}  // namespace
