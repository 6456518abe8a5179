#include "spectral/legendre.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace {

using namespace ncar::spectral;

TEST(TriangularIndex, SizeIsTrianglePlusDiagonal) {
  TriangularIndex idx(42);
  EXPECT_EQ(idx.size(), 43 * 44 / 2);
  EXPECT_EQ(idx.column_length(0), 43);
  EXPECT_EQ(idx.column_length(42), 1);
}

TEST(TriangularIndex, FlatIndicesAreDenseAndOrdered) {
  TriangularIndex idx(5);
  int expect = 0;
  for (int m = 0; m <= 5; ++m) {
    EXPECT_EQ(idx.column_start(m), expect);
    for (int n = m; n <= 5; ++n) {
      EXPECT_EQ(idx.at(m, n), expect++);
    }
  }
  EXPECT_EQ(expect, idx.size());
}

TEST(TriangularIndex, OutOfRangeThrows) {
  TriangularIndex idx(5);
  EXPECT_THROW(idx.at(6, 6), ncar::precondition_error);
  EXPECT_THROW(idx.at(3, 2), ncar::precondition_error);  // n < m
  EXPECT_THROW(idx.at(-1, 0), ncar::precondition_error);
}

class LegendreTableTest : public ::testing::Test {
protected:
  static constexpr int kT = 21;
  static constexpr int kLat = 32;
  GaussNodes nodes = gauss_legendre(kLat);
  LegendreTable table{kT, nodes};
};

TEST_F(LegendreTableTest, MatchesClosedFormsLowDegree) {
  // Pbar_0^0 = 1, Pbar_1^0 = sqrt(3) mu, Pbar_1^1 = sqrt(3/2) sqrt(1-mu^2).
  for (int j = 0; j < kLat; ++j) {
    const double mu = nodes.mu[static_cast<std::size_t>(j)];
    EXPECT_NEAR(table.p(j, 0, 0), 1.0, 1e-13);
    EXPECT_NEAR(table.p(j, 0, 1), std::sqrt(3.0) * mu, 1e-13);
    EXPECT_NEAR(table.p(j, 1, 1), std::sqrt(1.5) * std::sqrt(1 - mu * mu),
                1e-13);
    EXPECT_NEAR(table.p(j, 0, 2), std::sqrt(5.0) * 0.5 * (3 * mu * mu - 1),
                1e-12);
  }
}

TEST_F(LegendreTableTest, OrthonormalUnderGaussianQuadrature) {
  // (1/2) sum_j w_j Pbar_n^m Pbar_n'^m = delta(n, n').
  for (int m : {0, 1, 5, 13}) {
    for (int n = m; n <= kT; ++n) {
      for (int n2 = m; n2 <= kT; ++n2) {
        double dot = 0;
        for (int j = 0; j < kLat; ++j) {
          dot += 0.5 * nodes.weight[static_cast<std::size_t>(j)] *
                 table.p(j, m, n) * table.p(j, m, n2);
        }
        EXPECT_NEAR(dot, n == n2 ? 1.0 : 0.0, 1e-11)
            << "m=" << m << " n=" << n << " n'=" << n2;
      }
    }
  }
}

TEST_F(LegendreTableTest, DerivativeMatchesFiniteDifference) {
  // dp stores (1-mu^2) dPbar/dmu; compare against a central difference of
  // evaluate_pbar.
  const TriangularIndex& idx = table.index();
  const double h = 1e-6;
  std::vector<double> lo, hi;
  for (int j : {3, 17, 28}) {
    const double mu = nodes.mu[static_cast<std::size_t>(j)];
    evaluate_pbar(kT, mu - h, idx, lo);
    evaluate_pbar(kT, mu + h, idx, hi);
    for (int m : {0, 2, 9}) {
      for (int n = m; n <= kT; ++n) {
        const double fd = (hi[static_cast<std::size_t>(idx.at(m, n))] -
                           lo[static_cast<std::size_t>(idx.at(m, n))]) /
                          (2 * h);
        const double want = (1 - mu * mu) * fd;
        EXPECT_NEAR(table.dp(j, m, n), want, 1e-5 * std::max(1.0, std::abs(want)))
            << "m=" << m << " n=" << n;
      }
    }
  }
}

TEST_F(LegendreTableTest, ColumnsAreContiguous) {
  // One m-column of a latitude block is [n - m][lane], for P and dP alike.
  constexpr int L = LegendreTable::kLanes;
  for (int b = 0; b < table.blocks(); ++b) {
    for (int m : {0, 7}) {
      const double* col = table.p_block(b, m);
      const double* dcol = table.dp_block(b, m);
      for (int n = m; n <= kT; ++n) {
        for (int l = 0; l < table.block_lanes(b); ++l) {
          EXPECT_EQ(col[(n - m) * L + l], table.p(b * L + l, m, n));
          EXPECT_EQ(dcol[(n - m) * L + l], table.dp(b * L + l, m, n));
        }
      }
    }
  }
}

TEST_F(LegendreTableTest, ParityAlternatesAcrossEquator) {
  // Pbar_n^m(-mu) = (-1)^(n-m) Pbar_n^m(mu); Gaussian nodes are symmetric.
  for (int m : {0, 1, 4}) {
    for (int n = m; n <= kT; ++n) {
      const double south = table.p(0, m, n);
      const double north = table.p(kLat - 1, m, n);
      const double sign = ((n - m) % 2 == 0) ? 1.0 : -1.0;
      EXPECT_NEAR(south, sign * north, 1e-11);
    }
  }
}

TEST(LegendreTable, TooFewLatitudesThrow) {
  const auto nodes = gauss_legendre(8);
  EXPECT_THROW(LegendreTable(10, nodes), ncar::precondition_error);
}

}  // namespace
