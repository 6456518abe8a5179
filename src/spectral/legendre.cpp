#include "spectral/legendre.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ncar::spectral {

TriangularIndex::TriangularIndex(int truncation) : t_(truncation) {
  NCAR_REQUIRE(truncation >= 1, "truncation must be at least 1");
  offsets_.resize(static_cast<std::size_t>(t_) + 2);
  int off = 0;
  for (int m = 0; m <= t_; ++m) {
    offsets_[static_cast<std::size_t>(m)] = off;
    off += t_ - m + 1;
  }
  offsets_[static_cast<std::size_t>(t_) + 1] = off;
}

int TriangularIndex::at(int m, int n) const {
  NCAR_REQUIRE(m >= 0 && m <= t_ && n >= m && n <= t_, "coefficient (m,n)");
  return offsets_[static_cast<std::size_t>(m)] + (n - m);
}

int TriangularIndex::column_start(int m) const {
  NCAR_REQUIRE(m >= 0 && m <= t_, "column m");
  return offsets_[static_cast<std::size_t>(m)];
}

namespace {

/// eps(n, m) = sqrt((n^2 - m^2) / (4 n^2 - 1)) for 0 <= m <= t and
/// m <= n <= t + 1, tabulated once so the recurrences below read the same
/// doubles they would compute.
class EpsTable {
public:
  explicit EpsTable(int t) : t_(t), start_(static_cast<std::size_t>(t) + 1) {
    std::size_t off = 0;
    for (int m = 0; m <= t; ++m) {
      start_[static_cast<std::size_t>(m)] = off;
      off += static_cast<std::size_t>(t + 2 - m);
    }
    v_.resize(off);
    for (int m = 0; m <= t; ++m) {
      for (int n = m; n <= t + 1; ++n) {
        const double nn = static_cast<double>(n), mm = static_cast<double>(m);
        v_[start_[static_cast<std::size_t>(m)] +
           static_cast<std::size_t>(n - m)] =
            std::sqrt((nn * nn - mm * mm) / (4.0 * nn * nn - 1.0));
      }
    }
  }
  int truncation() const { return t_; }
  double operator()(int n, int m) const {
    return v_[start_[static_cast<std::size_t>(m)] +
              static_cast<std::size_t>(n - m)];
  }

private:
  int t_;
  std::vector<std::size_t> start_;
  std::vector<double> v_;
};

/// Pbar_n^m and (1 - mu^2) dPbar_n^m/dmu, 0 <= m <= n <= T, at L latitudes
/// at once, written [coeff][lane] (p[k * L + l]); dp may be null. Each lane
/// runs the scalar recurrences in their scalar order, so it has the bits of
/// a one-latitude evaluation; the lanes only give the compiler independent
/// chains to vectorise.
template <int L>
void evaluate_lanes(const EpsTable& eps, const double* mu, double* p,
                    double* dp) {
  const int t = eps.truncation();
  double s[L], diag[L], pm1[L], pm2[L];
  for (int l = 0; l < L; ++l) {
    s[l] = std::sqrt(1.0 - mu[l] * mu[l]);
    diag[l] = 1.0;  // Pbar_0^0
  }
  std::size_t k = 0;  // flat coefficient index of (m, n)
  for (int m = 0; m <= t; ++m) {
    if (m > 0) {
      const double c = std::sqrt((2.0 * m + 1.0) / (2.0 * m));
      for (int l = 0; l < L; ++l) diag[l] = c * s[l] * diag[l];
    }
    for (int l = 0; l < L; ++l) {
      pm2[l] = 0.0;      // Pbar_{m-1}^m ( = 0 )
      pm1[l] = diag[l];  // Pbar_m^m
    }
    // Step n computes Pbar_{n+1}^m (degree T+1 feeds the derivative at T).
    for (int n = m; n <= t; ++n, ++k) {
      const double e0 = eps(n, m), e1 = eps(n + 1, m);
      // (1 - mu^2) dPbar_n^m/dmu = -n eps(n+1,m) Pbar_{n+1}^m
      //                            + (n+1) eps(n,m) Pbar_{n-1}^m
      const double cp = -static_cast<double>(n) * e1;
      const double cm = static_cast<double>(n + 1) * e0;
      for (int l = 0; l < L; ++l) {
        const double pnp1 = (mu[l] * pm1[l] - e0 * pm2[l]) / e1;
        p[k * L + static_cast<std::size_t>(l)] = pm1[l];
        if (dp != nullptr) {
          dp[k * L + static_cast<std::size_t>(l)] = cp * pnp1 + cm * pm2[l];
        }
        pm2[l] = pm1[l];
        pm1[l] = pnp1;
      }
    }
  }
}

}  // namespace

void evaluate_pbar(int truncation, double mu, const TriangularIndex& idx,
                   std::vector<double>& out) {
  NCAR_REQUIRE(idx.truncation() == truncation, "index mismatch");
  out.resize(static_cast<std::size_t>(idx.size()));
  evaluate_lanes<1>(EpsTable(truncation), &mu, out.data(), nullptr);
}

LegendreTable::LegendreTable(int truncation, const GaussNodes& nodes)
    : index_(truncation),
      nlat_(static_cast<int>(nodes.mu.size())),
      blocks_((nlat_ + kLanes - 1) / kLanes) {
  NCAR_REQUIRE(nlat_ >= truncation + 1,
               "need at least T+1 Gaussian latitudes for exact quadrature");
  const std::size_t block = static_cast<std::size_t>(index_.size()) *
                            static_cast<std::size_t>(kLanes);
  p_.resize(static_cast<std::size_t>(blocks_) * block);
  dp_.resize(p_.size());
  const EpsTable eps(truncation);
  for (int b = 0; b < blocks_; ++b) {
    double* pb = p_.data() + static_cast<std::size_t>(b) * block;
    double* dpb = dp_.data() + static_cast<std::size_t>(b) * block;
    double mu[kLanes] = {};
    const int lanes = block_lanes(b);
    for (int l = 0; l < lanes; ++l) {
      mu[l] = nodes.mu[static_cast<std::size_t>(b * kLanes + l)];
    }
    evaluate_lanes<kLanes>(eps, mu, pb, dpb);
    // Padded lanes of a ragged last block hold zeros.
    for (std::size_t k = 0; k < block; k += kLanes) {
      for (int l = lanes; l < kLanes; ++l) {
        pb[k + static_cast<std::size_t>(l)] = 0.0;
        dpb[k + static_cast<std::size_t>(l)] = 0.0;
      }
    }
  }
}

int LegendreTable::block_lanes(int b) const {
  NCAR_REQUIRE(b >= 0 && b < blocks_, "latitude block");
  return std::min(kLanes, nlat_ - b * kLanes);
}

std::size_t LegendreTable::at(int j, int m, int n) const {
  NCAR_REQUIRE(j >= 0 && j < nlat_, "latitude index");
  const std::size_t lanes = static_cast<std::size_t>(kLanes);
  return (static_cast<std::size_t>(j / kLanes) *
              static_cast<std::size_t>(index_.size()) +
          static_cast<std::size_t>(index_.at(m, n))) *
             lanes +
         static_cast<std::size_t>(j % kLanes);
}

double LegendreTable::p(int j, int m, int n) const { return p_[at(j, m, n)]; }

double LegendreTable::dp(int j, int m, int n) const { return dp_[at(j, m, n)]; }

const double* LegendreTable::p_block(int b, int m) const {
  return p_.data() + at(b * kLanes, m, m);
}

const double* LegendreTable::dp_block(int b, int m) const {
  return dp_.data() + at(b * kLanes, m, m);
}

}  // namespace ncar::spectral
