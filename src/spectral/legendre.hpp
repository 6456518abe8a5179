#pragma once
// Normalised associated Legendre functions and their derivatives, tabulated
// at the Gaussian latitudes for a triangular truncation T (the "T" of
// T42/T106/T170 in the paper's Table 4).
//
// Normalisation: (1/2) Integral_{-1}^{1} Pbar_n^m(mu)^2 dmu = 1 — the
// convention of spectral climate models, so analysis and synthesis are
// exact inverses under Gaussian quadrature with weights summing to 2.

#include <vector>

#include "simd/simd.hpp"
#include "spectral/gauss.hpp"

namespace ncar::spectral {

/// Index layout for triangular truncation: coefficients (m, n) with
/// 0 <= m <= T and m <= n <= T, stored m-major.
class TriangularIndex {
public:
  explicit TriangularIndex(int truncation);

  int truncation() const { return t_; }
  /// Total coefficient count: (T+1)(T+2)/2.
  int size() const { return static_cast<int>(offsets_.back()); }
  /// Flat index of coefficient (m, n).
  int at(int m, int n) const;
  /// First flat index of the m-column; column length is T - m + 1.
  int column_start(int m) const;
  int column_length(int m) const { return t_ - m + 1; }

private:
  int t_;
  std::vector<int> offsets_;
};

/// Table of Pbar_n^m(mu_j) and (1 - mu^2) dPbar/dmu at each latitude, in
/// the blocked layout the spectral transform reads: latitudes are grouped
/// into blocks of kLanes, and within a block coefficient k of latitude
/// b*kLanes + l sits at [k][l], so one m-column of a block is a contiguous
/// run of column_length(m) * kLanes doubles that a lane kernel reads as
/// kLanes latitudes at once (DESIGN.md section 12.6). A ragged last block
/// (nlat % kLanes != 0) pads its missing lanes with zeros.
class LegendreTable {
public:
  static constexpr int kLanes = static_cast<int>(simd::kLaneBlock);

  LegendreTable(int truncation, const GaussNodes& nodes);

  int truncation() const { return index_.truncation(); }
  int nlat() const { return nlat_; }
  const TriangularIndex& index() const { return index_; }

  /// Number of latitude blocks, ceil(nlat / kLanes).
  int blocks() const { return blocks_; }
  /// Latitudes in block b: kLanes, or fewer in a ragged last block.
  int block_lanes(int b) const;

  /// Pbar_n^m at latitude j (flat coefficient indexing).
  double p(int j, int m, int n) const;
  /// (1 - mu^2) dPbar_n^m/dmu at latitude j.
  double dp(int j, int m, int n) const;

  /// The m-column of block b: entry (n - m) * kLanes + l is the value at
  /// latitude b * kLanes + l.
  const double* p_block(int b, int m) const;
  const double* dp_block(int b, int m) const;

private:
  std::size_t at(int j, int m, int n) const;

  TriangularIndex index_;
  int nlat_;
  int blocks_;
  std::vector<double> p_;   // [lat block][coeff][lane]
  std::vector<double> dp_;  // [lat block][coeff][lane]
};

/// Compute the full vector of Pbar_n^m(mu) for one mu (testing hook and
/// table builder backend).
void evaluate_pbar(int truncation, double mu, const TriangularIndex& idx,
                   std::vector<double>& out);

}  // namespace ncar::spectral
