#pragma once
// Spherical harmonic transform on the Gaussian grid (the spectral transform
// method of CCM2, paper section 4.7.1): FFT in longitude, Gauss–Legendre
// quadrature in latitude, triangular truncation.
//
// Conventions: a real grid field f(lambda_i, mu_j) on nlon equally spaced
// longitudes and nlat Gaussian latitudes is represented by complex
// coefficients S(m, n), 0 <= m <= n <= T, with the m < 0 half implied by
// conjugate symmetry. Analysis followed by synthesis is the identity for
// fields band-limited to the truncation (tested).
//
// Every stage runs LegendreTable::kLanes latitudes at once, one per SIMD
// lane (DESIGN.md section 12.6): the Legendre sums read the table's blocked
// layout through the lane kernels, and the longitude FFTs are fft::Plan's
// multi-instance transforms. Each lane does exactly the arithmetic of a
// one-latitude transform, so the results are those of one, bit for bit.

#include <complex>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "common/array.hpp"
#include "fft/complex_fft.hpp"
#include "spectral/legendre.hpp"

namespace ncar::spectral {

using cd = std::complex<double>;

class ShTransform {
public:
  /// A standard quadratic-ish grid: nlon >= 3T+1 avoids aliasing of
  /// quadratic products; nlat = nlon/2. The paper's resolutions (Table 4)
  /// all satisfy this (e.g. T42: 128 x 64).
  ShTransform(int truncation, int nlat, int nlon);

  int truncation() const { return table_.truncation(); }
  int nlat() const { return nlat_; }
  int nlon() const { return nlon_; }
  const TriangularIndex& index() const { return table_.index(); }
  const GaussNodes& nodes() const { return nodes_; }
  const LegendreTable& table() const { return table_; }

  /// Number of complex spectral coefficients.
  int spec_size() const { return index().size(); }

  /// Grid -> spectral. `grid` is (nlon, nlat) with longitude contiguous.
  void analysis(const Array2D<double>& grid, std::span<cd> spec) const;

  /// Spectral -> grid.
  void synthesis(std::span<const cd> spec, Array2D<double>& grid) const;

  /// Spectral -> (d/dlambda, (1-mu^2) d/dmu) grid fields.
  void synthesis_gradient(std::span<const cd> spec, Array2D<double>& dlam,
                          Array2D<double>& dmu) const;

  /// One field of synthesis_gradients(): its spectrum and the grids that
  /// take d/dlambda and (1-mu^2) d/dmu.
  struct GradientField {
    std::span<const cd> spec;
    Array2D<double>* dlam;
    Array2D<double>* dmu;
  };
  static constexpr std::size_t kMaxGradientFields = 2;

  /// synthesis_gradient() of up to kMaxGradientFields fields in one pass
  /// over the Legendre table: each m-column of a latitude block comes from
  /// memory once and from cache for the other fields. Every output has the
  /// bits of the one-field calls.
  void synthesis_gradients(std::span<const GradientField> fields) const;

  /// In-place spectral Laplacian: S(m,n) *= -n(n+1)/radius^2.
  void laplacian(std::span<cd> spec, double radius) const;

  /// In-place inverse Laplacian (the (0,0) mode is annihilated).
  void inverse_laplacian(std::span<cd> spec, double radius) const;

  /// Approximate flop count of one analysis or synthesis (used by callers
  /// to charge the machine model consistently).
  double transform_flops() const;

private:
  /// Longitude synthesis of latitude block b: `spec` holds nlon lane points
  /// whose first T+1 are the block's Fourier coefficients times nlon (the
  /// rest is overwritten); `work` is nlon lane points of scratch. Writes the
  /// block's latitudes of `grid`.
  void block_synthesis(int b, std::span<double> spec, std::span<double> work,
                       Array2D<double>& grid) const;

  GaussNodes nodes_;
  LegendreTable table_;
  int nlat_;
  int nlon_;
  fft::Plan plan_;
  // Workspace pool sized at construction so the transforms never allocate
  // (mutable: taking scratch from the pool does not change observable
  // state — every frame is released before the method returns).
  mutable Arena arena_;
};

}  // namespace ncar::spectral
