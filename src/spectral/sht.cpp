#include "spectral/sht.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "fft/real_fft.hpp"
#include "simd/simd.hpp"

namespace ncar::spectral {

namespace {

constexpr long kLanes = simd::kLaneBlock;
constexpr long kPoint = fft::Plan::kLanePoint;

}  // namespace

ShTransform::ShTransform(int truncation, int nlat, int nlon)
    : nodes_(gauss_legendre(nlat)),
      table_(truncation, nodes_),
      nlat_(nlat),
      nlon_(nlon),
      plan_(nlon) {
  NCAR_REQUIRE(nlon >= 2 * (truncation + 1),
               "longitude count cannot represent the truncation");
  NCAR_REQUIRE(fft::Plan::supported(nlon), "nlon must factor into 2,3,5");
  // Worst-case transform workspace (synthesis_gradients): two block
  // spectra per field and one FFT output, nlon lane points each.
  arena_.reserve((2 * kMaxGradientFields + 1) *
                 static_cast<std::size_t>(nlon) *
                 static_cast<std::size_t>(kPoint));
}

void ShTransform::block_synthesis(int b, std::span<double> spec,
                                  std::span<double> work,
                                  Array2D<double>& grid) const {
  // spec holds lane points m <= T, already scaled by nlon. Zero the rest of
  // the half spectrum, mirror it into the full Hermitian spectrum (as
  // fft::real_inverse does per row), inverse-transform and normalise.
  const long n = nlon_;
  const long half = fft::spectrum_size(n);
  std::fill(spec.begin() + (truncation() + 1) * kPoint,
            spec.begin() + half * kPoint, 0.0);
  for (long k = half; k < n; ++k) {
    const double* src = spec.data() + (n - k) * kPoint;
    double* dst = spec.data() + k * kPoint;
    for (long l = 0; l < kLanes; ++l) {
      dst[l] = src[l];
      dst[kLanes + l] = -src[kLanes + l];
    }
  }
  plan_.inverse_lanes(spec, work);
  const double scale = 1.0 / static_cast<double>(n);
  const long j0 = static_cast<long>(b) * kLanes;
  const long lanes = table_.block_lanes(b);
  for (long l = 0; l < lanes; ++l) {
    double* row = grid.column(static_cast<std::size_t>(j0 + l)).data();
    for (long i = 0; i < n; ++i) row[i] = work.data()[i * kPoint + l] * scale;
  }
}

void ShTransform::analysis(const Array2D<double>& grid,
                           std::span<cd> spec) const {
  NCAR_REQUIRE(grid.ni() == static_cast<std::size_t>(nlon_) &&
                   grid.nj() == static_cast<std::size_t>(nlat_),
               "grid shape");
  NCAR_REQUIRE(static_cast<int>(spec.size()) == spec_size(), "spec size");
  const int t = truncation();
  const long n = nlon_;
  ArenaScope frame(arena_);
  auto rows = arena_.take<double>(static_cast<std::size_t>(n * kPoint));
  auto four = arena_.take<double>(static_cast<std::size_t>(n * kPoint));
  const simd::KernelTable& kt = simd::table();
  for (auto& s : spec) s = cd(0, 0);
  // Latitude blocks in ascending order, and lanes in ascending order within
  // a block (lane_axpy_cd_r), so every coefficient still sums its latitudes
  // j = 0, 1, ..., nlat-1 in turn. Padded lanes never enter the sum.
  for (int b = 0; b < table_.blocks(); ++b) {
    const long j0 = static_cast<long>(b) * kLanes;
    const long lanes = table_.block_lanes(b);
    // Real rows as complex lane sequences with zero imaginary parts, as
    // fft::real_forward does per row; padded lanes transform zeros.
    std::fill(rows.begin(), rows.end(), 0.0);
    for (long l = 0; l < lanes; ++l) {
      const double* row = grid.column(static_cast<std::size_t>(j0 + l)).data();
      for (long i = 0; i < n; ++i) rows.data()[i * kPoint + l] = row[i];
    }
    plan_.forward_lanes(rows, four);
    cd g[kLanes];
    for (int m = 0; m <= t; ++m) {
      const double* pt = four.data() + m * kPoint;
      for (long l = 0; l < lanes; ++l) {
        // F[m] = nlon * G_m; weight G_m.
        const cd fm = cd(pt[l], pt[kLanes + l]) / static_cast<double>(n);
        const double w =
            0.5 * nodes_.weight[static_cast<std::size_t>(j0 + l)];
        g[l] = w * fm;
      }
      kt.lane_axpy_cd_r(spec.data() + index().column_start(m), g,
                        table_.p_block(b, m), index().column_length(m), lanes);
    }
  }
  // The m = 0 column of a real field is real; clamp rounding residue.
  {
    cd* scol = spec.data() + index().column_start(0);
    for (int k = 0; k < index().column_length(0); ++k) {
      scol[k] = cd(scol[k].real(), 0.0);
    }
  }
}

void ShTransform::synthesis(std::span<const cd> spec,
                            Array2D<double>& grid) const {
  NCAR_REQUIRE(grid.ni() == static_cast<std::size_t>(nlon_) &&
                   grid.nj() == static_cast<std::size_t>(nlat_),
               "grid shape");
  NCAR_REQUIRE(static_cast<int>(spec.size()) == spec_size(), "spec size");
  const int t = truncation();
  const double scale = static_cast<double>(nlon_);
  ArenaScope frame(arena_);
  auto four = arena_.take<double>(static_cast<std::size_t>(nlon_ * kPoint));
  auto work = arena_.take<double>(static_cast<std::size_t>(nlon_ * kPoint));
  const simd::KernelTable& kt = simd::table();
  for (int b = 0; b < table_.blocks(); ++b) {
    for (int m = 0; m <= t; ++m) {
      double* pt = four.data() + m * kPoint;
      kt.lane_dot_cd_r(spec.data() + index().column_start(m),
                       table_.p_block(b, m), index().column_length(m), pt);
      for (long l = 0; l < kLanes; ++l) {
        const cd f = cd(pt[l], pt[kLanes + l]) * scale;
        pt[l] = f.real();
        pt[kLanes + l] = f.imag();
      }
    }
    block_synthesis(b, four, work, grid);
  }
}

void ShTransform::synthesis_gradient(std::span<const cd> spec,
                                     Array2D<double>& dlam,
                                     Array2D<double>& dmu) const {
  const GradientField field{spec, &dlam, &dmu};
  synthesis_gradients({&field, 1});
}

void ShTransform::synthesis_gradients(
    std::span<const GradientField> fields) const {
  NCAR_REQUIRE(fields.size() <= kMaxGradientFields, "too many fields");
  const auto grid_ok = [&](const Array2D<double>* g) {
    return g->ni() == static_cast<std::size_t>(nlon_) &&
           g->nj() == static_cast<std::size_t>(nlat_);
  };
  for (const GradientField& f : fields) {
    NCAR_REQUIRE(static_cast<int>(f.spec.size()) == spec_size(), "spec size");
    NCAR_REQUIRE(grid_ok(f.dlam) && grid_ok(f.dmu), "grid shape");
  }
  const int t = truncation();
  const double scale = static_cast<double>(nlon_);
  const auto points = static_cast<std::size_t>(nlon_ * kPoint);
  ArenaScope frame(arena_);
  auto work = arena_.take<double>(points);
  // Per field: the d/dlambda and d/dmu spectra of one block.
  std::array<std::span<double>, 2 * kMaxGradientFields> four;
  for (std::size_t i = 0; i < 2 * fields.size(); ++i) {
    four[i] = arena_.take<double>(points);
  }
  const simd::KernelTable& kt = simd::table();
  for (int b = 0; b < table_.blocks(); ++b) {
    for (int m = 0; m <= t; ++m) {
      for (std::size_t i = 0; i < fields.size(); ++i) {
        double* lam = four[2 * i].data() + m * kPoint;
        double* mu = four[2 * i + 1].data() + m * kPoint;
        kt.lane_dot2_cd_r(fields[i].spec.data() + index().column_start(m),
                          table_.p_block(b, m), table_.dp_block(b, m),
                          index().column_length(m), lam, mu);
        for (long l = 0; l < kLanes; ++l) {
          const cd acc_p(lam[l], lam[kLanes + l]);
          const cd acc_d(mu[l], mu[kLanes + l]);
          const cd fl = cd(0, 1) * static_cast<double>(m) * acc_p * scale;
          const cd fmu = acc_d * scale;
          lam[l] = fl.real();
          lam[kLanes + l] = fl.imag();
          mu[l] = fmu.real();
          mu[kLanes + l] = fmu.imag();
        }
      }
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
      block_synthesis(b, four[2 * i], work, *fields[i].dlam);
      block_synthesis(b, four[2 * i + 1], work, *fields[i].dmu);
    }
  }
}

void ShTransform::laplacian(std::span<cd> spec, double radius) const {
  NCAR_REQUIRE(radius > 0, "radius");
  NCAR_REQUIRE(static_cast<int>(spec.size()) == spec_size(), "spec size");
  const int t = truncation();
  const double a2 = radius * radius;
  for (int m = 0; m <= t; ++m) {
    cd* scol = spec.data() + index().column_start(m);
    for (int n = m; n <= t; ++n) {
      scol[n - m] *= -static_cast<double>(n) * (n + 1.0) / a2;
    }
  }
}

void ShTransform::inverse_laplacian(std::span<cd> spec, double radius) const {
  NCAR_REQUIRE(radius > 0, "radius");
  NCAR_REQUIRE(static_cast<int>(spec.size()) == spec_size(), "spec size");
  const int t = truncation();
  const double a2 = radius * radius;
  for (int m = 0; m <= t; ++m) {
    cd* scol = spec.data() + index().column_start(m);
    for (int n = m; n <= t; ++n) {
      if (n == 0) {
        scol[n - m] = cd(0, 0);
      } else {
        scol[n - m] *= -a2 / (static_cast<double>(n) * (n + 1.0));
      }
    }
  }
}

double ShTransform::transform_flops() const {
  // Legendre part: nlat latitudes x (T+1)(T+2)/2 coefficients x one complex
  // axpy (4 real flops), plus the longitude FFTs.
  const double legendre =
      static_cast<double>(nlat_) * static_cast<double>(spec_size()) * 4.0;
  const double fft_part = static_cast<double>(nlat_) *
                          2.5 * static_cast<double>(nlon_) *
                          std::log2(static_cast<double>(nlon_));
  return legendre + fft_part;
}

}  // namespace ncar::spectral
