#include "spectral/sht.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/real_fft.hpp"
#include "simd/simd.hpp"

namespace {

using namespace ncar;
using spectral::cd;
using spectral::ShTransform;

/// Random band-limited spectral state (m=0 column real, others complex).
std::vector<cd> random_spec(const ShTransform& sht, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cd> s(static_cast<std::size_t>(sht.spec_size()));
  const auto& idx = sht.index();
  for (int m = 0; m <= sht.truncation(); ++m) {
    for (int n = m; n <= sht.truncation(); ++n) {
      const double re = rng.uniform(-1, 1);
      const double im = (m == 0) ? 0.0 : rng.uniform(-1, 1);
      s[static_cast<std::size_t>(idx.at(m, n))] = cd(re, im);
    }
  }
  return s;
}

class ShtTest : public ::testing::Test {
protected:
  ShTransform sht{21, 32, 64};  // T21 on a 64 x 32 grid
};

TEST_F(ShtTest, RoundTripSpectralIdentity) {
  const auto s = random_spec(sht, 1);
  Array2D<double> grid(64, 32);
  std::vector<cd> back(s.size());
  sht.synthesis(s, grid);
  sht.analysis(grid, back);
  for (std::size_t k = 0; k < s.size(); ++k) {
    EXPECT_NEAR(std::abs(back[k] - s[k]), 0.0, 1e-11) << "k=" << k;
  }
}

TEST_F(ShtTest, RoundTripGridIdentityForBandLimitedField) {
  // Synthesised fields are band-limited by construction; a second
  // synthesis-analysis round trip must reproduce the grid exactly.
  const auto s = random_spec(sht, 2);
  Array2D<double> g1(64, 32), g2(64, 32);
  std::vector<cd> spec(s.size());
  sht.synthesis(s, g1);
  sht.analysis(g1, spec);
  sht.synthesis(spec, g2);
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g1.flat()[i], g2.flat()[i], 1e-11);
  }
}

TEST_F(ShtTest, ConstantFieldIsPureY00) {
  Array2D<double> grid(64, 32);
  grid.fill(3.25);
  std::vector<cd> spec(static_cast<std::size_t>(sht.spec_size()));
  sht.analysis(grid, spec);
  EXPECT_NEAR(spec[static_cast<std::size_t>(sht.index().at(0, 0))].real(),
              3.25, 1e-12);
  for (int m = 0; m <= 21; ++m) {
    for (int n = m; n <= 21; ++n) {
      if (m == 0 && n == 0) continue;
      EXPECT_NEAR(
          std::abs(spec[static_cast<std::size_t>(sht.index().at(m, n))]), 0.0,
          1e-11);
    }
  }
}

TEST_F(ShtTest, ZonalWavenumberLandsInItsColumn) {
  // cos(3 lambda) projects only onto m = 3.
  Array2D<double> grid(64, 32);
  for (std::size_t j = 0; j < 32; ++j) {
    for (std::size_t i = 0; i < 64; ++i) {
      grid(i, j) = std::cos(3.0 * 2.0 * M_PI * static_cast<double>(i) / 64.0);
    }
  }
  std::vector<cd> spec(static_cast<std::size_t>(sht.spec_size()));
  sht.analysis(grid, spec);
  double in_col = 0, out_col = 0;
  for (int m = 0; m <= 21; ++m) {
    for (int n = m; n <= 21; ++n) {
      const double a =
          std::abs(spec[static_cast<std::size_t>(sht.index().at(m, n))]);
      (m == 3 ? in_col : out_col) += a;
    }
  }
  EXPECT_GT(in_col, 0.4);
  EXPECT_NEAR(out_col, 0.0, 1e-10);
}

TEST_F(ShtTest, LaplacianEigenvalue) {
  // Y_n^m is an eigenfunction: lap(Y) = -n(n+1)/a^2 Y. Check via grid.
  const double a = 6.371e6;
  auto s = random_spec(sht, 3);
  auto lap = s;
  sht.laplacian(lap, a);
  const auto& idx = sht.index();
  for (int m = 0; m <= 21; ++m) {
    for (int n = m; n <= 21; ++n) {
      const cd want = s[static_cast<std::size_t>(idx.at(m, n))] *
                      (-static_cast<double>(n) * (n + 1.0) / (a * a));
      EXPECT_NEAR(std::abs(lap[static_cast<std::size_t>(idx.at(m, n))] - want),
                  0.0, 1e-18);
    }
  }
}

TEST_F(ShtTest, InverseLaplacianInvertsAwayFromN0) {
  const double a = 6.371e6;
  auto s = random_spec(sht, 4);
  s[static_cast<std::size_t>(sht.index().at(0, 0))] = cd(0, 0);
  auto t = s;
  sht.laplacian(t, a);
  sht.inverse_laplacian(t, a);
  for (std::size_t k = 0; k < s.size(); ++k) {
    EXPECT_NEAR(std::abs(t[k] - s[k]), 0.0, 1e-12);
  }
}

TEST_F(ShtTest, GradientOfZonalFieldIsMeridionalOnly) {
  // A zonal (m=0) field has zero lambda-derivative.
  auto s = random_spec(sht, 5);
  const auto& idx = sht.index();
  for (int m = 1; m <= 21; ++m) {
    for (int n = m; n <= 21; ++n) {
      s[static_cast<std::size_t>(idx.at(m, n))] = cd(0, 0);
    }
  }
  Array2D<double> dlam(64, 32), dmu(64, 32);
  sht.synthesis_gradient(s, dlam, dmu);
  for (double v : dlam.flat()) EXPECT_NEAR(v, 0.0, 1e-11);
}

TEST_F(ShtTest, LambdaGradientMatchesFiniteDifference) {
  // Central differences are only accurate well below the Nyquist
  // wavenumber, so restrict the state to m <= 4, n <= 6.
  auto s = random_spec(sht, 6);
  for (int m = 0; m <= 21; ++m) {
    for (int n = m; n <= 21; ++n) {
      if (m > 2 || n > 4) {
        s[static_cast<std::size_t>(sht.index().at(m, n))] = cd(0, 0);
      }
    }
  }
  Array2D<double> grid(64, 32), dlam(64, 32), dmu(64, 32);
  sht.synthesis(s, grid);
  sht.synthesis_gradient(s, dlam, dmu);
  const double dl = 2.0 * M_PI / 64.0;
  for (std::size_t j = 0; j < 32; ++j) {
    for (std::size_t i = 0; i < 64; ++i) {
      const std::size_t ip = (i + 1) % 64, im = (i + 63) % 64;
      const double fd4 = (grid(ip, j) - grid(im, j)) / (2 * dl);
      // Central FD attenuates mode m by sin(m dl)/(m dl); with m <= 2 the
      // worst-case attenuation is ~0.64%, so a 3% + offset band is safe.
      EXPECT_NEAR(dlam(i, j), fd4, 0.03 * std::max(1.0, std::abs(fd4)) + 0.02);
    }
  }
}

TEST_F(ShtTest, MuGradientMatchesLegendreDifference) {
  // Spot-check (1-mu^2) d/dmu via high-resolution synthesis at shifted
  // latitudes is costly; instead verify against the analytic derivative of
  // a single (m, n) = (0, 2) mode: field = sqrt(5)/2 (3 mu^2 - 1),
  // (1-mu^2) d/dmu = sqrt(5) * 3 mu (1 - mu^2).
  std::vector<cd> s(static_cast<std::size_t>(sht.spec_size()), cd(0, 0));
  s[static_cast<std::size_t>(sht.index().at(0, 2))] = cd(1, 0);
  Array2D<double> dlam(64, 32), dmu(64, 32);
  sht.synthesis_gradient(s, dlam, dmu);
  for (std::size_t j = 0; j < 32; ++j) {
    const double mu = sht.nodes().mu[j];
    const double want = std::sqrt(5.0) * 3.0 * mu * (1.0 - mu * mu);
    EXPECT_NEAR(dmu(0, j), want, 1e-10);
  }
}

// The transforms as they were written one latitude at a time: std::complex
// Legendre sums over table.p/dp in k order, one real FFT per row, and the
// analysis summing latitudes j = 0, 1, ... in turn. The lane transforms
// must reproduce every bit of it.
struct PerLatitudeReference {
  const ShTransform& sht;

  cd dot(std::span<const cd> s, int j, int m, bool derivative) const {
    const auto& table = sht.table();
    cd acc(0, 0);
    for (int n = m; n <= sht.truncation(); ++n) {
      const double p = derivative ? table.dp(j, m, n) : table.p(j, m, n);
      acc += s[static_cast<std::size_t>(sht.index().at(m, n))] * p;
    }
    return acc;
  }

  // fm(m) -> one grid row, through fft::real_inverse.
  void row(const std::vector<cd>& fm, Array2D<double>& grid, int j) const {
    const fft::Plan plan(sht.nlon());
    std::vector<cd> spec(
        static_cast<std::size_t>(fft::spectrum_size(sht.nlon())), cd(0, 0));
    for (int m = 0; m <= sht.truncation(); ++m) {
      spec[static_cast<std::size_t>(m)] =
          fm[static_cast<std::size_t>(m)] * static_cast<double>(sht.nlon());
    }
    fft::real_inverse(plan, spec, grid.column(static_cast<std::size_t>(j)));
  }

  void synthesis(std::span<const cd> s, Array2D<double>& grid) const {
    std::vector<cd> fm(static_cast<std::size_t>(sht.truncation() + 1));
    for (int j = 0; j < sht.nlat(); ++j) {
      for (int m = 0; m <= sht.truncation(); ++m) {
        fm[static_cast<std::size_t>(m)] = dot(s, j, m, false);
      }
      row(fm, grid, j);
    }
  }

  void synthesis_gradient(std::span<const cd> s, Array2D<double>& dlam,
                          Array2D<double>& dmu) const {
    std::vector<cd> fl(static_cast<std::size_t>(sht.truncation() + 1));
    std::vector<cd> fmu(fl);
    for (int j = 0; j < sht.nlat(); ++j) {
      for (int m = 0; m <= sht.truncation(); ++m) {
        fl[static_cast<std::size_t>(m)] =
            cd(0, 1) * static_cast<double>(m) * dot(s, j, m, false);
        fmu[static_cast<std::size_t>(m)] = dot(s, j, m, true);
      }
      row(fl, dlam, j);
      row(fmu, dmu, j);
    }
  }

  void analysis(const Array2D<double>& grid, std::vector<cd>& spec) const {
    const fft::Plan plan(sht.nlon());
    std::vector<cd> row(
        static_cast<std::size_t>(fft::spectrum_size(sht.nlon())));
    for (auto& z : spec) z = cd(0, 0);
    for (int j = 0; j < sht.nlat(); ++j) {
      fft::real_forward(plan, grid.column(static_cast<std::size_t>(j)), row);
      const double w = 0.5 * sht.nodes().weight[static_cast<std::size_t>(j)];
      for (int m = 0; m <= sht.truncation(); ++m) {
        const cd g = w * (row[static_cast<std::size_t>(m)] /
                          static_cast<double>(sht.nlon()));
        for (int n = m; n <= sht.truncation(); ++n) {
          spec[static_cast<std::size_t>(sht.index().at(m, n))] +=
              g * sht.table().p(j, m, n);
        }
      }
    }
    for (int n = 0; n <= sht.truncation(); ++n) {
      auto& z = spec[static_cast<std::size_t>(sht.index().at(0, n))];
      z = cd(z.real(), 0.0);
    }
  }
};

void expect_same_bits(std::span<const double> want,
                      std::span<const double> got, const char* what) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " at " << i << ": " << want[i] << " vs " << got[i];
  }
}

TEST_F(ShtTest, LaneTransformsMatchPerLatitudeReferenceAtRaggedNlat) {
  // nlat % 8 != 0 leaves a ragged last latitude block (5 lanes and 1 lane);
  // nlon = 24 and 20 bring in the radix-3 and radix-5 combines.
  struct Grid {
    int t, nlat, nlon;
  };
  const simd::Backend before = simd::active();
  for (const Grid g : {Grid{10, 13, 24}, Grid{7, 9, 20}}) {
    const ShTransform sht(g.t, g.nlat, g.nlon);
    const PerLatitudeReference ref{sht};
    Rng rng(99);
    std::vector<cd> s(static_cast<std::size_t>(sht.spec_size()));
    for (auto& z : s) z = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
    s[1] = cd(-0.0, 0.25);
    Array2D<double> field(static_cast<std::size_t>(g.nlon),
                          static_cast<std::size_t>(g.nlat));
    for (double& v : field.flat()) v = rng.uniform(-2, 2);
    field(3, 0) = -0.0;

    std::vector<cd> s2(s.size());
    for (auto& z : s2) z = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));

    Array2D<double> want(field.ni(), field.nj());
    Array2D<double> want2(want), got(want), got2(want);
    Array2D<double> got3(want), got4(want);
    std::vector<cd> want_spec(s.size()), got_spec(s.size());
    for (int b = 0; b < simd::kBackendCount; ++b) {
      const auto backend = static_cast<simd::Backend>(b);
      if (!simd::supported(backend)) continue;
      simd::set_backend(backend);
      SCOPED_TRACE(std::string(simd::to_string(backend)) + " T" +
                   std::to_string(g.t));
      ref.synthesis(s, want);
      sht.synthesis(s, got);
      expect_same_bits(want.flat(), got.flat(), "synthesis");
      ref.synthesis_gradient(s, want, want2);
      sht.synthesis_gradient(s, got, got2);
      expect_same_bits(want.flat(), got.flat(), "synthesis_gradient dlam");
      expect_same_bits(want2.flat(), got2.flat(), "synthesis_gradient dmu");
      // Two fields in one pass.
      got.fill(std::nan(""));
      got2.fill(std::nan(""));
      const ShTransform::GradientField fields[] = {{s2, &got3, &got4},
                                                   {s, &got, &got2}};
      sht.synthesis_gradients(fields);
      expect_same_bits(want.flat(), got.flat(), "synthesis_gradients dlam");
      expect_same_bits(want2.flat(), got2.flat(), "synthesis_gradients dmu");
      ref.synthesis_gradient(s2, want, want2);
      expect_same_bits(want.flat(), got3.flat(), "synthesis_gradients dlam 2");
      expect_same_bits(want2.flat(), got4.flat(), "synthesis_gradients dmu 2");
      ref.analysis(field, want_spec);
      sht.analysis(field, got_spec);
      const auto as_doubles = [](const std::vector<cd>& v) {
        return std::span<const double>(
            reinterpret_cast<const double*>(v.data()), 2 * v.size());
      };
      expect_same_bits(as_doubles(want_spec), as_doubles(got_spec), "analysis");
    }
  }
  simd::set_backend(before);
}

TEST(Sht, PaperResolutionsConstruct) {
  // Table 4 grids: T42 64x128, T63 96x192, T85 128x256 (lat x lon).
  ShTransform t42(42, 64, 128);
  EXPECT_EQ(t42.spec_size(), 43 * 44 / 2);
  ShTransform t63(63, 96, 192);
  EXPECT_EQ(t63.truncation(), 63);
}

TEST(Sht, RejectsGridTooCoarseForTruncation) {
  EXPECT_THROW(ShTransform(42, 64, 64), ncar::precondition_error);
}

TEST(Sht, TransformFlopsScaleWithResolution) {
  ShTransform t21(21, 32, 64), t42(42, 64, 128);
  EXPECT_GT(t42.transform_flops(), 6.0 * t21.transform_flops());
}

}  // namespace
