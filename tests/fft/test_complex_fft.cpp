#include "fft/complex_fft.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "simd/simd.hpp"

namespace {

using namespace ncar;
using fft::cd;
using fft::Plan;

std::vector<cd> random_signal(long n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cd> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return x;
}

TEST(Plan, SupportedLengths) {
  EXPECT_TRUE(Plan::supported(1));
  EXPECT_TRUE(Plan::supported(2));
  EXPECT_TRUE(Plan::supported(360));   // 2^3 * 3^2 * 5
  EXPECT_TRUE(Plan::supported(1280));  // 5 * 2^8
  EXPECT_FALSE(Plan::supported(7));
  EXPECT_FALSE(Plan::supported(14));
  EXPECT_FALSE(Plan::supported(0));
  EXPECT_FALSE(Plan::supported(-4));
}

TEST(Plan, FactorsMultiplyToLength) {
  for (long n : {2L, 12L, 60L, 360L, 1280L}) {
    Plan p(n);
    long prod = 1;
    for (int f : p.factors()) prod *= f;
    EXPECT_EQ(prod, n);
  }
}

TEST(Plan, UnsupportedLengthThrows) {
  EXPECT_THROW(Plan(7), ncar::precondition_error);
  EXPECT_THROW(Plan(22), ncar::precondition_error);
}

TEST(Plan, BufferSizeMismatchThrows) {
  Plan p(8);
  std::vector<cd> a(8), b(4);
  EXPECT_THROW(p.forward(a, b), ncar::precondition_error);
}

TEST(ComplexFft, DeltaTransformsToConstant) {
  Plan p(16);
  std::vector<cd> in(16, cd(0, 0)), out(16);
  in[0] = cd(1, 0);
  p.forward(in, out);
  for (const auto& v : out) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(ComplexFft, ConstantTransformsToDelta) {
  Plan p(12);
  std::vector<cd> in(12, cd(1, 0)), out(12);
  p.forward(in, out);
  EXPECT_NEAR(out[0].real(), 12.0, 1e-12);
  for (std::size_t k = 1; k < 12; ++k) {
    EXPECT_NEAR(std::abs(out[k]), 0.0, 1e-12);
  }
}

TEST(ComplexFft, SingleToneLandsInOneBin) {
  const long n = 40;
  Plan p(n);
  std::vector<cd> in(static_cast<std::size_t>(n)), out(static_cast<std::size_t>(n));
  const long bin = 7;
  for (long j = 0; j < n; ++j) {
    const double ang = 2.0 * M_PI * static_cast<double>(bin * j) / n;
    in[static_cast<std::size_t>(j)] = cd(std::cos(ang), std::sin(ang));
  }
  p.forward(in, out);
  EXPECT_NEAR(std::abs(out[bin]), static_cast<double>(n), 1e-10);
  for (long k = 0; k < n; ++k) {
    if (k != bin) EXPECT_NEAR(std::abs(out[static_cast<std::size_t>(k)]), 0.0, 1e-9);
  }
}

TEST(ComplexFft, LinearityHolds) {
  const long n = 30;
  Plan p(n);
  auto x = random_signal(n, 1), y = random_signal(n, 2);
  std::vector<cd> fx(30), fy(30), z(30), fz(30);
  p.forward(x, fx);
  p.forward(y, fy);
  const cd a(1.5, -0.5), b(-2.0, 0.25);
  for (long j = 0; j < n; ++j) {
    z[static_cast<std::size_t>(j)] = a * x[static_cast<std::size_t>(j)] +
                                     b * y[static_cast<std::size_t>(j)];
  }
  p.forward(z, fz);
  for (long k = 0; k < n; ++k) {
    const cd want = a * fx[static_cast<std::size_t>(k)] +
                    b * fy[static_cast<std::size_t>(k)];
    EXPECT_NEAR(std::abs(fz[static_cast<std::size_t>(k)] - want), 0.0, 1e-10);
  }
}

TEST(ComplexFft, ParsevalEnergyConserved) {
  const long n = 240;
  Plan p(n);
  auto x = random_signal(n, 3);
  std::vector<cd> fx(static_cast<std::size_t>(n));
  p.forward(x, fx);
  double et = 0, ef = 0;
  for (const auto& v : x) et += std::norm(v);
  for (const auto& v : fx) ef += std::norm(v);
  EXPECT_NEAR(ef, et * n, 1e-8 * et * n);
}

class FftLengthParam : public ::testing::TestWithParam<long> {};

TEST_P(FftLengthParam, MatchesNaiveDft) {
  const long n = GetParam();
  Plan p(n);
  auto x = random_signal(n, 1000 + static_cast<std::uint64_t>(n));
  std::vector<cd> fast(static_cast<std::size_t>(n)), ref(static_cast<std::size_t>(n));
  p.forward(x, fast);
  fft::naive_dft(x, ref, false);
  for (long k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(fast[static_cast<std::size_t>(k)] -
                         ref[static_cast<std::size_t>(k)]),
                0.0, 1e-9 * n)
        << "n=" << n << " k=" << k;
  }
}

TEST_P(FftLengthParam, InverseRecoversInputTimesN) {
  const long n = GetParam();
  Plan p(n);
  auto x = random_signal(n, 2000 + static_cast<std::uint64_t>(n));
  std::vector<cd> f(static_cast<std::size_t>(n)), back(static_cast<std::size_t>(n));
  p.forward(x, f);
  p.inverse(f, back);
  for (long j = 0; j < n; ++j) {
    const cd want = x[static_cast<std::size_t>(j)] * static_cast<double>(n);
    EXPECT_NEAR(std::abs(back[static_cast<std::size_t>(j)] - want), 0.0, 1e-9 * n);
  }
}

TEST_P(FftLengthParam, LaneTransformsMatchOneSequenceBits) {
  // The multi-instance transforms give every lane exactly the bits the
  // one-sequence transform gives it, under every backend.
  constexpr long L = simd::kLaneBlock;
  const long n = GetParam();
  Plan p(n);
  std::vector<std::vector<cd>> seqs;
  for (long l = 0; l < L; ++l) {
    seqs.push_back(
        random_signal(n, 3000 + static_cast<std::uint64_t>(n * L + l)));
  }
  seqs[1][0] = cd(-0.0, 0.0);  // a signed zero travels like any other value
  std::vector<double> in(static_cast<std::size_t>(n * Plan::kLanePoint));
  for (long k = 0; k < n; ++k) {
    for (long l = 0; l < L; ++l) {
      in[static_cast<std::size_t>(k * Plan::kLanePoint + l)] =
          seqs[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)].real();
      in[static_cast<std::size_t>(k * Plan::kLanePoint + L + l)] =
          seqs[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)].imag();
    }
  }
  const simd::Backend before = simd::active();
  for (int b = 0; b < simd::kBackendCount; ++b) {
    const auto backend = static_cast<simd::Backend>(b);
    if (!simd::supported(backend)) continue;
    simd::set_backend(backend);
    for (const bool inverse : {false, true}) {
      std::vector<double> out(in.size());
      if (inverse) {
        p.inverse_lanes(in, out);
      } else {
        p.forward_lanes(in, out);
      }
      for (long l = 0; l < L; ++l) {
        std::vector<cd> want(static_cast<std::size_t>(n));
        if (inverse) {
          p.inverse(seqs[static_cast<std::size_t>(l)], want);
        } else {
          p.forward(seqs[static_cast<std::size_t>(l)], want);
        }
        for (long k = 0; k < n; ++k) {
          const cd w = want[static_cast<std::size_t>(k)];
          const double* pt = out.data() + k * Plan::kLanePoint;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(w.real()),
                    std::bit_cast<std::uint64_t>(pt[l]))
              << simd::to_string(backend) << " n=" << n << " lane " << l
              << " k=" << k;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(w.imag()),
                    std::bit_cast<std::uint64_t>(pt[L + l]))
              << simd::to_string(backend) << " n=" << n << " lane " << l
              << " k=" << k;
        }
      }
    }
  }
  simd::set_backend(before);
  std::vector<double> small(in.size() - 1);
  EXPECT_THROW(p.forward_lanes(in, small), ncar::precondition_error);
}

INSTANTIATE_TEST_SUITE_P(MixedRadixLengths, FftLengthParam,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 10, 12, 15,
                                           16, 20, 30, 45, 64, 100, 120, 128,
                                           192, 256, 320, 375, 512, 768,
                                           1280));

}  // namespace
