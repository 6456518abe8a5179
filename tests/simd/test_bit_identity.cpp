// The determinism contract of the SIMD layer (DESIGN.md section 12): every
// backend is bit-identical to the scalar reference for every kernel, at
// every size — including the remainder tails that fall back to scalar code
// inside the vector kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "fft/complex_fft.hpp"
#include "machines/comparator.hpp"
#include "radabs/radabs.hpp"
#include "simd/simd.hpp"

namespace {

using ncar::Rng;
using ncar::simd::Backend;
using cd = ncar::simd::cd;
namespace simd = ncar::simd;

// Sizes chosen to hit the empty case, pure-tail cases below every lane
// width (2, 4, 8), exact multiples, and off-by-one remainders.
const long kSizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 101};

std::vector<double> random_vec(Rng& rng, long n, double lo = -1.0,
                               double hi = 1.0) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = lo + (hi - lo) * rng.next_double();
  return v;
}

std::vector<cd> random_cvec(Rng& rng, long n) {
  std::vector<cd> v(static_cast<std::size_t>(n));
  for (cd& z : v) {
    z = cd(2.0 * rng.next_double() - 1.0, 2.0 * rng.next_double() - 1.0);
  }
  return v;
}

template <typename T>
void expect_bits_equal(const std::vector<T>& a, const std::vector<T>& b,
                       Backend backend, long n, const char* kernel) {
  ASSERT_EQ(a.size(), b.size());
  // memcmp must not see an empty vector's null data().
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
      << kernel << " diverges from scalar on " << simd::to_string(backend)
      << " at n=" << n;
}

// Runs `check(scalar_table, backend_table, backend, n)` for every supported
// non-scalar backend and every probe size.
template <typename Check>
void for_each_backend_and_size(Check check) {
  const simd::KernelTable& ref = simd::scalar_table();
  for (int i = 1; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (!simd::supported(b)) continue;
    const simd::KernelTable& kt = simd::table_for(b);
    for (long n : kSizes) check(ref, kt, b, n);
  }
}

TEST(SimdBitIdentity, StreamingKernels) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(7);
    const auto src = random_vec(rng, n * 3 + 1, -10.0, 10.0);
    std::vector<long> idx(static_cast<std::size_t>(n));
    for (long& k : idx) {
      k = static_cast<long>(rng.next_double() * static_cast<double>(n * 3));
    }
    std::vector<double> a(static_cast<std::size_t>(n), 0.0);
    std::vector<double> c = a;
    ref.copy_d(src.data(), a.data(), n);
    kt.copy_d(src.data(), c.data(), n);
    expect_bits_equal(a, c, b, n, "copy_d");

    ref.gather_d(src.data(), idx.data(), a.data(), n);
    kt.gather_d(src.data(), idx.data(), c.data(), n);
    expect_bits_equal(a, c, b, n, "gather_d");

    ref.strided_copy_d(src.data(), 3, a.data(), n);
    kt.strided_copy_d(src.data(), 3, c.data(), n);
    expect_bits_equal(a, c, b, n, "strided_copy_d");
  });
}

TEST(SimdBitIdentity, ElementwiseKernels) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(11);
    const auto x = random_vec(rng, n, -5.0, 5.0);
    const auto base = random_vec(rng, n, -5.0, 5.0);
    std::vector<double> a = base;
    std::vector<double> c = base;
    ref.add_d(a.data(), x.data(), n);
    kt.add_d(c.data(), x.data(), n);
    expect_bits_equal(a, c, b, n, "add_d");

    ref.scale2_d(x.data(), 0.1, 7.3, a.data(), n);
    kt.scale2_d(x.data(), 0.1, 7.3, c.data(), n);
    expect_bits_equal(a, c, b, n, "scale2_d");
  });
}

// mom_row_d at every n from 0 to 101: n = 1 and 2 wrap a row onto itself,
// and every vector width sees each remainder. Mask values beyond 0/1 follow
// the bitwise `!= 0` select: NaN counts as ocean, -0.0 as land.
TEST(SimdBitIdentity, MomRowMatchesScalarIncludingNanMasks) {
  const simd::KernelTable& ref = simd::scalar_table();
  for (long n = 0; n <= 101; ++n) {
    Rng rng(13);
    // Rows j-1, j and j+1 of an n-wide field; the kernel sees row j.
    const auto f = random_vec(rng, 3 * n, -5.0, 5.0);
    auto mask = random_vec(rng, 3 * n, 0.0, 1.0);
    for (long i = 0; i < 3 * n; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      if (i % 3 == 0) mask[s] = 0.0;
      if (i % 5 == 0) mask[s] = -0.0;
      if (i % 7 == 0) mask[s] = std::numeric_limits<double>::quiet_NaN();
    }
    const auto u = random_vec(rng, n);
    const auto v = random_vec(rng, n);
    auto run = [&](const simd::KernelTable& kt) {
      std::vector<double> dst(static_cast<std::size_t>(n), 0.0);
      kt.mom_row_d(f.data() + n, mask.data() + n, u.data(), v.data(), 0.6,
                   0.2, 0.05, dst.data(), n);
      return dst;
    };
    const auto want = run(ref);

    // The scalar reference is the periodic five-point definition.
    const double* fr = f.data() + n;
    const double* mr = mask.data() + n;
    for (long i = 0; i < n; ++i) {
      const double fc = fr[i];
      auto nb = [&](long k) { return mr[k] != 0.0 ? fr[k] : fc; };
      const double aip = nb((i + 1) % n), aim = nb((i + n - 1) % n);
      const double ajp = nb(i + n), ajm = nb(i - n);
      const double uu = u[static_cast<std::size_t>(i)] * 0.6;
      const double vv = v[static_cast<std::size_t>(i)] * 0.6;
      const double s = fc - 0.2 * (uu * (aip - aim) + vv * (ajp - ajm)) * 0.5 +
                       0.05 * (aip + aim + ajp + ajm - 4.0 * fc);
      const double expect = mr[i] != 0.0 ? s : fc;
      const double got = want[static_cast<std::size_t>(i)];
      EXPECT_EQ(std::memcmp(&got, &expect, sizeof(double)), 0)
          << "scalar mom_row_d at n=" << n << " i=" << i;
    }

    for (int bi = 1; bi < simd::kBackendCount; ++bi) {
      const auto b = static_cast<Backend>(bi);
      if (!simd::supported(b)) continue;
      expect_bits_equal(want, run(simd::table_for(b)), b, n, "mom_row_d");
    }
  }
}

TEST(SimdBitIdentity, RadabsPairKernel) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(17);
    const auto w = random_vec(rng, n, 1e-4, 2.0);
    const auto t1 = random_vec(rng, n, 200.0, 310.0);
    const auto t2 = random_vec(rng, n, 200.0, 310.0);
    std::vector<double> a(static_cast<std::size_t>(n), 0.0);
    std::vector<double> c = a;
    std::vector<double> scratch(static_cast<std::size_t>(4 * n), 0.0);
    ref.radabs_pair_d(w.data(), t1.data(), t2.data(), 0.73, a.data(),
                      scratch.data(), n);
    kt.radabs_pair_d(w.data(), t1.data(), t2.data(), 0.73, c.data(),
                     scratch.data(), n);
    expect_bits_equal(a, c, b, n, "radabs_pair_d");
  });
}

TEST(SimdBitIdentity, OceanKernels) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(19);
    const auto f = random_vec(rng, n);
    const auto aip = random_vec(rng, n);
    const auto aim = random_vec(rng, n);
    const auto ajp = random_vec(rng, n);
    const auto uu = random_vec(rng, n);
    const auto vv = random_vec(rng, n);
    auto up_a = random_vec(rng, n, 270.0, 290.0);
    auto lo_a = random_vec(rng, n, 270.0, 290.0);
    auto up_c = up_a;
    auto lo_c = lo_a;
    ref.mix_unstable_d(up_a.data(), lo_a.data(), n);
    kt.mix_unstable_d(up_c.data(), lo_c.data(), n);
    expect_bits_equal(up_a, up_c, b, n, "mix_unstable_d upper");
    expect_bits_equal(lo_a, lo_c, b, n, "mix_unstable_d lower");

    auto eta_a = random_vec(rng, n);
    auto eta_c = eta_a;
    ref.pop_eta_d(f.data(), aip.data(), aim.data(), ajp.data(), 0.4,
                  eta_a.data(), n);
    kt.pop_eta_d(f.data(), aip.data(), aim.data(), ajp.data(), 0.4,
                 eta_c.data(), n);
    expect_bits_equal(eta_a, eta_c, b, n, "pop_eta_d");

    auto u_a = random_vec(rng, n);
    auto v_a = random_vec(rng, n);
    auto u_c = u_a;
    auto v_c = v_a;
    ref.pop_momentum_d(f.data(), aip.data(), aim.data(), ajp.data(), 0.02,
                       9.8, 1e-4, 1e-3, u_a.data(), v_a.data(), n);
    kt.pop_momentum_d(f.data(), aip.data(), aim.data(), ajp.data(), 0.02,
                      9.8, 1e-4, 1e-3, u_c.data(), v_c.data(), n);
    expect_bits_equal(u_a, u_c, b, n, "pop_momentum_d u");
    expect_bits_equal(v_a, v_c, b, n, "pop_momentum_d v");

    auto t_a = random_vec(rng, n);
    auto t_c = t_a;
    ref.pop_tracer_d(f.data(), aip.data(), aim.data(), ajp.data(), uu.data(),
                     vv.data(), -0.25, 0.05, t_a.data(), n);
    kt.pop_tracer_d(f.data(), aip.data(), aim.data(), ajp.data(), uu.data(),
                    vv.data(), -0.25, 0.05, t_c.data(), n);
    expect_bits_equal(t_a, t_c, b, n, "pop_tracer_d");
  });
}

TEST(SimdBitIdentity, FftCombineKernels) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long m) {
    if (m == 0) return;  // combine passes require at least one butterfly
    Rng rng(23);
    for (const int f : {2, 3, 5}) {
      const auto data = random_cvec(rng, f * m);
      const auto tw = random_cvec(rng, f * m);
      auto a = data;
      auto c = data;
      for (const double sign : {-1.0, 1.0}) {
        a = data;
        c = data;
        if (f == 2) {
          ref.fft_combine2(a.data(), m, tw.data());
          kt.fft_combine2(c.data(), m, tw.data());
        } else if (f == 3) {
          ref.fft_combine3(a.data(), m, tw.data(), sign);
          kt.fft_combine3(c.data(), m, tw.data(), sign);
        } else {
          ref.fft_combine5(a.data(), m, tw.data(), sign);
          kt.fft_combine5(c.data(), m, tw.data(), sign);
        }
        expect_bits_equal(a, c, b, m, "fft_combine");
      }
    }
  });
}

// Puts a NaN and a -0.0 at the front of v (no infinities anywhere, so every
// NaN the kernels produce carries this one bit pattern and the comparison
// can be bitwise).
void seed_specials(std::vector<double>& v) {
  if (!v.empty()) v[0] = std::numeric_limits<double>::quiet_NaN();
  if (v.size() > 1) v[1] = -0.0;
}

std::vector<double> lane_column(const std::vector<double>& p, long n, long l) {
  std::vector<double> col(static_cast<std::size_t>(n));
  for (long k = 0; k < n; ++k) {
    col[static_cast<std::size_t>(k)] =
        p[static_cast<std::size_t>(k * simd::kLaneBlock + l)];
  }
  return col;
}

TEST(SimdBitIdentity, ComplexAccumulationKernels) {
  constexpr long L = simd::kLaneBlock;
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long n) {
    Rng rng(29);
    for (const bool specials : {false, true}) {
      auto s = random_cvec(rng, n);
      auto p = random_vec(rng, n * L);
      auto d = random_vec(rng, n * L);
      if (specials) {
        if (n > 0) s[0] = cd(-0.0, 0.5);
        if (n > 2) s[2] = cd(std::numeric_limits<double>::quiet_NaN(), -0.0);
        seed_specials(p);
        seed_specials(d);
      }
      std::vector<double> oa(2 * L), oc(2 * L), da(2 * L), dc(2 * L);
      ref.lane_dot_cd_r(s.data(), p.data(), n, oa.data());
      kt.lane_dot_cd_r(s.data(), p.data(), n, oc.data());
      expect_bits_equal(oa, oc, b, n, "lane_dot_cd_r");
      ref.lane_dot2_cd_r(s.data(), p.data(), d.data(), n, oa.data(),
                         da.data());
      kt.lane_dot2_cd_r(s.data(), p.data(), d.data(), n, oc.data(), dc.data());
      expect_bits_equal(oa, oc, b, n, "lane_dot2_cd_r (p)");
      expect_bits_equal(da, dc, b, n, "lane_dot2_cd_r (d)");

      const auto g = random_cvec(rng, L);
      for (const long lanes : {0L, 1L, 5L, L}) {
        auto acc_a = random_cvec(rng, n);
        if (specials && n > 1) acc_a[1] = cd(-0.0, -0.0);
        auto acc_c = acc_a;
        ref.lane_axpy_cd_r(acc_a.data(), g.data(), p.data(), n, lanes);
        kt.lane_axpy_cd_r(acc_c.data(), g.data(), p.data(), n, lanes);
        expect_bits_equal(acc_a, acc_c, b, n, "lane_axpy_cd_r");
      }
    }
  });
}

// The scalar lane kernels are, lane by lane, the one-latitude loops they
// replaced: a std::complex accumulation of s[k] * p[k] from zero in k order,
// and acc[k] += g * p[k] one latitude after another.
TEST(SimdBitIdentity, LaneKernelsMatchOneLatitudeLoops) {
  constexpr long L = simd::kLaneBlock;
  const simd::KernelTable& ref = simd::scalar_table();
  Rng rng(31);
  for (long n : kSizes) {
    auto s = random_cvec(rng, n);
    auto p = random_vec(rng, n * L);
    if (n > 0) s[0] = cd(-0.0, std::numeric_limits<double>::quiet_NaN());
    seed_specials(p);
    std::vector<double> out(2 * L);
    ref.lane_dot_cd_r(s.data(), p.data(), n, out.data());
    const auto g = random_cvec(rng, L);
    auto acc = random_cvec(rng, n);
    auto want_acc = acc;
    ref.lane_axpy_cd_r(acc.data(), g.data(), p.data(), n, 6);
    for (long l = 0; l < L; ++l) {
      const auto col = lane_column(p, n, l);
      cd want(0, 0);
      for (long k = 0; k < n; ++k) {
        want += s[static_cast<std::size_t>(k)] *
                col[static_cast<std::size_t>(k)];
      }
      const cd got(out[static_cast<std::size_t>(l)],
                   out[static_cast<std::size_t>(L + l)]);
      EXPECT_EQ(std::memcmp(&want, &got, sizeof(cd)), 0) << "n=" << n;
      if (l < 6) {
        for (long k = 0; k < n; ++k) {
          want_acc[static_cast<std::size_t>(k)] +=
              g[static_cast<std::size_t>(l)] * col[static_cast<std::size_t>(k)];
        }
      }
    }
    expect_bits_equal(want_acc, acc, Backend::Scalar, n, "lane_axpy_cd_r");
  }
}

// Lane points with random lanes; when `specials`, lane 3 of the first point
// carries a NaN and lane 5 a -0.0.
std::vector<double> random_lane_points(Rng& rng, long points, bool specials) {
  auto v = random_vec(rng, points * ncar::fft::Plan::kLanePoint);
  if (specials && points > 0) {
    v[3] = std::numeric_limits<double>::quiet_NaN();
    v[simd::kLaneBlock + 3] = std::numeric_limits<double>::quiet_NaN();
    v[5] = -0.0;
  }
  return v;
}

void lane_combine(const simd::KernelTable& kt, int f, double* out, long m,
                  const cd* tw, double sign) {
  if (f == 2) {
    kt.lane_fft_combine2(out, m, tw);
  } else if (f == 3) {
    kt.lane_fft_combine3(out, m, tw, sign);
  } else {
    kt.lane_fft_combine5(out, m, tw, sign);
  }
}

TEST(SimdBitIdentity, LaneFftCombineKernels) {
  for_each_backend_and_size([](const simd::KernelTable& ref,
                               const simd::KernelTable& kt, Backend b,
                               long m) {
    if (m == 0) return;
    Rng rng(37);
    for (const int f : {2, 3, 5}) {
      const auto tw = random_cvec(rng, f * m);
      for (const bool specials : {false, true}) {
        const auto data = random_lane_points(rng, f * m, specials);
        for (const double sign : {-1.0, 1.0}) {
          auto a = data;
          auto c = data;
          lane_combine(ref, f, a.data(), m, tw.data(), sign);
          lane_combine(kt, f, c.data(), m, tw.data(), sign);
          expect_bits_equal(a, c, b, m, "lane_fft_combine");
        }
      }
    }
  });
}

// With finite operands each lane of a lane combine is the one-sequence
// combine of that lane.
TEST(SimdBitIdentity, LaneFftCombineMatchesOneSequenceCombine) {
  constexpr long L = simd::kLaneBlock;
  const simd::KernelTable& ref = simd::scalar_table();
  Rng rng(41);
  for (long m : {1L, 2L, 7L, 16L}) {
    for (const int f : {2, 3, 5}) {
      const auto tw = random_cvec(rng, f * m);
      auto pts = random_lane_points(rng, f * m, false);
      pts[2] = -0.0;
      for (const double sign : {-1.0, 1.0}) {
        auto lanes = pts;
        lane_combine(ref, f, lanes.data(), m, tw.data(), sign);
        for (long l = 0; l < L; ++l) {
          std::vector<cd> one(static_cast<std::size_t>(f * m));
          for (long k = 0; k < f * m; ++k) {
            const double* pt = pts.data() + k * 2 * L;
            one[static_cast<std::size_t>(k)] = cd(pt[l], pt[L + l]);
          }
          if (f == 2) {
            ref.fft_combine2(one.data(), m, tw.data());
          } else if (f == 3) {
            ref.fft_combine3(one.data(), m, tw.data(), sign);
          } else {
            ref.fft_combine5(one.data(), m, tw.data(), sign);
          }
          for (long k = 0; k < f * m; ++k) {
            const double* pt = lanes.data() + k * 2 * L;
            const cd got(pt[l], pt[L + l]);
            EXPECT_EQ(std::memcmp(&got, &one[static_cast<std::size_t>(k)],
                                  sizeof(cd)),
                      0)
                << "f=" << f << " m=" << m << " lane " << l << " k=" << k;
          }
        }
      }
    }
  }
}

// End-to-end: a full mixed-radix FFT and the RADABS kernel produce
// bit-identical results under every forced backend.
class ForcedBackend {
public:
  explicit ForcedBackend(Backend b) : before_(simd::active()) {
    simd::set_backend(b);
  }
  ~ForcedBackend() { simd::set_backend(before_); }
  ForcedBackend(const ForcedBackend&) = delete;
  ForcedBackend& operator=(const ForcedBackend&) = delete;

private:
  Backend before_;
};

TEST(SimdBitIdentity, FullFftMatchesScalarUnderEveryBackend) {
  const long n = 120;  // 2^3 * 3 * 5 exercises all three radices
  Rng rng(31);
  std::vector<cd> in(static_cast<std::size_t>(n));
  for (cd& z : in) {
    z = cd(2.0 * rng.next_double() - 1.0, 2.0 * rng.next_double() - 1.0);
  }
  const ncar::fft::Plan plan(n);
  std::vector<cd> fwd_ref(static_cast<std::size_t>(n));
  std::vector<cd> inv_ref(static_cast<std::size_t>(n));
  {
    ForcedBackend force(Backend::Scalar);
    plan.forward(in, fwd_ref);
    plan.inverse(fwd_ref, inv_ref);
  }
  for (int i = 1; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (!simd::supported(b)) continue;
    ForcedBackend force(b);
    std::vector<cd> fwd(static_cast<std::size_t>(n));
    std::vector<cd> inv(static_cast<std::size_t>(n));
    plan.forward(in, fwd);
    plan.inverse(fwd, inv);
    expect_bits_equal(fwd_ref, fwd, b, n, "Plan::forward");
    expect_bits_equal(inv_ref, inv, b, n, "Plan::inverse");
  }
}

TEST(SimdBitIdentity, RadabsChecksumMatchesScalarUnderEveryBackend) {
  const auto field = ncar::radabs::make_test_atmosphere(101, 13);
  double ref_checksum = 0.0;
  {
    ForcedBackend force(Backend::Scalar);
    ncar::machines::Comparator sx4(
        ncar::machines::Comparator::nec_sx4_single());
    ref_checksum = ncar::radabs::run_radabs(sx4, field).checksum;
  }
  for (int i = 1; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (!simd::supported(b)) continue;
    ForcedBackend force(b);
    ncar::machines::Comparator sx4(
        ncar::machines::Comparator::nec_sx4_single());
    const double checksum = ncar::radabs::run_radabs(sx4, field).checksum;
    EXPECT_EQ(checksum, ref_checksum) << simd::to_string(b);
  }
}

}  // namespace
