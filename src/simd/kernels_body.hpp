#pragma once
// Width-generic SIMD kernel bodies, instantiated per ISA.
//
// Each ISA translation unit defines a traits struct V (vector type, lane
// count, exactly-rounded arithmetic, bitwise selects, complex helpers) and
// instantiates make_table<V>(). The bodies use only operations IEEE 754
// defines exactly (add/sub/mul/div/sqrt, moves, selects), call libm
// transcendentals per lane, and keep every reduction in its original
// sequential order — so every instantiation is bit-identical to the scalar
// reference in scalar_kernels.hpp, which also provides the remainder-lane
// tails.
//
// Traits contract (kLanes doubles per vector; kLanes/2 interleaved
// complexes):
//   using vd;  static constexpr long kLanes;
//   vd load(const double*); void store(double*, vd); vd set1(double);
//   vd add/sub/mul/div(vd, vd); vd vsqrt(vd);
//   vd select_nonzero(vd mask, vd a, vd b);   // mask != 0 ? a : b
//   vd select_gt(vd x, vd y, vd a, vd b);     // x > y ? a : b
//   vd gather(const double* base, const long* idx);
//   vd stride_gather(const double* base, long stride);
//   vd cmul(vd a, vd b);                      // interleaved complex multiply
//   vd dup_real_lane(const double* p);        // (p0,p0,p8,p8,p16,p16,...)
//   vd bcast_cd(const cd& z);                 // (re,im,re,im,...)

#include <complex>

#include "simd/scalar_kernels.hpp"
#include "simd/simd.hpp"

namespace ncar::simd::body {

template <class V>
void copy_d(const double* src, double* dst, long n) {
  long i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::store(dst + i, V::load(src + i));
  }
  scalar_ref::copy_d(src + i, dst + i, n - i);
}

template <class V>
void gather_d(const double* src, const long* idx, double* dst, long n) {
  long i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::store(dst + i, V::gather(src, idx + i));
  }
  scalar_ref::gather_d(src, idx + i, dst + i, n - i);
}

template <class V>
void strided_copy_d(const double* src, long stride, double* dst, long n) {
  long i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::store(dst + i, V::stride_gather(src + i * stride, stride));
  }
  scalar_ref::strided_copy_d(src + i * stride, stride, dst + i, n - i);
}

template <class V>
void add_d(double* acc, const double* x, long n) {
  long i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::store(acc + i, V::add(V::load(acc + i), V::load(x + i)));
  }
  scalar_ref::add_d(acc + i, x + i, n - i);
}

template <class V>
void scale2_d(const double* x, double s1, double s2, double* dst, long n) {
  const auto s1v = V::set1(s1);
  const auto s2v = V::set1(s2);
  long i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::store(dst + i, V::mul(V::mul(V::load(x + i), s1v), s2v));
  }
  scalar_ref::scale2_d(x + i, s1, s2, dst + i, n - i);
}

template <class V>
void radabs_pair_d(const double* w, const double* t1, const double* t2,
                   double sp, double* a12, double* scratch, long n) {
  const auto half = V::set1(0.5);
  const auto one = V::set1(1.0);
  const auto diffusivity = V::set1(1.66);
  const auto spv = V::set1(sp);
  const auto neg8 = V::set1(-8.0);
  const auto ref_temp = V::set1(250.0);
  const auto band2 = V::set1(0.04);
  long c = 0;
  for (; c + V::kLanes <= n; c += V::kLanes) {
    const auto tbar = V::mul(half, V::add(V::load(t1 + c), V::load(t2 + c)));
    const auto u = V::mul(V::mul(diffusivity, V::load(w + c)), spv);
    const auto earg = V::mul(neg8, V::vsqrt(u));
    const auto rb = V::div(tbar, ref_temp);
    // Transcendentals stay scalar per lane (same libm symbols as the
    // scalar reference).
    alignas(64) double se[V::kLanes];
    alignas(64) double st[V::kLanes];
    V::store(se, earg);
    V::store(st, rb);
    for (long l = 0; l < V::kLanes; ++l) {
      se[l] = std::exp(se[l]);
      st[l] = std::pow(st[l], 0.5);
    }
    const auto ev = V::load(se);
    const auto tfac = V::load(st);
    V::store(se, V::add(one, V::mul(u, tfac)));
    for (long l = 0; l < V::kLanes; ++l) se[l] = std::log(se[l]);
    const auto a2 = V::mul(band2, V::load(se));
    V::store(a12 + c, V::add(V::sub(one, ev), a2));
  }
  scalar_ref::radabs_pair_d(w + c, t1 + c, t2 + c, sp, a12 + c, scratch,
                            n - c);
}

template <class V>
void mom_row_d(const double* f, const double* mask, const double* u,
               const double* v, double damp, double adv, double kappa,
               double* dst, long n) {
  const auto half = V::set1(0.5);
  const auto four = V::set1(4.0);
  const auto dampv = V::set1(damp);
  const auto advv = V::set1(adv);
  const auto kapv = V::set1(kappa);
  // i = 0 wraps to n-1 and i = n-1 to 0: both go to the scalar reference,
  // so the vector loop runs over [1, n-1) with unit-offset neighbours.
  scalar_ref::mom_row_tail(f, mask, u, v, damp, adv, kappa, dst, n, 0,
                           n > 0 ? 1 : 0);
  long i = 1;
  for (; i + V::kLanes < n; i += V::kLanes) {
    const auto fc = V::load(f + i);
    const auto aip =
        V::select_nonzero(V::load(mask + i + 1), V::load(f + i + 1), fc);
    const auto aim =
        V::select_nonzero(V::load(mask + i - 1), V::load(f + i - 1), fc);
    const auto ajp =
        V::select_nonzero(V::load(mask + i + n), V::load(f + i + n), fc);
    const auto ajm =
        V::select_nonzero(V::load(mask + i - n), V::load(f + i - n), fc);
    const auto uu = V::mul(V::load(u + i), dampv);
    const auto vv = V::mul(V::load(v + i), dampv);
    const auto fx = V::sub(aip, aim);
    const auto fy = V::sub(ajp, ajm);
    const auto lap =
        V::sub(V::add(V::add(V::add(aip, aim), ajp), ajm), V::mul(four, fc));
    const auto advect =
        V::mul(V::mul(advv, V::add(V::mul(uu, fx), V::mul(vv, fy))), half);
    const auto s = V::add(V::sub(fc, advect), V::mul(kapv, lap));
    V::store(dst + i, V::select_nonzero(V::load(mask + i), s, fc));
  }
  scalar_ref::mom_row_tail(f, mask, u, v, damp, adv, kappa, dst, n, i, n);
}

template <class V>
void mix_unstable_d(double* upper, double* lower, long n) {
  const auto half = V::set1(0.5);
  long i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const auto up = V::load(upper + i);
    const auto lo = V::load(lower + i);
    const auto mixed = V::mul(half, V::add(up, lo));
    V::store(upper + i, V::select_gt(lo, up, mixed, up));
    V::store(lower + i, V::select_gt(lo, up, mixed, lo));
  }
  scalar_ref::mix_unstable_d(upper + i, lower + i, n - i);
}

template <class V>
void pop_eta_d(const double* uxp, const double* uxm, const double* vyp,
               const double* vym, double s, double* eta, long n) {
  const auto half = V::set1(0.5);
  const auto sv = V::set1(s);
  long i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const auto div = V::mul(
        half, V::add(V::sub(V::load(uxp + i), V::load(uxm + i)),
                     V::sub(V::load(vyp + i), V::load(vym + i))));
    V::store(eta + i, V::sub(V::load(eta + i), V::mul(sv, div)));
  }
  scalar_ref::pop_eta_d(uxp + i, uxm + i, vyp + i, vym + i, s, eta + i, n - i);
}

template <class V>
void pop_momentum_d(const double* ex_p, const double* ex_m, const double* ey_p,
                    const double* ey_m, double dtb, double gscale, double cor,
                    double drag, double* u, double* v, long n) {
  const auto half = V::set1(0.5);
  const auto dtbv = V::set1(dtb);
  const auto gv = V::set1(gscale);
  const auto corv = V::set1(cor);
  const auto ncorv = V::set1(-cor);
  const auto dragv = V::set1(drag);
  long i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const auto uv = V::load(u + i);
    const auto vv_ = V::load(v + i);
    const auto ex = V::mul(half, V::sub(V::load(ex_p + i), V::load(ex_m + i)));
    const auto ey = V::mul(half, V::sub(V::load(ey_p + i), V::load(ey_m + i)));
    const auto un = V::add(
        uv, V::mul(dtbv, V::sub(V::sub(V::mul(corv, vv_), V::mul(gv, ex)),
                                V::mul(dragv, uv))));
    const auto vn = V::add(
        vv_, V::mul(dtbv, V::sub(V::sub(V::mul(ncorv, uv), V::mul(gv, ey)),
                                 V::mul(dragv, vv_))));
    V::store(u + i, un);
    V::store(v + i, vn);
  }
  scalar_ref::pop_momentum_d(ex_p + i, ex_m + i, ey_p + i, ey_m + i, dtb,
                             gscale, cor, drag, u + i, v + i, n - i);
}

template <class V>
void pop_tracer_d(const double* txp, const double* txm, const double* typ,
                  const double* tym, const double* u, const double* v,
                  double nadv, double kappa, double* t, long n) {
  const auto half = V::set1(0.5);
  const auto four = V::set1(4.0);
  const auto nadvv = V::set1(nadv);
  const auto kapv = V::set1(kappa);
  long i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const auto xp = V::load(txp + i);
    const auto xm = V::load(txm + i);
    const auto yp = V::load(typ + i);
    const auto ym = V::load(tym + i);
    const auto tv = V::load(t + i);
    const auto tx = V::mul(half, V::sub(xp, xm));
    const auto ty = V::mul(half, V::sub(yp, ym));
    const auto lap =
        V::sub(V::add(V::add(V::add(xp, xm), yp), ym), V::mul(four, tv));
    const auto rhs = V::add(V::mul(nadvv, V::add(V::mul(V::load(u + i), tx),
                                                 V::mul(V::load(v + i), ty))),
                            V::mul(kapv, lap));
    V::store(t + i, V::add(tv, rhs));
  }
  scalar_ref::pop_tracer_d(txp + i, txm + i, typ + i, tym + i, u + i, v + i,
                           nadv, kappa, t + i, n - i);
}

template <class V>
void fft_combine2(cd* out, long m, const cd* tw) {
  constexpr long kC = V::kLanes / 2;
  double* od = reinterpret_cast<double*>(out);
  const double* twd = reinterpret_cast<const double*>(tw);
  long k = 0;
  for (; k + kC <= m; k += kC) {
    const auto t0 = V::cmul(V::load(od + 2 * k), V::load(twd + 2 * k));
    const auto t1 =
        V::cmul(V::load(od + 2 * (m + k)), V::load(twd + 2 * (m + k)));
    V::store(od + 2 * k, V::add(t0, t1));
    V::store(od + 2 * (m + k), V::sub(t0, t1));
  }
  scalar_ref::fft_combine2_tail(out, m, tw, k);
}

template <class V>
void fft_combine3(cd* out, long m, const cd* tw, double sign) {
  constexpr long kC = V::kLanes / 2;
  constexpr double kHalfSqrt3 = 0.86602540378443864676;
  const auto half = V::set1(0.5);
  const auto wv = V::bcast_cd(cd(0.0, sign * kHalfSqrt3));
  double* od = reinterpret_cast<double*>(out);
  const double* twd = reinterpret_cast<const double*>(tw);
  long k = 0;
  for (; k + kC <= m; k += kC) {
    const auto t0 = V::cmul(V::load(od + 2 * k), V::load(twd + 2 * k));
    const auto t1 =
        V::cmul(V::load(od + 2 * (m + k)), V::load(twd + 2 * (m + k)));
    const auto t2 =
        V::cmul(V::load(od + 2 * (2 * m + k)), V::load(twd + 2 * (2 * m + k)));
    const auto s = V::add(t1, t2);
    const auto d = V::sub(t1, t2);
    const auto a = V::sub(t0, V::mul(half, s));
    const auto b = V::cmul(wv, d);
    V::store(od + 2 * k, V::add(t0, s));
    V::store(od + 2 * (m + k), V::add(a, b));
    V::store(od + 2 * (2 * m + k), V::sub(a, b));
  }
  scalar_ref::fft_combine3_tail(out, m, tw, sign, k);
}

template <class V>
void fft_combine5(cd* out, long m, const cd* tw, double sign) {
  constexpr long kC = V::kLanes / 2;
  constexpr double c1 = 0.30901699437494742410;
  constexpr double c2 = -0.80901699437494742410;
  constexpr double s1 = 0.95105651629515357212;
  constexpr double s2 = 0.58778525229247312917;
  const auto c1v = V::set1(c1);
  const auto c2v = V::set1(c2);
  const auto s1v = V::set1(s1);
  const auto s2v = V::set1(s2);
  const auto wv = V::bcast_cd(cd(0.0, sign));
  double* od = reinterpret_cast<double*>(out);
  const double* twd = reinterpret_cast<const double*>(tw);
  long k = 0;
  for (; k + kC <= m; k += kC) {
    const auto t0 = V::cmul(V::load(od + 2 * k), V::load(twd + 2 * k));
    const auto t1 =
        V::cmul(V::load(od + 2 * (m + k)), V::load(twd + 2 * (m + k)));
    const auto t2 =
        V::cmul(V::load(od + 2 * (2 * m + k)), V::load(twd + 2 * (2 * m + k)));
    const auto t3 =
        V::cmul(V::load(od + 2 * (3 * m + k)), V::load(twd + 2 * (3 * m + k)));
    const auto t4 =
        V::cmul(V::load(od + 2 * (4 * m + k)), V::load(twd + 2 * (4 * m + k)));
    const auto p1 = V::add(t1, t4);
    const auto m1 = V::sub(t1, t4);
    const auto p2 = V::add(t2, t3);
    const auto m2 = V::sub(t2, t3);
    V::store(od + 2 * k, V::add(V::add(t0, p1), p2));
    const auto a1 = V::add(V::add(t0, V::mul(c1v, p1)), V::mul(c2v, p2));
    const auto a2 = V::add(V::add(t0, V::mul(c2v, p1)), V::mul(c1v, p2));
    const auto b1 = V::cmul(wv, V::add(V::mul(s1v, m1), V::mul(s2v, m2)));
    const auto b2 = V::cmul(wv, V::sub(V::mul(s2v, m1), V::mul(s1v, m2)));
    V::store(od + 2 * (m + k), V::add(a1, b1));
    V::store(od + 2 * (2 * m + k), V::add(a2, b2));
    V::store(od + 2 * (3 * m + k), V::sub(a2, b2));
    V::store(od + 2 * (4 * m + k), V::sub(a1, b1));
  }
  scalar_ref::fft_combine5_tail(out, m, tw, sign, k);
}

// --- lane kernels ------------------------------------------------------------
// The Legendre sums vectorise across the kLaneBlock lanes (latitudes) of a
// block, so each lane keeps its own accumulators and adds in k order;
// lane_axpy_cd_r vectorises across coefficients k, and each one adds its
// lanes in ascending order. kLaneBlock is a multiple of every kLanes.

template <class V>
void lane_dot_cd_r(const cd* s, const double* p, long n, double* out) {
  using vd = typename V::vd;
  constexpr long kV = kLaneBlock / V::kLanes;
  vd re[kV], im[kV];
  for (long c = 0; c < kV; ++c) re[c] = im[c] = V::set1(0.0);
  for (long k = 0; k < n; ++k) {
    const vd sr = V::set1(s[k].real());
    const vd si = V::set1(s[k].imag());
    for (long c = 0; c < kV; ++c) {
      const vd pv = V::load(p + k * kLaneBlock + c * V::kLanes);
      re[c] = V::add(re[c], V::mul(sr, pv));
      im[c] = V::add(im[c], V::mul(si, pv));
    }
  }
  for (long c = 0; c < kV; ++c) {
    V::store(out + c * V::kLanes, re[c]);
    V::store(out + kLaneBlock + c * V::kLanes, im[c]);
  }
}

template <class V>
void lane_dot2_cd_r(const cd* s, const double* p, const double* d, long n,
                    double* out_p, double* out_d) {
  using vd = typename V::vd;
  constexpr long kV = kLaneBlock / V::kLanes;
  vd pre[kV], pim[kV], dre[kV], dim[kV];
  for (long c = 0; c < kV; ++c) {
    pre[c] = pim[c] = dre[c] = dim[c] = V::set1(0.0);
  }
  for (long k = 0; k < n; ++k) {
    const vd sr = V::set1(s[k].real());
    const vd si = V::set1(s[k].imag());
    for (long c = 0; c < kV; ++c) {
      const vd pv = V::load(p + k * kLaneBlock + c * V::kLanes);
      const vd dv = V::load(d + k * kLaneBlock + c * V::kLanes);
      pre[c] = V::add(pre[c], V::mul(sr, pv));
      pim[c] = V::add(pim[c], V::mul(si, pv));
      dre[c] = V::add(dre[c], V::mul(sr, dv));
      dim[c] = V::add(dim[c], V::mul(si, dv));
    }
  }
  for (long c = 0; c < kV; ++c) {
    V::store(out_p + c * V::kLanes, pre[c]);
    V::store(out_p + kLaneBlock + c * V::kLanes, pim[c]);
    V::store(out_d + c * V::kLanes, dre[c]);
    V::store(out_d + kLaneBlock + c * V::kLanes, dim[c]);
  }
}

template <class V>
void lane_axpy_cd_r(cd* acc, const cd* g, const double* p, long n,
                    long lanes) {
  using vd = typename V::vd;
  constexpr long kC = V::kLanes / 2;
  vd gv[kLaneBlock];
  for (long l = 0; l < lanes; ++l) gv[l] = V::bcast_cd(g[l]);
  double* ad = reinterpret_cast<double*>(acc);
  long k = 0;
  for (; k + kC <= n; k += kC) {
    vd a = V::load(ad + 2 * k);
    for (long l = 0; l < lanes; ++l) {
      a = V::add(a, V::mul(gv[l], V::dup_real_lane(p + k * kLaneBlock + l)));
    }
    V::store(ad + 2 * k, a);
  }
  scalar_ref::lane_axpy_tail(acc, g, p, n, lanes, k);
}

/// V::kLanes lanes of a lane point, split into real and imaginary parts,
/// with the arithmetic of scalar_ref::lane::C.
template <class V>
struct LaneC {
  typename V::vd re, im;

  static LaneC at(const double* pt) {
    return {V::load(pt), V::load(pt + kLaneBlock)};
  }
  static LaneC of(cd z) { return {V::set1(z.real()), V::set1(z.imag())}; }
  void put(double* pt) const {
    V::store(pt, re);
    V::store(pt + kLaneBlock, im);
  }
  friend LaneC operator+(LaneC a, LaneC b) {
    return {V::add(a.re, b.re), V::add(a.im, b.im)};
  }
  friend LaneC operator-(LaneC a, LaneC b) {
    return {V::sub(a.re, b.re), V::sub(a.im, b.im)};
  }
  friend LaneC operator*(typename V::vd s, LaneC a) {
    return {V::mul(s, a.re), V::mul(s, a.im)};
  }
  friend LaneC operator*(LaneC a, LaneC b) {
    return {V::sub(V::mul(a.re, b.re), V::mul(a.im, b.im)),
            V::add(V::mul(a.re, b.im), V::mul(a.im, b.re))};
  }
};

template <class V>
void lane_fft_combine2(double* out, long m, const cd* tw) {
  using C = LaneC<V>;
  constexpr long P = 2 * kLaneBlock;
  for (long k = 0; k < m; ++k) {
    const C w0 = C::of(tw[k]);
    const C w1 = C::of(tw[m + k]);
    double* x0 = out + P * k;
    double* x1 = out + P * (m + k);
    for (long c = 0; c < kLaneBlock; c += V::kLanes) {
      const C t0 = C::at(x0 + c) * w0;
      const C t1 = C::at(x1 + c) * w1;
      (t0 + t1).put(x0 + c);
      (t0 - t1).put(x1 + c);
    }
  }
}

template <class V>
void lane_fft_combine3(double* out, long m, const cd* tw, double sign) {
  using C = LaneC<V>;
  constexpr long P = 2 * kLaneBlock;
  constexpr double kHalfSqrt3 = 0.86602540378443864676;
  const auto half = V::set1(0.5);
  const C w = C::of(cd(0.0, sign * kHalfSqrt3));
  for (long k = 0; k < m; ++k) {
    const C w0 = C::of(tw[k]);
    const C w1 = C::of(tw[m + k]);
    const C w2 = C::of(tw[2 * m + k]);
    double* x0 = out + P * k;
    double* x1 = out + P * (m + k);
    double* x2 = out + P * (2 * m + k);
    for (long c = 0; c < kLaneBlock; c += V::kLanes) {
      const C t0 = C::at(x0 + c) * w0;
      const C t1 = C::at(x1 + c) * w1;
      const C t2 = C::at(x2 + c) * w2;
      const C s = t1 + t2;
      const C d = t1 - t2;
      const C a = t0 - half * s;
      const C b = w * d;
      (t0 + s).put(x0 + c);
      (a + b).put(x1 + c);
      (a - b).put(x2 + c);
    }
  }
}

template <class V>
void lane_fft_combine5(double* out, long m, const cd* tw, double sign) {
  using C = LaneC<V>;
  constexpr long P = 2 * kLaneBlock;
  const auto c1 = V::set1(0.30901699437494742410);
  const auto c2 = V::set1(-0.80901699437494742410);
  const auto s1 = V::set1(0.95105651629515357212);
  const auto s2 = V::set1(0.58778525229247312917);
  const C w = C::of(cd(0.0, sign));
  for (long k = 0; k < m; ++k) {
    C wj[5];
    double* x[5];
    for (long j = 0; j < 5; ++j) {
      wj[j] = C::of(tw[j * m + k]);
      x[j] = out + P * (j * m + k);
    }
    for (long c = 0; c < kLaneBlock; c += V::kLanes) {
      C t[5];
      for (long j = 0; j < 5; ++j) t[j] = C::at(x[j] + c) * wj[j];
      const C p1 = t[1] + t[4], m1 = t[1] - t[4];
      const C p2 = t[2] + t[3], m2 = t[2] - t[3];
      (t[0] + p1 + p2).put(x[0] + c);
      const C a1 = t[0] + c1 * p1 + c2 * p2;
      const C a2 = t[0] + c2 * p1 + c1 * p2;
      const C b1 = w * (s1 * m1 + s2 * m2);
      const C b2 = w * (s2 * m1 - s1 * m2);
      (a1 + b1).put(x[1] + c);
      (a2 + b2).put(x[2] + c);
      (a2 - b2).put(x[3] + c);
      (a1 - b1).put(x[4] + c);
    }
  }
}

template <class V>
KernelTable make_table() {
  return KernelTable{
      copy_d<V>,         gather_d<V>,       strided_copy_d<V>,
      add_d<V>,          scale2_d<V>,       radabs_pair_d<V>,
      mom_row_d<V>,      mix_unstable_d<V>, pop_eta_d<V>,
      pop_momentum_d<V>, pop_tracer_d<V>,   fft_combine2<V>,
      fft_combine3<V>,   fft_combine5<V>,   lane_dot_cd_r<V>,
      lane_dot2_cd_r<V>, lane_axpy_cd_r<V>, lane_fft_combine2<V>,
      lane_fft_combine3<V>, lane_fft_combine5<V>,
  };
}

}  // namespace ncar::simd::body
