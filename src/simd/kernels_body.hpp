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
//   vd dup_real(const double* p);             // (p0,p0,p1,p1,...)
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

template <class V>
void axpy_cd_r(cd* acc, cd g, const double* p, long n) {
  constexpr long kC = V::kLanes / 2;
  const auto gv = V::bcast_cd(g);
  double* ad = reinterpret_cast<double*>(acc);
  long k = 0;
  for (; k + kC <= n; k += kC) {
    const auto pv = V::dup_real(p + k);
    V::store(ad + 2 * k, V::add(V::load(ad + 2 * k), V::mul(gv, pv)));
  }
  scalar_ref::axpy_cd_r(acc + k, g, p + k, n - k);
}

template <class V>
cd dot_cd_r(const cd* s, const double* p, long n) {
  // Fixed-order reduction: the products are vectorised, the accumulation
  // walks them sequentially in k order — bit-identical to the scalar loop.
  constexpr long kC = V::kLanes / 2;
  const double* sd = reinterpret_cast<const double*>(s);
  double re = 0.0, im = 0.0;
  long k = 0;
  for (; k + kC <= n; k += kC) {
    alignas(64) double prod[V::kLanes];
    V::store(prod, V::mul(V::load(sd + 2 * k), V::dup_real(p + k)));
    for (long l = 0; l < kC; ++l) {
      re += prod[2 * l];
      im += prod[2 * l + 1];
    }
  }
  for (; k < n; ++k) {
    re += s[k].real() * p[k];
    im += s[k].imag() * p[k];
  }
  return cd(re, im);
}

template <class V>
void dot2_cd_r(const cd* s, const double* p, const double* d, long n,
               cd* out_p, cd* out_d) {
  constexpr long kC = V::kLanes / 2;
  const double* sd = reinterpret_cast<const double*>(s);
  double pre = 0.0, pim = 0.0, dre = 0.0, dim = 0.0;
  long k = 0;
  for (; k + kC <= n; k += kC) {
    const auto sv = V::load(sd + 2 * k);
    alignas(64) double prod_p[V::kLanes];
    alignas(64) double prod_d[V::kLanes];
    V::store(prod_p, V::mul(sv, V::dup_real(p + k)));
    V::store(prod_d, V::mul(sv, V::dup_real(d + k)));
    for (long l = 0; l < kC; ++l) {
      pre += prod_p[2 * l];
      pim += prod_p[2 * l + 1];
      dre += prod_d[2 * l];
      dim += prod_d[2 * l + 1];
    }
  }
  for (; k < n; ++k) {
    pre += s[k].real() * p[k];
    pim += s[k].imag() * p[k];
    dre += s[k].real() * d[k];
    dim += s[k].imag() * d[k];
  }
  *out_p = cd(pre, pim);
  *out_d = cd(dre, dim);
}

template <class V>
KernelTable make_table() {
  return KernelTable{
      copy_d<V>,         gather_d<V>,       strided_copy_d<V>,
      add_d<V>,          scale2_d<V>,       radabs_pair_d<V>,
      mom_row_d<V>,      mix_unstable_d<V>, pop_eta_d<V>,
      pop_momentum_d<V>, pop_tracer_d<V>,   fft_combine2<V>,
      fft_combine3<V>,   fft_combine5<V>,   axpy_cd_r<V>,
      dot_cd_r<V>,       dot2_cd_r<V>,
  };
}

}  // namespace ncar::simd::body
