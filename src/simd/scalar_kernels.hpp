#pragma once
// Scalar reference implementations of every dispatched kernel.
//
// These loops are the semantic definition of the KernelTable entries: the
// SIMD backends must match them bit for bit (see simd.hpp). The ISA
// translation units include this header for remainder-lane tails, so a
// backend's tail and the scalar backend run literally the same code.
// Transcendentals (exp/log/pow) are plain libm calls — every translation
// unit resolves the same glibc symbols, so per-lane results are identical
// no matter which backend's loop called them.

#include <cmath>
#include <complex>

#include "simd/simd.hpp"

namespace ncar::simd::scalar_ref {

using cd = std::complex<double>;

inline void copy_d(const double* src, double* dst, long n) {
  for (long i = 0; i < n; ++i) dst[i] = src[i];
}

inline void gather_d(const double* src, const long* idx, double* dst, long n) {
  for (long i = 0; i < n; ++i) dst[i] = src[idx[i]];
}

inline void strided_copy_d(const double* src, long stride, double* dst,
                           long n) {
  for (long i = 0; i < n; ++i) dst[i] = src[i * stride];
}

inline void add_d(double* acc, const double* x, long n) {
  for (long i = 0; i < n; ++i) acc[i] += x[i];
}

inline void scale2_d(const double* x, double s1, double s2, double* dst,
                     long n) {
  for (long i = 0; i < n; ++i) dst[i] = x[i] * s1 * s2;
}

inline void radabs_pair_d(const double* w, const double* t1, const double* t2,
                          double sp, double* a12, double* scratch, long n) {
  // Same expression shapes as the original per-column loop in
  // radabs/radabs.cpp; only the loop nesting differs (one pass per
  // expression instead of one column per iteration), which is exact because
  // every column is independent.
  for (long c = 0; c < n; ++c) {
    const double tbar = 0.5 * (t1[c] + t2[c]);
    const double u = 1.66 * w[c] * sp;
    const double a1 = 1.0 - std::exp(-8.0 * std::sqrt(u));
    const double tfac = std::pow(tbar / 250.0, 0.5);
    const double a2 = 0.04 * std::log(1.0 + u * tfac);
    a12[c] = a1 + a2;
  }
  (void)scratch;
}

// Points [i0, i1) of mom_row_d; the SIMD bodies call it for the periodic
// ends and the remainder lanes.
inline void mom_row_tail(const double* f, const double* mask, const double* u,
                         const double* v, double damp, double adv,
                         double kappa, double* dst, long n, long i0, long i1) {
  for (long i = i0; i < i1; ++i) {
    const long ip = i + 1 == n ? 0 : i + 1;
    const long im = i == 0 ? n - 1 : i - 1;
    const double fc = f[i];
    const double aip = mask[ip] != 0.0 ? f[ip] : fc;
    const double aim = mask[im] != 0.0 ? f[im] : fc;
    const double ajp = mask[i + n] != 0.0 ? f[i + n] : fc;
    const double ajm = mask[i - n] != 0.0 ? f[i - n] : fc;
    const double uu = u[i] * damp;
    const double vv = v[i] * damp;
    const double fx = aip - aim;
    const double fy = ajp - ajm;
    const double lap = aip + aim + ajp + ajm - 4.0 * fc;
    const double s = fc - adv * (uu * fx + vv * fy) * 0.5 + kappa * lap;
    dst[i] = mask[i] != 0.0 ? s : fc;
  }
}

inline void mom_row_d(const double* f, const double* mask, const double* u,
                      const double* v, double damp, double adv, double kappa,
                      double* dst, long n) {
  mom_row_tail(f, mask, u, v, damp, adv, kappa, dst, n, 0, n);
}

inline void mix_unstable_d(double* upper, double* lower, long n) {
  for (long i = 0; i < n; ++i) {
    if (lower[i] > upper[i]) {
      const double mixed = 0.5 * (upper[i] + lower[i]);
      upper[i] = mixed;
      lower[i] = mixed;
    }
  }
}

inline void pop_eta_d(const double* uxp, const double* uxm, const double* vyp,
                      const double* vym, double s, double* eta, long n) {
  for (long i = 0; i < n; ++i) {
    const double div = 0.5 * ((uxp[i] - uxm[i]) + (vyp[i] - vym[i]));
    eta[i] -= s * div;
  }
}

inline void pop_momentum_d(const double* ex_p, const double* ex_m,
                           const double* ey_p, const double* ey_m, double dtb,
                           double gscale, double cor, double drag, double* u,
                           double* v, long n) {
  const double ncor = -cor;
  for (long i = 0; i < n; ++i) {
    const double ex = 0.5 * (ex_p[i] - ex_m[i]);
    const double ey = 0.5 * (ey_p[i] - ey_m[i]);
    const double un = u[i] + dtb * (cor * v[i] - gscale * ex - drag * u[i]);
    const double vn = v[i] + dtb * (ncor * u[i] - gscale * ey - drag * v[i]);
    u[i] = un;
    v[i] = vn;
  }
}

inline void pop_tracer_d(const double* txp, const double* txm,
                         const double* typ, const double* tym, const double* u,
                         const double* v, double nadv, double kappa, double* t,
                         long n) {
  for (long i = 0; i < n; ++i) {
    const double tx = 0.5 * (txp[i] - txm[i]);
    const double ty = 0.5 * (typ[i] - tym[i]);
    const double lap = txp[i] + txm[i] + typ[i] + tym[i] - 4.0 * t[i];
    t[i] += nadv * (u[i] * tx + v[i] * ty) + kappa * lap;
  }
}

// The *_tail variants start at butterfly k0 — the SIMD bodies call them for
// remainder lanes, the plain entry points call them with k0 = 0.

inline void fft_combine2_tail(cd* out, long m, const cd* tw, long k0) {
  for (long k = k0; k < m; ++k) {
    const cd t0 = out[k] * tw[k];
    const cd t1 = out[m + k] * tw[m + k];
    out[k] = t0 + t1;
    out[m + k] = t0 - t1;
  }
}

inline void fft_combine2(cd* out, long m, const cd* tw) {
  fft_combine2_tail(out, m, tw, 0);
}

inline void fft_combine3_tail(cd* out, long m, const cd* tw, double sign,
                              long k0) {
  constexpr double kHalfSqrt3 = 0.86602540378443864676;
  const cd w(0.0, sign * kHalfSqrt3);
  for (long k = k0; k < m; ++k) {
    const cd t0 = out[k] * tw[k];
    const cd t1 = out[m + k] * tw[m + k];
    const cd t2 = out[2 * m + k] * tw[2 * m + k];
    const cd s = t1 + t2;
    const cd d = t1 - t2;
    const cd a = t0 - 0.5 * s;
    const cd b = w * d;
    out[k] = t0 + s;
    out[m + k] = a + b;
    out[2 * m + k] = a - b;
  }
}

inline void fft_combine3(cd* out, long m, const cd* tw, double sign) {
  fft_combine3_tail(out, m, tw, sign, 0);
}

inline void fft_combine5_tail(cd* out, long m, const cd* tw, double sign,
                              long k0) {
  constexpr double c1 = 0.30901699437494742410;   // cos(2 pi/5)
  constexpr double c2 = -0.80901699437494742410;  // cos(4 pi/5)
  constexpr double s1 = 0.95105651629515357212;   // sin(2 pi/5)
  constexpr double s2 = 0.58778525229247312917;   // sin(4 pi/5)
  const cd w(0.0, sign);
  for (long k = k0; k < m; ++k) {
    const cd t0 = out[k] * tw[k];
    const cd t1 = out[m + k] * tw[m + k];
    const cd t2 = out[2 * m + k] * tw[2 * m + k];
    const cd t3 = out[3 * m + k] * tw[3 * m + k];
    const cd t4 = out[4 * m + k] * tw[4 * m + k];
    const cd p1 = t1 + t4, m1 = t1 - t4;
    const cd p2 = t2 + t3, m2 = t2 - t3;
    out[k] = t0 + p1 + p2;
    const cd a1 = t0 + c1 * p1 + c2 * p2;
    const cd a2 = t0 + c2 * p1 + c1 * p2;
    const cd b1 = w * (s1 * m1 + s2 * m2);
    const cd b2 = w * (s2 * m1 - s1 * m2);
    out[m + k] = a1 + b1;
    out[2 * m + k] = a2 + b2;
    out[3 * m + k] = a2 - b2;
    out[4 * m + k] = a1 - b1;
  }
}

inline void fft_combine5(cd* out, long m, const cd* tw, double sign) {
  fft_combine5_tail(out, m, tw, sign, 0);
}

// --- lane kernels (simd.hpp, "lanes") ---------------------------------------

inline void lane_dot_cd_r(const cd* s, const double* p, long n, double* out) {
  constexpr long L = kLaneBlock;
  double re[L] = {}, im[L] = {};
  for (long k = 0; k < n; ++k) {
    for (long l = 0; l < L; ++l) {
      re[l] += s[k].real() * p[k * L + l];
      im[l] += s[k].imag() * p[k * L + l];
    }
  }
  for (long l = 0; l < L; ++l) {
    out[l] = re[l];
    out[L + l] = im[l];
  }
}

inline void lane_dot2_cd_r(const cd* s, const double* p, const double* d,
                           long n, double* out_p, double* out_d) {
  lane_dot_cd_r(s, p, n, out_p);
  lane_dot_cd_r(s, d, n, out_d);
}

// Coefficients [k0, n) of lane_axpy_cd_r; the SIMD bodies call it for the
// remainder.
inline void lane_axpy_tail(cd* acc, const cd* g, const double* p, long n,
                           long lanes, long k0) {
  for (long k = k0; k < n; ++k) {
    for (long l = 0; l < lanes; ++l) acc[k] += g[l] * p[k * kLaneBlock + l];
  }
}

inline void lane_axpy_cd_r(cd* acc, const cd* g, const double* p, long n,
                           long lanes) {
  lane_axpy_tail(acc, g, p, n, lanes, 0);
}

namespace lane {

/// One lane of a lane point. The operations are componentwise exactly what
/// std::complex<double> does with finite operands: the naive product
/// (a.re*b.re - a.im*b.im, a.re*b.im + a.im*b.re) and real scaling.
struct C {
  double re, im;
};
inline C at(const double* pt, long l) { return {pt[l], pt[kLaneBlock + l]}; }
inline void put(double* pt, long l, C z) {
  pt[l] = z.re;
  pt[kLaneBlock + l] = z.im;
}
inline C add(C a, C b) { return {a.re + b.re, a.im + b.im}; }
inline C sub(C a, C b) { return {a.re - b.re, a.im - b.im}; }
inline C scale(double s, C a) { return {s * a.re, s * a.im}; }
inline C mul(C a, C b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}
inline C of(cd z) { return {z.real(), z.imag()}; }

}  // namespace lane

inline void lane_fft_combine2(double* out, long m, const cd* tw) {
  constexpr long P = 2 * kLaneBlock;
  for (long k = 0; k < m; ++k) {
    double* x0 = out + P * k;
    double* x1 = out + P * (m + k);
    for (long l = 0; l < kLaneBlock; ++l) {
      const lane::C t0 = lane::mul(lane::at(x0, l), lane::of(tw[k]));
      const lane::C t1 = lane::mul(lane::at(x1, l), lane::of(tw[m + k]));
      lane::put(x0, l, lane::add(t0, t1));
      lane::put(x1, l, lane::sub(t0, t1));
    }
  }
}

inline void lane_fft_combine3(double* out, long m, const cd* tw, double sign) {
  constexpr long P = 2 * kLaneBlock;
  constexpr double kHalfSqrt3 = 0.86602540378443864676;
  const lane::C w{0.0, sign * kHalfSqrt3};
  for (long k = 0; k < m; ++k) {
    double* x0 = out + P * k;
    double* x1 = out + P * (m + k);
    double* x2 = out + P * (2 * m + k);
    for (long l = 0; l < kLaneBlock; ++l) {
      const lane::C t0 = lane::mul(lane::at(x0, l), lane::of(tw[k]));
      const lane::C t1 = lane::mul(lane::at(x1, l), lane::of(tw[m + k]));
      const lane::C t2 = lane::mul(lane::at(x2, l), lane::of(tw[2 * m + k]));
      const lane::C s = lane::add(t1, t2);
      const lane::C d = lane::sub(t1, t2);
      const lane::C a = lane::sub(t0, lane::scale(0.5, s));
      const lane::C b = lane::mul(w, d);
      lane::put(x0, l, lane::add(t0, s));
      lane::put(x1, l, lane::add(a, b));
      lane::put(x2, l, lane::sub(a, b));
    }
  }
}

inline void lane_fft_combine5(double* out, long m, const cd* tw, double sign) {
  constexpr long P = 2 * kLaneBlock;
  constexpr double c1 = 0.30901699437494742410;
  constexpr double c2 = -0.80901699437494742410;
  constexpr double s1 = 0.95105651629515357212;
  constexpr double s2 = 0.58778525229247312917;
  const lane::C w{0.0, sign};
  for (long k = 0; k < m; ++k) {
    double* x[5];
    for (long j = 0; j < 5; ++j) x[j] = out + P * (j * m + k);
    for (long l = 0; l < kLaneBlock; ++l) {
      lane::C t[5];
      for (long j = 0; j < 5; ++j) {
        t[j] = lane::mul(lane::at(x[j], l), lane::of(tw[j * m + k]));
      }
      const lane::C p1 = lane::add(t[1], t[4]), m1 = lane::sub(t[1], t[4]);
      const lane::C p2 = lane::add(t[2], t[3]), m2 = lane::sub(t[2], t[3]);
      lane::put(x[0], l, lane::add(lane::add(t[0], p1), p2));
      const lane::C a1 = lane::add(lane::add(t[0], lane::scale(c1, p1)),
                                   lane::scale(c2, p2));
      const lane::C a2 = lane::add(lane::add(t[0], lane::scale(c2, p1)),
                                   lane::scale(c1, p2));
      const lane::C b1 = lane::mul(
          w, lane::add(lane::scale(s1, m1), lane::scale(s2, m2)));
      const lane::C b2 = lane::mul(
          w, lane::sub(lane::scale(s2, m1), lane::scale(s1, m2)));
      lane::put(x[1], l, lane::add(a1, b1));
      lane::put(x[2], l, lane::add(a2, b2));
      lane::put(x[3], l, lane::sub(a2, b2));
      lane::put(x[4], l, lane::sub(a1, b1));
    }
  }
}

}  // namespace ncar::simd::scalar_ref
