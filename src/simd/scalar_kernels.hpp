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

inline void axpy_cd_r(cd* acc, cd g, const double* p, long n) {
  for (long k = 0; k < n; ++k) acc[k] += g * p[k];
}

inline cd dot_cd_r(const cd* s, const double* p, long n) {
  cd acc(0, 0);
  for (long k = 0; k < n; ++k) acc += s[k] * p[k];
  return acc;
}

inline void dot2_cd_r(const cd* s, const double* p, const double* d, long n,
                      cd* out_p, cd* out_d) {
  cd acc_p(0, 0), acc_d(0, 0);
  for (long k = 0; k < n; ++k) {
    acc_p += s[k] * p[k];
    acc_d += s[k] * d[k];
  }
  *out_p = acc_p;
  *out_d = acc_d;
}

}  // namespace ncar::simd::scalar_ref
