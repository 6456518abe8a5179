// SSE4.2 backend: 2 doubles / 1 complex per vector. Built with -msse4.2 and
// -ffp-contract=off (see src/simd/CMakeLists.txt); compiles to a null table
// when the toolchain or target cannot provide the ISA.

#include "simd/simd.hpp"

#if defined(NCAR_SIMD_SSE42) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "simd/kernels_body.hpp"

namespace ncar::simd {
namespace {

struct Sse42 {
  using vd = __m128d;
  static constexpr long kLanes = 2;

  static vd load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, vd v) { _mm_storeu_pd(p, v); }
  static vd set1(double x) { return _mm_set1_pd(x); }
  static vd add(vd a, vd b) { return _mm_add_pd(a, b); }
  static vd sub(vd a, vd b) { return _mm_sub_pd(a, b); }
  static vd mul(vd a, vd b) { return _mm_mul_pd(a, b); }
  static vd div(vd a, vd b) { return _mm_div_pd(a, b); }
  static vd vsqrt(vd a) { return _mm_sqrt_pd(a); }

  static vd select_nonzero(vd mask, vd a, vd b) {
    // mask != 0.0 ? a : b, with C != semantics (NaN mask selects a).
    const vd m = _mm_cmpneq_pd(mask, _mm_setzero_pd());
    return _mm_blendv_pd(b, a, m);
  }
  static vd select_gt(vd x, vd y, vd a, vd b) {
    return _mm_blendv_pd(b, a, _mm_cmpgt_pd(x, y));
  }

  static vd gather(const double* base, const long* idx) {
    return _mm_set_pd(base[idx[1]], base[idx[0]]);
  }
  static vd stride_gather(const double* base, long stride) {
    return _mm_set_pd(base[stride], base[0]);
  }

  static vd cmul(vd a, vd b) {
    // (ar*br - ai*bi, ai*br + ar*bi) via mul/addsub — componentwise equal to
    // the libstdc++ naive formula (IEEE + and * are commutative).
    const vd br = _mm_shuffle_pd(b, b, 0x0);
    const vd bi = _mm_shuffle_pd(b, b, 0x3);
    const vd as = _mm_shuffle_pd(a, a, 0x1);
    return _mm_addsub_pd(_mm_mul_pd(a, br), _mm_mul_pd(as, bi));
  }
  static vd dup_real_lane(const double* p) { return _mm_loaddup_pd(p); }
  static vd bcast_cd(const cd& z) {
    return _mm_set_pd(z.imag(), z.real());
  }
};

}  // namespace

const KernelTable* sse42_table_impl() {
  static const KernelTable t = body::make_table<Sse42>();
  return &t;
}

}  // namespace ncar::simd

#else

namespace ncar::simd {
const KernelTable* sse42_table_impl() { return nullptr; }
}  // namespace ncar::simd

#endif
