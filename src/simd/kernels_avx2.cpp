// AVX2 backend: 4 doubles / 2 complexes per vector. Built with -mavx2 and
// -ffp-contract=off (no FMA — the determinism contract forbids it); compiles
// to a null table when the toolchain or target cannot provide the ISA.

#include "simd/simd.hpp"

#if defined(NCAR_SIMD_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "simd/kernels_body.hpp"

namespace ncar::simd {
namespace {

struct Avx2 {
  using vd = __m256d;
  static constexpr long kLanes = 4;

  static vd load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, vd v) { _mm256_storeu_pd(p, v); }
  static vd set1(double x) { return _mm256_set1_pd(x); }
  static vd add(vd a, vd b) { return _mm256_add_pd(a, b); }
  static vd sub(vd a, vd b) { return _mm256_sub_pd(a, b); }
  static vd mul(vd a, vd b) { return _mm256_mul_pd(a, b); }
  static vd div(vd a, vd b) { return _mm256_div_pd(a, b); }
  static vd vsqrt(vd a) { return _mm256_sqrt_pd(a); }

  static vd select_nonzero(vd mask, vd a, vd b) {
    // _CMP_NEQ_UQ: unordered-or-unequal, matching C != (NaN mask selects a).
    const vd m = _mm256_cmp_pd(mask, _mm256_setzero_pd(), _CMP_NEQ_UQ);
    return _mm256_blendv_pd(b, a, m);
  }
  static vd select_gt(vd x, vd y, vd a, vd b) {
    // _CMP_GT_OQ: ordered greater-than, matching scalar > (NaN selects b).
    return _mm256_blendv_pd(b, a, _mm256_cmp_pd(x, y, _CMP_GT_OQ));
  }

  static vd gather(const double* base, const long* idx) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return _mm256_i64gather_pd(base, vi, 8);
  }
  static vd stride_gather(const double* base, long stride) {
    const __m256i vi = _mm256_set_epi64x(3 * stride, 2 * stride, stride, 0);
    return _mm256_i64gather_pd(base, vi, 8);
  }

  static vd cmul(vd a, vd b) {
    const vd br = _mm256_shuffle_pd(b, b, 0x0);
    const vd bi = _mm256_shuffle_pd(b, b, 0xF);
    const vd as = _mm256_shuffle_pd(a, a, 0x5);
    return _mm256_addsub_pd(_mm256_mul_pd(a, br), _mm256_mul_pd(as, bi));
  }
  static vd dup_real_lane(const double* p) {
    // (p0, p0, p8, p8)
    return _mm256_set_m128d(_mm_loaddup_pd(p + kLaneBlock), _mm_loaddup_pd(p));
  }
  static vd bcast_cd(const cd& z) {
    return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(&z));
  }
};

}  // namespace

const KernelTable* avx2_table_impl() {
  static const KernelTable t = body::make_table<Avx2>();
  return &t;
}

}  // namespace ncar::simd

#else

namespace ncar::simd {
const KernelTable* avx2_table_impl() { return nullptr; }
}  // namespace ncar::simd

#endif
