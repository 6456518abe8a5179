// AVX-512F backend: 8 doubles / 4 complexes per vector. Built with
// -mavx512f and -ffp-contract=off (crucial: -mavx512f implies FMA
// availability and gnu++20 defaults to contract=fast — contraction would
// break the bit-identity contract). Compiles to a null table when the
// toolchain or target cannot provide the ISA.

#include "simd/simd.hpp"

#if defined(NCAR_SIMD_AVX512) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "simd/kernels_body.hpp"

namespace ncar::simd {
namespace {

// Every all-lanes operation whose gcc 12 intrinsic feeds
// _mm512_undefined_pd() into its builtin (sqrt, gather, permute, insert) is
// spelled as its zero- or merge-masked form with mask 0xFF: the same
// instruction and the same bits, without the -Wmaybe-uninitialized warnings
// the undefined vector causes once inlined.
struct Avx512 {
  using vd = __m512d;
  static constexpr long kLanes = 8;

  static vd load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, vd v) { _mm512_storeu_pd(p, v); }
  static vd set1(double x) { return _mm512_set1_pd(x); }
  static vd add(vd a, vd b) { return _mm512_add_pd(a, b); }
  static vd sub(vd a, vd b) { return _mm512_sub_pd(a, b); }
  static vd mul(vd a, vd b) { return _mm512_mul_pd(a, b); }
  static vd div(vd a, vd b) { return _mm512_div_pd(a, b); }
  static vd vsqrt(vd a) { return _mm512_maskz_sqrt_pd(0xFF, a); }

  static vd select_nonzero(vd mask, vd a, vd b) {
    const __mmask8 m =
        _mm512_cmp_pd_mask(mask, _mm512_setzero_pd(), _CMP_NEQ_UQ);
    return _mm512_mask_blend_pd(m, b, a);
  }
  static vd select_gt(vd x, vd y, vd a, vd b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, y, _CMP_GT_OQ), b, a);
  }

  static vd gather(const double* base, const long* idx) {
    const __m512i vi =
        _mm512_loadu_si512(reinterpret_cast<const void*>(idx));
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, vi, base, 8);
  }
  static vd stride_gather(const double* base, long stride) {
    const __m512i vi = _mm512_set_epi64(7 * stride, 6 * stride, 5 * stride,
                                        4 * stride, 3 * stride, 2 * stride,
                                        stride, 0);
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, vi, base, 8);
  }

  static vd cmul(vd a, vd b) {
    const vd br = _mm512_maskz_permute_pd(0xFF, b, 0x00);
    const vd bi = _mm512_maskz_permute_pd(0xFF, b, 0xFF);
    const vd as = _mm512_maskz_permute_pd(0xFF, a, 0x55);
    const vd t1 = _mm512_mul_pd(a, br);
    const vd t2 = _mm512_mul_pd(as, bi);
    // addsub: even lanes t1-t2, odd lanes t1+t2 (mask 0x55 = even lanes).
    return _mm512_mask_sub_pd(_mm512_add_pd(t1, t2), 0x55, t1, t2);
  }
  static vd dup_real_lane(const double* p) {
    // (p0,p0,p8,p8,p16,p16,p24,p24)
    const __m256d lo = _mm256_set_m128d(_mm_loaddup_pd(p + kLaneBlock),
                                        _mm_loaddup_pd(p));
    const __m256d hi = _mm256_set_m128d(_mm_loaddup_pd(p + 3 * kLaneBlock),
                                        _mm_loaddup_pd(p + 2 * kLaneBlock));
    return _mm512_maskz_insertf64x4(0xFF, _mm512_castpd256_pd512(lo), hi, 1);
  }
  static vd bcast_cd(const cd& z) {
    // Broadcast one (re, im) pair to all four complex slots without
    // AVX512DQ's broadcast_f64x2.
    const __m512d lo =
        _mm512_castpd128_pd512(_mm_loadu_pd(reinterpret_cast<const double*>(&z)));
    const __m512i pick = _mm512_set_epi64(1, 0, 1, 0, 1, 0, 1, 0);
    return _mm512_maskz_permutexvar_pd(0xFF, pick, lo);
  }
};

}  // namespace

const KernelTable* avx512_table_impl() {
  static const KernelTable t = body::make_table<Avx512>();
  return &t;
}

}  // namespace ncar::simd

#else

namespace ncar::simd {
const KernelTable* avx512_table_impl() { return nullptr; }
}  // namespace ncar::simd

#endif
