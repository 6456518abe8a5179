#include "simd/scalar_kernels.hpp"
#include "simd/simd.hpp"

namespace ncar::simd {

const KernelTable& scalar_table() {
  static const KernelTable t = {
      scalar_ref::copy_d,        scalar_ref::gather_d,
      scalar_ref::strided_copy_d, scalar_ref::add_d,
      scalar_ref::scale2_d,      scalar_ref::radabs_pair_d,
      scalar_ref::mom_row_d,     scalar_ref::mix_unstable_d,
      scalar_ref::pop_eta_d,     scalar_ref::pop_momentum_d,
      scalar_ref::pop_tracer_d,  scalar_ref::fft_combine2,
      scalar_ref::fft_combine3,  scalar_ref::fft_combine5,
      scalar_ref::lane_dot_cd_r, scalar_ref::lane_dot2_cd_r,
      scalar_ref::lane_axpy_cd_r, scalar_ref::lane_fft_combine2,
      scalar_ref::lane_fft_combine3, scalar_ref::lane_fft_combine5,
  };
  return t;
}

}  // namespace ncar::simd
