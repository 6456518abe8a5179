#pragma once
// Real-to-complex FFT on top of the mixed-radix complex transform.
//
// FFTPACK's RFFTF/RFFTB pair: forward takes n reals to the n/2+1
// non-redundant spectrum bins; backward reconstructs the reals (normalised
// here, unlike raw FFTPACK, so forward-then-inverse is the identity).
//
// Each transform keeps 2n complex values of workspace in local vectors.
// (CCM2's spectral transform uses fft::Plan's allocation-free
// multi-instance transforms instead.)

#include <complex>
#include <span>

#include "fft/complex_fft.hpp"

namespace ncar::fft {

/// Number of non-redundant spectrum bins for a length-n real transform.
inline long spectrum_size(long n) { return n / 2 + 1; }

/// Forward real transform: out[k] = sum_j in[j] exp(-2 pi i jk/n),
/// k = 0 .. n/2. `out` must have spectrum_size(n) entries.
void real_forward(const Plan& plan, std::span<const double> in,
                  std::span<cd> out);

/// Inverse of real_forward (normalised): recovers the original reals.
void real_inverse(const Plan& plan, std::span<const cd> in,
                  std::span<double> out);

}  // namespace ncar::fft
