#pragma once
// Mixed-radix (2/3/5) complex FFT, FFTPACK-style.
//
// The RFFT/VFFT benchmarks (paper section 4.3) use Swarztrauber's FFTPACK,
// whose transforms support lengths with factors 2, 3, and 5 — exactly the
// three length families the paper sweeps (2^n, 3*2^n, 5*2^n). This is a
// from-scratch decimation-in-time implementation with hard-coded radix
// 2/3/5 combine kernels, recursive over the factorisation. The same
// recursion also runs kLaneBlock independent sequences at once through the
// lane kernels (forward_lanes / inverse_lanes), which is how CCM2's
// spectral transform does its longitude FFTs.

#include <complex>
#include <span>
#include <vector>

#include "simd/simd.hpp"

namespace ncar::fft {

using cd = std::complex<double>;

/// A transform plan for a fixed length n (factors 2, 3, 5 only).
///
/// The plan precomputes the twiddle factors of every combine stage at
/// construction (forward and inverse signs), so the transforms themselves
/// never call libm and never allocate — the combine passes run through the
/// runtime-dispatched SIMD kernel table (src/simd/).
class Plan {
public:
  explicit Plan(long n);

  long size() const { return n_; }
  /// The factorisation used, smallest factors first (e.g. 12 -> {2,2,3}).
  const std::vector<int>& factors() const { return factors_; }

  /// Out-of-place forward DFT: out[k] = sum_j in[j] exp(-2 pi i jk / n).
  void forward(std::span<const cd> in, std::span<cd> out) const;

  /// Out-of-place unnormalised inverse DFT (forward then inverse gives n*x).
  void inverse(std::span<const cd> in, std::span<cd> out) const;

  /// Doubles per lane point of the multi-instance transforms: the real
  /// parts of kLaneBlock sequences, then their imaginary parts.
  static constexpr long kLanePoint = 2 * simd::kLaneBlock;

  /// Multi-instance forward DFT (the VFFT form): kLaneBlock sequences at
  /// once, one per vector lane, each combine broadcasting the twiddles the
  /// one-sequence transform uses. `in` and `out` hold n lane points. Every
  /// lane gets exactly the bits forward() gives that sequence alone.
  void forward_lanes(std::span<const double> in, std::span<double> out) const;

  /// Multi-instance inverse(), with the same layout and the same guarantee.
  void inverse_lanes(std::span<const double> in, std::span<double> out) const;

  /// True when n factors completely into 2, 3, and 5.
  static bool supported(long n);

private:
  /// One combine pass: n = f * m values merged from f sub-transforms of
  /// size m, with twiddles at tw_offset (laid out tw[j*m + k]).
  struct Stage {
    long n;
    int f;
    long m;
    std::size_t tw_offset;
  };

  void rec(const cd* in, long in_stride, cd* out, long n, bool inv,
           std::size_t depth) const;
  void rec_lanes(const simd::KernelTable& kt, const double* in,
                 long in_stride, double* out, bool inv,
                 std::size_t depth) const;
  void transform_lanes(std::span<const double> in, std::span<double> out,
                       bool inv) const;

  long n_;
  std::vector<int> factors_;
  std::vector<Stage> stages_;  // depth 0 = the full-length combine
  std::vector<cd> tw_fwd_;
  std::vector<cd> tw_inv_;
};

/// Reference O(n^2) DFT for verification.
void naive_dft(std::span<const cd> in, std::span<cd> out, bool inverse);

}  // namespace ncar::fft
