#include "fft/complex_fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "simd/simd.hpp"

namespace ncar::fft {

namespace {

std::vector<int> factorize(long n) {
  std::vector<int> fs;
  for (int f : {2, 3, 5}) {
    while (n % f == 0) {
      fs.push_back(f);
      n /= f;
    }
  }
  NCAR_REQUIRE(n == 1, "length must factor into 2, 3, and 5");
  return fs;
}

constexpr double kTau = 2.0 * std::numbers::pi;

}  // namespace

Plan::Plan(long n) : n_(n) {
  NCAR_REQUIRE(n >= 1, "transform length must be positive");
  factors_ = factorize(n);
  // The radix chosen at each level is a pure function of the sub-transform
  // size, and every leg at a given depth has the same size — so the stage
  // list (and its twiddle tables) is one chain from n down to 1, indexed by
  // recursion depth.
  std::size_t total = 0;
  for (long sz = n_; sz > 1;) {
    int f = 2;
    if (sz % 2 != 0) f = (sz % 3 == 0) ? 3 : 5;
    const long m = sz / f;
    stages_.push_back(Stage{sz, f, m, total});
    total += static_cast<std::size_t>(sz);
    sz = m;
  }
  tw_fwd_.resize(total);
  tw_inv_.resize(total);
  for (const Stage& st : stages_) {
    for (int j = 0; j < st.f; ++j) {
      for (long k = 0; k < st.m; ++k) {
        // Exactly the angle expression the combine loop used to evaluate
        // inline, per sign, so the tables reproduce its twiddles bit for
        // bit (including the signed zeros at j*k == 0).
        const std::size_t at = st.tw_offset +
                               static_cast<std::size_t>(j) *
                                   static_cast<std::size_t>(st.m) +
                               static_cast<std::size_t>(k);
        const double fwd = -1.0 * kTau * static_cast<double>(j * k) /
                           static_cast<double>(st.n);
        const double inv = 1.0 * kTau * static_cast<double>(j * k) /
                           static_cast<double>(st.n);
        tw_fwd_[at] = cd(std::cos(fwd), std::sin(fwd));
        tw_inv_[at] = cd(std::cos(inv), std::sin(inv));
      }
    }
  }
}

bool Plan::supported(long n) {
  if (n < 1) return false;
  for (int f : {2, 3, 5}) {
    while (n % f == 0) n /= f;
  }
  return n == 1;
}

void Plan::rec(const cd* in, long in_stride, cd* out, long n, bool inv,
               std::size_t depth) const {
  if (n == 1) {
    out[0] = in[0];
    return;
  }
  const Stage& st = stages_[depth];
  const int f = st.f;
  const long m = st.m;
  for (int j = 0; j < f; ++j) {
    rec(in + static_cast<long>(j) * in_stride, in_stride * f,
        out + static_cast<long>(j) * m, m, inv, depth + 1);
  }
  const cd* tw = (inv ? tw_inv_ : tw_fwd_).data() + st.tw_offset;
  const double sign = inv ? 1.0 : -1.0;
  const simd::KernelTable& kt = simd::table();
  switch (f) {
    case 2:
      kt.fft_combine2(out, m, tw);
      break;
    case 3:
      kt.fft_combine3(out, m, tw, sign);
      break;
    default:
      kt.fft_combine5(out, m, tw, sign);
      break;
  }
}

void Plan::forward(std::span<const cd> in, std::span<cd> out) const {
  NCAR_REQUIRE(static_cast<long>(in.size()) == n_ &&
                   static_cast<long>(out.size()) == n_,
               "buffer sizes must equal the plan length");
  rec(in.data(), 1, out.data(), n_, false, 0);
}

void Plan::inverse(std::span<const cd> in, std::span<cd> out) const {
  NCAR_REQUIRE(static_cast<long>(in.size()) == n_ &&
                   static_cast<long>(out.size()) == n_,
               "buffer sizes must equal the plan length");
  rec(in.data(), 1, out.data(), n_, true, 0);
}

void Plan::rec_lanes(const simd::KernelTable& kt, const double* in,
                     long in_stride, double* out, bool inv,
                     std::size_t depth) const {
  const Stage& st = stages_[depth];
  const int f = st.f;
  const long m = st.m;
  for (int j = 0; j < f; ++j) {
    const double* leg = in + static_cast<long>(j) * in_stride * kLanePoint;
    double* dst = out + static_cast<long>(j) * m * kLanePoint;
    if (m == 1) {
      std::copy(leg, leg + kLanePoint, dst);
    } else {
      rec_lanes(kt, leg, in_stride * f, dst, inv, depth + 1);
    }
  }
  const cd* tw = (inv ? tw_inv_ : tw_fwd_).data() + st.tw_offset;
  const double sign = inv ? 1.0 : -1.0;
  switch (f) {
    case 2:
      kt.lane_fft_combine2(out, m, tw);
      break;
    case 3:
      kt.lane_fft_combine3(out, m, tw, sign);
      break;
    default:
      kt.lane_fft_combine5(out, m, tw, sign);
      break;
  }
}

void Plan::transform_lanes(std::span<const double> in, std::span<double> out,
                           bool inv) const {
  NCAR_REQUIRE(static_cast<long>(in.size()) == n_ * kLanePoint &&
                   static_cast<long>(out.size()) == n_ * kLanePoint,
               "buffer sizes must equal the plan length in lane points");
  if (n_ == 1) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  rec_lanes(simd::table(), in.data(), 1, out.data(), inv, 0);
}

void Plan::forward_lanes(std::span<const double> in,
                         std::span<double> out) const {
  transform_lanes(in, out, false);
}

void Plan::inverse_lanes(std::span<const double> in,
                         std::span<double> out) const {
  transform_lanes(in, out, true);
}

void naive_dft(std::span<const cd> in, std::span<cd> out, bool inverse) {
  NCAR_REQUIRE(in.size() == out.size(), "buffer size mismatch");
  const long n = static_cast<long>(in.size());
  const double sign = inverse ? 1.0 : -1.0;
  for (long k = 0; k < n; ++k) {
    cd acc = 0;
    for (long j = 0; j < n; ++j) {
      const double ang = sign * kTau * static_cast<double>(j * k) /
                         static_cast<double>(n);
      acc += in[static_cast<std::size_t>(j)] * cd(std::cos(ang), std::sin(ang));
    }
    out[static_cast<std::size_t>(k)] = acc;
  }
}

}  // namespace ncar::fft
