#include "fft/real_fft.hpp"

#include <vector>

#include "common/error.hpp"

namespace ncar::fft {

void real_forward(const Plan& plan, std::span<const double> in,
                  std::span<cd> out) {
  const long n = plan.size();
  NCAR_REQUIRE(static_cast<long>(in.size()) == n, "input length");
  NCAR_REQUIRE(static_cast<long>(out.size()) == spectrum_size(n),
               "output length");
  std::vector<cd> buf(static_cast<std::size_t>(n));
  std::vector<cd> full(static_cast<std::size_t>(n));
  for (long j = 0; j < n; ++j) {
    buf[static_cast<std::size_t>(j)] = cd(in[static_cast<std::size_t>(j)], 0.0);
  }
  plan.forward(buf, full);
  for (long k = 0; k < spectrum_size(n); ++k) {
    out[static_cast<std::size_t>(k)] = full[static_cast<std::size_t>(k)];
  }
}

void real_inverse(const Plan& plan, std::span<const cd> in,
                  std::span<double> out) {
  const long n = plan.size();
  NCAR_REQUIRE(static_cast<long>(in.size()) == spectrum_size(n),
               "input length");
  NCAR_REQUIRE(static_cast<long>(out.size()) == n, "output length");
  std::vector<cd> full(static_cast<std::size_t>(n));
  std::vector<cd> time_domain(static_cast<std::size_t>(n));
  // Rebuild the full Hermitian spectrum, inverse-transform, normalise.
  for (long k = 0; k < spectrum_size(n); ++k) {
    full[static_cast<std::size_t>(k)] = in[static_cast<std::size_t>(k)];
  }
  for (long k = spectrum_size(n); k < n; ++k) {
    full[static_cast<std::size_t>(k)] =
        std::conj(in[static_cast<std::size_t>(n - k)]);
  }
  plan.inverse(full, time_domain);
  const double scale = 1.0 / static_cast<double>(n);
  for (long j = 0; j < n; ++j) {
    out[static_cast<std::size_t>(j)] =
        time_domain[static_cast<std::size_t>(j)].real() * scale;
  }
}

}  // namespace ncar::fft
