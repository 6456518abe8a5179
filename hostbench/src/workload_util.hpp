#pragma once
// Helpers the workloads share: the seeded input generator and the reader
// for the committed bench baselines the output checks compare against.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace hostbench {

/// SplitMix64: the benchmark's own input generator. The seed reaches the
/// library only through the inputs drawn from it.
class InputRng {
public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [-1, 1).
  double symmetric() {
    return static_cast<double>(next() >> 11) * 0x1.0p-52 - 1.0;
  }
  /// Uniform index in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

private:
  std::uint64_t state_;
};

/// Bitwise equality: the checks demand bit-identical simulated values.
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

inline bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// The value of `metric` in `<dir>/<bench>.json`, a committed baseline.
/// Throws std::runtime_error when the file or the metric is missing.
double committed_metric(const std::string& dir, const std::string& bench,
                        const std::string& metric);

}  // namespace hostbench
