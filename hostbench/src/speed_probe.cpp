#include "speed_probe.hpp"

#include <stdexcept>
#include <utility>

#include "spans.hpp"

namespace hostbench {
namespace {

constexpr int kN = 96;       ///< stencil points per horizontal edge
constexpr int kLevels = 45;  ///< MOM's level count
constexpr int kSweeps = 6;
constexpr std::size_t kSlots = std::size_t{1} << 19;  ///< 8 MB of keys and values
constexpr int kKeys = 1 << 18;                        ///< half the slots filled
constexpr int kLookups = 100000;                      ///< half hit, half miss

std::size_t at(int i, int j, int k) {
  return (static_cast<std::size_t>(k) * kN + static_cast<std::size_t>(j)) * kN +
         static_cast<std::size_t>(i);
}

/// xorshift64: the same key sequence on every host.
std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

constexpr std::uint64_t kKeySeed = 88172645463325252ull;

}  // namespace

SpeedProbe::SpeedProbe()
    : a_(static_cast<std::size_t>(kN) * kN * kLevels), keys_(kSlots, 0), values_(kSlots, 0) {
  for (std::size_t i = 0; i < a_.size(); ++i) a_[i] = 1.0 + 1e-6 * static_cast<double>(i % 97);
  b_ = a_;  // both buffers share the fixed boundary, so values stay near 1
  std::uint64_t x = kKeySeed;
  for (int i = 0; i < kKeys; ++i) {
    const std::uint64_t key = next(x) | 1;  // 0 marks an empty slot
    std::size_t s = key & (kSlots - 1);
    while (keys_[s] != 0) s = (s + 1) & (kSlots - 1);
    keys_[s] = key;
    values_[s] = key >> 3;
  }
}

void SpeedProbe::stencil() {
  constexpr std::size_t row = kN, plane = static_cast<std::size_t>(kN) * kN;
  for (int s = 0; s < kSweeps; ++s) {
    for (int k = 1; k < kLevels - 1; ++k) {
      for (int j = 1; j < kN - 1; ++j) {
        for (int i = 1; i < kN - 1; ++i) {
          const std::size_t c = at(i, j, k);
          b_[c] = (a_[c - 1] + a_[c + 1] + a_[c - row] + a_[c + row] +
                   a_[c - plane] + a_[c + plane]) * (1.0 / 6.0);
        }
      }
    }
    std::swap(a_, b_);
  }
  checksum_ += a_[at(kN / 2, kN / 2, kLevels / 2)];
}

void SpeedProbe::lookups() {
  std::uint64_t x = kKeySeed, sum = 0;
  for (int i = 0; i < kLookups; ++i) {
    // Even lookups replay the stored keys in order (hits); odd ones ask
    // for keys that were never stored (misses, mostly).
    const std::uint64_t key = (i % 2 == 0) ? (next(x) | 1) : ((x * 3) | 1);
    std::size_t s = key & (kSlots - 1);
    while (keys_[s] != 0 && keys_[s] != key) s = (s + 1) & (kSlots - 1);
    if (keys_[s] == key) sum += values_[s];
  }
  checksum_ += static_cast<double>(sum & 1023);
}

double SpeedProbe::run_ms() {
  const std::int64_t t0 = now_ns();
  stencil();
  lookups();
  return 1e-6 * static_cast<double>(now_ns() - t0);
}

std::vector<double> at_reference_speed(const std::vector<double>& times,
                                       const std::vector<double>& probes_ms) {
  if (probes_ms.size() != times.size() + 1) {
    throw std::invalid_argument("at_reference_speed needs one probe more than times");
  }
  std::vector<double> out(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    out[i] = times[i] * SpeedProbe::scale(0.5 * (probes_ms[i] + probes_ms[i + 1]));
  }
  return out;
}

}  // namespace hostbench
