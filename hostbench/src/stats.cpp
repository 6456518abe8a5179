#include "stats.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace hostbench {

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

namespace {

std::size_t rank_of(int pct, std::size_t n) {
  // Integer ceil(pct * n / 100): no floating-point rounding at exact ranks.
  return (static_cast<std::size_t>(pct) * n + 99) / 100;
}

}  // namespace

std::size_t samples_needed(int pct, std::size_t min_beyond) {
  if (pct < 1 || pct > 99) throw std::invalid_argument("percentile out of range");
  std::size_t n = 1;
  while (n - rank_of(pct, n) < min_beyond) ++n;
  return n;
}

double nearest_rank(std::vector<double> samples, int pct,
                    std::size_t min_beyond) {
  if (pct < 1 || pct > 99) throw std::invalid_argument("percentile out of range");
  const std::size_t n = samples.size();
  const std::size_t rank = rank_of(pct, n);
  if (n == 0 || n - rank < min_beyond) {
    throw std::invalid_argument(
        "p" + std::to_string(pct) + " needs " +
        std::to_string(samples_needed(pct, min_beyond)) + " samples (" +
        std::to_string(min_beyond) + " beyond it), got " + std::to_string(n));
  }
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  if (n % 2 == 1) return *mid;
  const double hi = *mid;
  const double lo = *std::max_element(samples.begin(), mid);
  return 0.5 * (lo + hi);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace hostbench
