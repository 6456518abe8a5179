#pragma once
// Small statistics and naming helpers shared by the workloads and tests.

#include <cstddef>
#include <string_view>
#include <vector>

namespace hostbench {

/// Metric names follow the benchmark contract: 1 to 64 characters from
/// [A-Za-z0-9_.-], starting with a letter or a digit.
bool valid_metric_name(std::string_view name);

/// Nearest-rank percentile `pct` (1..99) of `samples`: the sample at rank
/// ceil(pct * n / 100) in ascending order. A percentile is reported only
/// when at least `min_beyond` samples lie above that rank; otherwise
/// std::invalid_argument is thrown, naming the sample count it would need.
double nearest_rank(std::vector<double> samples, int pct,
                    std::size_t min_beyond = 10);

/// Smallest sample count for which nearest_rank(pct, min_beyond) is defined.
std::size_t samples_needed(int pct, std::size_t min_beyond = 10);

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> samples);

double mean(const std::vector<double>& samples);

}  // namespace hostbench
