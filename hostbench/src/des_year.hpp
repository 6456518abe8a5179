#pragma once
// One simulated year after another of the synthetic NQS production mix of
// bench/prodload_year.cpp on the SX-4/32 node LP: the DES calendar and
// RNG plus the prodload logical processes, no sxs and no numerics.
//
// The year is cut into equal slices of simulated time; the caller runs one
// slice per iteration (and times it), then checks it. Each year draws its
// Simulation seed from the runner's seed. A year must cover its horizon
// and drain, and a repeated seed must reproduce the first year slice by
// slice.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "spans.hpp"
#include "workload_util.hpp"

namespace hostbench {

struct Year;

class YearRunner {
public:
  /// `slices` per simulated year; `spans` receives the prodload spans.
  YearRunner(std::uint64_t seed, int slices, SpanRecorder& spans);
  ~YearRunner();
  YearRunner(const YearRunner&) = delete;
  YearRunner& operator=(const YearRunner&) = delete;

  /// Run the next slice inside a "des.run" span; returns its events.
  std::uint64_t run_slice(SpanRecorder& spans);
  /// Check the slice just run; after a year's last slice, check the year
  /// and start the next one.
  bool check_slice();
  /// Complete the year the deadline cut and repeat the first year; mark
  /// the slices of failed years in `verdicts` (one entry per slice).
  void finish(std::vector<bool>& verdicts);
  /// des.* and prodload.* metrics, per slice, from the traced slices.
  void layer_metrics(const SpanRecorder& spans, std::vector<Metric>& out) const;

  static constexpr std::size_t kStreamCount = 5;

private:
  struct SliceCounts {
    std::uint64_t events = 0, scheduled = 0, cancelled = 0;
    std::array<std::uint64_t, kStreamCount> draws{};
  };
  static SliceCounts counts(Year& year);
  void start_year();
  void end_year();

  InputRng seeds_;
  int slices_;
  SpanRecorder& spans_;
  std::unique_ptr<Year> year_;
  int slice_ = 0;
  std::vector<std::uint64_t> year_seeds_;
  std::vector<std::vector<SliceCounts>> done_;  ///< per year, per slice
  std::vector<SliceCounts> traced_;
  std::vector<std::size_t> failed_years_;
  std::size_t peak_depth_ = 0;
  std::uint64_t max_backlog_ = 0;
};

}  // namespace hostbench
