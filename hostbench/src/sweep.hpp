#pragma once
// A seeded RADABS design sweep: machines::run_sweep over a grid of fresh,
// cold machines on the benchmark's pool, then SweepReport::to_json(). The
// design_sweep workload runs the full 1200-point grid each iteration;
// charge_replay_stream runs a small grid each iteration, so that the
// machines layer is also measured on a workload whose figures hold steady
// on a shared host. The small grid's axis values moved the iteration's
// time by ~10% (the replays after the sweep run slower after some grids),
// so charge_replay_stream draws several grids and cycles through them:
// the seed still picks them, but a run's time no longer rests on one
// draw.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "machines/sweep.hpp"
#include "spans.hpp"
#include "workload_util.hpp"

namespace hostbench {

/// Values drawn per axis, in the order pipes_per_group, vector_length,
/// port_bytes_per_clock, memory_banks, clock_ns.
using AxisPicks = std::array<std::size_t, 5>;
constexpr AxisPicks kFullGrid = {6, 5, 5, 4, 2};   ///< 1200 points
constexpr AxisPicks kSmallGrid = {2, 2, 2, 4, 1};  ///< 32 points

class SweepRunner {
public:
  /// `grids` grids of `picks` values each, drawn from `seed`; one sweep
  /// runs one grid, the next sweep the next.
  SweepRunner(std::uint64_t seed, const AxisPicks& picks, std::size_t grids,
              ncar::ThreadPool& pool);

  /// Build the grids and record the RADABS probe (a machines.record_probe span).
  void setup(SpanRecorder& spans);
  /// One sweep of the current grid on the pool and its JSON report;
  /// returns the report's bytes.
  std::size_t run(SpanRecorder& spans);
  /// A seeded sample of points replayed one at a time equals the report,
  /// and the report is byte-identical to every earlier one of the same
  /// grid. When traced, the probe is recorded again and the sweep repeated
  /// on the calling thread. Then moves on to the next grid.
  bool check(SpanRecorder& spans);
  /// machines.* metrics from the traced spans; `threads` is the pool's size.
  void layer_metrics(const SpanRecorder& spans, int threads, std::vector<Metric>& out) const;

  std::size_t points() const;
  const ncar::machines::SweepReport& report() const { return report_; }

private:
  std::uint64_t seed_;
  AxisPicks picks_;
  ncar::ThreadPool& pool_;
  InputRng check_rng_;
  std::vector<std::unique_ptr<ncar::machines::Grid>> grids_;
  std::size_t current_ = 0;  ///< the grid the next run sweeps
  ncar::machines::Probe probe_;
  ncar::machines::SweepReport report_;
  std::string json_;
  std::vector<std::string> first_jsons_;  ///< per grid, its first report
};

}  // namespace hostbench
