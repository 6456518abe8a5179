#pragma once
// Host speed probe: fixed kernels that belong to the benchmark, not to the
// library, so no change to the simulator moves them.
//
// The shared host this benchmark runs on changes speed for seconds to
// minutes at a time (cache and memory contention from other tenants,
// clock changes), and every host time moves with it: the same code read
// ~114 ms per model_steps iteration in one run and ~147 ms in the next.
// The harness runs the probe between timed iterations and scales each
// iteration's time by kReferenceMs over the probe's time around it, so
// the end-to-end figures read as if the host ran at its reference speed.
//
// The probe is two kernels of about equal time, one per kind of work the
// workloads do: a 7-point stencil over a MOM-sized level set (the model
// numerics) and lookups in an open-addressing hash table (the cost
// model's cached, branchy work). Of the kernels tried (integer multiply
// chains, an L2-sized 1-D stencil, a DRAM-sized triad, each alone) the
// pair tracked both workloads best: over five runs each it cut the spread
// of iter_ms_p50 from 0.036 to 0.011 (model_steps) and from 0.093 to
// 0.040 (charge_replay_stream).

#include <cstdint>
#include <vector>

namespace hostbench {

class SpeedProbe {
public:
  /// The probe's time at the reference speed, in ms: about its median on
  /// a 4-vCPU Intel Xeon VM (2.1 GHz nominal), GCC 12.2, Release build.
  static constexpr double kReferenceMs = 6.0;

  SpeedProbe();
  /// Runs both kernels once and returns their wall time in ms.
  double run_ms();
  /// kReferenceMs / probe time: above 1 when the host runs slow.
  static double scale(double probe_ms) { return kReferenceMs / probe_ms; }

private:
  void stencil();
  void lookups();

  std::vector<double> a_, b_;
  std::vector<std::uint64_t> keys_, values_;
  double checksum_ = 0;
};

/// Each of `times` scaled to the reference speed by the mean of the probe
/// times taken just before and just after it: `probes_ms` holds one probe
/// before the first time and one after every time.
std::vector<double> at_reference_speed(const std::vector<double>& times,
                                       const std::vector<double>& probes_ms);

}  // namespace hostbench
