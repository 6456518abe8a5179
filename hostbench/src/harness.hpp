#pragma once
// The run loop shared by every workload: the live set-up, timed iterations
// until the run length and the p90 sample floor are both met, each between
// two runs of the host speed probe (speed_probe.hpp), untimed output
// checks, more set-up samples once the live instance is gone, and the
// end-to-end and per-layer metrics.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace ncar {
class ThreadPool;
}

namespace hostbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 15;
  bool trace = false;
  int threads = 2;
  std::string out_dir = ".hostbench";
  std::string baselines_dir = "bench/baselines";
  /// Set-up samples per run (the live set-up and fresh instances built
  /// after the timed iterations); setup_s is their median.
  int setup_reps = 10;
  /// Samples a reported percentile needs beyond it; an untraced run holds
  /// at least samples_needed(90, min_beyond) iterations.
  std::size_t min_beyond = 10;
};

/// What one timed iteration did.
struct IterationResult {
  double work = 0;            ///< model steps, replays, points or events
  double artifact_bytes = 0;  ///< .sxt or report bytes produced
};

/// One workload. setup() builds everything the iterations need and is
/// timed; prepare() computes check references untimed; iterate() is the
/// timed unit; check() verifies the iteration just run, untimed.
class Workload {
public:
  virtual ~Workload() = default;
  virtual void setup(SpanRecorder& spans) = 0;
  virtual void prepare() {}
  virtual IterationResult iterate(SpanRecorder& spans) = 0;
  virtual bool check(SpanRecorder& spans) = 0;
  /// Run-level checks after the loop; may mark earlier iterations failed.
  virtual void finish(std::vector<bool>& verdicts) { (void)verdicts; }
  /// Per-layer metrics from the traced iterations' spans and counters.
  virtual void layer_metrics(const SpanRecorder& spans,
                             std::vector<Metric>& out) const = 0;
  /// Trace mode the workload runs the library in ("off" or "stream").
  virtual const char* trace_mode() const { return "off"; }
};

struct WorkloadInfo {
  const char* name;
  const char* work_unit;
  std::unique_ptr<Workload> (*make)(const RunConfig&, ncar::ThreadPool&);
};

const std::vector<WorkloadInfo>& workloads();
const WorkloadInfo* find_workload(const std::string& name);

/// The eight end-to-end metrics every workload reports, in print order.
const std::vector<Metric>& end_to_end_catalog();
/// Every per-layer metric any workload reports; a traced run emits all of
/// them, with 0 for layers its workload does not call.
const std::vector<Metric>& per_layer_catalog();

struct RunResult {
  RunConfig config;
  std::string simd_backend;
  std::string trace_mode;
  int nproc = 0;
  std::size_t iterations = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// The iteration times (percentiles, work_per_s, cpu_ms_per_iter) are at
  /// the reference host speed: each is scaled by the speed probe run around
  /// it (speed_probe.hpp). setup_s is wall time.
  std::vector<Metric> end_to_end;
  /// The wall-clock iteration figures the end-to-end ones are scaled from,
  /// and the probe's own median time against its reference.
  std::vector<Metric> wall;
  std::vector<Metric> per_layer;
};

RunResult run_workload(const RunConfig& cfg);

/// Host processors available to this process (sched affinity).
int host_nproc();
std::string compiler_id();
std::string build_type();

/// End-to-end metrics on the contract's last line: all but fail_frac
/// (carried as failed/attempted) and artifact_bytes_per_iter (0 on two
/// workloads, so it is reported per layer instead).
const std::vector<std::string>& contract_end_to_end();

/// The contract's last line: {"correct","attempted","failed","metrics"}.
/// Untraced runs carry contract_end_to_end(), traced runs every per-layer
/// metric.
std::string contract_line(const RunResult& r);
/// The full record (configuration and all metrics) for compare mode.
std::string record_json(const RunResult& r);

/// Value of `name` in the metric list; throws std::out_of_range if absent.
double metric_value(const std::vector<Metric>& ms, const std::string& name);

}  // namespace hostbench
