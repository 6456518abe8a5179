// design_sweep: the cost model on many fresh, cold machines. Each iteration
// runs machines::run_sweep over a 1200-point RADABS grid (6x5x5x4x2 axes)
// on the benchmark's pool and serializes the report. The seed picks each
// axis's values from a candidate list of fixed size. SweepRunner
// (sweep.hpp) is shared with charge_replay_stream, which runs a small grid.

#include <algorithm>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "harness.hpp"
#include "machines/description.hpp"
#include "machines/sweep.hpp"
#include "sweep.hpp"
#include "workload_util.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using ncar::machines::Axis;
using ncar::machines::Grid;

/// Every candidate vector length is a multiple of every candidate pipe
/// count, so every point of every seed's grid lowers to a valid machine.
/// The bank count is not drawn (every grid takes all four): replay cost
/// grows with it (the memory model is built per point), so drawing it
/// would let the seed change the amount of work. The other axes cost the
/// same whatever their values.
struct AxisCandidates {
  const char* key;
  std::vector<double> candidates;
};

const std::array<AxisCandidates, 5>& axis_candidates() {
  static const std::array<AxisCandidates, 5> axes = {{
      {"pipes_per_group", {1, 2, 4, 8, 16, 32, 64}},
      {"vector_length", {64, 128, 256, 512, 1024, 2048}},
      {"port_bytes_per_clock", {8, 16, 32, 64, 128, 256, 512}},
      {"memory_banks", {256, 512, 1024, 2048}},
      {"clock_ns", {10, 9.2, 8, 7}},
  }};
  return axes;
}

constexpr const char* kBase = "NEC SX-4/1";
constexpr const char* kKernel = "radabs";
constexpr std::size_t kCheckedPoints = 8;  ///< replayed one at a time per iteration

class DesignSweep final : public Workload {
public:
  DesignSweep(const RunConfig& cfg, ncar::ThreadPool& pool)
      : cfg_(cfg), sweep_(cfg.seed, kFullGrid, 1, pool) {}

  void setup(SpanRecorder& spans) override { sweep_.setup(spans); }

  IterationResult iterate(SpanRecorder& spans) override {
    const std::size_t bytes = sweep_.run(spans);
    return {static_cast<double>(sweep_.points()), static_cast<double>(bytes)};
  }

  bool check(SpanRecorder& spans) override { return sweep_.check(spans); }

  void layer_metrics(const SpanRecorder& spans,
                     std::vector<Metric>& out) const override {
    const ncar::machines::SweepReport& report = sweep_.report();
    const double hits = static_cast<double>(report.cache_hits);
    const double lookups = hits + static_cast<double>(report.cache_misses);
    out.push_back({"sxs.cost_cache.hits", hits, "", ""});
    out.push_back({"sxs.cost_cache.lookups", lookups, "", ""});
    out.push_back({"sxs.cost_cache.hit_rate", lookups > 0 ? hits / lookups : 0.0, "", ""});
    sweep_.layer_metrics(spans, cfg_.threads, out);
  }

private:
  RunConfig cfg_;
  SweepRunner sweep_;
};

}  // namespace

SweepRunner::SweepRunner(std::uint64_t seed, const AxisPicks& picks, std::size_t grids,
                         ncar::ThreadPool& pool)
    : seed_(seed), picks_(picks), pool_(pool), check_rng_(seed ^ 0xc0ffee),
      grids_(grids), first_jsons_(grids) {}

std::size_t SweepRunner::points() const { return grids_[current_]->size(); }

void SweepRunner::setup(SpanRecorder& spans) {
  InputRng rng(seed_);
  for (auto& grid : grids_) {
    std::vector<Axis> axes;
    for (std::size_t a = 0; a < axis_candidates().size(); ++a) {
      std::vector<double> values = axis_candidates()[a].candidates;
      rng.shuffle(values);
      values.resize(picks_[a]);
      std::sort(values.begin(), values.end());
      axes.push_back({axis_candidates()[a].key, values});
    }
    grid = std::make_unique<Grid>(ncar::machines::builtin_catalog().at(kBase), axes);
  }
  Scope s(spans, "machines.record_probe");
  probe_ = ncar::machines::record_probe(kKernel);
}

std::size_t SweepRunner::run(SpanRecorder& spans) {
  ncar::machines::SweepOptions opts;
  opts.kernel = kKernel;
  opts.policy = ncar::sxs::ExecutionPolicy::Threaded;
  opts.pool = &pool_;
  {
    Scope s(spans, "machines.run_sweep");
    report_ = ncar::machines::run_sweep(*grids_[current_], opts);
  }
  Scope s(spans, "machines.to_json");
  json_ = report_.to_json();
  return json_.size();
}

bool SweepRunner::check(SpanRecorder& spans) {
  const Grid& grid = *grids_[current_];
  std::string& first_json = first_jsons_[current_];
  current_ = (current_ + 1) % grids_.size();
  bool ok = report_.points.size() == grid.size();
  // The report is deterministic: every sweep of a grid serializes the same bytes.
  if (first_json.empty()) first_json = json_;
  ok = ok && json_ == first_json;
  // A seeded sample of points, replayed one at a time, must equal the report.
  for (std::size_t k = 0; ok && k < kCheckedPoints; ++k) {
    const std::size_t i = check_rng_.below(grid.size());
    const ncar::machines::PointResult& p = report_.points[i];
    try {
      ncar::machines::Spec spec;
      {
        Scope s(spans, "machines.lower");
        spec = grid.config(i).lower();
      }
      Scope s(spans, "machines.replay");
      const auto replay = ncar::machines::replay_probe(probe_, spec);
      ok = p.valid && same_bits(replay.seconds, p.seconds);
    } catch (const ncar::config_error&) {
      ok = !p.valid;
    }
  }
  if (spans.enabled()) {
    {
      Scope s(spans, "machines.record_probe");
      ok = ok && ncar::machines::record_probe(kKernel).ops.size() == probe_.ops.size();
    }
    // The pool's payoff: the same sweep on the calling thread alone,
    // which must serialize to the same bytes.
    ncar::machines::SweepOptions seq;
    seq.kernel = kKernel;
    seq.policy = ncar::sxs::ExecutionPolicy::Sequential;
    Scope s(spans, "machines.sequential_sweep");
    ok = ok && ncar::machines::run_sweep(grid, seq).to_json() == first_json;
  }
  return ok;
}

void SweepRunner::layer_metrics(const SpanRecorder& spans, int threads,
                                std::vector<Metric>& out) const {
  const double points = static_cast<double>(report_.points.size());
  const double pooled = median(spans.busy_ms("machines.run_sweep"));
  const double sequential = median(spans.busy_ms("machines.sequential_sweep"));
  out.push_back({"machines.parallel_efficiency",
                 pooled > 0 ? sequential / (pooled * threads) : 0.0, "", ""});
  out.push_back({"machines.record_probe_ms", median(spans.busy_ms("machines.record_probe")), "", ""});
  out.push_back({"machines.run_sweep_ms", pooled, "", ""});
  out.push_back({"machines.sequential_sweep_ms", sequential, "", ""});
  out.push_back({"machines.lower_us_per_point", 1e3 * median(spans.busy_ms("machines.lower")), "", ""});
  out.push_back({"machines.replay_us_per_point", 1e3 * median(spans.busy_ms("machines.replay")), "", ""});
  out.push_back({"machines.to_json_ms", median(spans.busy_ms("machines.to_json")), "", ""});
  out.push_back({"machines.points", points, "", ""});
  out.push_back({"machines.valid_frac",
                 points > 0 ? static_cast<double>(report_.valid_count()) / points : 0.0, "", ""});
}

std::unique_ptr<Workload> make_design_sweep(const RunConfig& cfg,
                                            ncar::ThreadPool& pool) {
  return std::make_unique<DesignSweep>(cfg, pool);
}

}  // namespace hostbench
