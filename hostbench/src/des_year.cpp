#include "des_year.hpp"

#include <algorithm>
#include <unordered_map>

#include "des/simulation.hpp"
#include "des/workload.hpp"
#include "prodload/node_lp.hpp"
#include "prodload/queue_complex.hpp"
#include "sxs/machine_config.hpp"

namespace hostbench {
namespace {

constexpr double kYearSeconds = 365.0 * 86400.0;
constexpr std::array<const char*, YearRunner::kStreamCount> kStreams = {"jobmix", "service", "arrival",
                                                 "phase", "failure"};

/// The job mix of bench/prodload_year.cpp: CCM2-flavoured classes sized so
/// the node runs at roughly 55-60% average utilisation.
ncar::des::WorkloadConfig year_mix() {
  ncar::des::WorkloadConfig cfg;
  cfg.classes = {
      {"express", "express", 1, 240.0, 0.05, 1.5, 3600.0, 10},
      {"t42_dev", "regular", 2, 900.0, 0.10, 1.5, 43200.0, 0},
      {"t106_prod", "production", 8, 450.0, 0.10, 1.5, 43200.0, 0},
      {"t170_prod", "production", 16, 150.0, 0.10, 1.5, 21600.0, 5},
  };
  cfg.transition = {
      {0.45, 0.35, 0.12, 0.08},
      {0.40, 0.38, 0.14, 0.08},
      {0.35, 0.33, 0.20, 0.12},
      {0.35, 0.30, 0.15, 0.20},
  };
  return cfg;
}

}  // namespace

/// One simulated year: the calendar, the node LP, the NQS queue complex and
/// the workload generator, wired as bench/prodload_year.cpp wires them.
/// The sink and completion callbacks are where the benchmark times the
/// prodload layer and samples the calendar depth.
struct Year {
  Year(std::uint64_t seed, SpanRecorder& spans)
      : sim(seed),
        node(sim, machine().cpus_per_node, machine().bank_contention_per_cpu),
        nqs(sim, node, {{"express", 2, 4}, {"regular", 8, 8}, {"production", 16, 4}}),
        mix(year_mix()),
        gen(sim, mix, [this, &spans](const ncar::des::SyntheticJob& job) {
          const std::int64_t t0 = spans.enabled() ? now_ns() : 0;
          const auto& jc = mix.classes[static_cast<std::size_t>(job.job_class)];
          ncar::prodload::NqsJob nj;
          nj.name = jc.name;
          nj.cpus = jc.cpus;
          nj.service = job.service;
          nj.priority = jc.priority;
          nj.tag = job.id * 8 + static_cast<std::uint64_t>(job.attempt);
          in_flight.emplace(nj.tag, job);
          nqs.submit(jc.queue, std::move(nj));
          peak_depth = std::max(peak_depth, sim.calendar().size());
          if (spans.enabled()) spans.leaf("prodload.submit", t0, now_ns());
        }) {
    nqs.set_completion([this, &spans](const ncar::prodload::NqsJob& nj,
                                      ncar::Seconds, ncar::Seconds, ncar::Seconds) {
      const std::int64_t t0 = spans.enabled() ? now_ns() : 0;
      const auto it = in_flight.find(nj.tag);
      const ncar::des::SyntheticJob job = it->second;
      in_flight.erase(it);
      if (gen.draw_failure()) gen.report_failure(job);
      peak_depth = std::max(peak_depth, sim.calendar().size());
      if (spans.enabled()) spans.leaf("prodload.completion", t0, now_ns());
    });
    gen.start(ncar::Seconds(kYearSeconds));
  }
  // The callbacks hold `this`.
  Year(const Year&) = delete;
  Year& operator=(const Year&) = delete;

  static const ncar::sxs::MachineConfig& machine() {
    static const auto m = ncar::sxs::MachineConfig::sx4_benchmarked();
    return m;
  }

  /// Simulate slice `k` of `slices`; the last one also drains the queues.
  std::uint64_t run_slice(int k, int slices) {
    const std::uint64_t n = sim.run_until(ncar::Seconds(kYearSeconds * (k + 1) / slices));
    return k + 1 < slices ? n : n + sim.run();
  }

  /// Full horizon covered, every job drained, the node stable.
  bool complete() const {
    const double utilization =
        node.busy_cpu_seconds() /
        (static_cast<double>(machine().cpus_per_node) * sim.now().value());
    return sim.now().value() >= kYearSeconds && sim.calendar().empty() &&
           !sim.stopped() && nqs.idle() && node.idle() && in_flight.empty() && utilization > 0.0 && utilization < 1.0 &&
           nqs.max_backlog() < nqs.jobs_submitted();
  }

  ncar::des::Simulation sim;
  ncar::prodload::NodeLp node;
  ncar::prodload::QueueComplexLp nqs;
  ncar::des::WorkloadConfig mix;
  std::unordered_map<std::uint64_t, ncar::des::SyntheticJob> in_flight;
  std::size_t peak_depth = 0;
  ncar::des::WorkloadGenerator gen;
};


YearRunner::YearRunner(std::uint64_t seed, int slices, SpanRecorder& spans)
    : seeds_(seed), slices_(slices), spans_(spans) {
  start_year();
}

YearRunner::~YearRunner() = default;

YearRunner::SliceCounts YearRunner::counts(Year& year) {
  SliceCounts c;
  c.events = year.sim.events_executed();
  c.scheduled = year.sim.calendar().scheduled();
  c.cancelled = year.sim.calendar().cancelled();
  for (std::size_t k = 0; k < kStreamCount; ++k) c.draws[k] = year.sim.rng(kStreams[k]).draws();
  return c;
}

std::uint64_t YearRunner::run_slice(SpanRecorder& spans) {
  const SliceCounts before = counts(*year_);
  {
    Scope s(spans, "des.run");
    year_->run_slice(slice_, slices_);
  }
  const SliceCounts after = counts(*year_);
  SliceCounts d;
  d.events = after.events - before.events;
  d.scheduled = after.scheduled - before.scheduled;
  d.cancelled = after.cancelled - before.cancelled;
  for (std::size_t k = 0; k < kStreamCount; ++k) d.draws[k] = after.draws[k] - before.draws[k];
  done_.back().push_back(d);
  if (spans.enabled()) traced_.push_back(d);
  return d.events;
}

bool YearRunner::check_slice() {
  const bool ok = done_.back().back().events > 0;
  if (++slice_ == slices_) {
    end_year();
    start_year();
  }
  return ok;
}

void YearRunner::finish(std::vector<bool>& verdicts) {
  // Complete the year the deadline cut, untimed, so that every timed slice
  // belongs to a checked year.
  while (slice_ > 0 && slice_ < slices_) year_->run_slice(slice_++, slices_);
  if (slice_ > 0) end_year();
  // A repeated seed must reproduce the first year slice by slice.
  Year again(year_seeds_.front(), spans_);
  const std::vector<SliceCounts>& first = done_.front();
  bool same = true;
  for (int k = 0; k < slices_; ++k) {
    const std::uint64_t events = again.run_slice(k, slices_);
    const auto i = static_cast<std::size_t>(k);
    same = same && (i >= first.size() || events == first[i].events);
  }
  if (!same || !again.complete()) failed_years_.push_back(0);
  const auto per_year = static_cast<std::size_t>(slices_);
  for (std::size_t y : failed_years_) {
    for (std::size_t i = y * per_year; i < (y + 1) * per_year && i < verdicts.size(); ++i) {
      verdicts[i] = false;
    }
  }
}

void YearRunner::layer_metrics(const SpanRecorder& spans, std::vector<Metric>& out) const {
  double events = 0, scheduled = 0, cancelled = 0;
  std::array<double, kStreamCount> draws{};
  for (const SliceCounts& c : traced_) {
    events += static_cast<double>(c.events);
    scheduled += static_cast<double>(c.scheduled);
    cancelled += static_cast<double>(c.cancelled);
    for (std::size_t k = 0; k < kStreamCount; ++k) draws[k] += static_cast<double>(c.draws[k]);
  }
  const double n = traced_.empty() ? 1.0 : static_cast<double>(traced_.size());
  const std::vector<double> run = spans.busy_ms("des.run");
  double run_total = 0;
  for (double ms : run) run_total += ms;
  out.push_back({"des.run_ms", median(run), "", ""});
  out.push_back({"des.kernel_self_ms", median(spans.self_ms("des.run")), "", ""});
  out.push_back({"des.ns_per_event", events > 0 ? 1e6 * run_total / events : 0.0, "", ""});
  out.push_back({"des.events", events / n, "", ""});
  out.push_back({"des.calendar.scheduled", scheduled / n, "", ""});
  out.push_back({"des.calendar.cancelled", cancelled / n, "", ""});
  out.push_back({"des.calendar.peak_depth", static_cast<double>(peak_depth_), "", ""});
  out.push_back({"des.cancel_frac", scheduled > 0 ? cancelled / scheduled : 0.0, "", ""});
  for (std::size_t k = 0; k < kStreamCount; ++k) {
    out.push_back({std::string("des.rng.draws.") + kStreams[k], draws[k] / n, "", ""});
  }
  out.push_back({"prodload.submit_ms", median(spans.busy_ms_per_iteration("prodload.submit")), "", ""});
  out.push_back({"prodload.completion_ms",
                 median(spans.busy_ms_per_iteration("prodload.completion")), "", ""});
  out.push_back({"prodload.max_backlog", static_cast<double>(max_backlog_), "", ""});
}

void YearRunner::start_year() {
  year_seeds_.push_back(seeds_.next());
  year_ = std::make_unique<Year>(year_seeds_.back(), spans_);
  done_.emplace_back();
  slice_ = 0;
}

void YearRunner::end_year() {
  if (!year_->complete()) failed_years_.push_back(done_.size() - 1);
  peak_depth_ = std::max(peak_depth_, year_->peak_depth);
  max_backlog_ = std::max<std::uint64_t>(max_backlog_, year_->nqs.max_backlog());
}

}  // namespace hostbench
