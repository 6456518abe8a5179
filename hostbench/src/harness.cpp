#include "harness.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "simd/simd.hpp"
#include "speed_probe.hpp"
#include "trace/category.hpp"

#ifndef HOSTBENCH_COMPILER
#define HOSTBENCH_COMPILER "unknown"
#endif
#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace hostbench {

const std::vector<Metric>& end_to_end_catalog() {
  static const std::vector<Metric> catalog = {
      {"setup_s", 0, "s", "lower"},
      {"iter_ms_p50", 0, "ms", "lower"},
      {"iter_ms_p90", 0, "ms", "lower"},
      {"work_per_s", 0, "1/s", "higher"},
      {"cpu_ms_per_iter", 0, "ms", "lower"},
      {"peak_rss_mb", 0, "MB", "lower"},
      {"fail_frac", 0, "ratio", "lower"},
      {"artifact_bytes_per_iter", 0, "bytes", "lower"},
  };
  return catalog;
}

const std::vector<std::string>& contract_end_to_end() {
  static const std::vector<std::string> names = {
      "setup_s", "iter_ms_p50", "iter_ms_p90",
      "work_per_s", "cpu_ms_per_iter", "peak_rss_mb"};
  return names;
}

const std::vector<Metric>& per_layer_catalog() {
  static const std::vector<Metric> catalog = {
      // ocean (MOM) and ccm2 (spectral, fft, simd): model_steps
      {"ocean.setup_ms", 0, "ms", "lower"},
      {"ocean.step_ms", 0, "ms", "lower"},
      {"ocean.charge_ms", 0, "ms", "lower"},
      {"ocean.numerics_ms", 0, "ms", "lower"},
      {"ccm2.setup_ms", 0, "ms", "lower"},
      {"ccm2.step_ms", 0, "ms", "lower"},
      {"ccm2.charge_ms", 0, "ms", "lower"},
      {"ccm2.numerics_ms", 0, "ms", "lower"},
      // sxs cost model: charge_replay_stream, design_sweep, model_steps
      {"sxs.replay_ms", 0, "ms", "lower"},
      {"sxs.charge_ms.cpus1", 0, "ms", "lower"},
      {"sxs.charge_ms.cpus32", 0, "ms", "lower"},
      {"sxs.cost_cache.hits", 0, "count", "higher"},
      {"sxs.cost_cache.lookups", 0, "count", "lower"},
      {"sxs.cost_cache.hit_rate", 0, "ratio", "higher"},
      // common ThreadPool
      {"pool.charge_gap_ms", 0, "ms", "lower"},
      {"machines.parallel_efficiency", 0, "ratio", "higher"},
      // trace capture and codec: charge_replay_stream
      {"trace.events_per_iter", 0, "count", "lower"},
      {"trace.bytes_per_event", 0, "bytes", "lower"},
      {"trace.dropped", 0, "count", "lower"},
      {"trace.finalize_ms", 0, "ms", "lower"},
      {"trace.capture_overhead_frac", 0, "ratio", "lower"},
      // machines: design_sweep, and a 32-point sweep in charge_replay_stream
      {"machines.record_probe_ms", 0, "ms", "lower"},
      {"machines.run_sweep_ms", 0, "ms", "lower"},
      {"machines.sequential_sweep_ms", 0, "ms", "lower"},
      {"machines.lower_us_per_point", 0, "us", "lower"},
      {"machines.replay_us_per_point", 0, "us", "lower"},
      {"machines.to_json_ms", 0, "ms", "lower"},
      {"machines.points", 0, "count", "higher"},
      {"machines.valid_frac", 0, "ratio", "higher"},
      // des kernel and prodload LPs: prodload_year
      {"des.run_ms", 0, "ms", "lower"},
      {"des.kernel_self_ms", 0, "ms", "lower"},
      {"des.ns_per_event", 0, "ns", "lower"},
      {"des.events", 0, "count", "higher"},
      {"des.calendar.scheduled", 0, "count", "lower"},
      {"des.calendar.cancelled", 0, "count", "lower"},
      {"des.calendar.peak_depth", 0, "count", "lower"},
      {"des.cancel_frac", 0, "ratio", "lower"},
      {"des.rng.draws.jobmix", 0, "count", "lower"},
      {"des.rng.draws.service", 0, "count", "lower"},
      {"des.rng.draws.arrival", 0, "count", "lower"},
      {"des.rng.draws.phase", 0, "count", "lower"},
      {"des.rng.draws.failure", 0, "count", "lower"},
      {"prodload.submit_ms", 0, "ms", "lower"},
      {"prodload.completion_ms", 0, "ms", "lower"},
      {"prodload.max_backlog", 0, "count", "lower"},
      // the run itself
      {"artifact_bytes_per_iter", 0, "bytes", "lower"},
      {"bench.untraced_iter_ms", 0, "ms", "lower"},
      {"bench.traced_iter_ms", 0, "ms", "lower"},
      {"bench.span_overhead_frac", 0, "ratio", "lower"},
      {"bench.spans", 0, "count", "lower"},
  };
  return catalog;
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string compiler_id() { return HOSTBENCH_COMPILER; }
std::string build_type() { return HOSTBENCH_BUILD_TYPE; }

double metric_value(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("no metric " + name);
}

namespace {

/// A set-up sample repeats a set-up shorter than this, up to
/// kMaxBatchReps times, and takes the median of the batch.
constexpr double kMinBatchSeconds = 0.02;
constexpr std::size_t kMaxBatchReps = 20000;
/// A traced run reports no percentiles; half its iterations are traced.
constexpr std::size_t kTracedMinIterations = 20;

double seconds_since(std::int64_t start_ns) {
  return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

/// User + system CPU of the whole process (every host thread), in ms.
double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return 1e3 * static_cast<double>(tv.tv_sec) +
           1e-3 * static_cast<double>(tv.tv_usec);
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Metric with_value(const std::vector<Metric>& catalog, const std::string& name,
                  double value) {
  for (Metric m : catalog) {
    if (m.name == name) {
      m.value = value;
      return m;
    }
  }
  throw std::logic_error("metric " + name + " is not in the catalog");
}

/// One set-up sample: the median of a batch of set-ups of fresh instances.
double setup_sample(const WorkloadInfo& info, const RunConfig& cfg,
                    ncar::ThreadPool& pool, SpanRecorder& spans) {
  std::vector<double> batch;
  double total = 0;
  while (batch.empty() || (total < kMinBatchSeconds && batch.size() < kMaxBatchReps)) {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Workload> w = info.make(cfg, pool);
    w->setup(spans);
    batch.push_back(seconds_since(t0));
    total += batch.back();
  }
  return median(batch);
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_object(const std::vector<Metric>& ms, bool with_better) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + number(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit);
    if (with_better) out += ", \"better\": " + quoted(ms[i].better);
    out += "}";
  }
  return out + "}";
}

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  const WorkloadInfo* info = find_workload(cfg.workload);
  if (info == nullptr) throw std::invalid_argument("unknown workload " + cfg.workload);

  RunResult r;
  r.config = cfg;
  r.nproc = host_nproc();
  ncar::simd::set_backend(ncar::simd::best_supported());
  r.simd_backend = ncar::simd::to_string(ncar::simd::active());

  ncar::ThreadPool pool(cfg.threads);
  SpanRecorder spans;
  SpeedProbe probe;
  probe.run_ms();  // fault its memory in

  // The live instance's set-up is the first set-up sample. The others are
  // taken after the live instance is gone (see below), so that no second
  // instance shares memory or caches with the timed iterations.
  ncar::trace::set_mode(ncar::trace::Mode::Off);
  std::vector<double> setup_s;
  spans.set_enabled(cfg.trace);
  std::int64_t t0 = now_ns();
  std::unique_ptr<Workload> w = info->make(cfg, pool);
  w->setup(spans);
  setup_s.push_back(seconds_since(t0));
  spans.set_enabled(false);
  w->prepare();
  r.trace_mode = w->trace_mode();

  // Timed iterations, each between two runs of the speed probe. A traced
  // run alternates untraced and traced iterations so that the span
  // overhead is measured in the same run.
  std::vector<double> iter_ms, iter_cpu_ms, traced_ms, untraced_ms;
  std::vector<bool> verdicts;
  double work = 0, artifact_bytes = 0;
  std::vector<double> probes_ms = {probe.run_ms()};
  const std::size_t min_iters =
      cfg.trace ? kTracedMinIterations : samples_needed(90, cfg.min_beyond);
  const std::int64_t start = now_ns();
  while (seconds_since(start) < cfg.seconds || iter_ms.size() < min_iters) {
    const int i = static_cast<int>(iter_ms.size());
    const bool traced = cfg.trace && i % 2 == 1;
    spans.set_enabled(traced);
    spans.set_iteration(i);
    const double cpu0 = process_cpu_ms();
    t0 = now_ns();
    IterationResult it;
    {
      Scope s(spans, "iteration");
      it = w->iterate(spans);
    }
    const double ms = 1e-6 * static_cast<double>(now_ns() - t0);
    iter_cpu_ms.push_back(process_cpu_ms() - cpu0);
    iter_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    work += it.work;
    artifact_bytes += it.artifact_bytes;
    verdicts.push_back(w->check(spans));
    probes_ms.push_back(probe.run_ms());
  }
  spans.set_enabled(false);
  spans.set_iteration(-1);
  w->finish(verdicts);
  ncar::trace::set_mode(ncar::trace::Mode::Off);

  // The footprint and the per-layer figures belong to the live instance;
  // read them before it goes. Then the remaining set-up samples, one
  // fresh instance at a time, untraced. malloc_trim hands the freed heap
  // back to the OS first, so that a sample faults its memory in as the
  // live set-up did; reusing the heap the run left behind made setup_s
  // bimodal between runs (0.13 s or 0.19 s on charge_replay_stream).
  const double peak_rss = peak_rss_mb();
  std::vector<Metric> layer;
  if (cfg.trace) w->layer_metrics(spans, layer);
  w.reset();
  while (setup_s.size() < static_cast<std::size_t>(std::max(1, cfg.setup_reps))) {
    malloc_trim(0);
    setup_s.push_back(setup_sample(*info, cfg, pool, spans));
  }

  r.iterations = iter_ms.size();
  r.attempted = verdicts.size();
  r.failed = static_cast<std::size_t>(
      std::count(verdicts.begin(), verdicts.end(), false));
  const double n = static_cast<double>(r.iterations);
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };

  // The iteration times are at the reference host speed (speed_probe.hpp);
  // the wall-clock figures they come from are reported beside them. The
  // set-up stays in wall time: the probe does not track it (scaling it
  // widened model_steps' setup_s spread over five runs from 0.05 to 0.12).
  const std::vector<double> ref_ms = at_reference_speed(iter_ms, probes_ms);
  const std::vector<double> ref_cpu_ms = at_reference_speed(iter_cpu_ms, probes_ms);
  const auto& e2e = end_to_end_catalog();
  const std::size_t beyond = cfg.trace ? 0 : cfg.min_beyond;
  r.end_to_end = {
      with_value(e2e, "setup_s", median(setup_s)),
      with_value(e2e, "iter_ms_p50", nearest_rank(ref_ms, 50, beyond)),
      with_value(e2e, "iter_ms_p90", nearest_rank(ref_ms, 90, beyond)),
      with_value(e2e, "work_per_s", work / (1e-3 * sum(ref_ms))),
      with_value(e2e, "cpu_ms_per_iter", sum(ref_cpu_ms) / n),
      with_value(e2e, "peak_rss_mb", peak_rss),
      with_value(e2e, "fail_frac", static_cast<double>(r.failed) / n),
      with_value(e2e, "artifact_bytes_per_iter", artifact_bytes / n),
  };
  r.wall = {
      {"wall.iter_ms_p50", nearest_rank(iter_ms, 50, beyond), "ms", "lower"},
      {"wall.iter_ms_p90", nearest_rank(iter_ms, 90, beyond), "ms", "lower"},
      {"wall.work_per_s", work / (1e-3 * sum(iter_ms)), "1/s", "higher"},
      {"wall.cpu_ms_per_iter", sum(iter_cpu_ms) / n, "ms", "lower"},
      {"host.probe_ms_p50", median(probes_ms), "ms", "lower"},
      {"host.probe_reference_ms", SpeedProbe::kReferenceMs, "ms", "lower"},
  };

  if (cfg.trace) {
    const double untraced = mean(untraced_ms), traced = mean(traced_ms);
    layer.push_back({"artifact_bytes_per_iter", artifact_bytes / n, "", ""});
    layer.push_back({"bench.untraced_iter_ms", untraced, "", ""});
    layer.push_back({"bench.traced_iter_ms", traced, "", ""});
    layer.push_back({"bench.span_overhead_frac",
                     untraced > 0 ? traced / untraced - 1.0 : 0.0, "", ""});
    layer.push_back({"bench.spans", static_cast<double>(spans.records().size()), "", ""});
    // Every catalog metric, in catalog order; 0 for layers not called.
    for (const Metric& m : per_layer_catalog()) {
      Metric out = m;
      for (const Metric& got : layer) {
        if (got.name == m.name) out.value = got.value;
      }
      r.per_layer.push_back(out);
    }
    for (const Metric& got : layer) {
      if (std::none_of(r.per_layer.begin(), r.per_layer.end(),
                       [&](const Metric& m) { return m.name == got.name; })) {
        throw std::logic_error("metric " + got.name + " is not in the catalog");
      }
    }
    std::filesystem::create_directories(cfg.out_dir);
    spans.write_chrome_json(cfg.out_dir + "/" + cfg.workload + "-seed" +
                            std::to_string(cfg.seed) + ".spans.json");
  }
  return r;
}

std::string contract_line(const RunResult& r) {
  std::vector<Metric> ms;
  if (r.config.trace) {
    ms = r.per_layer;
  } else {
    for (const std::string& name : contract_end_to_end()) {
      ms.push_back(with_value(r.end_to_end, name, metric_value(r.end_to_end, name)));
    }
  }
  std::ostringstream out;
  out << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": " << metrics_object(ms, false) << "}";
  return out.str();
}

std::string record_json(const RunResult& r) {
  std::ostringstream out;
  out << "{\"workload\": " << quoted(r.config.workload)
      << ", \"seed\": " << r.config.seed
      << ", \"trace\": " << (r.config.trace ? 1 : 0) << ", \"config\": {"
      << "\"threads\": " << r.config.threads << ", \"nproc\": " << r.nproc
      << ", \"simd_backend\": " << quoted(r.simd_backend)
      << ", \"trace_mode\": " << quoted(r.trace_mode)
      << ", \"compiler\": " << quoted(compiler_id())
      << ", \"build_type\": " << quoted(build_type())
      << ", \"seconds\": " << number(r.config.seconds)
      << ", \"setup_reps\": " << r.config.setup_reps
      << ", \"iterations\": " << r.iterations << "}"
      << ", \"correct\": " << (r.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": " << metrics_object(r.end_to_end, true)
      << ", \"wall\": " << metrics_object(r.wall, true)
      << ", \"per_layer\": " << metrics_object(r.per_layer, true) << "}";
  return out.str();
}

}  // namespace hostbench
