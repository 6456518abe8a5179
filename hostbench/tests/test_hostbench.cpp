// Tests of the benchmark's own code: metric names, the percentile rule,
// the scaling to the reference host speed, argument parsing, the metrics
// every workload emits, and an output check that must catch a wrong
// expected value.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "cli.hpp"
#include "harness.hpp"
#include "speed_probe.hpp"
#include "stats.hpp"

namespace hostbench {
namespace {

namespace fs = std::filesystem;

const std::string kRoot = HOSTBENCH_ROOT;
const std::string kScratch = HOSTBENCH_TEST_SCRATCH;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A short run: one second, no percentile floor, two set-up samples.
RunConfig short_run(const std::string& workload, const fs::path& out) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = 7;
  cfg.seconds = 1;
  cfg.min_beyond = 0;
  cfg.setup_reps = 2;
  cfg.out_dir = out.string();
  cfg.baselines_dir = kRoot + "/bench/baselines";
  return cfg;
}

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(kScratch) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(MetricName, AcceptsContractNames) {
  for (const char* name : {"setup_s", "iter_ms_p50", "des.rng.draws.jobmix",
                           "sxs.charge_ms.cpus32", "a", "9-lives"}) {
    EXPECT_TRUE(valid_metric_name(name)) << name;
  }
}

TEST(MetricName, RejectsOthers) {
  for (const char* name : {"", "has space", "_leading", ".leading", "a/b", "tab\t",
                           "quote\"", "ümlaut"}) {
    EXPECT_FALSE(valid_metric_name(name)) << name;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'x')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'x')));
}

TEST(MetricName, CatalogsAreValid) {
  for (const auto* catalog : {&end_to_end_catalog(), &per_layer_catalog()}) {
    for (const Metric& m : *catalog) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(m.better == "lower" || m.better == "higher") << m.name;
      EXPECT_FALSE(m.unit.empty()) << m.name;
    }
  }
}

TEST(MetricName, ContractNamesAreUnique) {
  std::set<std::string> seen;
  for (const std::string& name : contract_end_to_end()) {
    EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
  }
  for (const Metric& m : per_layer_catalog()) {
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
  }
}

/// The "name" values of one top-level list of BENCHMARK.json.
std::vector<std::string> listed_names(const std::string& json, const std::string& list) {
  std::size_t at = json.find("\"" + list + "\"");
  const std::size_t end = json.find(']', at);
  std::vector<std::string> names;
  const std::string key = "\"name\": \"";
  while ((at = json.find(key, at)) != std::string::npos && at < end) {
    at += key.size();
    names.push_back(json.substr(at, json.find('"', at) - at));
  }
  return names;
}

TEST(MetricName, BenchmarkJsonListsWhatTheBinaryEmits) {
  const std::string json = read_file(kRoot + "/BENCHMARK.json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(listed_names(json, "end_to_end"), contract_end_to_end());
  std::vector<std::string> layers;
  for (const Metric& m : per_layer_catalog()) layers.push_back(m.name);
  EXPECT_EQ(listed_names(json, "per_layer"), layers);
  const auto listed = listed_names(json, "workloads");
  EXPECT_FALSE(listed.empty());
  for (const std::string& name : listed) EXPECT_NE(find_workload(name), nullptr) << name;
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(nearest_rank(v, 50), 50.0);
  EXPECT_EQ(nearest_rank(v, 90), 90.0);
  EXPECT_EQ(nearest_rank(v, 1), 1.0);
  EXPECT_EQ(nearest_rank({3.0, 1.0, 2.0}, 50, 0), 2.0);
  EXPECT_EQ(nearest_rank({4.0, 1.0, 3.0, 2.0}, 50, 0), 2.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_needed(90), 100u);
  EXPECT_EQ(samples_needed(50), 20u);
  EXPECT_EQ(samples_needed(99), 1000u);
  std::vector<double> v(99, 1.0);
  EXPECT_THROW(nearest_rank(v, 90), std::invalid_argument);
  v.push_back(2.0);
  EXPECT_EQ(nearest_rank(v, 90), 1.0);
  try {
    nearest_rank(std::vector<double>(50, 1.0), 90);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("needs 100 samples"), std::string::npos) << e.what();
  }
  EXPECT_THROW(nearest_rank({}, 50, 0), std::invalid_argument);
}

TEST(SpeedProbe, ScalesEachTimeByTheProbesAroundIt) {
  const double ref = SpeedProbe::kReferenceMs;
  // A host at half speed (probes twice the reference) halves the time; a
  // time between a slow and a reference probe uses their mean.
  const auto out = at_reference_speed({10.0, 30.0}, {2 * ref, 2 * ref, ref});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 5.0);
  EXPECT_DOUBLE_EQ(out[1], 30.0 / 1.5);
  EXPECT_TRUE(at_reference_speed({}, {ref}).empty());
  EXPECT_THROW(at_reference_speed({1.0}, {ref}), std::invalid_argument);
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(median({5, 1, 3}), 3.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Cli, AcceptsTheContractArguments) {
  const CliResult r = parse_args(
      {"--workload", "design_sweep", "--seed", "42", "--seconds", "15", "--trace", "1"}, 4);
  ASSERT_TRUE(r.config) << r.error;
  EXPECT_EQ(r.config->workload, "design_sweep");
  EXPECT_EQ(r.config->seed, 42u);
  EXPECT_EQ(r.config->seconds, 15.0);
  EXPECT_TRUE(r.config->trace);
  EXPECT_EQ(r.config->threads, 2);
}

TEST(Cli, RejectsBadInput) {
  const std::vector<std::vector<std::string>> bad = {
      {"--workload", "nope", "--seed", "1"},
      {"--workload", "model_steps", "--seed", "-1"},
      {"--workload", "model_steps", "--seed", "abc"},
      {"--workload", "model_steps", "--seed", "1.5"},
      {"--workload", "model_steps", "--seed", ""},
      {"--workload", "model_steps", "--seed", "99999999999999999999999"},
      {"--workload", "model_steps", "--seed", "1", "--threads", "5"},
      {"--workload", "model_steps", "--seed", "1", "--threads", "0"},
      {"--workload", "model_steps", "--seed", "1", "--trace", "2"},
      {"--workload", "model_steps", "--seed", "1", "--seconds", "0"},
      {"--workload", "model_steps", "--seed", "1", "--seed", "2"},
      {"--workload", "model_steps", "--seed", "1", "--bogus", "1"},
      {"--workload", "model_steps", "--seed"},
      {"--workload", "model_steps"},
      {"--seed", "1"},
      {"model_steps"},
  };
  for (const auto& args : bad) {
    const CliResult r = parse_args(args, 4);
    std::string joined;
    for (const auto& a : args) joined += a + " ";
    EXPECT_FALSE(r.config) << joined;
    EXPECT_FALSE(r.error.empty()) << joined;
  }
}

TEST(Cli, ThreadsAboveNprocIsAnError) {
  EXPECT_FALSE(parse_args({"--workload", "model_steps", "--seed", "1"}, 1).config);
  EXPECT_TRUE(parse_args({"--workload", "model_steps", "--seed", "1", "--threads", "1"}, 1).config);
}

TEST(Workloads, EveryWorkloadEmitsEveryEndToEndMetric) {
  const fs::path out = scratch_dir("e2e");
  for (const WorkloadInfo& w : workloads()) {
    const RunResult r = run_workload(short_run(w.name, out));
    ASSERT_EQ(r.end_to_end.size(), end_to_end_catalog().size()) << w.name;
    EXPECT_EQ(r.end_to_end.size(), 8u);
    for (std::size_t i = 0; i < r.end_to_end.size(); ++i) {
      EXPECT_EQ(r.end_to_end[i].name, end_to_end_catalog()[i].name) << w.name;
      EXPECT_TRUE(std::isfinite(r.end_to_end[i].value)) << w.name;
    }
    for (const char* name : {"setup_s", "iter_ms_p50", "iter_ms_p90", "work_per_s",
                             "cpu_ms_per_iter", "peak_rss_mb", "fail_frac",
                             "artifact_bytes_per_iter"}) {
      EXPECT_NO_THROW(metric_value(r.end_to_end, name)) << w.name << " " << name;
    }
    EXPECT_GE(r.attempted, 1u) << w.name;
    EXPECT_EQ(r.failed, 0u) << w.name;
    EXPECT_EQ(metric_value(r.end_to_end, "fail_frac"), 0.0) << w.name;
    EXPECT_GT(metric_value(r.end_to_end, "setup_s"), 0.0) << w.name;
    EXPECT_GT(metric_value(r.end_to_end, "work_per_s"), 0.0) << w.name;
    // The wall-clock figures the end-to-end times were scaled from.
    for (const char* name : {"wall.iter_ms_p50", "wall.iter_ms_p90",
                             "wall.work_per_s", "wall.cpu_ms_per_iter",
                             "host.probe_ms_p50"}) {
      EXPECT_GT(metric_value(r.wall, name), 0.0) << w.name << " " << name;
    }
    const std::string line = contract_line(r);
    for (const std::string& name : contract_end_to_end()) {
      EXPECT_NE(line.find("\"" + name + "\""), std::string::npos) << w.name << " " << name;
    }
    EXPECT_EQ(line.find("\"fail_frac\""), std::string::npos);
  }
  fs::remove_all(out);
}

TEST(Workloads, TracedRunEmitsEveryPerLayerMetric) {
  const fs::path out = scratch_dir("traced");
  RunConfig cfg = short_run("charge_replay_stream", out);
  cfg.trace = true;
  const RunResult r = run_workload(cfg);
  ASSERT_EQ(r.per_layer.size(), per_layer_catalog().size());
  EXPECT_GT(metric_value(r.per_layer, "trace.events_per_iter"), 0.0);
  EXPECT_EQ(metric_value(r.per_layer, "trace.dropped"), 0.0);
  EXPECT_GT(metric_value(r.per_layer, "bench.traced_iter_ms"), 0.0);
  // The machines layer rides along on a 32-point sweep.
  EXPECT_EQ(metric_value(r.per_layer, "machines.points"), 32.0);
  EXPECT_GT(metric_value(r.per_layer, "machines.run_sweep_ms"), 0.0);
  EXPECT_TRUE(fs::exists(out / "charge_replay_stream-seed7.spans.json"));
  const std::string line = contract_line(r);
  for (const Metric& m : per_layer_catalog()) {
    EXPECT_NE(line.find("\"" + m.name + "\""), std::string::npos) << m.name;
  }
  fs::remove_all(out);
}

TEST(Checks, WrongExpectedValueFailsIterations) {
  // The committed table7 baseline with one value nudged by one part in 1e9.
  const fs::path out = scratch_dir("wrong");
  const fs::path baselines = out / "baselines";
  fs::create_directories(baselines);
  fs::copy_file(kRoot + "/bench/baselines/fig8_ccm2.json", baselines / "fig8_ccm2.json");
  std::string table7 = read_file(kRoot + "/bench/baselines/table7_mom.json");
  const std::string key = "\"table7.mom.seconds@cpus=4\": ";
  const std::size_t at = table7.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t value_at = at + key.size();
  const std::size_t value_end = table7.find_first_of(",\n}", value_at);
  const double good = std::stod(table7.substr(value_at, value_end - value_at));
  std::ostringstream wrong;
  wrong.precision(17);
  wrong << good * (1.0 + 1e-9);
  table7.replace(value_at, value_end - value_at, wrong.str());
  std::ofstream(baselines / "table7_mom.json") << table7;

  RunConfig cfg = short_run("model_steps", out);
  cfg.baselines_dir = baselines.string();
  const RunResult r = run_workload(cfg);
  EXPECT_GT(metric_value(r.end_to_end, "fail_frac"), 0.0);
  EXPECT_EQ(r.failed, r.attempted);
  EXPECT_NE(contract_line(r).find("\"correct\": false"), std::string::npos);
  fs::remove_all(out);
}

TEST(Checks, MissingBaselineIsAnError) {
  const fs::path out = scratch_dir("missing");
  RunConfig cfg = short_run("model_steps", out);
  cfg.baselines_dir = (out / "nowhere").string();
  EXPECT_THROW(run_workload(cfg), std::runtime_error);
  fs::remove_all(out);
}

}  // namespace
}  // namespace hostbench
