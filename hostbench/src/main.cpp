// hostbench: host-time benchmark of the sx4ncar simulator.
//
//   hostbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//             [--threads <t>] [--out <dir>]
//
// Prints the resolved configuration, a table of every metric by name and
// unit, and, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics. The full record (configuration and all
// metrics) is also written to <out>/<workload>-seed<n>-trace<t>.json for
// compare mode. Exit codes: 0 ran, 1 the run failed, 2 bad arguments.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace hostbench;
  const std::vector<std::string> args(argv + 1, argv + argc);
  const CliResult cli = parse_args(args, host_nproc());
  if (cli.help) {
    std::cout << usage();
    return 0;
  }
  if (!cli.config) {
    std::cerr << "hostbench: " << cli.error << "\n" << usage();
    return 2;
  }
  const RunConfig& cfg = *cli.config;
  try {
    const RunResult r = run_workload(cfg);
    const WorkloadInfo* info = find_workload(cfg.workload);
    std::printf("hostbench %s seed=%llu trace=%d threads=%d nproc=%d simd=%s "
                "trace_mode=%s compiler=\"%s\" build=%s iterations=%zu (%s)\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.trace ? 1 : 0, cfg.threads, r.nproc, r.simd_backend.c_str(),
                r.trace_mode.c_str(), compiler_id().c_str(), build_type().c_str(),
                r.iterations, info->work_unit);
    for (const auto* list : {cfg.trace ? &r.per_layer : &r.end_to_end, &r.wall}) {
      for (const Metric& m : *list) {
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    std::filesystem::create_directories(cfg.out_dir);
    const std::string record = cfg.out_dir + "/" + cfg.workload + "-seed" +
                               std::to_string(cfg.seed) + "-trace" +
                               (cfg.trace ? "1" : "0") + ".json";
    std::ofstream(record) << record_json(r) << "\n";
    std::cout << contract_line(r) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << cfg.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
