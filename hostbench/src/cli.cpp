#include "cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <set>

namespace hostbench {
namespace {

/// A non-negative decimal integer that fits in uint64 (digits only: no
/// sign, no spaces, no hex).
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

std::string usage() {
  std::string names;
  for (const WorkloadInfo& w : workloads()) names += std::string(names.empty() ? "" : ", ") + w.name;
  return "usage: hostbench --workload <name> --seed <n> [--seconds <s>] "
         "[--trace 0|1] [--threads <t>] [--out <dir>]\n"
         "  workloads: " + names + "\n";
}

CliResult parse_args(const std::vector<std::string>& args, int nproc) {
  CliResult res;
  RunConfig cfg;
  bool have_workload = false, have_seed = false;
  std::set<std::string> seen;
  auto fail = [&](const std::string& msg) {
    res.error = msg;
    return res;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help" || flag == "-h") {
      res.help = true;
      return res;
    }
    if (flag.rfind("--", 0) != 0) return fail("unexpected argument '" + flag + "'");
    if (i + 1 >= args.size()) return fail(flag + " needs a value");
    if (!seen.insert(flag).second) return fail(flag + " given twice");
    const std::string& v = args[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      if (find_workload(v) == nullptr) return fail("unknown workload '" + v + "'");
      cfg.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(v, n)) return fail("--seed must be a non-negative integer, got '" + v + "'");
      cfg.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(v, n) || n < 1 || n > 3600) {
        return fail("--seconds must be an integer in [1, 3600], got '" + v + "'");
      }
      cfg.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return fail("--trace must be 0 or 1, got '" + v + "'");
      cfg.trace = v == "1";
    } else if (flag == "--threads") {
      if (!parse_u64(v, n) || n < 1 || n > static_cast<std::uint64_t>(nproc)) {
        return fail("--threads must be an integer in [1, " + std::to_string(nproc) +
                    "] (nproc), got '" + v + "'");
      }
      cfg.threads = static_cast<int>(n);
    } else if (flag == "--out") {
      if (v.empty()) return fail("--out must name a directory");
      cfg.out_dir = v;
    } else {
      return fail("unknown option '" + flag + "'");
    }
  }
  if (!have_workload) return fail("--workload is required");
  if (!have_seed) return fail("--seed is required");
  if (cfg.threads > nproc) {
    return fail("the default of " + std::to_string(cfg.threads) +
                " host threads exceeds nproc (" + std::to_string(nproc) + "); pass --threads");
  }
  res.config = cfg;
  return res;
}

}  // namespace hostbench
