#pragma once
// Strict command-line parsing: every malformed value is an error with a
// message, never a silent default.

#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace hostbench {

struct CliResult {
  std::optional<RunConfig> config;  ///< set when the arguments are valid
  std::string error;                ///< set otherwise
  bool help = false;
};

/// Parse `args` (without the program name). `nproc` bounds --threads.
CliResult parse_args(const std::vector<std::string>& args, int nproc);

std::string usage();

}  // namespace hostbench
