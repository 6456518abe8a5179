#include "sxs/execution_policy.hpp"

#include <cstdlib>
#include <optional>

#include "common/thread_pool.hpp"
#include "simd/simd.hpp"

namespace ncar::sxs {

ExecutionPolicy policy_from_env(const char* value) {
  const std::optional<int> threads = ThreadPool::parse_host_threads(value);
  return threads && *threads <= 1 ? ExecutionPolicy::Sequential
                                  : ExecutionPolicy::Threaded;
}

ExecutionPolicy default_execution_policy() {
  return policy_from_env(std::getenv("SX4NCAR_HOST_THREADS"));
}

const char* to_string(ExecutionPolicy p) {
  return p == ExecutionPolicy::Sequential ? "sequential" : "threaded";
}

std::string host_execution_summary() {
  const std::string simd =
      std::string(", simd ") + simd::to_string(simd::active());
  if (default_execution_policy() == ExecutionPolicy::Sequential) {
    return "sequential (1 host thread)" + simd;
  }
  const int threads = ThreadPool::configured_host_threads();
  return "threaded (" + std::to_string(threads) + " host thread" +
         (threads == 1 ? "" : "s") + ")" + simd;
}

}  // namespace ncar::sxs
