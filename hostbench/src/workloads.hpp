#pragma once
// Factories of the four workloads (one source file each).

#include <memory>

#include "harness.hpp"

namespace hostbench {

std::unique_ptr<Workload> make_model_steps(const RunConfig&, ncar::ThreadPool&);
std::unique_ptr<Workload> make_charge_replay_stream(const RunConfig&, ncar::ThreadPool&);
std::unique_ptr<Workload> make_design_sweep(const RunConfig&, ncar::ThreadPool&);
std::unique_ptr<Workload> make_prodload_year(const RunConfig&, ncar::ThreadPool&);

}  // namespace hostbench
