#include "workloads.hpp"

namespace hostbench {

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> list = {
      {"model_steps", "model steps", make_model_steps},
      {"charge_replay_stream", "charge replays", make_charge_replay_stream},
      {"design_sweep", "design points", make_design_sweep},
      {"prodload_year", "DES events", make_prodload_year},
  };
  return list;
}

}  // namespace hostbench
