// model_steps: real host numerics. Each iteration runs one MOM step of the
// 1-degree x 45-level ocean and one CCM2 step at T170L18 (one active level,
// as fig8_ccm2 integrates it), then replays both models' charges at 4, 8,
// 16 and 32 CPUs, as table7_mom and fig8_ccm2 do. It ends with one
// simulated week of the NQS production mix that schedules such model runs
// (des_year.hpp), so the DES and prodload layers are measured here too.
// The seed perturbs the initial ocean temperature and atmosphere
// temperature through checkpoint()/restore(), and seeds the DES years.

#include <array>
#include <cmath>
#include <memory>

#include "ccm2/model.hpp"
#include "ccm2/resolution.hpp"
#include "des_year.hpp"
#include "harness.hpp"
#include "ocean/mom.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"
#include "workload_util.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using ncar::sxs::Node;

constexpr std::array<int, 4> kReplayCpus = {4, 8, 16, 32};
/// table7_mom's rows; fig8_ccm2 reports the same CPU counts.
constexpr std::array<int, 5> kTableCpus = {1, 4, 8, 16, 32};
constexpr int kWeeks = 52;      ///< DES slices per simulated year
constexpr int kDiagEvery = 10;  ///< MomConfig::diag_every: charges repeat every 10 steps
/// table7_mom's band on the mean ocean temperature (a physical range).
constexpr double kMeanTempMin = -2.0, kMeanTempMax = 30.0;
/// table7_mom records the rigid-lid SOR residual without a band; this is
/// the benchmark's: a converged solve stays many orders below the forcing.
constexpr double kSorResidualMax = 1e-9;

std::size_t table_row(int cpus) {
  for (std::size_t i = 0; i < kTableCpus.size(); ++i) {
    if (kTableCpus[i] == cpus) return i;
  }
  return 0;
}

class ModelSteps final : public Workload {
public:
  ModelSteps(const RunConfig& cfg, ncar::ThreadPool& pool)
      : cfg_(cfg), pool_(pool) {}

  void setup(SpanRecorder& spans) override {
    node_ = std::make_unique<Node>(ncar::sxs::MachineConfig::sx4_benchmarked(),
                                   ncar::sxs::ExecutionPolicy::Threaded);
    node_->set_thread_pool(&pool_);
    {
      Scope s(spans, "ocean.setup");
      mom_ = std::make_unique<ncar::ocean::Mom>(
          ncar::ocean::MomConfig::high_resolution(), *node_);
    }
    {
      Scope s(spans, "ccm2.setup");
      ncar::ccm2::Ccm2Config c;
      c.res = ncar::ccm2::t170l18();
      c.active_levels = 1;  // fig8_ccm2's configuration
      ccm2_ = std::make_unique<ncar::ccm2::Ccm2>(c, *node_);
    }
    perturb();
    years_ = std::make_unique<YearRunner>(cfg_.seed, kWeeks, spans);
  }

  void prepare() override {
    // Per-step references from a reset node, one per CPU count and step
    // class, and the committed table7/fig8 values they must reproduce.
    Node& node = *node_;
    for (std::size_t row = 0; row < kTableCpus.size(); ++row) {
      const int cpus = kTableCpus[row];
      for (int r = 0; r < kDiagEvery; ++r) {
        node.reset();
        mom_ref_[row][static_cast<std::size_t>(r)] = mom_->charge_step(cpus, r);
      }
      node.reset();
      ccm2_ref_[row] = ccm2_->charge_step(cpus).total;

      const std::string c = std::to_string(cpus);
      node.reset();
      const double time350 = mom_->measure_charge_seconds(cpus, kDiagEvery) * 350.0;
      node.reset();
      const double gflops = ccm2_->charge_sustained_equiv_gflops(cpus, 1);
      baselines_ok_ =
          baselines_ok_ &&
          same_bits(time350, committed_metric(cfg_.baselines_dir, "table7_mom",
                                              "table7.mom.seconds@cpus=" + c)) &&
          same_bits(gflops, committed_metric(cfg_.baselines_dir, "fig8_ccm2",
                                             "fig8.ccm2.T170L18.gflops@cpus=" + c));
    }
  }

  IterationResult iterate(SpanRecorder& spans) override {
    Node& node = *node_;
    step_index_ = mom_->steps_taken();
    {
      Scope s(spans, "ocean.step");
      node.reset();
      mom_step_ = mom_->step(1);
    }
    {
      Scope s(spans, "ccm2.step");
      node.reset();
      ccm2_step_ = ccm2_->step(1).total;
    }
    {
      Scope s(spans, "sxs.replay");
      for (std::size_t k = 0; k < kReplayCpus.size(); ++k) {
        node.reset();
        mom_replay_[k] = mom_->charge_step(kReplayCpus[k], step_index_);
        node.reset();
        ccm2_replay_[k] = ccm2_->charge_step(kReplayCpus[k]).total;
      }
    }
    years_->run_slice(spans);
    return {2.0, 0.0};
  }

  bool check(SpanRecorder& spans) override {
    Node& node = *node_;
    const auto r = static_cast<std::size_t>(step_index_ % kDiagEvery);
    bool ok = baselines_ok_;
    // From a reset node, step() must charge exactly what charge_step() does.
    double mom_charge = 0, ccm2_charge = 0;
    {
      Scope s(spans, "ocean.charge");
      node.reset();
      mom_charge = mom_->charge_step(1, step_index_);
    }
    {
      Scope s(spans, "ccm2.charge");
      node.reset();
      ccm2_charge = ccm2_->charge_step(1).total;
    }
    ok = ok && same_bits(mom_step_, mom_charge) &&
         same_bits(mom_step_, mom_ref_[0][r]) &&
         same_bits(ccm2_step_, ccm2_charge) && same_bits(ccm2_step_, ccm2_ref_[0]);
    for (std::size_t k = 0; k < kReplayCpus.size(); ++k) {
      const std::size_t row = table_row(kReplayCpus[k]);
      ok = ok && same_bits(mom_replay_[k], mom_ref_[row][r]) &&
           same_bits(ccm2_replay_[k], ccm2_ref_[row]);
    }
    const double temp = mom_->mean_temperature();
    const double residual = mom_->last_sor_residual();
    ok = ok && temp >= kMeanTempMin && temp <= kMeanTempMax &&
         std::isfinite(residual) && residual <= kSorResidualMax &&
         std::isfinite(ccm2_->energy());
    return years_->check_slice() && ok;
  }

  void finish(std::vector<bool>& verdicts) override { years_->finish(verdicts); }

  void layer_metrics(const SpanRecorder& spans,
                     std::vector<Metric>& out) const override {
    for (const char* model : {"ocean", "ccm2"}) {
      const std::string m = model;
      const auto step = spans.busy_ms_per_iteration((m + ".step").c_str());
      const auto charge = spans.busy_ms_per_iteration((m + ".charge").c_str());
      std::vector<double> numerics;
      for (std::size_t i = 0; i < step.size() && i < charge.size(); ++i) {
        numerics.push_back(step[i] - charge[i]);
      }
      out.push_back({m + ".setup_ms", median(spans.busy_ms((m + ".setup").c_str())), "", ""});
      out.push_back({m + ".step_ms", median(step), "", ""});
      out.push_back({m + ".charge_ms", median(charge), "", ""});
      out.push_back({m + ".numerics_ms", median(numerics), "", ""});
    }
    out.push_back({"sxs.replay_ms", median(spans.busy_ms("sxs.replay")), "", ""});
    years_->layer_metrics(spans, out);
  }

private:
  /// Relative 1e-3 noise on every ocean temperature and up to 0.01 K on
  /// every atmosphere temperature, drawn from the seed.
  void perturb() {
    InputRng rng(cfg_.seed);
    {
      std::vector<double> state = mom_->checkpoint();
      const auto& mc = mom_->config();
      const std::size_t n = static_cast<std::size_t>(mc.nlon) *
                            static_cast<std::size_t>(mc.nlat) *
                            static_cast<std::size_t>(mc.nlev);
      // Layout: step count, then temperature, salinity, psi, u, v.
      for (std::size_t i = 1; i <= n; ++i) {
        if (state[i] != 0.0) state[i] *= 1.0 + 1e-3 * rng.symmetric();
      }
      mom_->restore(state);
    }
    {
      std::vector<double> state = ccm2_->checkpoint();
      const auto& cc = ccm2_->config();
      const std::size_t levels = static_cast<std::size_t>(cc.active_levels);
      const std::size_t spec = static_cast<std::size_t>(ccm2_->transform().spec_size());
      const std::size_t grid = static_cast<std::size_t>(cc.res.nlon) *
                               static_cast<std::size_t>(cc.res.nlat);
      // Layout: step count, zeta, zeta_prev (complex), moisture, temperature.
      const std::size_t temp0 = 1 + 4 * spec * levels + grid * levels;
      for (std::size_t i = temp0; i < temp0 + grid * levels; ++i) {
        state[i] += 0.01 * rng.symmetric();
      }
      ccm2_->restore(state);
    }
  }

  RunConfig cfg_;
  ncar::ThreadPool& pool_;
  std::unique_ptr<Node> node_;
  std::unique_ptr<ncar::ocean::Mom> mom_;
  std::unique_ptr<ncar::ccm2::Ccm2> ccm2_;
  std::unique_ptr<YearRunner> years_;

  std::array<std::array<double, kDiagEvery>, kTableCpus.size()> mom_ref_{};
  std::array<double, kTableCpus.size()> ccm2_ref_{};
  bool baselines_ok_ = true;

  long step_index_ = 0;
  double mom_step_ = 0, ccm2_step_ = 0;
  std::array<double, kReplayCpus.size()> mom_replay_{}, ccm2_replay_{};
};

}  // namespace

std::unique_ptr<Workload> make_model_steps(const RunConfig& cfg,
                                           ncar::ThreadPool& pool) {
  return std::make_unique<ModelSteps>(cfg, pool);
}

}  // namespace hostbench
