// prodload_year: the DES calendar and RNG plus the prodload logical
// processes, no sxs and no numerics. A run simulates whole years of the
// synthetic NQS mix (des_year.hpp), one simulated month per iteration.

#include <memory>

#include "des_year.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

constexpr int kMonths = 12;

class ProdloadYear final : public Workload {
public:
  ProdloadYear(const RunConfig& cfg, ncar::ThreadPool&) : seed_(cfg.seed) {}

  void setup(SpanRecorder& spans) override {
    years_ = std::make_unique<YearRunner>(seed_, kMonths, spans);
  }

  IterationResult iterate(SpanRecorder& spans) override {
    return {static_cast<double>(years_->run_slice(spans)), 0.0};
  }

  bool check(SpanRecorder&) override { return years_->check_slice(); }

  void finish(std::vector<bool>& verdicts) override { years_->finish(verdicts); }

  void layer_metrics(const SpanRecorder& spans,
                     std::vector<Metric>& out) const override {
    years_->layer_metrics(spans, out);
  }

private:
  std::uint64_t seed_;
  std::unique_ptr<YearRunner> years_;
};

}  // namespace

std::unique_ptr<Workload> make_prodload_year(const RunConfig& cfg,
                                             ncar::ThreadPool& pool) {
  return std::make_unique<ProdloadYear>(cfg, pool);
}

}  // namespace hostbench
