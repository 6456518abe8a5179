#include "ocean/mom.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "simd/simd.hpp"
#include "sxs/machine_config.hpp"

namespace {

using namespace ncar;

class MomTest : public ::testing::Test {
protected:
  MomTest() : node(sxs::MachineConfig::sx4_benchmarked()) {}
  sxs::Node node;
};

TEST_F(MomTest, LowResolutionConfigMatchesPaper) {
  // "The low resolution version has a nominal horizontal resolution of 3
  // degrees ... with 25 levels"; high resolution 1 degree, 45 levels.
  const auto lo = ocean::MomConfig::low_resolution();
  EXPECT_EQ(lo.nlon, 120);
  EXPECT_EQ(lo.nlev, 25);
  const auto hi = ocean::MomConfig::high_resolution();
  EXPECT_EQ(hi.nlon, 360);
  EXPECT_EQ(hi.nlat, 180);
  EXPECT_EQ(hi.nlev, 45);
}

TEST_F(MomTest, SorSolverConverges) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  mom.step(1);
  // 60 SOR sweeps on the coarse grid drive the residual well down from the
  // O(1e-11) forcing magnitude.
  EXPECT_LT(mom.last_sor_residual(), 1e-11);
  EXPECT_GT(mom.last_sor_residual(), 0.0);
}

TEST_F(MomTest, TemperatureStaysPhysicalOver40Steps) {
  // Paper: "A run of 40 timesteps ... is used for testing and verification".
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 40; ++s) mom.step(2);
  EXPECT_GT(mom.mean_temperature(), 0.0);
  EXPECT_LT(mom.mean_temperature(), 30.0);
  EXPECT_GT(mom.mean_salinity(), 33.0);
  EXPECT_LT(mom.mean_salinity(), 36.0);
}

TEST_F(MomTest, CirculationSpinsUpFromRest) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  EXPECT_DOUBLE_EQ(mom.barotropic_ke(), 0.0);
  mom.step(1);
  EXPECT_GT(mom.barotropic_ke(), 0.0);
}

TEST_F(MomTest, ConvectiveAdjustmentKeepsColumnsStable) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 10; ++s) mom.step(1);
  // After adjustment, no deeper cell may be warmer than the one above.
  EXPECT_TRUE(mom.columns_statically_stable());
}

TEST_F(MomTest, DeterministicAcrossCpuCounts) {
  ocean::Mom a(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 5; ++s) a.step(1);
  ocean::Mom b(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 5; ++s) b.step(16);
  EXPECT_DOUBLE_EQ(a.checksum(), b.checksum());
}

TEST_F(MomTest, DiagnosticsStepIsSlower) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  // Steps 1..9 have no diagnostics; step 10 does.
  double t9 = 0;
  for (int s = 0; s < 9; ++s) t9 = mom.step(1);
  const double t10 = mom.step(1);
  EXPECT_GT(t10, t9);
}

TEST_F(MomTest, SpeedupShapeMatchesTable7) {
  // The headline: modest scalability — speedup at 32 CPUs lands near 9,
  // far below ideal (paper Table 7).
  ocean::Mom mom(ocean::MomConfig::high_resolution(), node);
  node.reset();
  mom.reset();
  const double t1 = mom.measure_step_seconds(1, 10);
  node.reset();
  mom.reset();
  const double t32 = mom.measure_step_seconds(32, 10);
  const double speedup = t1 / t32;
  EXPECT_GT(speedup, 6.0);
  EXPECT_LT(speedup, 12.0);
}

// The memoized replay contract: MOM's charges depend only on the config,
// the immutable land mask, ncpu, and the step index's diagnostics parity —
// never on the prognostic fields — so replaying charges must reproduce the
// full step's timing and per-CPU accumulators bit for bit.
TEST_F(MomTest, ChargeReplayBitIdenticalToFullStep) {
  sxs::Node node_full(sxs::MachineConfig::sx4_benchmarked());
  sxs::Node node_replay(sxs::MachineConfig::sx4_benchmarked());
  ocean::Mom full(ocean::MomConfig::low_resolution(), node_full);
  ocean::Mom replay(ocean::MomConfig::low_resolution(), node_replay);
  // Span a diagnostics step so the parity-dependent serial charge is hit.
  const int nsteps = static_cast<int>(
      ocean::MomConfig::low_resolution().diag_every) + 2;
  for (int s = 0; s < nsteps; ++s) {
    const double a = full.step(4);
    const double b = replay.charge_step(4, s);
    EXPECT_EQ(a, b) << "step " << s;
  }
  EXPECT_EQ(node_full.elapsed_seconds(), node_replay.elapsed_seconds());
  for (int r = 0; r < node_full.cpu_count(); ++r) {
    EXPECT_EQ(node_full.cpu(r).cycles(), node_replay.cpu(r).cycles());
  }
}

// MOM's numerics pinned to the last bit. The bench gate compares at a 2%
// tolerance and the physical bands are wider still, so a rewrite of the
// stencil, the convective adjustment or the SOR sweep that drifts by one
// ulp shows only here. The literals were taken from the per-row
// kernel-call implementation the fused row pass replaced; every SIMD
// backend must reproduce them.
TEST_F(MomTest, GoldenStateIsBitExactUnderEveryBackend) {
  const simd::Backend before = simd::active();
  for (int b = 0; b < simd::kBackendCount; ++b) {
    const auto backend = static_cast<simd::Backend>(b);
    if (!simd::supported(backend)) continue;
    simd::set_backend(backend);
    SCOPED_TRACE(simd::to_string(backend));
    // 12 steps cross the step-10 diagnostics.
    ocean::Mom lo(ocean::MomConfig::low_resolution(), node);
    for (int s = 0; s < 12; ++s) lo.step(1);
    EXPECT_EQ(lo.checksum(), 0x1.8c1e09fb12876p+19);
    EXPECT_EQ(lo.mean_temperature(), 0x1.a90aebe643ca3p+2);
    EXPECT_EQ(lo.last_sor_residual(), 0x1.4cp-80);
    EXPECT_EQ(lo.barotropic_ke(), 0x1.8d5fb693177d1p-33);

    ocean::Mom hi(ocean::MomConfig::high_resolution(), node);
    for (int s = 0; s < 2; ++s) hi.step(1);
    EXPECT_EQ(hi.checksum(), 0x1.88cf53052ad45p+23);
    EXPECT_EQ(hi.mean_temperature(), 0x1.9ce484e79e177p+2);
    EXPECT_EQ(hi.last_sor_residual(), 0x1.92259c6a67a9fp-37);
    EXPECT_EQ(hi.barotropic_ke(), 0x1.1ea206e09c041p-27);

    // The runs above never trip the convective adjustment, so start one
    // from columns made unstable: every other level of every third ocean
    // column is 4 degrees warmer than the level above it.
    const auto cfg = ocean::MomConfig::low_resolution();
    ocean::Mom mixed(cfg, node);
    std::vector<double> state = mixed.checkpoint();
    const std::size_t plane = static_cast<std::size_t>(cfg.nlon * cfg.nlat);
    for (int k = 1; k < cfg.nlev; k += 2) {
      for (int j = 0; j < cfg.nlat; ++j) {
        for (int i = j % 3; i < cfg.nlon; i += 3) {
          if (!mixed.mask().ocean(i, j)) continue;
          // checkpoint(): the step count, then temperature (i fastest).
          state[1 + static_cast<std::size_t>(k) * plane +
                static_cast<std::size_t>(j * cfg.nlon + i)] += 4.0;
        }
      }
    }
    mixed.restore(state);
    ASSERT_FALSE(mixed.columns_statically_stable());
    for (int s = 0; s < 3; ++s) mixed.step(1);
    EXPECT_EQ(mixed.checksum(), 0x1.a54d6d09485bap+19);
    EXPECT_EQ(mixed.mean_temperature(), 0x1.d21d090b50d44p+2);
  }
  simd::set_backend(before);
}

TEST_F(MomTest, ResetRestoresState) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  const double c0 = mom.checksum();
  for (int s = 0; s < 3; ++s) mom.step(1);
  mom.reset();
  EXPECT_DOUBLE_EQ(mom.checksum(), c0);
}

TEST_F(MomTest, InvalidArgsThrow) {
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  EXPECT_THROW(mom.step(0), ncar::precondition_error);
  EXPECT_THROW(mom.step(64), ncar::precondition_error);
  EXPECT_THROW(mom.measure_step_seconds(1, 0), ncar::precondition_error);
}

}  // namespace
