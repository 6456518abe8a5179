#include "ccm2/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "simd/simd.hpp"
#include "sxs/machine_config.hpp"
#include "trace/category.hpp"
#include "trace/collector.hpp"

namespace {

using namespace ncar;

class Ccm2Test : public ::testing::Test {
protected:
  Ccm2Test() : node(sxs::MachineConfig::sx4_benchmarked()) {}

  ccm2::Ccm2Config small_config() const {
    ccm2::Ccm2Config c;
    c.res.name = "T21L4-test";
    c.res.truncation = 21;
    c.res.nlat = 32;
    c.res.nlon = 64;
    c.res.nlev = 4;
    c.res.dt_seconds = 1800.0;
    c.active_levels = 2;
    c.radiation_col_stride = 1;  // full physics numerics at test size
    return c;
  }

  sxs::Node node;
};

TEST_F(Ccm2Test, ResolutionTableMatchesPaperTable4) {
  const auto t42 = ccm2::t42l18();
  EXPECT_EQ(t42.nlat, 64);
  EXPECT_EQ(t42.nlon, 128);
  EXPECT_EQ(t42.nlev, 18);
  EXPECT_DOUBLE_EQ(t42.dt_seconds, 1200.0);
  EXPECT_EQ(t42.steps_per_day(), 72);
  const auto t170 = ccm2::t170l18();
  EXPECT_EQ(t170.nlat, 256);
  EXPECT_EQ(t170.nlon, 512);
  EXPECT_DOUBLE_EQ(t170.dt_seconds, 300.0);
  EXPECT_EQ(ccm2::table4().size(), 5u);
  EXPECT_THROW(ccm2::resolution_by_name("T999"), ncar::precondition_error);
}

TEST_F(Ccm2Test, IntegrationIsStableOver100Steps) {
  ccm2::Ccm2 model(small_config(), node);
  const double e0 = model.energy();
  for (int s = 0; s < 100; ++s) model.step(1);
  const double e1 = model.energy();
  EXPECT_TRUE(std::isfinite(e1));
  // Hyperdiffusion dissipates slowly; energy must not grow or collapse.
  EXPECT_LT(e1, 1.05 * e0);
  EXPECT_GT(e1, 0.5 * e0);
}

TEST_F(Ccm2Test, EnstrophyApproximatelyConserved) {
  // The BVE conserves enstrophy exactly; the del^4 hyperdiffusion and
  // Robert filter drain it slowly (a few percent over 50 steps).
  ccm2::Ccm2 model(small_config(), node);
  const double z0 = model.enstrophy();
  for (int s = 0; s < 50; ++s) model.step(1);
  EXPECT_LT(model.enstrophy(), z0 * 1.001);  // never grows
  EXPECT_GT(model.enstrophy(), z0 * 0.85);   // drains only slowly
}

TEST_F(Ccm2Test, MoistureStaysPositiveAndNearlyConserved) {
  ccm2::Ccm2 model(small_config(), node);
  const double m0 = model.moisture_mass(0);
  for (int s = 0; s < 50; ++s) model.step(1);
  for (double v : model.moisture(0).flat()) EXPECT_GE(v, 0.0);
  // Condensation only removes; transport drift is small.
  EXPECT_LE(model.moisture_mass(0), m0 * 1.001);
  EXPECT_GE(model.moisture_mass(0), m0 * 0.90);
}

TEST_F(Ccm2Test, TemperatureStaysPhysical) {
  ccm2::Ccm2 model(small_config(), node);
  for (int s = 0; s < 100; ++s) model.step(1);
  for (double t : model.temperature(0).flat()) {
    EXPECT_GT(t, 150.0);
    EXPECT_LT(t, 350.0);
  }
}

TEST_F(Ccm2Test, DeterministicChecksum) {
  ccm2::Ccm2 a(small_config(), node);
  for (int s = 0; s < 10; ++s) a.step(2);
  const double ca = a.checksum();
  ccm2::Ccm2 b(small_config(), node);
  for (int s = 0; s < 10; ++s) b.step(4);  // CPU count must not change physics
  EXPECT_EQ(ca, b.checksum());
}

TEST_F(Ccm2Test, GoldenStateIsBitExactUnderEveryBackend) {
  // Hexfloat literals taken from the one-latitude-at-a-time spectral
  // transform; the lane-blocked transform must reproduce them bit for bit.
  const simd::Backend before = simd::active();
  for (int b = 0; b < simd::kBackendCount; ++b) {
    const auto backend = static_cast<simd::Backend>(b);
    if (!simd::supported(backend)) continue;
    simd::set_backend(backend);
    SCOPED_TRACE(simd::to_string(backend));

    ccm2::Ccm2 t21(small_config(), node);
    for (int s = 0; s < 10; ++s) t21.step(1);
    EXPECT_EQ(t21.checksum(), 0x1.80ff522789793p+4);
    EXPECT_EQ(t21.energy(), 0x1.0cd91a9adb3fp+8);
    EXPECT_EQ(t21.enstrophy(), 0x1.f4a17fbb1e7a2p-35);
    EXPECT_EQ(t21.moisture_mass(0), 0x1.011786ef477ccp-6);
    EXPECT_EQ(t21.moisture_mass(1), 0x1.a4997aa910548p-7);
    EXPECT_EQ(t21.temperature(0)(5, 3), 0x1.fd2d20f64eacap+7);

    // 13 latitudes: one full block of 8 and a ragged block of 5.
    auto rc = small_config();
    rc.res.name = "T10L2-ragged";
    rc.res.truncation = 10;
    rc.res.nlat = 13;
    rc.res.nlon = 24;
    rc.res.nlev = 2;
    ccm2::Ccm2 ragged(rc, node);
    for (int s = 0; s < 10; ++s) ragged.step(1);
    EXPECT_EQ(ragged.checksum(), 0x1.e01d292d81a6ap+1);
    EXPECT_EQ(ragged.energy(), 0x1.f9ced203215c3p+7);
    EXPECT_EQ(ragged.enstrophy(), 0x1.859ab8682a921p-35);
    EXPECT_EQ(ragged.moisture_mass(0), 0x1.00d34a5ee5571p-6);
    EXPECT_EQ(ragged.moisture_mass(1), 0x1.a42c9035b83cap-7);
    EXPECT_EQ(ragged.temperature(0)(5, 3), 0x1.0eb1ac60a9956p+8);

    // fig8_ccm2's T170 configuration.
    ccm2::Ccm2Config fc;
    fc.res = ccm2::t170l18();
    fc.active_levels = 1;
    ccm2::Ccm2 t170(fc, node);
    for (int s = 0; s < 2; ++s) t170.step(1);
    EXPECT_EQ(t170.checksum(), 0x1.a2086e4e23aa8p+9);
    EXPECT_EQ(t170.energy(), 0x1.0e043b60d5a2ap+8);
    EXPECT_EQ(t170.enstrophy(), 0x1.fd13ac2d556e5p-35);
    EXPECT_EQ(t170.moisture_mass(0), 0x1.015bac9d16d42p-6);
    EXPECT_EQ(t170.temperature(0)(5, 3), 0x1.f425d81285002p+7);
  }
  simd::set_backend(before);
}

TEST_F(Ccm2Test, ResetRestoresInitialState) {
  ccm2::Ccm2 model(small_config(), node);
  const double c0 = model.checksum();
  for (int s = 0; s < 5; ++s) model.step(1);
  model.reset();
  EXPECT_DOUBLE_EQ(model.checksum(), c0);
  EXPECT_EQ(model.steps_taken(), 0);
}

TEST_F(Ccm2Test, MoreCpusReduceSimulatedTime) {
  ccm2::Ccm2 model(small_config(), node);
  node.reset();
  model.reset();
  const double t1 = model.measure_step_seconds(1, 2);
  node.reset();
  model.reset();
  const double t8 = model.measure_step_seconds(8, 2);
  EXPECT_LT(t8, t1);
}

TEST_F(Ccm2Test, SerialSectionBoundsParallelGain) {
  // With the serial per-step overhead, speedup must stay below ideal.
  ccm2::Ccm2 model(small_config(), node);
  node.reset();
  model.reset();
  const double t1 = model.measure_step_seconds(1, 2);
  node.reset();
  model.reset();
  const double t32 = model.measure_step_seconds(32, 2);
  EXPECT_LT(t1 / t32, 32.0);
  EXPECT_GT(t1 / t32, 1.0);
}

TEST_F(Ccm2Test, StepTimingComponentsSumToTotal) {
  ccm2::Ccm2 model(small_config(), node);
  const auto t = model.step(4);
  const double sum = t.serial + t.spectral_local + t.synthesis + t.ffts +
                     t.grid + t.analysis + t.slt + t.physics;
  EXPECT_NEAR(t.total, sum, 1e-12);
  EXPECT_GT(t.synthesis, 0.0);
  EXPECT_GT(t.physics, 0.0);
}

TEST_F(Ccm2Test, SustainedGflopsPositiveAndBelowNodePeak) {
  ccm2::Ccm2 model(small_config(), node);
  node.reset();
  model.reset();
  const double g = model.sustained_equiv_gflops(32, 2);
  EXPECT_GT(g, 0.0);
  const double peak =
      node.config().peak_flops_per_cpu() * node.config().cpus_per_node / 1e9;
  EXPECT_LT(g, peak);
}

TEST_F(Ccm2Test, HistoryVolumeMatchesShape) {
  ccm2::Ccm2Config c;
  c.res = ccm2::t63l18();
  ccm2::Ccm2 model(c, node);
  // Paper: ~15 GB over a year at T63L18.
  const double year_gb = model.history_bytes().value() * 365 / 1e9;
  EXPECT_GT(year_gb, 12.0);
  EXPECT_LT(year_gb, 18.0);
}

TEST_F(Ccm2Test, InvalidConfigThrows) {
  auto c = small_config();
  c.active_levels = 0;
  EXPECT_THROW(ccm2::Ccm2(c, node), ncar::precondition_error);
  c = small_config();
  c.active_levels = 99;
  EXPECT_THROW(ccm2::Ccm2(c, node), ncar::precondition_error);
  ccm2::Ccm2 ok(small_config(), node);
  EXPECT_THROW(ok.step(0), ncar::precondition_error);
  EXPECT_THROW(ok.step(33), ncar::precondition_error);
  EXPECT_THROW(ok.moisture(7), ncar::precondition_error);
}

// The memoized replay contract: timing charges depend only on (config,
// ncpu), never on the prognostic fields, so charge_step() must reproduce
// step()'s timing and per-CPU accumulator trajectory bit for bit.
TEST_F(Ccm2Test, ChargeReplayBitIdenticalToFullStep) {
  sxs::Node node_full(sxs::MachineConfig::sx4_benchmarked());
  sxs::Node node_replay(sxs::MachineConfig::sx4_benchmarked());
  ccm2::Ccm2 full(small_config(), node_full);
  ccm2::Ccm2 replay(small_config(), node_replay);
  for (int s = 0; s < 3; ++s) {
    const auto a = full.step(4);
    const auto b = replay.charge_step(4);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.serial, b.serial);
    EXPECT_EQ(a.spectral_local, b.spectral_local);
    EXPECT_EQ(a.synthesis, b.synthesis);
    EXPECT_EQ(a.ffts, b.ffts);
    EXPECT_EQ(a.grid, b.grid);
    EXPECT_EQ(a.analysis, b.analysis);
    EXPECT_EQ(a.slt, b.slt);
    EXPECT_EQ(a.physics, b.physics);
  }
  EXPECT_EQ(node_full.elapsed_seconds(), node_replay.elapsed_seconds());
  for (int r = 0; r < node_full.cpu_count(); ++r) {
    EXPECT_EQ(node_full.cpu(r).cycles(), node_replay.cpu(r).cycles());
    EXPECT_EQ(node_full.cpu(r).equiv_flops().value(),
              node_replay.cpu(r).equiv_flops().value());
  }
}

TEST_F(Ccm2Test, ChargeGflopsMatchFullVariantExactly) {
  sxs::Node node_full(sxs::MachineConfig::sx4_benchmarked());
  sxs::Node node_replay(sxs::MachineConfig::sx4_benchmarked());
  ccm2::Ccm2 full(small_config(), node_full);
  ccm2::Ccm2 replay(small_config(), node_replay);
  EXPECT_EQ(full.sustained_equiv_gflops(8, 2),
            replay.charge_sustained_equiv_gflops(8, 2));
  EXPECT_EQ(full.measure_step_seconds(8, 2),
            replay.measure_charge_seconds(8, 2));
}

// The SLT interpolation region is filed under its own attribution category,
// and the category choice must never perturb the simulated timing: Off and
// Summary tracing modes produce bit-identical StepTimings.
TEST_F(Ccm2Test, SltChargesFileUnderSltInterpWithoutPerturbingTiming) {
  const trace::Mode before = trace::mode();
  sxs::Node node_off(sxs::MachineConfig::sx4_benchmarked());
  sxs::Node node_sum(sxs::MachineConfig::sx4_benchmarked());
  ccm2::Ccm2 off_model(small_config(), node_off);
  ccm2::Ccm2 sum_model(small_config(), node_sum);

  trace::set_mode(trace::Mode::Off);
  const auto a = off_model.charge_step(4);
  trace::set_mode(trace::Mode::Summary);
  const auto b = sum_model.charge_step(4);
  trace::set_mode(before);

  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.slt, b.slt);
  EXPECT_EQ(node_off.elapsed_seconds(), node_sum.elapsed_seconds());

  // Every rank that ran region 5 booked its SLT cycles under slt_interp —
  // in both modes (counters are always on; Summary only refines carves).
  double slt_ticks = 0.0;
  for (int r = 0; r < node_sum.cpu_count(); ++r) {
    slt_ticks +=
        node_sum.cpu(r).trace().category_ticks(trace::Category::SltInterp);
  }
  EXPECT_GT(slt_ticks, 0.0);
}

// The op-cost cache's reason to exist: a CCM2 charge replay re-prices the
// same per-row descriptors step after step, so the steady-state hit rate
// must be high.
TEST_F(Ccm2Test, ChargeReplayHitRateAbove90Percent) {
  ccm2::Ccm2 model(small_config(), node);
  for (int s = 0; s < 10; ++s) model.charge_step(4);
  const double hits = static_cast<double>(node.cost_cache_hits());
  const double misses = static_cast<double>(node.cost_cache_misses());
  ASSERT_GT(hits + misses, 0.0);
  EXPECT_GT(hits / (hits + misses), 0.90);
}

// The ensemble property (Table 6's mechanism): external load inflates a
// job's time by a small percentage.
TEST_F(Ccm2Test, ExternalLoadCausesPercentLevelDegradation) {
  ccm2::Ccm2 model(small_config(), node);
  node.reset();
  model.reset();
  const double quiet = model.measure_step_seconds(4, 2);
  node.reset();
  model.reset();
  node.set_external_active_cpus(28);
  const double loaded = model.measure_step_seconds(4, 2);
  node.set_external_active_cpus(0);
  const double deg = loaded / quiet - 1.0;
  EXPECT_GT(deg, 0.005);
  EXPECT_LT(deg, 0.04);
}

}  // namespace
