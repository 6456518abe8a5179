#pragma once
// MOM — rigid-lid finite-difference ocean model benchmark (paper 4.7.2).
//
// Based on the structure of GFDL MOM 1.1 as the NCAR benchmark configures
// it: rigid-lid Boussinesq primitive equations in latitude-longitude-depth
// coordinates, predicting temperature, salinity and velocity. The high
// resolution version is nominally 1 degree with 45 levels; the low
// resolution 3-degree / 25-level version exists "for familiarization and
// porting verification". The benchmark runs 350 timesteps and prints model
// diagnostics every 10 timesteps — which the paper names as one reason for
// the modest scalability (Table 7).
//
// The pieces that drive performance are all here and real:
//   * a barotropic streamfunction Poisson solve (SOR) on the masked grid —
//     the rigid-lid solver, synchronisation-heavy at high CPU counts;
//   * baroclinic advection-diffusion of T and S over the masked 3-D grid,
//     block-decomposed by latitude (load imbalance from the continents);
//   * unvectorised per-point work (equation of state, convective
//     adjustment, implicit vertical mixing) charged to the scalar unit —
//     "the algorithms and coding of the application";
//   * serial diagnostics every 10 steps.
//
// The host runs these loops as the SX-4 would, streaming: one fused SIMD
// pass per row and level for the baroclinic update, and a branch-free SOR
// sweep (DESIGN.md section 12.5).

#include "common/array.hpp"
#include "ocean/mask.hpp"
#include "sxs/node.hpp"

namespace ncar::ocean {

struct MomConfig {
  int nlon = 360;
  int nlat = 180;
  int nlev = 45;
  double dt_seconds = 3600.0;
  int diag_every = 10;   ///< the benchmark prints diagnostics every 10 steps
  int sor_iters = 60;    ///< rigid-lid SOR iterations per step
  double sor_omega = 1.7;

  // --- cost model (per ocean point per step), calibrated to Table 7 -------
  int vec_passes = 17;          ///< vectorised FD passes over the 3-D grid
  double vec_flops = 8.0;       ///< per point per pass
  double vec_loads = 5.0;
  double vec_gather = 1.0;      ///< masked compression list-vectors
  double vec_stores = 1.0;
  double sc_flops = 90.0;       ///< unvectorised EOS / convection / mixing
  double sc_mem = 90.0;
  double sc_other = 211.0;
  double diag_flops = 14.0;     ///< serial diagnostics, per 3-D point
  double diag_mem = 20.0;
  double diag_other = 34.0;
  int diag_passes = 2;

  /// The benchmark configuration: nominal 1 degree, 45 levels.
  static MomConfig high_resolution();
  /// The porting/verification configuration: 3 degrees, 25 levels.
  static MomConfig low_resolution();
};

class Mom {
public:
  Mom(const MomConfig& cfg, sxs::Node& node);

  const MomConfig& config() const { return cfg_; }
  const LandMask& mask() const { return mask_; }

  void reset();

  /// One timestep on `ncpu` processors; returns simulated seconds
  /// (diagnostics included on every diag_every-th step).
  double step(int ncpu);

  /// Charge one step's timing model without advancing the ocean state.
  /// MOM's charges depend only on the configuration, the (immutable) land
  /// mask, `ncpu`, and the step index parity for the every-diag_every-steps
  /// serial diagnostics — so from the same node state this issues exactly
  /// the charge sequence step() at `step_index` would, returning the
  /// bit-identical simulated seconds.
  double charge_step(int ncpu, long step_index) const;

  long steps_taken() const { return steps_; }

  // --- physical diagnostics ------------------------------------------------
  double mean_temperature() const;
  double mean_salinity() const;
  double barotropic_ke() const;      ///< kinetic energy proxy of psi flow
  double last_sor_residual() const;  ///< max |residual| after the solve
  /// True when no ocean column has deeper water warmer than shallower
  /// water (convective adjustment invariant).
  bool columns_statically_stable() const;
  double checksum() const;

  /// Average simulated seconds per step over `nsteps` fresh steps (the
  /// every-10-steps diagnostics pattern should divide nsteps).
  double measure_step_seconds(int ncpu, int nsteps = 10);
  /// Charge-replay variant of measure_step_seconds: same simulated numbers
  /// (see charge_step), without running the host-side numerics.
  double measure_charge_seconds(int ncpu, int nsteps = 10) const;

  // --- checkpoint / restart (paper section 2.6.2) --------------------------
  std::vector<double> checkpoint() const;
  void restore(const std::vector<double>& state);
  double checkpoint_bytes() const;

private:
  void solve_barotropic();
  void baroclinic_step();
  void compute_diagnostics();

  MomConfig cfg_;
  sxs::Node* node_;
  LandMask mask_;
  Array3D<double> temp_, salt_;
  Array2D<double> psi_, forcing_, u_, v_;
  // The land mask as 0/1 doubles: the baroclinic row kernel and the SOR
  // sweep select on it instead of branching.
  Array2D<double> mask_c_;
  // Two computed rows not yet committed to the field (see baroclinic_step);
  // sized in the constructor so baroclinic_step never allocates.
  std::vector<double> ring_;
  double sor_residual_ = 0;
  double diag_mean_t_ = 0, diag_ke_ = 0;
  long steps_ = 0;
};

}  // namespace ncar::ocean
