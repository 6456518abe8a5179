#pragma once
// CCM2-like spectral atmospheric model (paper section 4.7.1).
//
// The computational skeleton matches the paper's description of CCM2:
//   * spectral transform dynamics on a Gaussian grid (FFT in longitude,
//     Gauss–Legendre quadrature in latitude, triangular truncation);
//   * non-linear terms formed in grid space, linear terms and horizontal
//     derivatives applied in spectral space (local there);
//   * column physics, numerically independent in the horizontal, dominated
//     by RADABS-style intrinsic-heavy radiation;
//   * shape-preserving semi-Lagrangian transport of water vapour with
//     indirect addressing on the Gaussian grid.
//
// The dynamical core solves the nonlinear barotropic vorticity equation
// per level (leapfrog + Robert–Asselin filter, implicit del^4 diffusion) —
// a real, testable spectral dycore with the same transform structure and
// cost profile as CCM2's dry dynamics. Substitutions for host-cost reasons
// (documented in DESIGN.md): only `active_levels` levels are integrated
// numerically (every level is *charged*; per-level work is identical), and
// radiation numerics sample every `radiation_col_stride`-th column while
// the timing model is charged for all columns.
//
// Parallelisation mirrors CCM2's macrotasked structure: latitude-parallel
// grid/physics/FFT/synthesis regions and wavenumber-parallel analysis and
// spectral regions, with a barrier between regions (Node::parallel).

#include <complex>
#include <memory>
#include <vector>

#include "ccm2/resolution.hpp"
#include "ccm2/slt.hpp"
#include "common/array.hpp"
#include "fft/complex_fft.hpp"
#include "iosim/disk.hpp"
#include "iosim/history.hpp"
#include "spectral/sht.hpp"
#include "sxs/node.hpp"

namespace ncar::ccm2 {

struct Ccm2Config {
  Resolution res = t42l18();
  double radius = 6.371e6;          ///< earth radius (m)
  double omega = 7.292e-5;          ///< rotation rate (1/s)
  double u0 = 25.0;                 ///< initial zonal jet speed (m/s)
  double wave_amplitude = 6e-6;     ///< initial m=4 Rossby wave vorticity
  double hyperdiff_tau_s = 9000.0;  ///< e-folding time of the smallest scale
  double asselin = 0.05;            ///< Robert–Asselin filter coefficient
  int active_levels = 2;            ///< levels integrated numerically
  int radiation_col_stride = 16;    ///< radiation numerics column sampling
  int history_fields = 16;          ///< 3-D field slices per history write

  // --- full-CCM2 cost accounting -----------------------------------------
  // The numerical dycore evolves one prognostic field per level; CCM2
  // evolves vorticity, divergence, temperature and surface pressure, with
  // correspondingly more transform passes. Charges scale with this count.
  int dynamics_fields = 4;
  // Longwave absorptivity pairs refreshed per step (the O(nlev^2) RADABS
  // table amortised over the radiation cycle).
  int radiation_pairs_per_step = 60;
  // Plain-arithmetic flops per grid point per level for the remaining
  // physics parameterisations (clouds, convection, PBL, surface).
  double physics_param_flops = 220.0;
  // Serial per-step section: time-step management, history buffering, SLT
  // setup and macrotask dispatch that does not parallelise. Calibrated so
  // Table 5's one-year times and Figure 8's T170 sustained rate hold
  // simultaneously (see EXPERIMENTS.md).
  double serial_overhead_s = 0.030;
};

/// Per-step simulated timing broken down by model section.
struct StepTiming {
  double total = 0;
  double serial = 0;          ///< per-step serial management section
  double spectral_local = 0;  ///< inverse Laplacian, update, diffusion
  double synthesis = 0;       ///< Legendre synthesis + gradients
  double ffts = 0;
  double grid = 0;            ///< nonlinear terms on the Gaussian grid
  double analysis = 0;
  double slt = 0;
  double physics = 0;
};

class Ccm2 {
public:
  Ccm2(const Ccm2Config& cfg, sxs::Node& node);

  const Ccm2Config& config() const { return cfg_; }
  const spectral::ShTransform& transform() const { return sht_; }

  /// Reset the state to the initial jet + Rossby wave + moist blob.
  void reset();

  /// Advance one time step on `ncpu` processors of the node. Returns the
  /// simulated wall-clock of the step (also accumulated on the node).
  StepTiming step(int ncpu);

  /// Charge one step's timing model against the node WITHOUT advancing the
  /// numerical state. CCM2's per-step charges depend only on the
  /// configuration and `ncpu` — never on the prognostic fields — so from
  /// the same node state this issues the exact charge sequence step() would
  /// and returns the bit-identical StepTiming. Performance harnesses that
  /// only need timing (CPU-count sweeps, ensemble replays) use this to skip
  /// the host-side numerics, which dominate real wall time.
  StepTiming charge_step(int ncpu) const;

  long steps_taken() const { return steps_; }

  // --- diagnostics (level 0 unless noted) ---------------------------------
  /// Spectral enstrophy 0.5 sum |zeta|^2 (conserved by the inviscid BVE).
  double enstrophy() const;
  /// Spectral kinetic energy 0.5 sum |zeta|^2 / (n(n+1)/a^2).
  double energy() const;
  /// Quadrature-weighted global moisture integral at `level`.
  double moisture_mass(int level) const;
  /// Deterministic state checksum (regression anchor).
  double checksum() const;
  const Array2D<double>& moisture(int level) const;
  const Array2D<double>& temperature(int level) const;

  // --- performance harness --------------------------------------------------
  /// Average simulated seconds per step over `nsteps` fresh steps.
  double measure_step_seconds(int ncpu, int nsteps);
  /// Sustained Cray-equivalent Gflops over `nsteps` fresh steps.
  double sustained_equiv_gflops(int ncpu, int nsteps);
  /// Charge-replay variants: same simulated numbers as the step()-driven
  /// measurements (see charge_step), without evolving the state.
  double measure_charge_seconds(int ncpu, int nsteps) const;
  double charge_sustained_equiv_gflops(int ncpu, int nsteps) const;

  // --- checkpoint / restart (paper section 2.6.2) ---------------------------
  /// Serialise the full prognostic state ("no special programming is
  /// required for checkpointing" — NQS snapshots the whole job).
  std::vector<double> checkpoint() const;
  /// Restore a checkpoint; continuation is bit-identical (tested).
  void restore(const std::vector<double>& state);
  /// Bytes an NQS checkpoint of this state would write.
  double checkpoint_bytes() const;

  // --- history I/O ------------------------------------------------------------
  iosim::HistoryShape history_shape() const;
  Bytes history_bytes() const;
  /// Simulated seconds to write one (daily) history volume.
  Seconds write_history(iosim::DiskSystem& disk, int writers) const;

private:
  void charge_transform_pass(sxs::Cpu& cpu, int passes, long repeats) const;
  void charge_fft_set(sxs::Cpu& cpu, int instances, long repeats) const;

  Ccm2Config cfg_;
  sxs::Node* node_;
  spectral::ShTransform sht_;
  SemiLagrangian slt_;
  // Longitude FFT plan used by the per-step charge model (charge_fft_set
  // only reads the factorisation; building a Plan per call would allocate
  // on every charged step).
  fft::Plan fft_plan_;

  // Spectral state per active level (leapfrog needs two time levels).
  std::vector<std::vector<spectral::cd>> zeta_, zeta_prev_;
  // Grid state per active level.
  std::vector<Array2D<double>> q_, temp_;
  long steps_ = 0;

  // Scratch grids.
  Array2D<double> zlam_, zmu_, plam_, pmu_, ug_, vg_, gg_, qn_;
  // Per-step spectral scratch, sized in reset() so step() never allocates.
  std::vector<std::vector<spectral::cd>> tendency_;
  std::vector<spectral::cd> psi_;
};

}  // namespace ncar::ccm2
