#include "ocean/mom.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/error.hpp"
#include "simd/simd.hpp"
#include "sxs/ops.hpp"

namespace ncar::ocean {

MomConfig MomConfig::high_resolution() { return MomConfig{}; }

MomConfig MomConfig::low_resolution() {
  MomConfig c;
  c.nlon = 120;
  c.nlat = 60;
  c.nlev = 25;
  return c;
}

Mom::Mom(const MomConfig& cfg, sxs::Node& node)
    : cfg_(cfg),
      node_(&node),
      mask_(cfg.nlon, cfg.nlat),
      temp_(static_cast<std::size_t>(cfg.nlon), static_cast<std::size_t>(cfg.nlat),
            static_cast<std::size_t>(cfg.nlev)),
      salt_(temp_.ni(), temp_.nj(), temp_.nk()),
      psi_(temp_.ni(), temp_.nj()),
      forcing_(temp_.ni(), temp_.nj()),
      u_(temp_.ni(), temp_.nj()),
      v_(temp_.ni(), temp_.nj()),
      mask_c_(temp_.ni(), temp_.nj()),
      ring_(2 * temp_.ni()) {
  NCAR_REQUIRE(cfg.nlev >= 2, "need at least two levels");
  NCAR_REQUIRE(cfg.sor_iters >= 1 && cfg.diag_every >= 1, "config");
  for (int j = 0; j < cfg.nlat; ++j) {
    for (int i = 0; i < cfg.nlon; ++i) {
      mask_c_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          mask_.ocean(i, j) ? 1.0 : 0.0;
    }
  }
  reset();
}

void Mom::reset() {
  const int nlon = cfg_.nlon, nlat = cfg_.nlat, nlev = cfg_.nlev;
  for (int k = 0; k < nlev; ++k) {
    const double depth_frac = static_cast<double>(k) / nlev;
    for (int j = 0; j < nlat; ++j) {
      const double lat = -90.0 + (j + 0.5) * 180.0 / nlat;
      const double surface_t = 2.0 + 26.0 * std::cos(lat * M_PI / 180.0);
      for (int i = 0; i < nlon; ++i) {
        const std::size_t ii = static_cast<std::size_t>(i);
        const std::size_t jj = static_cast<std::size_t>(j);
        const std::size_t kk = static_cast<std::size_t>(k);
        temp_(ii, jj, kk) =
            mask_.ocean(i, j) ? surface_t * std::exp(-3.0 * depth_frac) : 0.0;
        salt_(ii, jj, kk) = mask_.ocean(i, j) ? 35.0 - 1.0 * depth_frac : 0.0;
      }
    }
  }
  psi_.fill(0.0);
  // Wind-stress curl forcing: westerlies/trades pattern.
  for (int j = 0; j < cfg_.nlat; ++j) {
    const double lat = -90.0 + (j + 0.5) * 180.0 / cfg_.nlat;
    for (int i = 0; i < cfg_.nlon; ++i) {
      forcing_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          mask_.ocean(i, j) ? 1e-11 * std::sin(2.0 * lat * M_PI / 180.0) : 0.0;
    }
  }
  steps_ = 0;
  sor_residual_ = 0;
}

namespace {

// Rows of the SOR sweep relaxed together (see solve_barotropic).
constexpr int kSorRows = 8;

// mask != 0 ? a : b as a bitwise select, so a sweep over the land mask has
// no data-dependent branch (SSE2 is the x86-64 baseline).
inline double select_nonzero(double mask, double a, double b) {
#if defined(__SSE2__)
  const __m128d m = _mm_cmpneq_sd(_mm_set_sd(mask), _mm_setzero_pd());
  return _mm_cvtsd_f64(_mm_or_pd(_mm_and_pd(m, _mm_set_sd(a)),
                                 _mm_andnot_pd(m, _mm_set_sd(b))));
#else
  return mask != 0.0 ? a : b;
#endif
}

// Calls fn(i, im, ip) for each point i of a periodic row of n >= 3 points,
// im and ip being its west and east neighbours. The two wrap-around points
// are peeled off, so the interior loop carries no `%`.
template <class Fn>
void for_periodic_row(long n, Fn fn) {
  fn(0, n - 1, 1);
  for (long i = 1; i + 1 < n; ++i) fn(i, i - 1, i + 1);
  fn(n - 1, n - 2, 0);
}

}  // namespace

void Mom::solve_barotropic() {
  // Gauss-Seidel SOR for del^2 psi = forcing, psi = 0 on land, periodic in
  // longitude, five-point stencil on the (unit-spaced) grid. Every point is
  // relaxed and land points keep their value through a select on the 0/1
  // mask, so the sweeps have no data-dependent branch. Points are addressed
  // by flat index x = i + nlon*j.
  const long nlon = cfg_.nlon;
  const int nlat = cfg_.nlat;
  const double w = cfg_.sor_omega;
  const double a = 1.0 - w;
  double* psi = psi_.flat().data();
  const double* fr = forcing_.flat().data();
  const double* mc = mask_c_.flat().data();
  // Relaxes point x given its west neighbour's value and its east
  // neighbour's index; returns the new value.
  auto relax = [&](long x, double west, long xe) {
    const double gs =
        0.25 * (west + psi[xe] + psi[x - nlon] + psi[x + nlon] - fr[x]);
    return psi[x] = select_nonzero(mc[x], a * psi[x] + w * gs, psi[x]);
  };
  // Gauss-Seidel order is row by row, west to east, and each update is a
  // serial dependency chain through its west neighbour. So kSorRows rows
  // are swept together, row k of the block lagging k points behind row 0:
  // step t relaxes point t - k of row k. Point (i, j+1) then reads the
  // already relaxed (i, j), and (i, j) the not yet relaxed (i, j+1),
  // exactly as in the row-by-row order, while the rows' chains overlap.
  for (int it = 0; it < cfg_.sor_iters; ++it) {
    for (int j0 = 1; j0 < nlat - 1; j0 += kSorRows) {
      const int rows = std::min(kSorRows, nlat - 1 - j0);
      // west[k]: the value row k relaxed last, i.e. its next point's west
      // neighbour, carried in a register through the interior.
      double west[kSorRows] = {};
      // A step that may touch the periodic ends or run past a row's end.
      auto edge_step = [&](long t) {
        for (int k = 0; k < rows; ++k) {
          const long i = t - k;
          if (i < 0 || i >= nlon) continue;
          const long x = (j0 + k) * nlon + i;
          west[k] = relax(x, psi[i == 0 ? x + nlon - 1 : x - 1],
                          i + 1 == nlon ? x - nlon + 1 : x + 1);
        }
      };
      long t = 0;
      for (; t < rows; ++t) edge_step(t);
      for (; t + 1 < nlon; ++t) {
        long x = j0 * nlon + t;
        for (int k = 0; k < rows; ++k, x += nlon - 1) {
          west[k] = relax(x, west[k], x + 1);
        }
      }
      for (; t < nlon + rows - 1; ++t) edge_step(t);
    }
  }

  // Residual check, and the barotropic velocities from the streamfunction
  // (masked central differences).
  double res = 0;
  double* u = u_.flat().data();
  double* v = v_.flat().data();
  for (long j = 1; j < nlat - 1; ++j) {
    const long row = j * nlon;
    for_periodic_row(nlon, [&](long i, long im, long ip) {
      const long x = row + i;
      const bool ocean = mc[x] != 0.0;
      const double lap = psi[row + im] + psi[row + ip] + psi[x - nlon] +
                         psi[x + nlon] - 4.0 * psi[x];
      res = std::max(res, ocean ? std::abs(lap - fr[x]) : 0.0);
      u[x] = ocean ? -0.5 * (psi[x + nlon] - psi[x - nlon]) * 1e4 : 0.0;
      v[x] = ocean ? 0.5 * (psi[row + ip] - psi[row + im]) * 1e4 : 0.0;
    });
  }
  sor_residual_ = res;
}

void Mom::baroclinic_step() {
  const long nlon = cfg_.nlon;
  const int nlat = cfg_.nlat, nlev = cfg_.nlev;
  const double kappa = 0.05;  // grid-units diffusivity * dt
  const double adv = 0.2;     // CFL-safe advection coefficient
  const simd::KernelTable& kt = simd::table();
  const std::size_t row_bytes = static_cast<std::size_t>(nlon) * sizeof(double);
  auto ring_row = [&](int j) { return ring_.data() + (j & 1) * nlon; };

  for (auto* field : {&temp_, &salt_}) {
    auto& f = *field;
    const bool temperature = field == &temp_;
    for (int k = 0; k < nlev; ++k) {
      const double depth_damp = std::exp(-2.0 * k / nlev);
      const std::size_t kk = static_cast<std::size_t>(k);
      // Row j is computed from the old rows j-1, j and j+1 into the ring and
      // committed only after row j+1 has been computed — the last reader of
      // its old values — so the update is in place and still reads the
      // level exactly as a separate output field would.
      auto commit = [&](int j) {
        const std::size_t jj = static_cast<std::size_t>(j);
        std::memcpy(&f(0, jj, kk), ring_row(j), row_bytes);
        // Convective adjustment (the unvectorised column loop): deeper
        // water must not be warmer, so mix the unstable pair (k-1, k).
        // Levels do not couple in the stencil, and row j of level k is
        // final here, so each column still sees its cascade in ascending k
        // exactly as a pass after the whole step would; land columns are
        // identically zero, so lower > upper never fires there.
        if (temperature && k > 0) {
          kt.mix_unstable_d(&f(0, jj, kk - 1), &f(0, jj, kk), nlon);
        }
      };
      for (int j = 1; j < nlat - 1; ++j) {
        const std::size_t jj = static_cast<std::size_t>(j);
        kt.mom_row_d(&f(0, jj, kk), &mask_c_(0, jj), &u_(0, jj), &v_(0, jj),
                     depth_damp, adv, kappa, ring_row(j), nlon);
        if (j > 1) commit(j - 1);
      }
      commit(nlat - 2);
    }
  }
}

void Mom::compute_diagnostics() {
  double sum_t = 0, ke = 0;
  long n = 0;
  for (int j = 0; j < cfg_.nlat; ++j) {
    for (int i = 0; i < cfg_.nlon; ++i) {
      if (!mask_.ocean(i, j)) continue;
      const std::size_t ii = static_cast<std::size_t>(i);
      const std::size_t jj = static_cast<std::size_t>(j);
      ke += 0.5 * (u_(ii, jj) * u_(ii, jj) + v_(ii, jj) * v_(ii, jj));
      for (int k = 0; k < cfg_.nlev; ++k) {
        sum_t += temp_(ii, jj, static_cast<std::size_t>(k));
        ++n;
      }
    }
  }
  diag_mean_t_ = n > 0 ? sum_t / static_cast<double>(n) : 0.0;
  diag_ke_ = ke;
}

double Mom::step(int ncpu) {
  NCAR_REQUIRE(ncpu >= 1 && ncpu <= node_->cpu_count(), "processor count");

  // ---- numerics -----------------------------------------------------------
  solve_barotropic();
  baroclinic_step();
  if ((steps_ + 1) % cfg_.diag_every == 0) compute_diagnostics();

  // ---- timing -------------------------------------------------------------
  const double elapsed = charge_step(ncpu, steps_);
  ++steps_;
  return elapsed;
}

double Mom::charge_step(int ncpu, long step_index) const {
  NCAR_REQUIRE(ncpu >= 1 && ncpu <= node_->cpu_count(), "processor count");
  const int nlat = cfg_.nlat, nlev = cfg_.nlev;
  double elapsed = 0;

  // ---- timing: rigid-lid SOR — one parallel sweep + barrier per iteration.
  for (int it = 0; it < cfg_.sor_iters; ++it) {
    elapsed += node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
      const int lo = static_cast<int>(static_cast<long>(nlat) * rank / ncpu);
      const int hi = static_cast<int>(static_cast<long>(nlat) * (rank + 1) / ncpu);
      for (int j = lo; j < hi; ++j) {
        const int pts = mask_.ocean_in_row(j);
        if (pts == 0) continue;
        sxs::VectorOp op;
        op.n = pts;
        op.flops_per_elem = 7.0;
        op.load_words = 5.0;
        op.gather_words = 1.0;  // masked compression
        op.store_words = 1.0;
        op.pipe_groups = 2;
        cpu.vec(op);
      }
    });
  }

  // ---- timing: baroclinic region, block-decomposed over latitude --------
  elapsed += node_->parallel(ncpu, [&](int rank, sxs::Cpu& cpu) {
    const int lo = static_cast<int>(static_cast<long>(nlat) * rank / ncpu);
    const int hi = static_cast<int>(static_cast<long>(nlat) * (rank + 1) / ncpu);
    for (int j = lo; j < hi; ++j) {
      const int pts = mask_.ocean_in_row(j);
      if (pts == 0) continue;
      // Vectorised finite-difference passes.
      sxs::VectorOp op;
      op.n = pts;
      op.flops_per_elem = cfg_.vec_flops;
      op.load_words = cfg_.vec_loads;
      op.load_stride = 3;
      op.gather_words = cfg_.vec_gather;
      op.store_words = cfg_.vec_stores;
      op.pipe_groups = 2;
      cpu.vec(op, static_cast<long>(nlev) * cfg_.vec_passes);
      // Unvectorised EOS / convective adjustment / implicit mixing.
      sxs::ScalarOp sc;
      sc.iters = static_cast<long>(pts) * nlev;
      sc.flops_per_iter = cfg_.sc_flops;
      sc.mem_words_per_iter = cfg_.sc_mem;
      sc.other_ops_per_iter = cfg_.sc_other;
      sc.working_set_bytes = static_cast<double>(pts) * nlev * 8.0;
      sc.reuse_fraction = 0.2;
      cpu.scalar(sc);
    }
  });

  // ---- timing: serial diagnostics every diag_every steps ----------------
  if ((step_index + 1) % cfg_.diag_every == 0) {
    elapsed += node_->serial([&](sxs::Cpu& cpu) {
      sxs::ScalarOp d;
      d.iters = mask_.ocean_total() * static_cast<long>(nlev) * cfg_.diag_passes;
      d.flops_per_iter = cfg_.diag_flops;
      d.mem_words_per_iter = cfg_.diag_mem;
      d.other_ops_per_iter = cfg_.diag_other;
      d.reuse_fraction = 0.0;
      cpu.scalar(d);
    });
  }

  return elapsed;
}

double Mom::mean_temperature() const {
  double sum = 0;
  long n = 0;
  for (int j = 0; j < cfg_.nlat; ++j) {
    for (int i = 0; i < cfg_.nlon; ++i) {
      if (!mask_.ocean(i, j)) continue;
      for (int k = 0; k < cfg_.nlev; ++k) {
        sum += temp_(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                     static_cast<std::size_t>(k));
        ++n;
      }
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double Mom::mean_salinity() const {
  double sum = 0;
  long n = 0;
  for (int j = 0; j < cfg_.nlat; ++j) {
    for (int i = 0; i < cfg_.nlon; ++i) {
      if (!mask_.ocean(i, j)) continue;
      for (int k = 0; k < cfg_.nlev; ++k) {
        sum += salt_(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                     static_cast<std::size_t>(k));
        ++n;
      }
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double Mom::barotropic_ke() const {
  double ke = 0;
  for (int j = 0; j < cfg_.nlat; ++j) {
    for (int i = 0; i < cfg_.nlon; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      const std::size_t jj = static_cast<std::size_t>(j);
      ke += 0.5 * (u_(ii, jj) * u_(ii, jj) + v_(ii, jj) * v_(ii, jj));
    }
  }
  return ke;
}

double Mom::last_sor_residual() const { return sor_residual_; }

bool Mom::columns_statically_stable() const {
  for (int j = 1; j < cfg_.nlat - 1; ++j) {
    for (int i = 0; i < cfg_.nlon; ++i) {
      if (!mask_.ocean(i, j)) continue;
      for (int k = 0; k + 1 < cfg_.nlev; ++k) {
        const double upper = temp_(static_cast<std::size_t>(i),
                                   static_cast<std::size_t>(j),
                                   static_cast<std::size_t>(k));
        const double lower = temp_(static_cast<std::size_t>(i),
                                   static_cast<std::size_t>(j),
                                   static_cast<std::size_t>(k + 1));
        if (lower > upper + 1e-12) return false;
      }
    }
  }
  return true;
}

double Mom::checksum() const {
  double c = 0;
  for (double v : temp_.flat()) c += v;
  for (double v : salt_.flat()) c += 0.1 * v;
  for (double v : psi_.flat()) c += v;
  return c;
}

std::vector<double> Mom::checkpoint() const {
  std::vector<double> out;
  out.push_back(static_cast<double>(steps_));
  out.insert(out.end(), temp_.flat().begin(), temp_.flat().end());
  out.insert(out.end(), salt_.flat().begin(), salt_.flat().end());
  out.insert(out.end(), psi_.flat().begin(), psi_.flat().end());
  out.insert(out.end(), u_.flat().begin(), u_.flat().end());
  out.insert(out.end(), v_.flat().begin(), v_.flat().end());
  return out;
}

void Mom::restore(const std::vector<double>& state) {
  const std::size_t expect =
      1 + 2 * temp_.size() + psi_.size() + u_.size() + v_.size();
  NCAR_REQUIRE(state.size() == expect,
               "checkpoint does not match this configuration");
  std::size_t pos = 0;
  steps_ = static_cast<long>(state[pos++]);
  for (auto& v : temp_.flat()) v = state[pos++];
  for (auto& v : salt_.flat()) v = state[pos++];
  for (auto& v : psi_.flat()) v = state[pos++];
  for (auto& v : u_.flat()) v = state[pos++];
  for (auto& v : v_.flat()) v = state[pos++];
}

double Mom::checkpoint_bytes() const {
  const std::size_t doubles =
      1 + 2 * temp_.size() + psi_.size() + u_.size() + v_.size();
  return 8.0 * static_cast<double>(doubles);
}

double Mom::measure_step_seconds(int ncpu, int nsteps) {
  NCAR_REQUIRE(nsteps >= 1, "step count");
  double total = 0;
  for (int s = 0; s < nsteps; ++s) total += step(ncpu);
  return total / nsteps;
}

double Mom::measure_charge_seconds(int ncpu, int nsteps) const {
  NCAR_REQUIRE(nsteps >= 1, "step count");
  double total = 0;
  for (int s = 0; s < nsteps; ++s) total += charge_step(ncpu, s);
  return total / nsteps;
}

}  // namespace ncar::ocean
