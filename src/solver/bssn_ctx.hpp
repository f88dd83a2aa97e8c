#pragma once
/// \file bssn_ctx.hpp
/// \brief The BSSN evolution context — the CPU analogue of the paper's
/// `bssnSolverCtx` and the host side of Algorithm 1. Drives the
/// halo-consistent unzip -> RHS -> zip -> AXPY pipeline with RK4 time
/// stepping, per-phase cost breakdown (Fig. 20), and error-driven
/// regridding.

#include <functional>
#include <memory>

#include "bssn/constraints.hpp"
#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
#include "common/counters.hpp"
#include "common/timer.hpp"
#include "exec_space/exec_space.hpp"
#include "mesh/mesh.hpp"
#include "mesh/subcycle_index.hpp"

namespace dgr::solver {

struct SolverConfig {
  bssn::BssnParams bssn;
  Real cfl = 0.25;  ///< Courant factor lambda (paper §III-A)
  /// Octants processed per pipeline chunk (bounds patch-buffer memory; the
  /// GPU analogue launches one block per octant).
  int chunk_octants = 64;
  mesh::UnzipMethod unzip_method = mesh::UnzipMethod::kLoopOverOctants;
};

/// Per-phase accumulated wall-clock cost of the evolution pipeline; the
/// breakdown reported in the paper's Fig. 20.
struct PhaseBreakdown {
  PhaseTimer unzip;    ///< octant-to-patch (incl. halo/hanging resolution)
  PhaseTimer rhs;      ///< derivative + algebraic stages
  PhaseTimer zip;      ///< patch-to-octant
  PhaseTimer update;   ///< RK stage AXPY combinations
  void reset() {
    unzip.reset();
    rhs.reset();
    zip.reset();
    update.reset();
  }
  double total() const {
    return unzip.total_seconds() + rhs.total_seconds() + zip.total_seconds() +
           update.total_seconds();
  }
};

/// One contiguous run of octant indices [first, second).
using OctRange = std::pair<OctIndex, OctIndex>;

/// The chunked unzip -> patch-RHS -> zip pipeline over arbitrary contiguous
/// octant runs, factored out of BssnCtx so per-rank mesh views (src/dist)
/// run the exact same arithmetic over octant subsets. Restricting the runs
/// is bitwise-safe: unzip scatters into each target patch in a fixed order
/// (self, then adjacency order) independent of chunk composition, and zip
/// writes each DOF only from its owner octant. DOFs owned by octants
/// outside the runs are left untouched in the output state.
class RhsPipeline {
 public:
  /// `space` is where the unzip/RHS/zip sweeps execute (default: the
  /// process host space, honoring DGR_EXEC_SPACE). The pipeline arithmetic
  /// is bitwise identical on every backend; only instrumentation differs.
  RhsPipeline(std::shared_ptr<const mesh::Mesh> mesh, SolverConfig config,
              exec_space::ExecSpace space = exec_space::ExecSpace::host());

  const SolverConfig& config() const { return config_; }
  const exec_space::ExecSpace& space() const { return space_; }

  /// Swap the mesh (after a regrid); buffers are reused.
  void set_mesh(std::shared_ptr<const mesh::Mesh> mesh);

  /// Evaluate the BSSN RHS of `u` into `rhs` over the given runs.
  void compute(const bssn::BssnState& u, bssn::BssnState& rhs,
               const std::vector<OctRange>& runs, PhaseBreakdown* phases,
               OpCounts* counts);

 private:
  std::shared_ptr<const mesh::Mesh> mesh_;
  SolverConfig config_;
  exec_space::ExecSpace space_;
  /// One derivative workspace per execution lane: the RHS sweep body
  /// indexes this by TeamMember::lane().
  std::vector<bssn::DerivWorkspace> ws_;
  std::vector<Real> patch_in_, patch_out_;
};

class BssnCtx {
 public:
  /// `space` is the execution space every sweep of the context (RHS
  /// pipeline, RK4 AXPYs, sub-cycled fills) runs in; the default is the
  /// process host space, honoring the DGR_EXEC_SPACE override.
  BssnCtx(std::shared_ptr<mesh::Mesh> mesh, SolverConfig config,
          exec_space::ExecSpace space = exec_space::ExecSpace::host());

  const mesh::Mesh& mesh() const { return *mesh_; }
  const SolverConfig& config() const { return config_; }
  bssn::BssnState& state() { return state_; }
  const bssn::BssnState& state() const { return state_; }
  Real time() const { return time_; }
  std::size_t steps_taken() const { return steps_; }

  /// Global timestep from the finest spacing (lambda * h_min).
  Real suggested_dt() const;

  /// Evaluate the BSSN RHS of `u` into `rhs` over the whole mesh (chunked
  /// unzip -> patch RHS -> zip).
  void compute_rhs(const bssn::BssnState& u, bssn::BssnState& rhs);

  /// One explicit RK4 step with global timestepping (paper §III-A).
  void rk4_step(Real dt);
  void rk4_step() { rk4_step(suggested_dt()); }

  /// Depth-local sub-cycled stepping (solver/subcycle.cpp). One call
  /// advances every octant by one coarse step = subcycle_index().cycle()
  /// fine substeps of `fine_dt`: at each substep the due depth suffix
  /// steps coarsest-first, each depth running a full RK4 restricted to its
  /// octant runs, with every other depth's DOFs dense-output-interpolated
  /// to the stage times (fd/dense_output.hpp). Bitwise deterministic at
  /// any thread count; on a uniform mesh the arithmetic
  /// degenerates to exactly rk4_step(fine_dt).
  void subcycle_cycle(Real fine_dt);

  /// The per-depth octant/DOF decomposition of the current mesh (built
  /// lazily, invalidated by remesh()).
  const mesh::SubcycleIndex& subcycle_index();

  /// Advance n steps.
  void evolve_steps(int n);

  /// Constraint norms of the current state.
  bssn::ConstraintNorms constraint_norms(
      const std::vector<std::array<Real, 3>>& excise = {},
      Real excise_radius = 0.0) const;

  const PhaseBreakdown& breakdown() const { return phases_; }
  PhaseBreakdown& breakdown() { return phases_; }
  const OpCounts& op_counts() const { return counts_; }
  void reset_instrumentation() {
    phases_.reset();
    counts_ = OpCounts{};
  }

  /// Replace the mesh (after a regrid): transfers the current state onto
  /// the new mesh by degree-6 interpolation.
  void remesh(std::shared_ptr<mesh::Mesh> new_mesh);

  /// Restart support: overwrite the clock and step counter when resuming
  /// from a checkpoint (the state itself is restored through state(), on a
  /// context built over solver::checkpoint_mesh). Evolution resumed this
  /// way is bitwise identical to the uninterrupted run — the round-trip
  /// determinism contract of the checkpoint tests.
  void restore(Real time, std::size_t steps) {
    time_ = time;
    steps_ = steps;
  }

 private:
  /// Full RK4 step of the depth-d octant runs against dense-output ghost
  /// data, advancing only depth-d DOFs (defined in subcycle.cpp).
  void subcycle_step_depth(int depth, Real fine_dt);
  /// First-order dense bootstrap: one full-mesh RHS at the current time.
  void subcycle_bootstrap();

  std::shared_ptr<mesh::Mesh> mesh_;
  SolverConfig config_;
  exec_space::ExecSpace space_;
  bssn::BssnState state_;
  bssn::BssnState k_[4], stage_;
  Real time_ = 0;
  std::size_t steps_ = 0;
  PhaseBreakdown phases_;
  OpCounts counts_;
  RhsPipeline pipeline_;

  // Depth-local sub-cycling state (allocated on first subcycle_cycle; a
  // global-dt step or a remesh invalidates the retained dense stages).
  std::unique_ptr<mesh::SubcycleIndex> subidx_;
  bssn::BssnState dense_u0_, dense_k1_;
  std::vector<Real> dense_t0_;            // per depth, absolute step start
  std::vector<std::uint8_t> dense_mode_;  // per depth: linear or quadratic
  bool dense_ready_ = false;
};

/// Transfer all 24 fields of `src` (on `src_mesh`) to a state on
/// `dst_mesh`, by exact copy where points coincide and degree-6
/// interpolation elsewhere.
bssn::BssnState transfer_state(const mesh::Mesh& src_mesh,
                               const bssn::BssnState& src,
                               const mesh::Mesh& dst_mesh);

}  // namespace dgr::solver
