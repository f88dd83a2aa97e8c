#pragma once
/// \file bssn_sweeps.hpp
/// \brief The BSSN sweep kernels, written once against dgr::exec_space.
///
/// Each of the sweep families that used to exist twice — once as a host
/// pool sweep in solver/bssn_ctx.cpp + solver/subcycle.cpp and once as a
/// simgpu launch in simgpu/gpu_bssn.cpp — has exactly one kernel body
/// here, parameterized on the ExecSpace it runs in:
///
///   octant-to-patch (unzip)   sweep_octant_to_patch
///   patch RHS                 sweep_rhs
///   patch-to-octant (zip)     sweep_patch_to_octant
///   RK4 AXPY                  sweep_rk4_axpy
///   subcycle stage fill/save/update
///                             subcycle_step_depth + sweep_dense_save_all
///   diagnostics (psi4 field, constraint norms)
///                             sweep_psi4_field + sweep_constraint_norms
///
/// Every body charges its OpCounts slot the way the simgpu launches always
/// did; host callers that historically did not accumulate counts for a
/// sweep simply pass counts == nullptr (the merged counts are dropped, the
/// simgpu backend still records them into the kernel's record). The
/// LaunchSpec of each sweep carries the pinned simgpu kernel-record name
/// AND the pinned host trace label, so kernel records, modeled times, and
/// worker spans are all unchanged from the pre-exec_space tree.
///
/// Split axes (bitwise-determinism rationale, unchanged): octant-to-patch
/// splits by VARIABLE (per-var unzip work is independent; an octant split
/// would re-count shared prolonged sources), RHS and patch-to-octant split
/// by octant (disjoint patches / owner-DOF writes), the state-wide AXPY
/// and subcycle sweeps split by variable (whole fields per chunk keep
/// writes disjoint and per-element arithmetic identical to a serial
/// sweep), and the diagnostic point kernels split by octant (each octant
/// writes its own zipped DOFs or its own norm partial).

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "bssn/constraints.hpp"
#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
#include "common/counters.hpp"
#include "exec_space/exec_space.hpp"
#include "fd/dense_output.hpp"
#include "mesh/mesh.hpp"
#include "mesh/subcycle_index.hpp"

namespace dgr::exec_space {

/// One contiguous run of octant indices [first, second) — the element type
/// of mesh::SubcycleIndex::runs and solver::OctRange.
using OctRange = std::pair<OctIndex, OctIndex>;

// ----------------------------------------------------- RHS sweep family --

/// Octant-to-patch gather (unzip) of octants [begin, end) into `patches`,
/// split by variable. Kernel "octant-to-patch", host label "unzip".
void sweep_octant_to_patch(const ExecSpace& es, const mesh::Mesh& mesh,
                           const Real* const* fields, OctIndex begin,
                           OctIndex end, Real* patches,
                           mesh::UnzipMethod method, OpCounts* counts);

/// Patch RHS (bssn::bssn_rhs_patch) of octants [begin, end) from
/// `patch_in` into `patch_out`, split by octant. `ws` holds one derivative
/// workspace per lane, indexed by TeamMember::lane(). Kernel "bssn-rhs",
/// host label "rhs".
void sweep_rhs(const ExecSpace& es, const mesh::Mesh& mesh,
               const bssn::BssnParams& params,
               std::vector<bssn::DerivWorkspace>& ws, OctIndex begin,
               OctIndex end, const Real* patch_in, Real* patch_out,
               OpCounts* counts);

/// Patch-to-octant scatter (zip) of octants [begin, end), split by octant
/// (owner-DOF writes are disjoint). Kernel "patch-to-octant", host label
/// "zip".
void sweep_patch_to_octant(const ExecSpace& es, const mesh::Mesh& mesh,
                           const Real* patches, OctIndex begin, OctIndex end,
                           Real* const* fields, OpCounts* counts);

// ------------------------------------------------------ RK4 AXPY family --

/// State-wide AXPY, split by variable: y = *base + s * x when `base` is
/// non-null (RK stage construction), else y += s * x (solution update).
/// Per-element arithmetic identical to the serial state-level axpy at any
/// thread count. Kernel "axpy", host label "update".
void sweep_rk4_axpy(const ExecSpace& es, bssn::BssnState& y, Real s,
                    const bssn::BssnState& x, const bssn::BssnState* base,
                    OpCounts* counts);

// ----------------------------------------------- sub-cycled RK4 family --

/// Dense-output mode per depth: linear right after a (re)bootstrap,
/// quadratic once the depth has taken its first sub-cycled step.
inline constexpr std::uint8_t kDenseModeLinear = 0;
inline constexpr std::uint8_t kDenseModeQuad = 1;

/// Bootstrap save: dense_u0 = u over all variables. Kernel
/// "subcycle-save", host label "update".
void sweep_dense_save_all(const ExecSpace& es, const bssn::BssnState& u,
                          bssn::BssnState& dense_u0, OpCounts* counts);

/// Everything one depth-local sub-cycled RK4 step reads and writes; the
/// caller (solver::BssnCtx or simgpu::GpuBssnSolver) owns the storage.
struct SubcycleState {
  bssn::BssnState* state = nullptr;     ///< the evolved solution u
  bssn::BssnState* stage = nullptr;     ///< RK stage input buffer
  bssn::BssnState* k = nullptr;         ///< k[4]: per-stage RHS
  bssn::BssnState* dense_u0 = nullptr;  ///< retained step-start state
  bssn::BssnState* dense_k1 = nullptr;  ///< retained first RHS
  std::vector<Real>* dense_t0 = nullptr;          ///< per-depth step start
  std::vector<std::uint8_t>* dense_mode = nullptr;  ///< per-depth kDenseMode*
};

/// RHS evaluation callback: rhs(u, out, runs) evaluates the BSSN RHS of
/// `u` into `out` restricted to the octant runs — solver::RhsPipeline on
/// every backend (the simgpu caller's wrapper also records its
/// halo-exchange kernel first).
using SubcycleRhsFn = std::function<void(
    const bssn::BssnState&, bssn::BssnState&, const std::vector<OctRange>&)>;

/// Full RK4 step of depth `depth` against dense-output ghost data,
/// advancing only depth-owned DOFs — the single body behind both
/// solver::BssnCtx::subcycle_step_depth and the simgpu mirror (bitwise
/// identical state evolution; see solver/subcycle.cpp for the scheme).
/// Runs the "subcycle-fill" / "subcycle-save" / "subcycle-update" sweeps
/// (host label "update") on `es` with the pinned OpCounts charges, calling
/// `rhs` once per stage. `update_begin` / `update_end` (nullable) bracket
/// each update-class sweep — the host solver hangs its update PhaseTimer
/// here. `counts` feeds the sweeps' merged OpCounts (nullable).
void subcycle_step_depth(const ExecSpace& es, const mesh::SubcycleIndex& idx,
                         int depth, Real fine_dt, Real time,
                         const SubcycleState& st, const SubcycleRhsFn& rhs,
                         OpCounts* counts,
                         const std::function<void()>& update_begin,
                         const std::function<void()>& update_end);

// ---------------------------------------------------- diagnostic family --

/// Output patches per octant a diagnostic sweep writes to
/// DiagScratch::patch_out: {re, im} for psi4, {H, M^x, M^y, M^z} for the
/// constraints.
inline constexpr int kDiagOutVars = 4;

/// The buffers a diagnostic sweep runs in, sized for `chunk_octants`
/// octants: `patch_in` holds chunk_octants * kNumVars patches (the unzip
/// target), `patch_out` chunk_octants * kDiagOutVars patches, and `ws` at
/// least one derivative workspace per lane (grown if short). The solver
/// lends its RhsPipeline's buffers, idle between steps, so diagnostics add
/// no memory to an evolution; gw::compute_psi4_field and
/// bssn::compute_constraint_norms own transient ones.
struct DiagScratch {
  int chunk_octants = 0;
  Real* patch_in = nullptr;
  Real* patch_out = nullptr;
  std::vector<bssn::DerivWorkspace>* ws = nullptr;
};

/// Psi4 of `state` as the zipped scalar fields `re`, `im` (num_dofs each).
/// Per chunk: sweep_octant_to_patch, then a team_for over the chunk's
/// octants running gw::psi4_patch with the lane's workspace and zipping
/// its {re, im} patches back. Kernel and host label "psi4". Bitwise
/// identical for every chunk size, backend and thread count: unzip fills
/// each patch independently of the chunk's other octants, and zip writes
/// each DOF from its owner octant only.
void sweep_psi4_field(const ExecSpace& es, const mesh::Mesh& mesh,
                      const bssn::BssnState& state,
                      const bssn::BssnParams& params,
                      const DiagScratch& scratch, Real* re, Real* im);

/// Hamiltonian and momentum constraint norms of `state`, skipping points
/// within `excise_radius` of any of `excise_centers`. Same chunked sweep
/// as sweep_psi4_field with bssn::bssn_constraints_patch as the point
/// kernel (kernel and host label "constraints"); each octant writes one
/// partial (sum H^2, sum |M|^2, point count, max |H|, max |M|) to its own
/// slot, and the slots are folded once, after all chunks, by tree_fold —
/// so the norms do not depend on chunk size, backend or thread count.
bssn::ConstraintNorms sweep_constraint_norms(
    const ExecSpace& es, const mesh::Mesh& mesh, const bssn::BssnState& state,
    const bssn::BssnParams& params, const DiagScratch& scratch,
    const std::vector<std::array<Real, 3>>& excise_centers,
    Real excise_radius);

}  // namespace dgr::exec_space
