#include "exec_space/bssn_sweeps.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "gw/psi4.hpp"

namespace dgr::exec_space {

using bssn::BssnState;
using bssn::kNumVars;
using mesh::kPatchPts;

void sweep_octant_to_patch(const ExecSpace& es, const mesh::Mesh& mesh,
                           const Real* const* fields, OctIndex begin,
                           OctIndex end, Real* patches,
                           mesh::UnzipMethod method, OpCounts* counts) {
  const LaunchSpec spec{"octant-to-patch", "unzip",
                        std::uint64_t(end - begin) * kNumVars, 0};
  es.range_for(spec, kNumVars, /*grain=*/4, counts,
               [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
                 mesh.unzip_slice(fields, kNumVars, static_cast<int>(vb),
                                  static_cast<int>(ve), begin, end, patches,
                                  method, &c);
               });
}

void sweep_rhs(const ExecSpace& es, const mesh::Mesh& mesh,
               const bssn::BssnParams& params,
               std::vector<bssn::DerivWorkspace>& ws, OctIndex begin,
               OctIndex end, const Real* patch_in, Real* patch_out,
               OpCounts* counts) {
  const Real half = mesh.domain().half_extent;
  const LaunchSpec spec{"bssn-rhs", "rhs", std::uint64_t(end - begin), 0};
  es.team_for(
      spec, end - begin, /*grain=*/4, counts,
      [&](const TeamMember& tm, std::int64_t eb, std::int64_t ee,
          OpCounts& c) {
        bssn::DerivWorkspace& lane_ws =
            ws[static_cast<std::size_t>(tm.lane())];
        for (OctIndex e = begin + static_cast<OctIndex>(eb);
             e < begin + static_cast<OctIndex>(ee); ++e) {
          const Real* pin[kNumVars];
          Real* pout[kNumVars];
          for (int v = 0; v < kNumVars; ++v) {
            const std::size_t off =
                patch_offset(e - begin, v, kNumVars, kPatchPts);
            pin[v] = patch_in + off;
            pout[v] = patch_out + off;
          }
          bssn::bssn_rhs_patch(pin, pout, mesh.patch_geom(e), half, params,
                               lane_ws, &c);
        }
      });
}

void sweep_patch_to_octant(const ExecSpace& es, const mesh::Mesh& mesh,
                           const Real* patches, OctIndex begin, OctIndex end,
                           Real* const* fields, OpCounts* counts) {
  const LaunchSpec spec{"patch-to-octant", "zip",
                        std::uint64_t(end - begin) * kNumVars, 0};
  es.range_for(spec, end - begin, /*grain=*/8, counts,
               [&](std::int64_t eb, std::int64_t ee, OpCounts& c) {
                 mesh.zip(patches + patch_offset(eb, 0, kNumVars, kPatchPts),
                          kNumVars, begin + static_cast<OctIndex>(eb),
                          begin + static_cast<OctIndex>(ee), fields, &c);
               });
}

void sweep_rk4_axpy(const ExecSpace& es, BssnState& y, Real s,
                    const BssnState& x, const BssnState* base,
                    OpCounts* counts) {
  const std::size_t nd = y.num_dofs();
  const LaunchSpec spec{"axpy", "update", nd, 0};
  es.range_for(spec, kNumVars, /*grain=*/1, counts,
               [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
                 for (int v = static_cast<int>(vb); v < static_cast<int>(ve);
                      ++v) {
                   Real* yv = y.field(v);
                   const Real* xv = x.field(v);
                   if (base) {
                     const Real* bv = base->field(v);
                     for (std::size_t d = 0; d < nd; ++d)
                       yv[d] = bv[d] + s * xv[d];
                   } else {
                     for (std::size_t d = 0; d < nd; ++d) yv[d] += s * xv[d];
                   }
                 }
                 const std::uint64_t n = std::uint64_t(ve - vb) * nd;
                 c.flops += 2 * n;
                 c.bytes_read += 2 * n * sizeof(Real);
                 c.bytes_written += n * sizeof(Real);
               });
}

void sweep_dense_save_all(const ExecSpace& es, const BssnState& u,
                          BssnState& dense_u0, OpCounts* counts) {
  const std::size_t nd = u.num_dofs();
  const LaunchSpec spec{"subcycle-save", "update", nd, 0};
  es.range_for(spec, kNumVars, /*grain=*/1, counts,
               [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
                 for (int v = static_cast<int>(vb); v < static_cast<int>(ve);
                      ++v) {
                   const Real* uv = u.field(v);
                   std::copy(uv, uv + nd, dense_u0.field(v));
                 }
                 const std::uint64_t n = std::uint64_t(ve - vb) * nd;
                 c.bytes_read += n * sizeof(Real);
                 c.bytes_written += n * sizeof(Real);
               });
}

namespace {

/// RK4 stage-time fractions (stage j evaluates at t0 + c_j dt).
constexpr Real kStageC[4] = {0.0, 0.5, 0.5, 1.0};

/// Per-depth recipe for one stage-fill sweep: how DOFs owned at that depth
/// are written into the stage buffer.
struct FillCoef {
  enum Mode : int {
    kCopy,    ///< stage = state (stepping depth, first stage)
    kRkAxpy,  ///< stage = state + a * k_prev (stepping depth, stages 2-4)
    kDense,   ///< stage = dense output on (u0, state, k1) at the stage time
  };
  Mode mode = kCopy;
  Real a = 0;
  fd::DenseCoeffs dc;
};

}  // namespace

void subcycle_step_depth(const ExecSpace& es, const mesh::SubcycleIndex& idx,
                         int depth, Real fine_dt, Real time,
                         const SubcycleState& st, const SubcycleRhsFn& rhs,
                         OpCounts* counts,
                         const std::function<void()>& update_begin,
                         const std::function<void()>& update_end) {
  const int slot = depth - idx.dmin;
  const Real dt = fine_dt * static_cast<Real>(1 << (idx.dmax - depth));
  const auto& runs = idx.runs[static_cast<std::size_t>(slot)];
  BssnState& state = *st.state;
  BssnState& stage = *st.stage;
  BssnState* k = st.k;
  const std::size_t nd = state.num_dofs();
  const std::uint8_t* dd = idx.dof_depth.data();
  const int nslots = idx.depths();

  for (int j = 0; j < 4; ++j) {
    // Per-depth fill recipe at this stage's time. The stepping depth uses
    // the exact RK4 stage arithmetic of rk4_step; every other depth is
    // dense-output-evaluated at ts. Depths coarser than `depth` already
    // stepped this substep (coarsest-first order), so their retained
    // interval covers ts — pure interpolation. Finer depths are
    // extrapolated by at most two of their intervals (the 2:1 balance
    // bound); depths further away get fill values the restricted RHS
    // never reads (unzip halos only reach adjacent levels).
    const Real ts = time + kStageC[j] * dt;
    std::vector<FillCoef> tab(static_cast<std::size_t>(nslots));
    for (int s = 0; s < nslots; ++s) {
      FillCoef& f = tab[static_cast<std::size_t>(s)];
      if (s == slot) {
        if (j == 0) {
          f.mode = FillCoef::kCopy;
        } else {
          f.mode = FillCoef::kRkAxpy;
          f.a = kStageC[j] * dt;
        }
      } else {
        f.mode = FillCoef::kDense;
        const Real dtp =
            fine_dt * static_cast<Real>(1 << (idx.dmax - (idx.dmin + s)));
        if ((*st.dense_mode)[static_cast<std::size_t>(s)] == kDenseModeQuad)
          f.dc = fd::dense_output_quadratic(
              (ts - (*st.dense_t0)[static_cast<std::size_t>(s)]) / dtp, dtp);
        else
          f.dc = fd::dense_output_linear(
              ts - (*st.dense_t0)[static_cast<std::size_t>(s)]);
      }
    }

    const BssnState* kprev = (j > 0) ? &k[j - 1] : nullptr;
    if (update_begin) update_begin();
    es.range_for(
        LaunchSpec{"subcycle-fill", "update", nd, 0}, kNumVars, /*grain=*/1,
        counts, [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
          for (int v = static_cast<int>(vb); v < static_cast<int>(ve); ++v) {
            Real* sv = stage.field(v);
            const Real* uv = state.field(v);
            const Real* u0v = st.dense_u0->field(v);
            const Real* k1v = st.dense_k1->field(v);
            const Real* kv = kprev ? kprev->field(v) : nullptr;
            for (std::size_t d = 0; d < nd; ++d) {
              const FillCoef& f = tab[static_cast<std::size_t>(
                  static_cast<int>(dd[d]) - idx.dmin)];
              switch (f.mode) {
                case FillCoef::kCopy:
                  sv[d] = uv[d];
                  break;
                case FillCoef::kRkAxpy:
                  sv[d] = uv[d] + f.a * kv[d];
                  break;
                case FillCoef::kDense:
                  sv[d] = fd::dense_output_eval(f.dc, u0v[d], uv[d], k1v[d]);
                  break;
              }
            }
          }
          const std::uint64_t n = std::uint64_t(ve - vb) * nd;
          c.flops += 5 * n;
          c.bytes_read += 4 * n * sizeof(Real);
          c.bytes_written += n * sizeof(Real);
        });
    if (update_end) update_end();

    rhs(stage, k[j], runs);

    if (j == 0 && !idx.uniform()) {
      // Retain this depth's step-start state and first RHS for its dense
      // output, before the final update overwrites the state.
      if (update_begin) update_begin();
      es.range_for(
          LaunchSpec{"subcycle-save", "update", nd, 0}, kNumVars,
          /*grain=*/1, counts,
          [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
            for (int v = static_cast<int>(vb); v < static_cast<int>(ve);
                 ++v) {
              Real* u0v = st.dense_u0->field(v);
              Real* k1v = st.dense_k1->field(v);
              const Real* uv = state.field(v);
              const Real* kv = k[0].field(v);
              for (std::size_t d = 0; d < nd; ++d) {
                if (static_cast<int>(dd[d]) != depth) continue;
                u0v[d] = uv[d];
                k1v[d] = kv[d];
              }
            }
            const std::uint64_t n = std::uint64_t(ve - vb) * nd;
            c.bytes_read += 2 * n * sizeof(Real);
            c.bytes_written += 2 * n * sizeof(Real);
          });
      if (update_end) update_end();
    }
  }

  // u += dt/6 k1 + dt/3 k2 + dt/3 k3 + dt/6 k4, restricted to this depth's
  // DOFs, as four sequential per-element AXPYs — the same rounding order
  // as rk4_step's four axpy sweeps.
  const Real a16 = dt / 6.0;
  const Real a13 = dt / 3.0;
  if (update_begin) update_begin();
  es.range_for(
      LaunchSpec{"subcycle-update", "update", nd, 0}, kNumVars, /*grain=*/1,
      counts, [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
        for (int v = static_cast<int>(vb); v < static_cast<int>(ve); ++v) {
          Real* uv = state.field(v);
          const Real* k0v = k[0].field(v);
          const Real* k1v = k[1].field(v);
          const Real* k2v = k[2].field(v);
          const Real* k3v = k[3].field(v);
          for (std::size_t d = 0; d < nd; ++d) {
            if (static_cast<int>(dd[d]) != depth) continue;
            uv[d] += a16 * k0v[d];
            uv[d] += a13 * k1v[d];
            uv[d] += a13 * k2v[d];
            uv[d] += a16 * k3v[d];
          }
        }
        const std::uint64_t n = std::uint64_t(ve - vb) * nd;
        c.flops += 8 * n;
        c.bytes_read += 5 * n * sizeof(Real);
        c.bytes_written += n * sizeof(Real);
      });
  if (update_end) update_end();

  if (!idx.uniform()) {
    (*st.dense_t0)[static_cast<std::size_t>(slot)] = time;
    (*st.dense_mode)[static_cast<std::size_t>(slot)] = kDenseModeQuad;
  }
}

namespace {

/// The one diagnostic sweep: for each chunk of scratch.chunk_octants
/// octants, unzip the chunk, then run body(e, o, pin, ws) on every octant
/// e (o = its index in the chunk, pin its kNumVars input patches) in a
/// team_for over the chunk, with the executing lane's workspace.
template <class OctBody>
void sweep_diagnostic(const ExecSpace& es, const mesh::Mesh& mesh,
                      const BssnState& state, const DiagScratch& scratch,
                      const char* label, OctBody&& body) {
  DGR_CHECK(scratch.chunk_octants > 0 && scratch.patch_in &&
            scratch.patch_out && scratch.ws);
  std::vector<bssn::DerivWorkspace>& ws = *scratch.ws;
  if (static_cast<int>(ws.size()) < es.max_lanes()) ws.resize(es.max_lanes());
  const auto in = state.cptrs();
  const OctIndex n = static_cast<OctIndex>(mesh.num_octants());
  for (OctIndex begin = 0; begin < n; begin += scratch.chunk_octants) {
    const OctIndex end = std::min<OctIndex>(begin + scratch.chunk_octants, n);
    sweep_octant_to_patch(es, mesh, in.data(), begin, end, scratch.patch_in,
                          mesh::UnzipMethod::kLoopOverOctants, nullptr);
    es.team_for(
        LaunchSpec{label, label, std::uint64_t(end - begin), 0}, end - begin,
        /*grain=*/1, nullptr,
        [&](const TeamMember& tm, std::int64_t ob, std::int64_t oe,
            OpCounts&) {
          bssn::DerivWorkspace& lane_ws =
              ws[static_cast<std::size_t>(tm.lane())];
          for (std::int64_t o = ob; o < oe; ++o) {
            const Real* pin[kNumVars];
            for (int v = 0; v < kNumVars; ++v)
              pin[v] = scratch.patch_in +
                       patch_offset(o, v, kNumVars, kPatchPts);
            body(begin + static_cast<OctIndex>(o), o, pin, lane_ws);
          }
        });
  }
}

/// One octant's (or, folded, the mesh's) constraint-norm partial.
struct ConstraintPartial {
  Real ham_sq = 0;
  Real mom_sq = 0;
  std::size_t npts = 0;
  Real ham_linf = 0;
  Real mom_linf = 0;
};

}  // namespace

void sweep_psi4_field(const ExecSpace& es, const mesh::Mesh& mesh,
                      const BssnState& state, const bssn::BssnParams& params,
                      const DiagScratch& scratch, Real* re, Real* im) {
  Real* const outs[2] = {re, im};
  sweep_diagnostic(
      es, mesh, state, scratch, "psi4",
      [&](OctIndex e, std::int64_t o, const Real* const* pin,
          bssn::DerivWorkspace& ws) {
        Real* pre = scratch.patch_out + patch_offset(o, 0, 2, kPatchPts);
        Real* pim = scratch.patch_out + patch_offset(o, 1, 2, kPatchPts);
        gw::psi4_patch(pin, mesh.patch_geom(e), params, ws, pre, pim);
        mesh.zip(pre, 2, e, e + 1, outs);
      });
}

bssn::ConstraintNorms sweep_constraint_norms(
    const ExecSpace& es, const mesh::Mesh& mesh, const BssnState& state,
    const bssn::BssnParams& params, const DiagScratch& scratch,
    const std::vector<std::array<Real, 3>>& excise_centers,
    Real excise_radius) {
  using mesh::kPad;
  using mesh::kR;
  std::vector<ConstraintPartial> part(mesh.num_octants());
  sweep_diagnostic(
      es, mesh, state, scratch, "constraints",
      [&](OctIndex e, std::int64_t o, const Real* const* pin,
          bssn::DerivWorkspace& ws) {
        Real* ham = scratch.patch_out +
                    patch_offset(o, 0, kDiagOutVars, kPatchPts);
        Real* mom = ham + kPatchPts;
        const mesh::PatchGeom geom = mesh.patch_geom(e);
        bssn::bssn_constraints_patch(pin, geom, params, ws, ham, mom);
        ConstraintPartial s;  // local: octant slots share cache lines
        for (int kk = kPad; kk < kPad + kR; ++kk)
          for (int jj = kPad; jj < kPad + kR; ++jj)
            for (int ii = kPad; ii < kPad + kR; ++ii) {
              const Real x = geom.origin[0] + ii * geom.h;
              const Real y = geom.origin[1] + jj * geom.h;
              const Real z = geom.origin[2] + kk * geom.h;
              bool excised = false;
              for (const auto& c : excise_centers) {
                const Real dx = x - c[0], dy = y - c[1], dz = z - c[2];
                if (dx * dx + dy * dy + dz * dz <
                    excise_radius * excise_radius)
                  excised = true;
              }
              if (excised) continue;
              const int p = mesh::patch_idx(ii, jj, kk);
              Real m2 = 0;
              for (int i = 0; i < 3; ++i)
                m2 += mom[i * kPatchPts + p] * mom[i * kPatchPts + p];
              s.ham_sq += ham[p] * ham[p];
              s.mom_sq += m2;
              s.ham_linf = std::max(s.ham_linf, std::abs(ham[p]));
              s.mom_linf = std::max(s.mom_linf, std::sqrt(m2));
              ++s.npts;
            }
        part[static_cast<std::size_t>(e)] = s;
      });
  const ConstraintPartial total = tree_fold(
      part, ConstraintPartial{},
      [](const ConstraintPartial& a, const ConstraintPartial& b) {
        return ConstraintPartial{a.ham_sq + b.ham_sq, a.mom_sq + b.mom_sq,
                                 a.npts + b.npts,
                                 std::max(a.ham_linf, b.ham_linf),
                                 std::max(a.mom_linf, b.mom_linf)};
      });
  bssn::ConstraintNorms norms;
  norms.ham_linf = total.ham_linf;
  norms.mom_linf = total.mom_linf;
  if (total.npts > 0) {
    norms.ham_l2 = std::sqrt(total.ham_sq / total.npts);
    norms.mom_l2 = std::sqrt(total.mom_sq / total.npts);
  }
  return norms;
}

}  // namespace dgr::exec_space

// The whole-mesh diagnostics of gw/psi4.hpp and bssn/constraints.hpp: the
// sweeps above on the host space, in transient scratch of their own.
namespace dgr {

namespace {

/// Chunk size of the transient scratch: the solver's default pipeline
/// chunk, or the whole mesh when it is smaller.
constexpr OctIndex kDiagChunkOctants = 64;

/// Owns a DiagScratch's buffers for one diagnostic call.
struct OwnedDiagScratch {
  std::vector<Real> patch_in, patch_out;
  std::vector<bssn::DerivWorkspace> ws;
  exec_space::DiagScratch view;

  explicit OwnedDiagScratch(const mesh::Mesh& mesh) {
    const int chunk = static_cast<int>(std::min<OctIndex>(
        kDiagChunkOctants,
        std::max<OctIndex>(1, static_cast<OctIndex>(mesh.num_octants()))));
    patch_in.resize(std::size_t(chunk) * bssn::kNumVars * mesh::kPatchPts);
    patch_out.resize(std::size_t(chunk) * exec_space::kDiagOutVars *
                     mesh::kPatchPts);
    view = {chunk, patch_in.data(), patch_out.data(), &ws};
  }
};

}  // namespace

void gw::compute_psi4_field(const mesh::Mesh& mesh,
                            const bssn::BssnState& state,
                            const bssn::BssnParams& params, Real* re,
                            Real* im) {
  OwnedDiagScratch s(mesh);
  exec_space::sweep_psi4_field(exec_space::ExecSpace::host(), mesh, state,
                               params, s.view, re, im);
}

bssn::ConstraintNorms bssn::compute_constraint_norms(
    const mesh::Mesh& mesh, const BssnState& state, const BssnParams& params,
    const std::vector<std::array<Real, 3>>& excise_centers,
    Real excise_radius) {
  OwnedDiagScratch s(mesh);
  return exec_space::sweep_constraint_norms(exec_space::ExecSpace::host(),
                                            mesh, state, params, s.view,
                                            excise_centers, excise_radius);
}

}  // namespace dgr
