#include "solver/bssn_ctx.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "exec_space/bssn_sweeps.hpp"
#include "mesh/sampling.hpp"
#include "obs/obs.hpp"

namespace dgr::solver {

using bssn::BssnState;
using bssn::kNumVars;
using exec_space::ExecSpace;
using mesh::kPatchPts;

RhsPipeline::RhsPipeline(std::shared_ptr<const mesh::Mesh> mesh,
                         SolverConfig config, ExecSpace space)
    : mesh_(std::move(mesh)), config_(config), space_(space) {
  DGR_CHECK(mesh_ != nullptr);
  DGR_CHECK(config_.chunk_octants > 0);
  const std::size_t cap =
      static_cast<std::size_t>(config_.chunk_octants) * kNumVars * kPatchPts;
  patch_in_.resize(cap);
  patch_out_.resize(cap);
}

void RhsPipeline::set_mesh(std::shared_ptr<const mesh::Mesh> mesh) {
  DGR_CHECK(mesh != nullptr);
  mesh_ = std::move(mesh);
}

void RhsPipeline::compute(const BssnState& u, BssnState& rhs,
                          const std::vector<OctRange>& runs,
                          PhaseBreakdown* phases, OpCounts* counts) {
  const auto in = u.cptrs();
  const auto out = rhs.ptrs();
  if (static_cast<int>(ws_.size()) < space_.max_lanes())
    ws_.resize(space_.max_lanes());

  // Per-call phase durations feed the timing-gated histograms below: the
  // banked PhaseTimer totals are snapshotted here and the deltas observed
  // once the call completes.
  const double t_unzip0 = phases ? phases->unzip.total_seconds() : 0.0;
  const double t_rhs0 = phases ? phases->rhs.total_seconds() : 0.0;
  const double t_zip0 = phases ? phases->zip.total_seconds() : 0.0;

  // Each phase of a chunk is one sweep on space_ (exec_space/bssn_sweeps:
  // the single kernel bodies shared with the simgpu mirror; see there for
  // the split-axis / determinism rationale).
  for (const auto& run : runs) {
    DGR_CHECK(run.first >= 0 &&
              run.second <= static_cast<OctIndex>(mesh_->num_octants()));
    for (OctIndex begin = run.first; begin < run.second;
         begin += config_.chunk_octants) {
      const OctIndex end =
          std::min<OctIndex>(begin + config_.chunk_octants, run.second);

      if (phases) phases->unzip.start();
      exec_space::sweep_octant_to_patch(space_, *mesh_, in.data(), begin, end,
                                        patch_in_.data(), config_.unzip_method,
                                        counts);
      if (phases) phases->unzip.stop();

      if (phases) phases->rhs.start();
      exec_space::sweep_rhs(space_, *mesh_, config_.bssn, ws_, begin, end,
                            patch_in_.data(), patch_out_.data(), counts);
      if (phases) phases->rhs.stop();

      if (phases) phases->zip.start();
      exec_space::sweep_patch_to_octant(space_, *mesh_, patch_out_.data(),
                                        begin, end, out.data(), counts);
      if (phases) phases->zip.stop();
    }
  }

  if (phases) {
    obs::observe_hist_timing(
        "solver.rhs.unzip_us",
        (phases->unzip.total_seconds() - t_unzip0) * 1e6);
    obs::observe_hist_timing(
        "solver.rhs.rhs_us", (phases->rhs.total_seconds() - t_rhs0) * 1e6);
    obs::observe_hist_timing(
        "solver.rhs.zip_us", (phases->zip.total_seconds() - t_zip0) * 1e6);
  }
}

BssnCtx::BssnCtx(std::shared_ptr<mesh::Mesh> mesh, SolverConfig config,
                 ExecSpace space)
    : mesh_(std::move(mesh)),
      config_(config),
      space_(space),
      pipeline_(mesh_, config, space) {
  DGR_CHECK(mesh_ != nullptr);
  state_.resize(mesh_->num_dofs());
  for (auto& k : k_) k.resize(mesh_->num_dofs());
  stage_.resize(mesh_->num_dofs());
}

Real BssnCtx::suggested_dt() const {
  return config_.cfl * mesh_->finest_spacing();
}

void BssnCtx::compute_rhs(const BssnState& u, BssnState& rhs) {
  pipeline_.compute(u, rhs,
                    {{0, static_cast<OctIndex>(mesh_->num_octants())}},
                    &phases_, &counts_);
}

void BssnCtx::rk4_step(Real dt) {
  // Classical RK4: k1 = F(u), k2 = F(u + dt/2 k1), k3 = F(u + dt/2 k2),
  // k4 = F(u + dt k3), u += dt/6 (k1 + 2 k2 + 2 k3 + k4). The AXPY sweeps
  // pass counts == nullptr: the host context has never accumulated update
  // flops into counts_ (the simgpu mirror records them per kernel).
  compute_rhs(state_, k_[0]);

  phases_.update.start();
  exec_space::sweep_rk4_axpy(space_, stage_, 0.5 * dt, k_[0], &state_,
                             nullptr);
  phases_.update.stop();
  compute_rhs(stage_, k_[1]);

  phases_.update.start();
  exec_space::sweep_rk4_axpy(space_, stage_, 0.5 * dt, k_[1], &state_,
                             nullptr);
  phases_.update.stop();
  compute_rhs(stage_, k_[2]);

  phases_.update.start();
  exec_space::sweep_rk4_axpy(space_, stage_, dt, k_[2], &state_, nullptr);
  phases_.update.stop();
  compute_rhs(stage_, k_[3]);

  phases_.update.start();
  exec_space::sweep_rk4_axpy(space_, state_, dt / 6.0, k_[0], nullptr,
                             nullptr);
  exec_space::sweep_rk4_axpy(space_, state_, dt / 3.0, k_[1], nullptr,
                             nullptr);
  exec_space::sweep_rk4_axpy(space_, state_, dt / 3.0, k_[2], nullptr,
                             nullptr);
  exec_space::sweep_rk4_axpy(space_, state_, dt / 6.0, k_[3], nullptr,
                             nullptr);
  phases_.update.stop();

  time_ += dt;
  ++steps_;
  // A global-dt step desynchronizes the retained dense stages (they cover
  // the interval before it); the next sub-cycled cycle re-bootstraps.
  dense_ready_ = false;
}

void BssnCtx::evolve_steps(int n) {
  for (int i = 0; i < n; ++i) rk4_step();
}

bssn::ConstraintNorms BssnCtx::constraint_norms(
    const std::vector<std::array<Real, 3>>& excise, Real excise_radius) const {
  return bssn::compute_constraint_norms(*mesh_, state_, config_.bssn, excise,
                                        excise_radius);
}

void BssnCtx::remesh(std::shared_ptr<mesh::Mesh> new_mesh) {
  DGR_CHECK(new_mesh != nullptr);
  BssnState next = transfer_state(*mesh_, state_, *new_mesh);
  mesh_ = std::move(new_mesh);
  pipeline_.set_mesh(mesh_);
  state_ = std::move(next);
  for (auto& k : k_) k.resize(mesh_->num_dofs());
  stage_.resize(mesh_->num_dofs());
  subidx_.reset();
  dense_ready_ = false;
}

BssnState transfer_state(const mesh::Mesh& src_mesh, const BssnState& src,
                         const mesh::Mesh& dst_mesh) {
  BssnState out(dst_mesh.num_dofs());
  const auto in = src.cptrs();
  // Parallel over destination DOFs; every DOF is evaluated independently,
  // so chunking changes nothing but wall time. The sampler caches the last
  // loaded octant (stateful), so each chunk carries its own instance.
  const std::int64_t nd = static_cast<std::int64_t>(dst_mesh.num_dofs());
  ExecSpace::host().range_for(
      {"transfer", "transfer", static_cast<std::uint64_t>(nd), 0}, nd,
      /*grain=*/512, nullptr,
      [&](std::int64_t db, std::int64_t de, OpCounts&) {
        mesh::PointSampler sampler(src_mesh);
        std::array<Real, kNumVars> vals;
        for (DofIndex d = static_cast<DofIndex>(db);
             d < static_cast<DofIndex>(de); ++d) {
          const auto x = dst_mesh.dof_position(d);
          sampler.evaluate_many(in.data(), kNumVars, x[0], x[1], x[2],
                                vals.data());
          for (int v = 0; v < kNumVars; ++v) out.field(v)[d] = vals[v];
        }
      });
  return out;
}

}  // namespace dgr::solver
