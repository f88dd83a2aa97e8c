/// \file bench_fig15_rhs_cpu_gpu.cpp
/// \brief Regenerates Fig. 15: wall-clock time to compute padding zones and
/// evaluate the RHS 10 times — one A100 vs a two-socket EPYC 7763 node —
/// for grids with an increasing number of octants. Both devices are
/// evaluated with the §III-D finite-cache model applied to the same
/// measured op counts (the host-measured single-core time is printed for
/// reference).

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "perf/machine_model.hpp"
#include "simgpu/gpu_bssn.hpp"

int main(int argc, char** argv) {
  using namespace dgr;
  bench::header("Fig. 15", "padding + 10 RHS evaluations: A100 vs EPYC node");
  bench::Reporter rep("fig15_rhs_cpu_gpu", argc, argv);

  const perf::MachineModel a100 = perf::a100();
  const perf::MachineModel epyc = perf::epyc7763_node();
  std::printf(
      "  grid | octants | A100 model (ms) | EPYC node model (ms) | speedup | "
      "host 1-core (ms)\n");
  for (int fam = 1; fam <= 3; ++fam) {
    auto m = bench::adaptivity_mesh(fam);
    simgpu::GpuBssnSolver gpu(m, simgpu::GpuSolverConfig{});
    bssn::BssnState s;
    bssn::set_minkowski(*m, s);
    gpu.upload(s);
    // One compute_rhs per rk4 stage: 10 RHS evaluations ~ 2.5 RK4 steps;
    // run the pipeline pieces directly by stepping 10 quarter-steps worth.
    WallTimer t;
    for (int i = 0; i < 2; ++i) gpu.rk4_step(1e-6);  // 8 RHS evaluations
    // plus two more evals via an extra half measurement: scale to 10.
    const double host_ms = t.milliseconds() * (10.0 / 8.0);
    const double scale = 10.0 / 8.0;  // 8 evaluations recorded
    const auto& o2p = gpu.runtime().record("octant-to-patch");
    const auto& rhs = gpu.runtime().record("bssn-rhs");
    const double a100_ms =
        (o2p.modeled_seconds(a100) + rhs.modeled_seconds(a100)) * 1e3 * scale;
    const double epyc_ms =
        (o2p.modeled_seconds(epyc) + rhs.modeled_seconds(epyc)) * 1e3 * scale;
    const std::string g = "m" + std::to_string(fam);
    rep.pair("gpu_speedup_" + g, 4.0, epyc_ms / a100_ms, "x");
    rep.metric("a100_ms_" + g, a100_ms);
    rep.metric("epyc_ms_" + g, epyc_ms);
    std::printf("  m%-3d | %-7zu | %-15.2f | %-20.2f | %-7.2f | %-10.0f\n",
                fam, m->num_octants(), a100_ms, epyc_ms, epyc_ms / a100_ms,
                host_ms);
  }
  bench::note("the A100's ~4x bandwidth advantage over the EPYC node drives");
  bench::note("the gap on these memory-bound kernels (paper Fig. 15 shows the");
  bench::note("same ordering with OpenMP patch-level parallelism on the CPU).");

  // Host companion: the production RHS kernel (bssn_rhs_patch), one full
  // RHS sweep per grid through the solver pipeline after an untimed warm-up
  // sweep (first touch of the state and patch buffers). Only the RHS phase
  // is timed.
  std::printf("\n  host RHS phase, production kernel:\n");
  std::printf("  grid | rhs (ms)\n");
  for (int fam = 1; fam <= 3; ++fam) {
    auto m = bench::adaptivity_mesh(fam);
    solver::SolverConfig scfg;
    scfg.bssn.sommerfeld = false;
    bssn::BssnState s, rhs;
    bssn::set_minkowski(*m, s);
    rhs.resize(m->num_dofs());
    solver::RhsPipeline pipe(m, scfg);
    const std::vector<solver::OctRange> all = {
        {0, OctIndex(m->num_octants())}};
    pipe.compute(s, rhs, all, nullptr, nullptr);
    solver::PhaseBreakdown ph;
    pipe.compute(s, rhs, all, &ph, nullptr);
    const double ms = ph.rhs.total_seconds() * 1e3;
    rep.metric("production_rhs_ms_m" + std::to_string(fam), ms);
    std::printf("  m%-3d | %-8.0f\n", fam, ms);
  }
  return 0;
}
