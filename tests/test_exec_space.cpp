/// \file test_exec_space.cpp
/// \brief The exec_space backend-equivalence contract: every sweep ported
/// onto dgr::exec_space is bitwise identical across {serial, pool, simgpu}
/// backends × thread counts, and the layer's primitives
/// (range_for, team_for, reduce, OpCounts slot merge, DGR_EXEC_SPACE knob)
/// behave identically on every backend.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bssn/initial_data.hpp"
#include "common/error.hpp"
#include "exec/pool.hpp"
#include "exec_space/bssn_sweeps.hpp"
#include "exec_space/exec_space.hpp"
#include "simgpu/gpu_bssn.hpp"
#include "solver/evolution.hpp"

namespace dgr {
namespace {

using bssn::BssnState;
using exec_space::Backend;
using exec_space::ExecSpace;
using exec_space::LaunchSpec;
using mesh::Mesh;

constexpr Backend kBackends[] = {Backend::kSerial, Backend::kPool,
                                 Backend::kSimGpu};

/// A space for `b`, borrowing `rt` when the simgpu backend is requested.
ExecSpace make_space(Backend b, simgpu::GpuRuntime& rt) {
  switch (b) {
    case Backend::kSerial: return ExecSpace::serial();
    case Backend::kPool: return ExecSpace::pool();
    case Backend::kSimGpu: return ExecSpace::simgpu(rt);
  }
  return ExecSpace::pool();
}

// ------------------------------------------------------------ primitives --

TEST(ExecSpaceBasics, ParseBackendAcceptsExactlyTheThreeNames) {
  EXPECT_EQ(exec_space::parse_backend("serial", "t"), Backend::kSerial);
  EXPECT_EQ(exec_space::parse_backend("pool", "t"), Backend::kPool);
  EXPECT_EQ(exec_space::parse_backend("simgpu", "t"), Backend::kSimGpu);
  for (const char* bad : {"Serial", "gpu", "POOL", "", "pool ", "simgpu2"})
    EXPECT_THROW(exec_space::parse_backend(bad, "t"), Error) << bad;
  EXPECT_THROW(exec_space::parse_backend(nullptr, "t"), Error);
  try {
    exec_space::parse_backend("nope", "DGR_EXEC_SPACE");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DGR_EXEC_SPACE"),
              std::string::npos);
  }
  for (Backend b : kBackends)
    EXPECT_EQ(exec_space::parse_backend(exec_space::backend_name(b), "t"), b);
}

TEST(ExecSpaceBasics, BackendFromEnvIsStrict) {
  // Prime the process-default cache with the ambient knob BEFORE mutating
  // the environment: ExecSpace::host() must keep honoring whatever the
  // process was launched with (the CI exec-space job depends on it).
  const Backend def = exec_space::default_backend();
  const char* orig = std::getenv("DGR_EXEC_SPACE");
  const std::string saved = orig ? orig : "";

  ASSERT_EQ(unsetenv("DGR_EXEC_SPACE"), 0);
  EXPECT_EQ(exec_space::backend_from_env(), Backend::kPool);
  ASSERT_EQ(setenv("DGR_EXEC_SPACE", "serial", 1), 0);
  EXPECT_EQ(exec_space::backend_from_env(), Backend::kSerial);
  ASSERT_EQ(setenv("DGR_EXEC_SPACE", "simgpu", 1), 0);
  EXPECT_EQ(exec_space::backend_from_env(), Backend::kSimGpu);
  for (const char* bad : {"cuda", "Pool", "serial ", "1"}) {
    ASSERT_EQ(setenv("DGR_EXEC_SPACE", bad, 1), 0);
    EXPECT_THROW(exec_space::backend_from_env(), Error) << bad;
  }

  if (orig)
    ASSERT_EQ(setenv("DGR_EXEC_SPACE", saved.c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("DGR_EXEC_SPACE"), 0);
  // host() binds the cached process default; whatever it is, it must be
  // consistent and carry a runtime exactly on the simgpu backend.
  const ExecSpace host = ExecSpace::host();
  EXPECT_EQ(host.backend(), def);
  EXPECT_EQ(host.runtime() != nullptr, host.backend() == Backend::kSimGpu);
}

TEST(ExecSpaceBasics, PatchOffsetIsOctantThenVariableMajor) {
  EXPECT_EQ(exec_space::patch_offset(2, 3, 24, 100), (2 * 24 + 3) * 100u);
}

TEST(ExecSpacePrimitives, RangeForCoversChunksIdenticallyOnEveryBackend) {
  const std::int64_t n = 1003, grain = 16;
  std::vector<double> ref;
  for (int threads : {1, 4}) {
    exec::ThreadPool::set_global_threads(threads);
    for (Backend b : kBackends) {
      simgpu::GpuRuntime rt;
      const ExecSpace es = make_space(b, rt);
      std::vector<double> out(static_cast<std::size_t>(n), 0.0);
      OpCounts counts;
      es.range_for(LaunchSpec{"t-range", "t-range", 1, 0}, n, grain, &counts,
                   [&](std::int64_t i0, std::int64_t i1, OpCounts& c) {
                     for (std::int64_t i = i0; i < i1; ++i)
                       out[static_cast<std::size_t>(i)] = std::sin(0.1 * i);
                     c.flops += std::uint64_t(i1 - i0);
                   });
      EXPECT_EQ(counts.flops, std::uint64_t(n)) << threads;
      if (ref.empty())
        ref = out;
      else
        EXPECT_EQ(out, ref) << "backend " << exec_space::backend_name(b)
                            << " threads " << threads;
    }
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(ExecSpacePrimitives, ReduceUsesTheFixedPairwiseTreeOnEveryBackend) {
  const std::int64_t n = 777, grain = 8;
  // Expected value: per-chunk sums combined by the documented pairwise
  // tree (NOT plain left-to-right accumulation — FP addition is not
  // associative, so the two orders genuinely differ here).
  std::vector<double> slot;
  for (std::int64_t b = 0; b < n; b += grain) {
    double s = 0;
    for (std::int64_t i = b; i < std::min(n, b + grain); ++i)
      s += std::sin(0.01 * i) * 1e-3 + 1.0;
    slot.push_back(s);
  }
  for (std::int64_t width = static_cast<std::int64_t>(slot.size()); width > 1;
       width = (width + 1) / 2) {
    for (std::int64_t i = 0; 2 * i < width; ++i)
      slot[static_cast<std::size_t>(i)] =
          (2 * i + 1 < width)
              ? slot[static_cast<std::size_t>(2 * i)] +
                    slot[static_cast<std::size_t>(2 * i + 1)]
              : slot[static_cast<std::size_t>(2 * i)];
  }
  const double expected = slot[0];

  for (int threads : {1, 4}) {
    exec::ThreadPool::set_global_threads(threads);
    for (Backend b : kBackends) {
      simgpu::GpuRuntime rt;
      const ExecSpace es = make_space(b, rt);
      const double got = es.reduce(
          LaunchSpec{"t-reduce", "t-reduce", 1, 0}, n, grain, 0.0,
          [&](std::int64_t i0, std::int64_t i1) {
            double s = 0;
            for (std::int64_t i = i0; i < i1; ++i)
              s += std::sin(0.01 * i) * 1e-3 + 1.0;
            return s;
          },
          [](double x, double y) { return x + y; });
      EXPECT_EQ(got, expected) << "backend " << exec_space::backend_name(b)
                               << " threads " << threads;
    }
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(ExecSpacePrimitives, TeamForDeliversLane) {
  exec::ThreadPool::set_global_threads(4);
  for (Backend b : kBackends) {
    simgpu::GpuRuntime rt;
    const ExecSpace es = make_space(b, rt);
    const int lanes = es.max_lanes();
    std::vector<int> lane_of(64, -1);
    es.team_for(LaunchSpec{"t-team", "t-team", 1, 0}, 64, 4, nullptr,
                [&](const exec_space::TeamMember& tm, std::int64_t i0,
                    std::int64_t i1, OpCounts&) {
                  EXPECT_GE(tm.lane(), 0);
                  EXPECT_LT(tm.lane(), lanes);
                  for (std::int64_t i = i0; i < i1; ++i)
                    lane_of[static_cast<std::size_t>(i)] = tm.lane();
                });
    for (int l : lane_of) EXPECT_GE(l, 0);
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(ExecSpacePrimitives, NestedSweepsFallBackSafely) {
  // A kernel body opening another sweep on the same thread must not
  // corrupt the outer sweep's arena-backed OpCounts slots.
  for (Backend b : {Backend::kSerial, Backend::kPool}) {
    simgpu::GpuRuntime rt;
    const ExecSpace es = make_space(b, rt);
    OpCounts outer;
    es.range_for(LaunchSpec{"t-outer", "t-outer", 1, 0}, 8, 1, &outer,
                 [&](std::int64_t i0, std::int64_t i1, OpCounts& c) {
                   OpCounts inner;
                   ExecSpace::serial().range_for(
                       LaunchSpec{"t-inner", "t-inner", 1, 0}, 4, 1, &inner,
                       [&](std::int64_t, std::int64_t, OpCounts& ic) {
                         ic.flops += 1;
                       });
                   EXPECT_EQ(inner.flops, 4u);
                   c.flops += std::uint64_t(i1 - i0);
                 });
    EXPECT_EQ(outer.flops, 8u);
  }
}

TEST(ExecSpacePrimitives, SimGpuBackendRecordsKernelLaunches) {
  simgpu::GpuRuntime rt;
  const ExecSpace es = ExecSpace::simgpu(rt);
  ASSERT_EQ(es.runtime(), &rt);
  OpCounts out;
  es.range_for(LaunchSpec{"t-kernel", nullptr, 7, 2}, 32, 8, &out,
               [&](std::int64_t i0, std::int64_t i1, OpCounts& c) {
                 c.flops += std::uint64_t(i1 - i0) * 3;
               });
  ASSERT_TRUE(rt.has_kernel("t-kernel"));
  const auto& rec = rt.record("t-kernel");
  EXPECT_EQ(rec.launches, 1);
  EXPECT_EQ(rec.blocks, 7u);
  EXPECT_EQ(rec.stream, 2);
  EXPECT_EQ(rec.counts.flops, 96u);
  EXPECT_EQ(out.flops, 96u);  // chunk-order merge also feeds the out-param
}

// --------------------------------------------- backend-equivalence matrix --

std::shared_ptr<Mesh> puncture_mesh() {
  oct::Domain dom{16.0};
  return std::make_shared<Mesh>(
      oct::build_puncture_octree(dom, {{{0.05, 0.03, 0.02}, 3}}, 2), dom);
}

void init_puncture(const Mesh& m, BssnState& s) {
  s.resize(m.num_dofs());
  bssn::set_punctures(m, {{1.0, {0.05, 0.03, 0.02}, {0, 0, 0}, {0, 0, 0}}},
                      s);
}

/// A short evolution with a mid-run regrid (remesh + transfer_state) on
/// backend `b`.
BssnState run_evolve(Backend b, int threads) {
  exec::ThreadPool::set_global_threads(threads);
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  simgpu::GpuRuntime rt;
  solver::BssnCtx ctx(m, scfg, make_space(b, rt));
  init_puncture(*m, ctx.state());
  solver::EvolutionConfig ecfg;
  ecfg.t_end = 4.1 * ctx.suggested_dt();
  ecfg.regrid_every = 3;
  ecfg.regrid.max_level = 3;
  const auto res = solver::evolve(ctx, ecfg, nullptr);
  EXPECT_GE(res.steps, 4);
  return ctx.state();
}

TEST(ExecSpaceMatrix, EvolveThroughRegridIsBitwiseIdenticalAcrossBackends) {
  const BssnState ref = run_evolve(Backend::kSerial, 1);
  for (Backend b : kBackends)
    for (int threads : {1, 4}) {
      if (b == Backend::kSerial && threads == 1) continue;
      const BssnState run = run_evolve(b, threads);
      ASSERT_EQ(run.num_dofs(), ref.num_dofs());
      EXPECT_EQ(run.max_abs_diff(ref), 0.0)
          << exec_space::backend_name(b) << " threads " << threads;
    }
  exec::ThreadPool::set_global_threads(1);
}

/// One sub-cycled coarse step (multi-depth mesh => stage fill, dense save
/// and depth-restricted update all execute) on backend `b`.
BssnState run_subcycle(Backend b, int threads) {
  exec::ThreadPool::set_global_threads(threads);
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  simgpu::GpuRuntime rt;
  solver::BssnCtx ctx(m, scfg, make_space(b, rt));
  init_puncture(*m, ctx.state());
  EXPECT_GT(ctx.subcycle_index().cycle(), 1);
  ctx.subcycle_cycle(ctx.suggested_dt());
  return ctx.state();
}

TEST(ExecSpaceMatrix, SubcycleCycleIsBitwiseIdenticalAcrossBackends) {
  const BssnState ref = run_subcycle(Backend::kSerial, 1);
  for (Backend b : kBackends)
    for (int threads : {1, 4}) {
      if (b == Backend::kSerial && threads == 1) continue;
      const BssnState run = run_subcycle(b, threads);
      EXPECT_EQ(run.max_abs_diff(ref), 0.0)
          << exec_space::backend_name(b) << " threads " << threads;
    }
  exec::ThreadPool::set_global_threads(1);
}

/// The simgpu space used from BssnCtx must record the same kernel launch
/// sequence as the dedicated GpuBssnSolver for the same work — the sweeps
/// are the same bodies.
TEST(ExecSpaceMatrix, SimGpuSpaceMatchesGpuSolverKernelAccounting) {
  exec::ThreadPool::set_global_threads(1);
  auto m = puncture_mesh();

  simgpu::GpuSolverConfig gcfg;
  gcfg.bssn.ko_sigma = 0.3;
  simgpu::GpuBssnSolver gpu(m, gcfg);
  BssnState init;
  init_puncture(*m, init);
  gpu.upload(init);
  gpu.rk4_step();

  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  simgpu::GpuRuntime rt;
  solver::BssnCtx ctx(m, scfg, ExecSpace::simgpu(rt));
  init_puncture(*m, ctx.state());
  ctx.rk4_step(gpu.suggested_dt());

  EXPECT_EQ(ctx.state().max_abs_diff(gpu.device_state()), 0.0);
  for (const char* k :
       {"octant-to-patch", "bssn-rhs", "patch-to-octant", "axpy"}) {
    ASSERT_TRUE(rt.has_kernel(k)) << k;
    ASSERT_TRUE(gpu.runtime().has_kernel(k)) << k;
    const auto& a = rt.record(k);
    const auto& b = gpu.runtime().record(k);
    EXPECT_EQ(a.launches, b.launches) << k;
    EXPECT_EQ(a.blocks, b.blocks) << k;
    EXPECT_EQ(a.counts.flops, b.counts.flops) << k;
    EXPECT_EQ(a.counts.bytes_read, b.counts.bytes_read) << k;
    EXPECT_EQ(a.counts.bytes_written, b.counts.bytes_written) << k;
  }
}

}  // namespace
}  // namespace dgr
