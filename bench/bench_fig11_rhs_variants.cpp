/// \file bench_fig11_rhs_variants.cpp
/// \brief Regenerates Fig. 11: time per octant for 10 RHS evaluations using
/// the SymPyGR-CSE baseline, binary-reduce, and staged+CSE generated
/// kernels (register-machine execution with 56 registers), plus the
/// hand-compiled production kernel for reference.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "codegen/bssn_graph.hpp"
#include "codegen/interp_rhs.hpp"
#include "common/timer.hpp"

int main(int argc, char** argv) {
  using namespace dgr;
  using namespace dgr::codegen;
  bench::header("Fig. 11", "RHS evaluation: codegen variants, 10 evals/octant");
  bench::Reporter rep("fig11_rhs_variants", argc, argv);

  const auto bg = build_bssn_algebra_graph();
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const CompiledKernel kernels[] = {
      CompiledKernel(bg.graph, roots, Strategy::kSympygrCse),
      CompiledKernel(bg.graph, roots, Strategy::kBinaryReduce),
      CompiledKernel(bg.graph, roots, Strategy::kStagedCse)};

  // Synthetic near-flat patches (RHS cost is grid-independent, §V-A).
  constexpr int kVars = bssn::kNumVars;
  std::vector<Real> in(std::size_t(kVars) * mesh::kPatchPts);
  std::vector<Real> out(in.size());
  for (int v = 0; v < kVars; ++v)
    for (int p = 0; p < mesh::kPatchPts; ++p)
      in[std::size_t(v) * mesh::kPatchPts + p] =
          bssn::var_asymptotic(v) + 1e-3 * std::sin(0.1 * p + v);
  const Real* pi[kVars];
  Real* po[kVars];
  for (int v = 0; v < kVars; ++v) {
    pi[v] = &in[std::size_t(v) * mesh::kPatchPts];
    po[v] = &out[std::size_t(v) * mesh::kPatchPts];
  }
  mesh::PatchGeom geom{{0, 0, 0}, 0.05};
  bssn::BssnParams prm;
  prm.sommerfeld = false;
  bssn::DerivWorkspace ws;

  std::printf(
      "  octants | sympygr-cse | binary-reduce | staged-cse | compiled || "
      "speedups (paper 1.00 / 1.55 / 1.76)\n");
  std::printf("          |   (ms/octant for 10 RHS evaluations)\n");
  for (int noct : {8, 16, 32}) {
    double times[3];
    for (int s = 0; s < 3; ++s) {
      WallTimer t;
      for (int e = 0; e < noct; ++e)
        for (int rep = 0; rep < 10; ++rep)
          bssn_rhs_patch_interp(pi, po, geom, prm, ws, kernels[s]);
      times[s] = t.milliseconds() / noct;
    }
    WallTimer t;
    for (int e = 0; e < noct; ++e)
      for (int rep = 0; rep < 10; ++rep)
        bssn::bssn_rhs_patch(pi, po, geom, 1e9, prm, ws);
    const double t_comp = t.milliseconds() / noct;
    const std::string oc = std::to_string(noct);
    rep.pair("speedup_binary_reduce_" + oc, 1.55, times[0] / times[1], "x");
    rep.pair("speedup_staged_cse_" + oc, 1.76, times[0] / times[2], "x");
    rep.metric("compiled_ms_per_octant_" + oc, t_comp);
    std::printf(
        "  %-7d | %-11.2f | %-13.2f | %-10.2f | %-8.2f || 1.00 / %.2f / "
        "%.2f\n",
        noct, times[0], times[1], times[2], t_comp, times[0] / times[1],
        times[0] / times[2]);
  }
  bench::note("per-octant cost is constant in octant count (as in the paper's");
  bench::note("flat curves); spill traffic costs explicit load/store micro-ops");
  bench::note("in the register machine, so fewer spills -> faster kernels.");

  // Per-variant memory profile from the kernels' exact op counters: one RHS
  // evaluation each, reported as bytes moved per flop (the roofline x-axis
  // reciprocal).
  const char* vkeys[] = {"sympygr_cse", "binary_reduce", "staged_cse"};
  const char* vnames[] = {"sympygr-cse", "binary-reduce", "staged-cse"};
  std::printf("\n  %-16s | %-10s | %-11s | %-10s\n", "variant", "Mflop/oct",
              "MB/oct", "bytes/FLOP");
  for (int s = 0; s < 3; ++s) {
    OpCounts vc;
    bssn_rhs_patch_interp(pi, po, geom, prm, ws, kernels[s], &vc);
    const double bpf = double(vc.bytes_moved()) / double(vc.flops);
    rep.metric(std::string("bytes_per_flop_") + vkeys[s], bpf);
    std::printf("  %-16s | %-10.2f | %-11.2f | %-10.3f\n", vnames[s],
                1e-6 * double(vc.flops), 1e-6 * double(vc.bytes_moved()), bpf);
  }
  return 0;
}
