#include "evolution.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "gw/psi4.hpp"
#include "obs/obs.hpp"
#include "solver/regrid.hpp"

namespace perfbench {

using namespace dgr;

namespace {

// bbh_evolve: RK4 steps per evolve call; one regrid window of f_r = 4 (the
// ensemble's production cadence) with ψ4 extracted once, at its end, so the
// median step is a plain pipeline step.
constexpr int kBbhSteps = 5;
constexpr int kBbhRegridEvery = 4;
constexpr int kBbhExtractEvery = 4;
// amr_regrid: evolved time in units of the base-grid dt. The mesh refines
// one level per regrid (every 2 steps): 2 steps at dt0, 2 at dt0/2, then
// the rest at dt0/4 on the finest grid.
constexpr double kAmrTimeInBaseSteps = 3.25;
// Per-step latency limits behind slo_met_share on the evolution workloads:
// 2x the median per-step p95 of ten runs on the 4-core
// reference host, 3.3 s (bbh) and 9.1 s (amr), the rule serve_mixed's limit
// follows. Every step meets them in a healthy run.
constexpr double kBbhStepLimitS = 6.6;
constexpr double kAmrStepLimitS = 18.0;
// Set-ups timed on their own before the evolve calls (setup_s is the
// median over these and the evolve calls' own set-ups): ~2.5 s of set-up
// on each workload.
constexpr int kBbhExtraSetups = 6;
constexpr int kAmrExtraSetups = 50;
constexpr int kMinEvolves = 2;

/// Equal-mass binary, separation 2, punctures off the grid lines, with a
/// small seeded spin draw: the seed changes the data, not the grid.
std::vector<bssn::PunctureData> seeded_binary(std::uint64_t seed) {
  auto bhs = bssn::make_binary(1.0, 2.0);
  Rng rng(seed);
  for (auto& b : bhs) {
    b.pos[1] = 0.011;
    b.pos[2] = 0.007;
    for (auto& s : b.spin) s = rng.uniform(-0.05, 0.05);
  }
  return bhs;
}

EvolutionCase bbh_case(std::uint64_t seed) {
  EvolutionCase c;
  c.punctures = seeded_binary(seed);
  c.domain = oct::Domain{16.0};
  for (const auto& b : c.punctures) c.refine.push_back({b.pos, 4});
  c.base_level = 2;
  c.solver.bssn.ko_sigma = 0.3;
  c.evolution = [](const solver::BssnCtx& ctx) {
    solver::EvolutionConfig e;
    e.t_end = kBbhSteps * ctx.suggested_dt();
    e.regrid_every = kBbhRegridEvery;
    e.extract_every = kBbhExtractEvery;
    // Band and thresholds leave this grid unchanged: the window's regrid
    // check runs the estimator and keeps the mesh (at step 4 the level 2-3
    // octants' error stays below 1e-4 and the level-4 octants' above 2e-6).
    e.regrid.eps = 2e-4;
    e.regrid.coarsen_factor = 0.005;
    e.regrid.min_level = 2;
    e.regrid.max_level = 4;
    e.extraction_radii = {5.0};
    return e;
  };
  return c;
}

EvolutionCase amr_case(std::uint64_t seed) {
  EvolutionCase c;
  c.punctures = seeded_binary(seed);
  c.domain = oct::Domain{16.0};
  c.base_level = 2;  // no refinement: the 64-octant base grid
  c.solver.bssn.ko_sigma = 0.3;
  c.evolution = [](const solver::BssnCtx& ctx) {
    solver::EvolutionConfig e;
    e.t_end = kAmrTimeInBaseSteps * ctx.suggested_dt();
    e.regrid_every = 2;
    e.extract_every = 1;
    e.regrid.eps = 1e-4;
    e.regrid.min_level = 2;
    e.regrid.max_level = 4;
    e.extraction_radii = {5.0, 6.0};
    e.metrics_constraints_every = 1;
    return e;
  };
  return c;
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return !v.empty();
}

bool norms_finite(const bssn::ConstraintNorms& n) {
  return std::isfinite(n.ham_l2) && std::isfinite(n.ham_linf) &&
         std::isfinite(n.mom_l2) && std::isfinite(n.mom_linf);
}

std::string reference_path(const Options& opt) {
  return opt.ref_dir + "/psi4_" + opt.workload + "_seed" +
         std::to_string(kReferenceSeed) + ".txt";
}

/// Checks every ψ4 output goes through. The self-check feeds the same
/// comparison a copy with one flipped bit and requires it to be caught.
void check_psi4(const Options& opt, const std::vector<double>& psi4,
                Report& report) {
  report.check(all_finite(psi4), "psi4 series empty or not finite");
  if (opt.seed == kReferenceSeed) {
    const std::string ref = reference_path(opt);
    const std::string diff = compare_reference(ref, psi4);
    report.check(diff.empty(), "psi4 differs from " + ref + ": " + diff);
  }
  std::vector<double> corrupted = psi4;
  corrupted.back() = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(corrupted.back()) ^ 1u);
  report.check(first_bit_difference(psi4, corrupted) >= 0,
               "self-check: a flipped psi4 bit went unnoticed");
}

}  // namespace

Prepared set_up(const EvolutionCase& c, Tracer* tracer) {
  Prepared p;
  const double t0 = now_s();
  oct::Octree tree;
  {
    Scope s(tracer, "octree.build");
    tree = oct::build_puncture_octree(c.domain, c.refine, c.base_level);
  }
  {
    Scope s(tracer, "mesh.build");
    p.mesh = std::make_shared<mesh::Mesh>(std::move(tree), c.domain);
  }
  {
    Scope s(tracer, "solver.ctx_build");
    p.ctx = std::make_unique<solver::BssnCtx>(p.mesh, c.solver);
  }
  {
    Scope s(tracer, "bssn.initial_data");
    bssn::set_punctures(*p.mesh, c.punctures, p.ctx->state());
  }
  p.setup_s = now_s() - t0;
  return p;
}

ReplayResult replay(solver::BssnCtx& ctx, const solver::EvolutionConfig& cfg,
                    Tracer& tracer) {
  DGR_CHECK(cfg.regrid_every > 0 && cfg.extract_every > 0 && !cfg.subcycle);
  Scope top(&tracer, "solver.evolve");
  ReplayResult r;
  std::optional<gw::WaveExtractor> extractor;
  if (!cfg.extraction_radii.empty()) {
    extractor.emplace(cfg.extraction_radii, cfg.lmax);
    for (Real rad : cfg.extraction_radii) {
      gw::ModeTimeSeries ts;
      ts.radius = rad;
      r.waves22.push_back(ts);
    }
  }
  const auto& ph = ctx.breakdown();
  r.octants_initial = ctx.mesh().num_octants();
  while (ctx.time() < cfg.t_end - 1e-12) {
    for (int i = 0; i < cfg.regrid_every && ctx.time() < cfg.t_end; ++i) {
      const Real dt = std::min(ctx.suggested_dt(), cfg.t_end - ctx.time());
      const double u0 = ph.unzip.total_seconds(), h0 = ph.rhs.total_seconds(),
                   z0 = ph.zip.total_seconds(), a0 = ph.update.total_seconds();
      const OpCounts c0 = ctx.op_counts();
      r.octant_steps += ctx.mesh().num_octants();
      {
        Scope s(&tracer, "solver.rk4_step");
        ctx.rk4_step(dt);
      }
      r.unzip_s += ph.unzip.total_seconds() - u0;
      r.rhs_s += ph.rhs.total_seconds() - h0;
      r.zip_s += ph.zip.total_seconds() - z0;
      r.update_s += ph.update.total_seconds() - a0;
      const OpCounts& c1 = ctx.op_counts();
      r.ops.flops += c1.flops - c0.flops;
      r.ops.bytes_read += c1.bytes_read - c0.bytes_read;
      r.ops.bytes_written += c1.bytes_written - c0.bytes_written;
      ++r.steps;
      if (cfg.metrics_constraints_every > 0 &&
          r.steps % cfg.metrics_constraints_every == 0) {
        Scope s(&tracer, "bssn.constraints");
        ctx.constraint_norms();
        ++r.constraint_evals;
      }
      if (extractor && r.steps % cfg.extract_every == 0) {
        const auto& mesh = ctx.mesh();
        std::vector<Real> re(mesh.num_dofs()), im(mesh.num_dofs());
        {
          Scope s(&tracer, "gw.psi4_field");
          gw::compute_psi4_field(mesh, ctx.state(), ctx.config().bssn,
                                 re.data(), im.data());
        }
        std::vector<gw::SphereModes> modes;
        {
          Scope s(&tracer, "gw.sphere_modes");
          modes = extractor->extract(mesh, re.data(), im.data());
        }
        for (std::size_t k = 0; k < modes.size(); ++k)
          r.waves22[k].append(ctx.time(), modes[k].mode(2, 2));
        ++r.extractions;
      }
    }
    if (ctx.time() < cfg.t_end - 1e-12) {
      std::vector<oct::RemeshFlag> flags;
      {
        Scope s(&tracer, "solver.regrid_estimate");
        const auto err =
            solver::compute_octant_errors(ctx.mesh(), ctx.state(), cfg.regrid);
        flags = solver::flags_from_errors(ctx.mesh(), err, cfg.regrid);
      }
      bool any = false;
      for (auto f : flags) any = any || f != oct::RemeshFlag::kKeep;
      if (!any) continue;
      oct::Octree next;
      {
        Scope s(&tracer, "octree.remesh");
        next = ctx.mesh().tree().remesh(flags);
      }
      if (next == ctx.mesh().tree()) continue;
      std::shared_ptr<mesh::Mesh> mesh;
      {
        Scope s(&tracer, "mesh.build");
        mesh = std::make_shared<mesh::Mesh>(std::move(next),
                                            ctx.mesh().domain());
      }
      {
        Scope s(&tracer, "solver.transfer");
        ctx.remesh(mesh);
      }
      ++r.regrids;
    }
  }
  r.octants_final = ctx.mesh().num_octants();
  return r;
}

void report_layers(Report& report, const Tracer& t, const ReplayResult& r,
                   const HostCalibration& host, double untraced_s) {
  const double phases = r.unzip_s + r.rhs_s + r.zip_s + r.update_s;
  report.metric("mesh.unzip_s", r.unzip_s, "s");
  report.metric("bssn.rhs_s", r.rhs_s, "s");
  report.metric("mesh.zip_s", r.zip_s, "s");
  report.metric("solver.update_s", r.update_s, "s");
  report.metric("solver.step_other_s", t.self_s("solver.rk4_step") - phases,
                "s");
  // Every layer is reported; one the workload's path never calls (no
  // constraint norms on bbh_evolve, no remesh where the grid is kept) has
  // no span and a self time of 0.
  for (const char* layer :
       {"bssn.constraints", "gw.psi4_field", "gw.sphere_modes",
        "solver.regrid_estimate", "octree.remesh", "mesh.build",
        "solver.transfer", "octree.build", "solver.ctx_build",
        "bssn.initial_data"})
    report.metric(std::string(layer) + "_s", t.self_s(layer), "s");
  report.metric("mesh.octants_initial", double(r.octants_initial), "count");
  report.metric("mesh.octants_final", double(r.octants_final), "count");
  report.metric("solver.octant_steps", double(r.octant_steps), "count");
  report.metric("solver.steps", r.steps, "count");
  report.metric("solver.regrids", r.regrids, "count");
  report.metric("gw.extractions", r.extractions, "count");
  report.metric("bssn.constraint_evals", r.constraint_evals, "count");

  // Computed traffic: the pipeline's own byte/flop accounting, per step.
  const double bytes = double(r.ops.bytes_read + r.ops.bytes_written);
  const double flops = double(r.ops.flops);
  const double steps = r.steps > 0 ? r.steps : 1;
  report.metric("solver.gbytes_computed", bytes / steps / 1e9, "GB/step");
  report.metric("solver.gflop", flops / steps / 1e9, "GFLOP/step");
  report.metric("solver.flop_per_byte", bytes > 0 ? flops / bytes : 0,
                "flop/B");
  const double gbs = phases > 0 ? bytes / phases / 1e9 : 0;
  const double gflops = phases > 0 ? flops / phases / 1e9 : 0;
  const double ceiling =
      bytes > 0 ? std::min(host.fma_gflops, host.triad_gbs * flops / bytes)
                : host.fma_gflops;
  report.metric("solver.achieved_gbs", gbs, "GB/s");
  report.metric("solver.roofline_frac", ceiling > 0 ? gflops / ceiling : 0,
                "ratio");
  report.metric("host.llc_mb", host.llc_mb, "MiB");
  report.metric("host.triad_array_mb", host.triad_array_mb, "MiB");
  report.metric("host.triad_gbs", host.triad_gbs, "GB/s");
  report.metric("host.fma_gflops", host.fma_gflops, "GFLOP/s");

  const double replay_s = t.total_s("solver.evolve");
  const double unattributed_s = t.self_s("solver.evolve");
  report.metric("trace.evolve_s", replay_s, "s");
  report.metric("trace.untraced_evolve_s", untraced_s, "s");
  report.metric("trace.overhead_share", replay_s / untraced_s - 1.0, "ratio");
  report.metric("trace.unattributed_s", unattributed_s, "s");
  report.metric("trace.unattributed_share", unattributed_s / replay_s, "ratio");
}

void report_lane_scaling(Report& report, solver::BssnCtx& ctx, int lanes) {
  const auto step_phases = [&](int threads) {
    exec::ThreadPool::set_global_threads(threads);
    ctx.reset_instrumentation();
    ctx.rk4_step();
    const auto& ph = ctx.breakdown();
    return std::array<double, 4>{ph.unzip.total_seconds(),
                                 ph.rhs.total_seconds(),
                                 ph.zip.total_seconds(),
                                 ph.update.total_seconds()};
  };
  const auto one = step_phases(1);
  const auto many = step_phases(lanes);
  const char* names[4] = {"unzip", "rhs", "zip", "update"};
  for (int i = 0; i < 4; ++i)
    report.metric(std::string("exec.speedup_4v1.") + names[i],
                  many[i] > 0 ? one[i] / many[i] : 0, "ratio");
}

std::vector<double> flatten(const std::vector<gw::ModeTimeSeries>& w) {
  std::vector<double> out;
  for (const auto& ts : w)
    for (std::size_t i = 0; i < ts.times.size(); ++i) {
      out.push_back(ts.times[i]);
      out.push_back(ts.values[i].real());
      out.push_back(ts.values[i].imag());
    }
  return out;
}

std::string compare_reference(const std::string& path,
                              const std::vector<double>& values) {
  std::ifstream in(path);
  if (!in) return "reference file missing";
  std::vector<double> ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ref.push_back(std::bit_cast<double>(std::stoull(line, nullptr, 16)));
  }
  const long at = first_bit_difference(ref, values);
  if (at < 0) return "";
  return "first difference at value " + std::to_string(at) + " of " +
         std::to_string(values.size());
}

void write_reference(const std::string& path,
                     const std::vector<double>& values) {
  std::ofstream out(path);
  char buf[24];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, "%016llx\n",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
    out << buf;
  }
}

void run_evolution_workload(const Options& opt, int lanes, Report& report) {
  const bool amr = opt.workload == "amr_regrid";
  const EvolutionCase c = amr ? amr_case(opt.seed) : bbh_case(opt.seed);
  // solver::evolve evaluates constraint norms only with a registry installed.
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  struct Uninstall {
    ~Uninstall() { obs::install_metrics(nullptr); }
  } uninstall;

  std::vector<double> setups, evolves, step_gaps, psi4;
  solver::EvolutionConfig ecfg;
  Prepared last;
  const int extra_setups =
      opt.trace ? 0 : (amr ? kAmrExtraSetups : kBbhExtraSetups);
  for (int i = 0; i < extra_setups; ++i) setups.push_back(set_up(c, nullptr).setup_s);

  // Untraced evolve calls while the next one still fits in the measuring
  // time, at least kMinEvolves (one call in a traced run, as the baseline
  // of the replay).
  const double t_start = now_s();
  double rep_s = 0;
  int calls = 0;
  do {
    const double rep_start = now_s();
    ++calls;
    report.attempt();
    try {
      last = Prepared{};
      last = set_up(c, nullptr);
      setups.push_back(last.setup_s);
      ecfg = c.evolution(*last.ctx);
      double prev = now_s();
      const double t0 = prev;
      const auto res = solver::evolve(
          *last.ctx, ecfg, nullptr, [&](const solver::BssnCtx&) {
            const double t = now_s();
            step_gaps.push_back(t - prev);
            prev = t;
          });
      evolves.push_back(now_s() - t0);
      const auto flat = flatten(res.waves22);
      if (!all_finite(flat)) report.fail();
      if (psi4.empty()) {
        psi4 = flat;
      } else {
        report.check(first_bit_difference(psi4, flat) < 0,
                     "psi4 differs between evolve calls of one run");
      }
    } catch (const Error& e) {
      report.fail();
      report.check(false, std::string("evolve threw: ") + e.what());
    }
    rep_s = now_s() - rep_start;
  } while (!opt.trace && (calls < kMinEvolves ||
                          now_s() - t_start + rep_s <= opt.seconds));
  if (psi4.empty()) return;
  if (opt.seed == kReferenceSeed && opt.write_reference)
    write_reference(reference_path(opt), psi4);
  check_psi4(opt, psi4, report);
  report.check(norms_finite(last.ctx->constraint_norms()),
               "constraint norms not finite");

  const double evolve_s = median(evolves);
  if (!opt.trace) {
    const double limit = amr ? kAmrStepLimitS : kBbhStepLimitS;
    std::size_t met = 0;
    for (double g : step_gaps) met += g <= limit;
    report.metric("setup_s", median(setups), "s");
    report.metric("evolve_s", evolve_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("miss_p50_ms", quantile(step_gaps, 0.5) * 1e3, "ms");
    report.metric("slo_met_share", double(met) / double(step_gaps.size()),
                  "share");
    report.note("evolve_calls", std::to_string(evolves.size()));
    report.note("octants", std::to_string(last.mesh->num_octants()) + " -> " +
                               std::to_string(last.ctx->mesh().num_octants()));
    report.note("steps_timed", std::to_string(step_gaps.size()));
    return;
  }

  // Traced run: replay Algorithm 1 call by call on a fresh set-up.
  Tracer tracer;
  const int root = tracer.begin("workload." + opt.workload);
  Prepared p = set_up(c, &tracer);
  const ReplayResult r = replay(*p.ctx, ecfg, tracer);
  tracer.end(root);
  report.check(first_bit_difference(psi4, flatten(r.waves22)) < 0,
               "traced replay psi4 differs from solver::evolve");
  report.check(norms_finite(p.ctx->constraint_norms()),
               "replay constraint norms not finite");
  const HostCalibration host = calibrate_host(lanes);
  report_layers(report, tracer, r, host, evolve_s);
  report_lane_scaling(report, *p.ctx, lanes);
  report_request_layers(report, RequestLayers{});  // no request path here
  tracer.write(opt.out_dir + "/trace_" + opt.workload + ".json");
}

}  // namespace perfbench
