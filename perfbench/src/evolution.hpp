#pragma once
/// \file evolution.hpp
/// \brief The evolution workloads (bbh_evolve, amr_regrid) and the traced
/// replay of Algorithm 1 through the solver's public calls, which the
/// serve_mixed traced run also uses to split one scenario's service time.

#include <functional>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "bssn/initial_data.hpp"
#include "gw/extract.hpp"
#include "octree/refinement.hpp"
#include "solver/evolution.hpp"

namespace perfbench {

/// One evolution: initial data, grid, solver settings, and the evolution
/// settings derived from the initialized context (t_end follows its dt).
struct EvolutionCase {
  std::vector<dgr::bssn::PunctureData> punctures;
  dgr::oct::Domain domain;
  std::vector<dgr::oct::Puncture> refine;  ///< empty: uniform base grid
  int base_level = 2;
  dgr::solver::SolverConfig solver;
  std::function<dgr::solver::EvolutionConfig(const dgr::solver::BssnCtx&)>
      evolution;
};

/// A context with initial data set, and how long that took.
struct Prepared {
  std::shared_ptr<dgr::mesh::Mesh> mesh;
  std::unique_ptr<dgr::solver::BssnCtx> ctx;
  double setup_s = 0;
};

/// Build tree and mesh, construct the context, set the initial data; each
/// phase is a span when `tracer` is given.
Prepared set_up(const EvolutionCase& c, Tracer* tracer);

/// What the traced replay observed besides its spans.
struct ReplayResult {
  std::vector<dgr::gw::ModeTimeSeries> waves22;
  int steps = 0, regrids = 0, extractions = 0, constraint_evals = 0;
  std::size_t octants_initial = 0, octants_final = 0, octant_steps = 0;
  double unzip_s = 0, rhs_s = 0, zip_s = 0, update_s = 0;
  dgr::OpCounts ops;
};

/// Algorithm 1 exactly as solver::evolve runs it (global timestepping),
/// with a span around every public call. Produces a bitwise-identical ψ4.
ReplayResult replay(dgr::solver::BssnCtx& ctx,
                    const dgr::solver::EvolutionConfig& cfg, Tracer& tracer);

/// Per-layer metrics of a traced replay: self times of the layers that ran,
/// counts, computed traffic, achieved rates against the host calibration,
/// and the replay against `untraced_s`, the same evolution untraced.
void report_layers(Report& report, const Tracer& tracer,
                   const ReplayResult& r, const HostCalibration& host,
                   double untraced_s);

/// Phase times of one RK4 step at 1 lane and at `lanes` lanes, reported as
/// exec.speedup_4v1.{unzip,rhs,zip,update}. Advances the context.
void report_lane_scaling(Report& report, dgr::solver::BssnCtx& ctx,
                         int lanes);

/// The bbh_evolve and amr_regrid workloads.
void run_evolution_workload(const Options& opt, int lanes, Report& report);

/// ψ4 series flattened to (t, re, im) per sample, radius by radius: the
/// form compared bitwise and stored as the reference.
std::vector<double> flatten(const std::vector<dgr::gw::ModeTimeSeries>& w);

/// Bitwise comparison with a reference file (hex bit patterns, one value
/// per line). Returns an empty string on match, else what differs.
std::string compare_reference(const std::string& path,
                              const std::vector<double>& values);
void write_reference(const std::string& path,
                     const std::vector<double>& values);

}  // namespace perfbench
