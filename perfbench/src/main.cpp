// perfbench_driver: runs one benchmark workload and prints every metric by
// name with its unit, then a one-line JSON result.
//
//   perfbench_driver --workload bbh_evolve|amr_regrid|serve_mixed
//                    --seed N --seconds S --trace 0|1
//                    [--out DIR] [--ref-dir DIR] [--write-reference]
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "evolution.hpp"
#include "exec/pool.hpp"
#include "simd/simd.hpp"

namespace perfbench {
void run_serve_workload(const Options& opt, int pool_lanes, Report& report);
}

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> const char* {
        DGR_CHECK_MSG(i + 1 < argc, a << " needs a value");
        return argv[++i];
      };
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed")
        opt.seed = dgr::parse_count(value(), "--seed", 0, 1L << 62);
      else if (a == "--seconds")
        opt.seconds = dgr::parse_real(value(), "--seconds");
      else if (a == "--trace")
        opt.trace = dgr::parse_count(value(), "--trace", 0, 1) == 1;
      else if (a == "--out") opt.out_dir = value();
      else if (a == "--ref-dir") opt.ref_dir = value();
      else if (a == "--write-reference") opt.write_reference = true;
      else DGR_CHECK_MSG(false, "unknown argument " << a);
    }
    DGR_CHECK_MSG(opt.workload == "bbh_evolve" || opt.workload == "amr_regrid" ||
                      opt.workload == "serve_mixed",
                  "--workload must be bbh_evolve, amr_regrid or serve_mixed");
    DGR_CHECK_MSG(opt.seconds > 0 && opt.seconds <= 600,
                  "--seconds must be in (0, 600]");
  } catch (const dgr::Error& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  std::filesystem::create_directories(opt.out_dir);

  // Evolution workloads use every CPU; serve_mixed keeps one for the load
  // generator, so pool lanes plus generator threads make nproc.
  const int nproc = static_cast<int>(host_cpus().size());
  const bool serve = opt.workload == "serve_mixed";
  const int lanes = serve ? std::max(1, nproc - 1) : nproc;
  dgr::exec::ThreadPool::set_global_threads(lanes);

  Report report;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const int width = dgr::simd_active_width();
  report.note("workload", opt.workload);
  report.note("seed", std::to_string(opt.seed));
  report.note("trace", opt.trace ? "1" : "0");
  report.note("lanes", std::to_string(lanes));
  report.note("nproc", std::to_string(nproc));
  report.note("simd_width", std::to_string(width));
  report.note("simd_backend", dgr::simd_backend_name(width));
  report.note("march", dgr::simd_march());
  report.note("build_type", build_type);
  if (build_type != "Release")
    report.note("WARNING", "not a Release build; timings are not comparable");

  try {
    if (serve)
      run_serve_workload(opt, lanes, report);
    else
      run_evolution_workload(opt, lanes, report);
  } catch (const std::exception& e) {
    report.fail();
    report.check(false, std::string("workload aborted: ") + e.what());
  }
  if (report.attempted() == 0) report.attempt();
  if (opt.trace)
    report.metric("failed_share",
                  double(report.failed()) / double(report.attempted()), "share");
  report.write(opt.out_dir + "/result_" + opt.workload + "_seed" +
               std::to_string(opt.seed) + "_trace" + (opt.trace ? "1" : "0") +
               ".json");
  report.print();
  return report.correct() ? 0 : 1;
}
