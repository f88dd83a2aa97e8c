#pragma once
/// \file bench.hpp
/// \brief Shared pieces of the perfbench driver: run options, the result
/// report (metrics, output checks, operation accounting), an in-memory span
/// recorder for traced runs, sample statistics, and host calibration.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".perfbench_out";   ///< traces, spill files, results
  std::string ref_dir = "perfbench/reference";
  bool write_reference = false;  ///< (re)write the reference-seed ψ4 file
};

/// The seed whose ψ4 output is pinned by a committed reference file.
inline constexpr std::uint64_t kReferenceSeed = 1;

/// Everything one run reports: metrics with units, failed output checks,
/// and operations attempted/failed.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record an output check; a false `ok` makes the whole run incorrect.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  void note(const std::string& key, const std::string& value);

  bool correct() const { return problems_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Human-readable table on stdout, then the one-line JSON result last.
  void print() const;
  /// The full result (metrics, notes, problems) as a JSON document.
  void write(const std::string& path) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

/// Spans kept in memory and written out when the run ends. A span has a
/// name, start, end, parent and a request id (0 when it serves no request).
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0_us = 0, t1_us = 0;
    int parent = -1;
    std::uint64_t id = 0;
  };

  int begin(const std::string& name, std::uint64_t id = 0);
  void end(int span);
  /// A completed span with explicit times (requests timed by the load
  /// generator, where begin/end nesting does not apply).
  int record(const std::string& name, double t0_us, double t1_us,
             int parent = -1, std::uint64_t id = 0);

  double total_s(const std::string& name) const;
  /// Duration minus the part covered by direct children, summed by name.
  double self_s(const std::string& name) const;
  /// Chrome-trace JSON (loadable in Perfetto).
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, std::uint64_t id = 0)
      : t_(t), span_(t ? t->begin(name, id) : -1) {}
  ~Scope() {
    if (t_) t_->end(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int span_;
};

double now_s();
/// Quantile with linear interpolation (q in [0, 1]); NaN when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double peak_rss_mb();
/// CPUs this process may run on (the nproc set).
std::vector<int> host_cpus();

/// Per-layer figures of the request path (serve, ensemble, load generator).
/// Every traced run reports them; a workload without a request path reports
/// the zeros it has.
struct RequestLayers {
  double share_miss = 0, share_join = 0, share_mem = 0, share_disk = 0;
  double evolutions_per_unique = 0, evictions = 0, spills = 0;
  double wait_p50_ms = 0, wait_p95_ms = 0, run_scenario_s = 0;
  double miss_p95_ms = 0, hit_p50_us = 0, mem_p50_us = 0, disk_p50_us = 0;
  double parse_request_us = 0, start_to_pong_us = 0;
  double lag_p95_ms = 0, offered_rps = 0;
};
void report_request_layers(Report& report, const RequestLayers& l);

/// Host calibration measured in the run: STREAM triad over arrays of at
/// least 4x the last-level cache, and an FMA throughput probe.
struct HostCalibration {
  double llc_mb = 0;
  double triad_array_mb = 0;
  double triad_gbs = 0;
  double fma_gflops = 0;
};
HostCalibration calibrate_host(int threads);

/// Bitwise comparison of two real sequences; returns the first differing
/// index or -1.
long first_bit_difference(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace perfbench
