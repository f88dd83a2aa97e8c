#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/json.hpp"

namespace perfbench {

using dgr::jsonu::num;
using dgr::jsonu::quote;

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) problems_.push_back(what);
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::print() const {
  for (const auto& [k, v] : notes_) std::printf("# %-24s %s\n", k.c_str(), v.c_str());
  for (const auto& m : metrics_)
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& p : problems_) std::printf("CHECK FAILED: %s\n", p.c_str());
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + num(attempted_);
  line += ", \"failed\": " + num(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) line += ", ";
    line += quote(metrics_[i].name) + ": {\"value\": " +
            num(metrics_[i].value) + ", \"unit\": " +
            quote(metrics_[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Report::write(const std::string& path) const {
  std::string s = "{\n  \"provenance\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i)
    s += (i ? ", " : "") + quote(notes_[i].first) + ": " +
         quote(notes_[i].second);
  s += "},\n  \"correct\": ";
  s += correct() ? "true" : "false";
  s += ",\n  \"attempted\": " + num(attempted_) +
       ",\n  \"failed\": " + num(failed_) + ",\n  \"problems\": [";
  for (std::size_t i = 0; i < problems_.size(); ++i)
    s += (i ? ", " : "") + quote(problems_[i]);
  s += "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    s += std::string(i ? "," : "") + "\n    " + quote(metrics_[i].name) +
         ": {\"value\": " + num(metrics_[i].value) +
         ", \"unit\": " + quote(metrics_[i].unit) + "}";
  s += "\n  }\n}\n";
  std::ofstream(path) << s;
}

void report_request_layers(Report& report, const RequestLayers& l) {
  report.metric("ensemble.share_miss", l.share_miss, "share");
  report.metric("ensemble.share_join", l.share_join, "share");
  report.metric("ensemble.share_mem", l.share_mem, "share");
  report.metric("ensemble.share_disk", l.share_disk, "share");
  report.metric("ensemble.evolutions_per_unique", l.evolutions_per_unique,
                "ratio");
  report.metric("ensemble.evictions", l.evictions, "count");
  report.metric("ensemble.spills", l.spills, "count");
  report.metric("ensemble.wait_p50_ms", l.wait_p50_ms, "ms");
  report.metric("ensemble.wait_p95_ms", l.wait_p95_ms, "ms");
  report.metric("ensemble.run_scenario_s", l.run_scenario_s, "s");
  report.metric("serve.miss_p95_ms", l.miss_p95_ms, "ms");
  report.metric("serve.hit_p50_us", l.hit_p50_us, "us");
  report.metric("serve.latency_mem_p50_us", l.mem_p50_us, "us");
  report.metric("serve.latency_disk_p50_us", l.disk_p50_us, "us");
  report.metric("serve.parse_request_us", l.parse_request_us, "us");
  report.metric("serve.start_to_pong_us", l.start_to_pong_us, "us");
  report.metric("loadgen.lag_p95_ms", l.lag_p95_ms, "ms");
  report.metric("loadgen.offered_rps", l.offered_rps, "1/s");
}

int Tracer::begin(const std::string& name, std::uint64_t id) {
  const int parent = open_.empty() ? -1 : open_.back();
  const int idx = record(name, now_s() * 1e6, 0, parent, id);
  open_.push_back(idx);
  return idx;
}

void Tracer::end(int span) {
  spans_[span].t1_us = now_s() * 1e6;
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

int Tracer::record(const std::string& name, double t0_us, double t1_us,
                   int parent, std::uint64_t id) {
  spans_.push_back({name, t0_us, t1_us, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::total_s(const std::string& name) const {
  double t = 0;
  for (const auto& s : spans_)
    if (s.name == name) t += (s.t1_us - s.t0_us) * 1e-6;
  return t;
}

double Tracer::self_s(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0) child[s.parent] += s.t1_us - s.t0_us;
  double t = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name)
      t += (spans_[i].t1_us - spans_[i].t0_us - child[i]) * 1e-6;
  return t;
}

void Tracer::write(const std::string& path) const {
  std::string s = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& sp = spans_[i];
    s += std::string(i ? ",\n" : "\n") + "{\"name\": " + quote(sp.name) +
         ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " + num(sp.t0_us) +
         ", \"dur\": " + num(sp.t1_us - sp.t0_us) + ", \"args\": {\"span\": " +
         num(static_cast<std::int64_t>(i)) + ", \"parent\": " +
         num(static_cast<std::int64_t>(sp.parent)) + ", \"id\": " +
         quote(sp.id ? std::to_string(sp.id) : "") + "}}";
  }
  s += "\n]}\n";
  std::ofstream(path) << s;
}

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::vector<int> host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

long first_bit_difference(const std::vector<double>& a,
                          const std::vector<double>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return static_cast<long>(i);
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

}  // namespace perfbench
