// serve_mixed: an in-process serve::Server under an open-loop load. One
// generator thread sends a seeded Poisson arrival schedule over at most
// kConnections connections and times every request from when it was due,
// so a stall shows up in the latency of the requests queued behind it.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "ensemble/scenario.hpp"
#include "evolution.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace dgr;

namespace {

// Offered load: on the 4-core reference host a fresh scenario takes
// 0.07-0.14 s on a worker (less when the other worker is idle and steals
// its nested tasks), so the pool's 2 workers serve ~15-25 misses/s; 55% of
// requests miss or join, so 8 requests/s is ~4.4 misses/s. Running one
// evolution at a time instead made the miss p95 a matter of how the seed
// clusters its arrivals (spread 0.55 over ten seeds).
constexpr double kRatePerS = 8.0;
constexpr double kFreshShare = 0.5;
// Share of repeats aimed at the most recent scenarios, which are often
// still evolving and so coalesce onto the running evolution.
constexpr double kRecentShare = 0.25;
constexpr int kConnections = 4;
// In-memory cache budget: about 10 two-sample waveforms, well below the
// unique working set of a run, so entries are evicted and spilled to disk.
constexpr std::size_t kCacheBytes = 1024;
// Latency limit behind slo_met_share: ~2x the miss p95 at this load.
constexpr double kSloMs = 250.0;
constexpr double kDrainLimitS = 60.0;
// Server set-ups timed per run, each up to the first answer: ~4 s.
constexpr int kStartups = 25;
constexpr int kDirectRuns = 30;

struct Sent {
  ensemble::ScenarioConfig cfg;
  std::string line;
  std::uint64_t hash = 0;
  bool full = false;  ///< EVOLVEX full=1: the answer streams the samples
  double due = 0, sent = -1, done = -1;
  bool ok = false;
  bool misrouted = false;  ///< an OK answer carrying another hash
  bool garbled = false;    ///< a full answer not framed SAMPLES n ... END
  std::string source, digest;
  std::size_t sample_count = 0;      ///< the OK line's samples= field
  std::vector<std::string> samples;  ///< "t re im" bit patterns (full only)
  double wait_us = 0;
};

/// The scenario every run starts with and whose service time is measured
/// directly: seed-independent, so evolve_s compares like with like.
ensemble::ScenarioConfig probe_scenario() {
  ensemble::ScenarioConfig s;
  s.base_level = 1;
  s.finest_level = 1;
  s.domain_half = 8.0;
  s.steps = 2;
  s.extract_every = 1;
  return s;
}

ensemble::ScenarioConfig fresh_scenario(Rng& rng) {
  ensemble::ScenarioConfig s = probe_scenario();
  s.q = rng.uniform(1.0, 1.5);
  for (auto& x : s.spin1) x = rng.uniform(-0.1, 0.1);
  for (auto& x : s.spin2) x = rng.uniform(-0.1, 0.1);
  return s;
}

/// Seeded open-loop schedule: Poisson arrivals at kRatePerS; half the
/// requests are fresh scenarios, the rest repeat earlier ones with a
/// popularity skewed toward the first issued (Zipf weights 1/(k+1)), plus
/// a share aimed at the latest few.
std::vector<Sent> make_schedule(std::uint64_t seed, double seconds) {
  Rng rng(seed);
  std::vector<ensemble::ScenarioConfig> unique = {probe_scenario()};
  std::vector<Sent> out;
  Sent first;
  first.cfg = unique[0];
  out.push_back(first);
  // A Poisson process conditioned on its count: rate x seconds arrivals,
  // independent and uniform over the window. Every seed offers the same
  // load; with the count drawn too, it varied by a third between seeds.
  std::vector<double> arrivals(static_cast<std::size_t>(kRatePerS * seconds));
  for (auto& t : arrivals) t = rng.uniform() * seconds;
  std::sort(arrivals.begin(), arrivals.end());
  for (const double t : arrivals) {
    Sent s;
    s.due = t;
    if (rng.uniform() < kFreshShare) {
      unique.push_back(fresh_scenario(rng));
      s.cfg = unique.back();
    } else if (rng.uniform() < kRecentShare) {
      const std::size_t back = std::min<std::size_t>(unique.size(), 3);
      s.cfg = unique[unique.size() - 1 - rng.uniform_int(back)];
    } else {
      double total = 0;
      for (std::size_t k = 0; k < unique.size(); ++k) total += 1.0 / (k + 1);
      double pick = rng.uniform() * total;
      std::size_t k = 0;
      while (k + 1 < unique.size() && (pick -= 1.0 / (k + 1)) > 0) ++k;
      s.cfg = unique[k];
    }
    out.push_back(s);
  }
  // Half EVOLVE lines, half EVOLVEX, and half of those with full=1; the
  // probe always asks for its samples, which are checked against the direct
  // run.
  for (auto& s : out) {
    if (rng.uniform() < 0.5) {
      s.line = serve::format_evolve(s.cfg);
    } else {
      s.full = rng.uniform() < 0.5;
      s.line = serve::format_evolvex(s.cfg, s.full);
    }
    s.hash = ensemble::ScenarioKey::of(s.cfg).hash;
  }
  out[0].full = true;
  out[0].line = serve::format_evolvex(out[0].cfg, true);
  return out;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DGR_CHECK_MSG(fd >= 0, "socket(): " << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    DGR_CHECK_MSG(false, "connect(" << path << "): " << std::strerror(errno));
  }
  return fd;
}

std::map<std::string, std::string> fields(const std::string& line) {
  std::map<std::string, std::string> f;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq != std::string::npos) f[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return f;
}

std::string hex16(std::uint64_t v) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(v));
  return hex;
}

/// Parse an answer's first line into `s`; anything but OK (BUSY, ERR,
/// DRAINING) or an OK for another hash is a failed request.
void take_response(Sent& s, const std::string& line, double now) {
  s.done = now;
  if (line.rfind("OK ", 0) != 0) return;
  auto f = fields(line);
  if (f["hash"] != hex16(s.hash)) {
    s.misrouted = true;
    return;
  }
  s.source = f["source"];
  s.digest = f["digest"];
  s.wait_us = std::strtod(f["wait_us"].c_str(), nullptr);
  s.sample_count = std::strtoull(f["samples"].c_str(), nullptr, 10);
  s.ok = !s.digest.empty();
}

/// Splits one connection's response lines into answers, matched in order to
/// the requests outstanding on it. An answer is one line, except an OK to a
/// full=1 request: that line is followed by "SAMPLES n", n sample lines and
/// "END", and the request is done when END arrives.
class AnswerReader {
 public:
  void sent(std::size_t req) { outstanding_.push_back(req); }
  bool idle() const { return outstanding_.empty(); }
  std::size_t load() const { return outstanding_.size(); }

  void line(const std::string& text, std::vector<Sent>& reqs, double now) {
    if (outstanding_.empty()) return;
    Sent& s = reqs[outstanding_.front()];
    switch (state_) {
      case State::kFirst:
        take_response(s, text, now);
        if (s.full && text.rfind("OK ", 0) == 0) {
          state_ = State::kHeader;
          return;
        }
        break;
      case State::kHeader: {
        const std::string tag = "SAMPLES ";
        if (text.rfind(tag, 0) != 0) {
          garble(s);
          line(text, reqs, now);  // the next answer's first line
          return;
        }
        left_ = std::strtoull(text.c_str() + tag.size(), nullptr, 10);
        state_ = left_ > 0 ? State::kSamples : State::kEnd;
        return;
      }
      case State::kSamples:
        s.samples.push_back(text);
        if (--left_ == 0) state_ = State::kEnd;
        return;
      case State::kEnd:
        if (text != "END") {
          garble(s);
          line(text, reqs, now);
          return;
        }
        s.done = now;
        s.ok = s.ok && s.samples.size() == s.sample_count;
        break;
    }
    state_ = State::kFirst;
    outstanding_.pop_front();
  }

  /// The connection was lost: every request still outstanding failed.
  void lost(std::vector<Sent>& reqs, double now) {
    for (std::size_t k : outstanding_) {
      reqs[k].ok = false;
      reqs[k].done = now;
    }
    outstanding_.clear();
    state_ = State::kFirst;
  }

 private:
  enum class State { kFirst, kHeader, kSamples, kEnd };

  void garble(Sent& s) {
    s.ok = false;
    s.garbled = true;
    state_ = State::kFirst;
    outstanding_.pop_front();
  }

  std::deque<std::size_t> outstanding_;
  State state_ = State::kFirst;
  std::size_t left_ = 0;
};

/// Drive the schedule over kConnections connections from this thread. A
/// request goes to an idle connection when there is one (the server
/// answers a connection's batch in order), else to the least loaded.
void run_load(const std::string& socket, std::vector<Sent>& reqs,
              double seconds) {
  struct Conn {
    int fd = -1;
    AnswerReader answers;
    std::string buf;
  };
  std::vector<Conn> conns(kConnections);
  std::vector<pollfd> pfds;
  for (auto& c : conns) {
    c.fd = connect_unix(socket);
    pfds.push_back({c.fd, POLLIN, 0});
  }
  const double t0 = now_s();
  std::size_t next = 0;
  const auto live = [&] {
    for (const auto& c : conns)
      if (c.fd >= 0) return true;
    return false;
  };
  while (live()) {
    double now = now_s() - t0;
    while (next < reqs.size() && reqs[next].due <= now) {
      Conn* best = nullptr;
      for (auto& c : conns)
        if (c.fd >= 0 && (!best || c.answers.load() < best->answers.load()))
          best = &c;
      const std::string line = reqs[next].line + "\n";
      reqs[next].sent = now;
      if (::send(best->fd, line.data(), line.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(line.size()))
        best->answers.sent(next);
      else
        reqs[next].done = now;  // lost: counted as failed
      ++next;
      now = now_s() - t0;
    }
    bool pending = next < reqs.size();
    for (const auto& c : conns) pending = pending || !c.answers.idle();
    if (!pending || now > seconds + kDrainLimitS) break;

    // Busy poll: the generator owns a CPU, and a blocked thread's wake-up
    // delay would be timed as service latency.
    if (::poll(pfds.data(), pfds.size(), 0) <= 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.fd < 0 || !(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char chunk[16384];
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        ::close(c.fd);
        c.fd = pfds[i].fd = -1;
        c.answers.lost(reqs, now_s() - t0);
        continue;
      }
      c.buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = c.buf.find('\n')) != std::string::npos) {
        const std::string line = c.buf.substr(0, nl);
        c.buf.erase(0, nl + 1);
        c.answers.line(line, reqs, now_s() - t0);
      }
    }
  }
  for (auto& c : conns)
    if (c.fd >= 0) ::close(c.fd);
}

/// Every response for one hash must carry one digest, and every full answer
/// for it the same samples. Returns the number of responses that disagree
/// with the first seen for their hash.
std::size_t answer_mismatches(const std::vector<Sent>& reqs) {
  std::map<std::uint64_t, std::string> digests;
  std::map<std::uint64_t, std::vector<std::string>> samples;
  std::size_t bad = 0;
  for (const auto& s : reqs) {
    if (!s.ok) continue;
    auto [d, fresh] = digests.emplace(s.hash, s.digest);
    bool differs = !fresh && d->second != s.digest;
    if (s.full) {
      auto [x, first] = samples.emplace(s.hash, s.samples);
      differs = differs || (!first && x->second != s.samples);
    }
    bad += differs;
  }
  return bad;
}

/// The sample lines a full answer for `wf` carries: t, Re, Im bit patterns.
std::vector<std::string> sample_lines(const ensemble::Waveform& wf) {
  std::vector<std::string> out;
  const auto bits = [](double v) { return hex16(std::bit_cast<std::uint64_t>(v)); };
  for (std::size_t i = 0; i < wf.psi4_22.times.size(); ++i)
    out.push_back(bits(wf.psi4_22.times[i]) + " " +
                  bits(wf.psi4_22.values[i].real()) + " " +
                  bits(wf.psi4_22.values[i].imag()));
  return out;
}

/// Self-check of the answer framing without a server: a full answer (five
/// lines) with a one-line answer pipelined behind it on one connection.
bool framing_self_check() {
  std::vector<Sent> two(2);
  two[0].hash = 0xa;
  two[0].full = true;
  two[1].hash = 0xb;
  AnswerReader answers;
  answers.sent(0);
  answers.sent(1);
  for (const char* line :
       {"OK hash=000000000000000a source=miss wait_us=1 samples=2 digest=01",
        "SAMPLES 2", "0 1 2", "3 4 5", "END",
        "OK hash=000000000000000b source=mem wait_us=1 samples=2 digest=02"})
    answers.line(line, two, 0);
  return answers.idle() && two[0].ok && two[0].digest == "01" &&
         two[0].samples == std::vector<std::string>{"0 1 2", "3 4 5"} &&
         two[1].ok && two[1].digest == "02" && two[1].samples.empty();
}

/// `cfg` requested twice on one new connection, both lines sent before
/// either answer is read: first as a full EVOLVEX, then as EVOLVE.
std::vector<Sent> pipelined_pair(const std::string& socket,
                                 const ensemble::ScenarioConfig& cfg) {
  std::vector<Sent> two(2);
  for (auto& s : two) {
    s.cfg = cfg;
    s.hash = ensemble::ScenarioKey::of(cfg).hash;
  }
  two[0].full = true;
  two[0].line = serve::format_evolvex(cfg, true);
  two[1].line = serve::format_evolve(cfg);
  serve::Client client;
  client.connect(socket);
  AnswerReader answers;
  for (std::size_t i = 0; i < two.size(); ++i) {
    client.send_line(two[i].line);
    answers.sent(i);
  }
  while (!answers.idle()) answers.line(client.recv_line(), two, now_s());
  return two;
}

std::string digest_of(const ensemble::Waveform& wf) {
  return hex16(ensemble::fnv1a64(ensemble::serialize(wf)));
}

/// Server set-up as a client sees it.
struct Startups {
  std::vector<double> pong_s;    ///< construction + start() to the first PONG
  std::vector<double> answer_s;  ///< the same, on to the first answer
  std::size_t wrong = 0;         ///< first answers without `digest`
};

/// `n` fresh servers, each timed from construction to its first PONG and on
/// to its first answer: `first` (the probe as a full EVOLVEX) computed on the
/// empty cache, which must carry `digest`. A stop waits out the accept
/// loop's 0.1 s poll, so each server gets its own socket and drains while
/// the next ones start, at most kDraining at a time.
Startups server_startups(const std::string& dir, int n, const Sent& first,
                         const std::string& digest) {
  constexpr std::size_t kDraining = 8;
  std::deque<std::unique_ptr<serve::Server>> draining;
  Startups out;
  for (int i = 0; i < n; ++i) {
    serve::ServeConfig cfg;
    cfg.socket_path = dir + "/start" + std::to_string(i % (2 * kDraining)) + ".sock";
    const double t0 = now_s();
    auto server = std::make_unique<serve::Server>(cfg);
    server->start();
    serve::Client client;
    client.connect(cfg.socket_path);
    const std::string pong = client.request("PING");
    out.pong_s.push_back(now_s() - t0);
    std::vector<Sent> answer = {first};
    AnswerReader answers;
    client.send_line(first.line);
    answers.sent(0);
    while (!answers.idle()) answers.line(client.recv_line(), answer, now_s());
    out.answer_s.push_back(now_s() - t0);
    DGR_CHECK_MSG(pong == "PONG", "PING answered with " << pong);
    out.wrong += !(answer[0].ok && answer[0].digest == digest);
    client.close();
    server->request_shutdown();
    draining.push_back(std::move(server));
    if (draining.size() == kDraining) {
      draining.front()->wait();
      draining.pop_front();
    }
  }
  for (auto& s : draining) s->wait();
  return out;
}

std::vector<double> latencies(const std::vector<Sent>& reqs,
                              std::initializer_list<const char*> sources,
                              double scale) {
  std::vector<double> out;
  for (const auto& s : reqs)
    for (const char* src : sources)
      if (s.ok && s.source == src) out.push_back((s.done - s.due) * scale);
  return out;
}

double or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

/// The evolution ensemble::run_scenario runs for `cfg`, as an EvolutionCase
/// the traced replay can take apart.
EvolutionCase scenario_case(const ensemble::ScenarioConfig& cfg) {
  EvolutionCase c;
  c.punctures = bssn::make_binary(cfg.q, cfg.separation);
  c.punctures[0].spin = cfg.spin1;
  c.punctures[1].spin = cfg.spin2;
  for (auto& b : c.punctures) {
    b.pos[1] = 0.011;
    b.pos[2] = 0.007;
    c.refine.push_back({b.pos, cfg.finest_level});
  }
  c.domain = oct::Domain{cfg.domain_half};
  c.base_level = cfg.base_level;
  c.solver.cfl = cfg.cfl;
  c.solver.bssn.ko_sigma = cfg.ko_sigma;
  c.evolution = [cfg](const solver::BssnCtx& ctx) {
    solver::EvolutionConfig e;
    e.t_end = cfg.steps * ctx.suggested_dt();
    e.regrid_every = cfg.regrid_every;
    e.extract_every = cfg.extract_every;
    e.regrid.eps = cfg.eps;
    e.regrid.min_level = cfg.base_level;
    e.regrid.max_level = cfg.finest_level;
    e.extraction_radii = {cfg.extraction_radius};
    return e;
  };
  return c;
}

}  // namespace

void run_serve_workload(const Options& opt, int pool_lanes, Report& report) {
  namespace fs = std::filesystem;
  const std::string socket = opt.out_dir + "/serve.sock";
  const std::string spill = opt.out_dir + "/spill";
  fs::remove_all(spill);
  fs::create_directories(spill);

  // Service time without queueing: the probe scenario run directly on the
  // pool, first thing in the process so the heap it runs in does not depend
  // on the seed. Its digest must match the served one.
  std::vector<double> direct;
  ensemble::Waveform probe;
  for (int i = 0; i < kDirectRuns; ++i) {
    const double t0 = now_s();
    probe = ensemble::run_scenario(probe_scenario());
    direct.push_back(now_s() - t0);
  }

  std::vector<Sent> reqs = make_schedule(opt.seed, opt.seconds);
  const Startups startups =
      server_startups(opt.out_dir, kStartups, reqs[0], digest_of(probe));
  std::map<std::string, std::uint64_t> stats;
  std::vector<Sent> pair;
  {
    serve::ServeConfig cfg;
    cfg.socket_path = socket;
    // Small jobs run on the pool's worker threads (lane 0 is the caller
    // lane, which no thread of this process occupies).
    cfg.ensemble.concurrency = std::max(1, pool_lanes - 1);
    cfg.ensemble.cache_bytes = kCacheBytes;
    cfg.ensemble.spill_dir = spill;
    serve::Server server(cfg);
    server.start();
    run_load(socket, reqs, opt.seconds);
    serve::Client client;
    client.connect(socket);
    for (const auto& [k, v] : fields(client.request("STATS")))
      stats[k] = std::strtoull(v.c_str(), nullptr, 10);
    client.close();
    pair = pipelined_pair(socket, reqs[0].cfg);
    server.request_shutdown();
    server.wait();
  }
  fs::remove_all(spill);

  // Accounting and output checks.
  std::size_t failed = 0, met = 0, misrouted = 0, garbled = 0;
  std::set<std::uint64_t> unique;
  for (const auto& s : reqs) {
    unique.insert(s.hash);
    misrouted += s.misrouted;
    garbled += s.garbled;
    if (!s.ok) ++failed;
    else if ((s.done - s.due) * 1e3 <= kSloMs) ++met;
  }
  const std::size_t mismatched = answer_mismatches(reqs);
  report.attempt(reqs.size());
  report.fail(failed + mismatched);
  report.check(mismatched == 0,
               "responses for one hash carry different digests or samples");
  report.check(misrouted == 0, "an OK response carried another request's hash");
  report.check(garbled == 0, "a full answer was not framed SAMPLES n ... END");
  std::vector<Sent> corrupted = {reqs[0], reqs[0]};
  corrupted[1].digest = corrupted[0].digest == "0" ? "1" : "0";
  report.check(answer_mismatches(corrupted) == 1,
               "self-check: a corrupted digest went unnoticed");
  corrupted[1] = reqs[0];
  if (!corrupted[1].samples.empty()) corrupted[1].samples.back().back() ^= 1;
  report.check(answer_mismatches(corrupted) == 1,
               "self-check: a corrupted sample went unnoticed");
  report.check(framing_self_check(),
               "self-check: a full answer with another pipelined behind it "
               "was split wrongly");

  const std::vector<std::string> probe_samples = sample_lines(probe);
  report.check(startups.wrong == 0,
               "a fresh server's first answer lacks the probe's digest");
  report.check(reqs[0].ok && reqs[0].digest == digest_of(probe),
               "direct run_scenario digest differs from the served one");
  report.check(reqs[0].samples == probe_samples,
               "served probe samples differ from the direct run_scenario");
  report.check(pair[0].ok && pair[1].ok && pair[0].digest == reqs[0].digest &&
                   pair[1].digest == reqs[0].digest &&
                   pair[0].samples == probe_samples,
               "two requests pipelined behind a full EVOLVEX were answered "
               "wrongly");

  const auto miss_ms = latencies(reqs, {"miss", "join"}, 1e3);
  const auto hit_us = latencies(reqs, {"mem", "disk"}, 1e6);
  report.note("requests", std::to_string(reqs.size()));
  report.note("miss_samples", std::to_string(miss_ms.size()));
  report.note("hit_samples", std::to_string(hit_us.size()));
  report.note("offered_rate_per_s", std::to_string(kRatePerS));
  report.note("slo_ms", std::to_string(kSloMs));
  if (!opt.trace) {
    report.metric("setup_s", median(startups.answer_s), "s");
    report.metric("evolve_s", median(direct), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("miss_p50_ms", quantile(miss_ms, 0.5), "ms");
    report.metric("slo_met_share", double(met) / double(reqs.size()), "share");
    return;
  }

  // Traced run: per-request spans sharing the config hash as their id, the
  // service-side counters, and the probe's layer split.
  Tracer tracer;
  std::vector<double> lag_ms, wait_ms;
  std::map<std::string, double> by_source;
  for (const auto& s : reqs) {
    if (s.sent < 0) continue;
    const double end = s.done >= 0 ? s.done : s.sent;
    const int root = tracer.record("serve.request", s.due * 1e6, end * 1e6, -1, s.hash);
    tracer.record("loadgen.lag", s.due * 1e6, s.sent * 1e6, root, s.hash);
    tracer.record("serve.roundtrip", s.sent * 1e6, end * 1e6, root, s.hash);
    lag_ms.push_back((s.sent - s.due) * 1e3);
    if (!s.ok) continue;
    by_source[s.source] += 1;
    if (s.source == "miss" || s.source == "join") wait_ms.push_back(s.wait_us / 1e3);
  }
  const double n = double(reqs.size());
  RequestLayers l;
  l.share_miss = by_source["miss"] / n;
  l.share_join = by_source["join"] / n;
  l.share_mem = by_source["mem"] / n;
  l.share_disk = by_source["disk"] / n;
  l.evolutions_per_unique = double(stats["evolutions"]) / double(unique.size());
  l.evictions = double(stats["evictions"]);
  l.spills = double(stats["spills"]);
  l.wait_p50_ms = or_zero(quantile(wait_ms, 0.5));
  l.wait_p95_ms = or_zero(quantile(wait_ms, 0.95));
  l.run_scenario_s = median(direct);
  l.miss_p95_ms = quantile(miss_ms, 0.95);
  l.hit_p50_us = quantile(hit_us, 0.5);
  l.mem_p50_us = or_zero(quantile(latencies(reqs, {"mem"}, 1e6), 0.5));
  l.disk_p50_us = or_zero(quantile(latencies(reqs, {"disk"}, 1e6), 0.5));
  l.lag_p95_ms = quantile(lag_ms, 0.95);
  l.offered_rps = n / opt.seconds;

  // parse_request over the workload's own lines.
  const ensemble::ScenarioConfig defaults;
  std::vector<double> per_line;
  for (int pass = 0; pass < 20; ++pass) {
    const double t0 = now_s();
    for (const auto& s : reqs) serve::parse_request(s.line, defaults);
    per_line.push_back((now_s() - t0) / n);
  }
  l.parse_request_us = median(per_line) * 1e6;
  l.start_to_pong_us = median(startups.pong_s) * 1e6;
  report_request_layers(report, l);

  // The probe scenario replayed call by call, after the same evolution
  // untraced: trace.overhead_share compares the replay's solver.evolve span
  // with the untraced solver::evolve call, set-up excluded from both.
  const EvolutionCase c = scenario_case(reqs[0].cfg);
  std::vector<double> untraced;
  for (int i = 0; i < kDirectRuns; ++i) {
    Prepared u = set_up(c, nullptr);
    const solver::EvolutionConfig e = c.evolution(*u.ctx);
    const double t0 = now_s();
    solver::evolve(*u.ctx, e, nullptr);
    untraced.push_back(now_s() - t0);
  }
  const int root = tracer.begin("workload.serve_mixed.probe");
  Prepared p = set_up(c, &tracer);
  const ReplayResult r = replay(*p.ctx, c.evolution(*p.ctx), tracer);
  tracer.end(root);
  report.check(first_bit_difference(flatten({probe.psi4_22}), flatten(r.waves22)) < 0,
               "traced replay psi4 differs from run_scenario");
  const HostCalibration host = calibrate_host(pool_lanes);
  report_layers(report, tracer, r, host, median(untraced));
  report_lane_scaling(report, *p.ctx, pool_lanes);
  tracer.write(opt.out_dir + "/trace_serve_mixed.json");
}

}  // namespace perfbench
