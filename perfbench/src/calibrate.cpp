// Host calibration: the bandwidth and FMA-rate ceilings of the roofline the
// per-layer rates are set against, measured in the same run. The library's
// own perf::calibrated_host() uses 64 MB triad arrays, which fit in a large
// last-level cache and overstate memory bandwidth.

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

std::size_t llc_bytes() {
  long b = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (b <= 0) b = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return b > 0 ? static_cast<std::size_t>(b) : 32 * kMiB;
}

template <class F>
void on_threads(int threads, F&& body) {
  std::vector<std::thread> ts;
  for (int t = 1; t < threads; ++t) ts.emplace_back(body, t);
  body(0);
  for (auto& t : ts) t.join();
}

double triad_gbs(int threads, std::size_t n) {
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const auto range = [&](int t) {
    return std::pair<std::size_t, std::size_t>{n * t / threads,
                                               n * (t + 1) / threads};
  };
  // First touch on the thread that later streams the chunk.
  on_threads(threads, [&](int t) {
    const auto [lo, hi] = range(t);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    const double s = 0.5 + pass;
    const double t0 = now_s();
    on_threads(threads, [&](int t) {
      const auto [lo, hi] = range(t);
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    best = std::min(best, now_s() - t0);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return 3.0 * 8.0 * static_cast<double>(n) / best / 1e9;  // STREAM bytes
}

constexpr long kFmaIters = 20'000'000;

#if defined(__x86_64__)
// Twelve independent accumulator chains hide the FMA latency.
__attribute__((target("avx2,fma"))) double fma_kernel(double seed) {
  __m256d acc[12];
  for (int k = 0; k < 12; ++k) acc[k] = _mm256_set1_pd(seed + k);
  const __m256d m = _mm256_set1_pd(0.999999);
  const __m256d c = _mm256_set1_pd(1e-7);
  for (long i = 0; i < kFmaIters; ++i)
    for (int k = 0; k < 12; ++k) acc[k] = _mm256_fmadd_pd(acc[k], m, c);
  __m256d s = acc[0];
  for (int k = 1; k < 12; ++k) s = _mm256_add_pd(s, acc[k]);
  double out[4];
  _mm256_storeu_pd(out, s);
  return out[0] + out[1] + out[2] + out[3];
}
constexpr double kFlopsPerIter = 12 * 4 * 2;
#endif

double scalar_kernel(double seed) {
  double acc[12];
  for (int k = 0; k < 12; ++k) acc[k] = seed + k;
  for (long i = 0; i < kFmaIters; ++i)
    for (int k = 0; k < 12; ++k) acc[k] = acc[k] * 0.999999 + 1e-7;
  double s = 0;
  for (double a : acc) s += a;
  return s;
}

double fma_gflops(int threads) {
  bool vector = false;
  double flops_per_iter = 12 * 2;
#if defined(__x86_64__)
  vector = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (vector) flops_per_iter = kFlopsPerIter;
#endif
  std::vector<double> sink(threads);
  const double t0 = now_s();
  on_threads(threads, [&](int t) {
#if defined(__x86_64__)
    if (vector) {
      sink[t] = fma_kernel(t);
      return;
    }
#endif
    sink[t] = scalar_kernel(t);
  });
  const double dt = now_s() - t0;
  volatile double keep = sink[0];
  (void)keep;
  return threads * kFmaIters * flops_per_iter / dt / 1e9;
}

}  // namespace

HostCalibration calibrate_host(int threads) {
  HostCalibration h;
  const std::size_t llc = llc_bytes();
  const std::size_t array_bytes = std::max(4 * llc, 64 * kMiB);
  h.llc_mb = static_cast<double>(llc) / kMiB;
  h.triad_array_mb = static_cast<double>(array_bytes) / kMiB;
  h.triad_gbs = triad_gbs(threads, array_bytes / sizeof(double));
  h.fma_gflops = fma_gflops(threads);
  return h;
}

}  // namespace perfbench
