#include "perf/machine_model.hpp"

#include <vector>

#include "common/timer.hpp"
#include "simd/simd.hpp"

namespace dgr::perf {

MachineModel a100() {
  // Parameters straight from §III-D of the paper.
  return {"NVIDIA A100", 1.0e-13, 6.4e-13, 40.0e6, 27.0e6, 0.25, 25.0e9};
}

MachineModel epyc7763_node() {
  // 128 Zen3 cores @ ~2.45 GHz sustained, 2x 8-channel DDR4-3200:
  // ~3.5 TFlop/s DP, ~400 GB/s.
  return {"2x AMD EPYC 7763", 1.0 / 3.5e12, 1.0 / 400.0e9, 512.0e6, 16.0e6,
          0.25, 0};
}

MachineModel frontera_node() {
  // 2x Intel Xeon Platinum 8280 (56 cores): ~3.1 TFlop/s DP, ~140 GB/s.
  return {"Frontera CLX node", 1.0 / 3.1e12, 1.0 / 140.0e9, 77.0e6, 8.0e6,
          0.25, 0};
}

namespace {

/// One-shot microbenchmarks: a throughput-bound multiply-add loop for
/// tau_f and a large array triad sweep for tau_m.
MachineModel measure_host() {
  MachineModel m;
  m.name = "calibrated host";
  m.cache_l2 = 8.0e6;
  m.cache_reg = 2.0e3;
  m.ell = 0.25;
  m.h2d_bw = 0;
  {
    // kAcc independent a = a*b + c chains over native-width packs: one
    // chain step is a multiply then a dependent add (no contraction), ~8
    // cycles of latency, so 12 chains keep two FP ports issuing every
    // cycle — the loop measures throughput, not latency.
    using Pack = simd<double, kSimdNativeWidth>;
    constexpr int kAcc = 12;
    Pack acc[kAcc];
    for (int k = 0; k < kAcc; ++k) acc[k] = Pack::broadcast(1.0 + 0.01 * k);
    const Pack b = Pack::broadcast(1.0000001), c = Pack::broadcast(1e-9);
    const int iters = 4'000'000;
    WallTimer t;
    for (int i = 0; i < iters; ++i)
      for (int k = 0; k < kAcc; ++k) acc[k] = acc[k] * b + c;
    const double seconds = t.seconds();
    double s = 0;
    for (int k = 0; k < kAcc; ++k) s += acc[k][0];
    volatile double sink = s;
    (void)sink;
    m.tau_f = seconds / (2.0 * Pack::width * kAcc * iters);
  }
  {
    const std::size_t n = 8'000'000;  // 64 MB per array: beats the caches
    std::vector<double> x(n, 1.0), y(n, 2.0);
    WallTimer t;
    double s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = y[i] + 0.5 * x[i];
      s += y[i];
    }
    volatile double sink = s;
    (void)sink;
    m.tau_m = t.seconds() / (3.0 * n * sizeof(double));  // 2 reads + 1 write
  }
  return m;
}

}  // namespace

MachineModel calibrated_host() {
  static const MachineModel m = measure_host();
  return m;
}

}  // namespace dgr::perf
