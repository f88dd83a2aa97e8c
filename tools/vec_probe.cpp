/// \file vec_probe.cpp
/// \brief Auto-vectorization probe for the CI gate (tools/
/// check_vectorization.sh). Each loop tagged `DGR_HOT_LOOP(name)` must be
/// reported "loop vectorized" under `-O2 -mavx2 -fopt-info-vec-optimized`,
/// or the gate fails the build with the compiler's -fopt-info-vec-missed
/// reasons. The loops are the solver's compiler-vectorized hot shapes: the
/// RK4 state updates (solver par_axpy / par_set_axpy). The stencil
/// reductions are deliberately NOT here: auto-vectorizing a left-associated
/// floating-point sum requires reassociation, which would break the repo's
/// bitwise-determinism contract.

#include <cstddef>

namespace dgr::vecprobe {

/// RK4 update y += s * x over one field (par_axpy inner loop).
void axpy(double* __restrict y, const double* __restrict x, double s,
          std::size_t n) {
  // DGR_HOT_LOOP(axpy)
  for (std::size_t d = 0; d < n; ++d) y[d] += s * x[d];
}

/// RK4 stage y = a + s * b over one field (par_set_axpy inner loop).
void set_axpy(double* __restrict y, const double* __restrict a,
              const double* __restrict b, double s, std::size_t n) {
  // DGR_HOT_LOOP(set_axpy)
  for (std::size_t d = 0; d < n; ++d) y[d] = a[d] + s * b[d];
}

}  // namespace dgr::vecprobe
