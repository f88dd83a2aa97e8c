#include "fd/stencils.hpp"

#include <vector>

#include "common/error.hpp"

namespace dgr::fd {

std::vector<Real> fornberg_weights(Real x0, const std::vector<Real>& nodes,
                                   int m) {
  // B. Fornberg, "Generation of finite difference formulas on arbitrarily
  // spaced grids", Math. Comp. 51 (1988). Direct transcription.
  const int n = static_cast<int>(nodes.size()) - 1;
  DGR_CHECK(n >= m && m >= 0);
  std::vector<std::vector<Real>> c(n + 1, std::vector<Real>(m + 1, 0.0));
  Real c1 = 1.0;
  Real c4 = nodes[0] - x0;
  c[0][0] = 1.0;
  for (int i = 1; i <= n; ++i) {
    const int mn = std::min(i, m);
    Real c2 = 1.0;
    const Real c5 = c4;
    c4 = nodes[i] - x0;
    for (int j = 0; j < i; ++j) {
      const Real c3 = nodes[i] - nodes[j];
      c2 *= c3;
      if (j == i - 1) {
        for (int k = mn; k >= 1; --k)
          c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2;
        c[i][0] = -c1 * c5 * c[i - 1][0] / c2;
      }
      for (int k = mn; k >= 1; --k)
        c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3;
      c[j][0] = c4 * c[j][0] / c3;
    }
    c1 = c2;
  }
  std::vector<Real> w(n + 1);
  for (int i = 0; i <= n; ++i) w[i] = c[i][m];
  return w;
}

namespace {

/// The fixed stencil weight tables used by every operator below.
struct StencilWeights {
  Real w1[7];      ///< centered first derivative, nodes -3..3
  Real w2[7];      ///< centered second derivative, nodes -3..3
  Real up_pos[5];  ///< 4th-order upwind for positive speed, nodes -1..3
  Real up_neg[5];  ///< mirrored, nodes -3..1
  Real ko[7];      ///< KO numerator (binomial / 64), nodes -3..3
};

const StencilWeights& weights() {
  static const StencilWeights w = [] {
    StencilWeights s;
    const std::vector<Real> c7 = {-3, -2, -1, 0, 1, 2, 3};
    auto a1 = fornberg_weights(0.0, c7, 1);
    auto a2 = fornberg_weights(0.0, c7, 2);
    for (int i = 0; i < 7; ++i) {
      s.w1[i] = a1[i];
      s.w2[i] = a2[i];
    }
    auto up = fornberg_weights(0.0, {-1, 0, 1, 2, 3}, 1);
    for (int i = 0; i < 5; ++i) s.up_pos[i] = up[i];
    // Mirror: d/dx with nodes -3..1 is minus the reversed positive stencil.
    for (int i = 0; i < 5; ++i) s.up_neg[i] = -s.up_pos[4 - i];
    const Real b[7] = {1, -6, 15, -20, 15, -6, 1};
    for (int i = 0; i < 7; ++i) s.ko[i] = b[i] / 64.0;
    return s;
  }();
  return w;
}

/// Element stride of a patch axis (0=x, 1=y, 2=z).
constexpr int stride_of(int axis) {
  return axis == 0 ? 1 : axis == 1 ? kPatch : kPatch * kPatch;
}

/// Compile-time-stride centered sweep: the fixed stride lets the compiler
/// unroll and vectorize the 7-point contraction; the valid region is 3..9
/// along the sweep axis and the full patch along the other two.
template <int Axis>
void centered_sweep(const Real* u, Real* out, const Real w[7], Real scale) {
  constexpr int S = stride_of(Axis);
  constexpr int lo0 = Axis == 0 ? kPad : 0;
  constexpr int hi0 = Axis == 0 ? kPad + kR : kPatch;
  constexpr int lo1 = Axis == 1 ? kPad : 0;
  constexpr int hi1 = Axis == 1 ? kPad + kR : kPatch;
  constexpr int lo2 = Axis == 2 ? kPad : 0;
  constexpr int hi2 = Axis == 2 ? kPad + kR : kPatch;
  for (int k = lo2; k < hi2; ++k)
    for (int j = lo1; j < hi1; ++j) {
      const int row = (k * kPatch + j) * kPatch;
      for (int i = lo0; i < hi0; ++i) {
        const int p = row + i;
        const Real acc = w[0] * u[p - 3 * S] + w[1] * u[p - 2 * S] +
                         w[2] * u[p - S] + w[3] * u[p] + w[4] * u[p + S] +
                         w[5] * u[p + 2 * S] + w[6] * u[p + 3 * S];
        out[p] = acc * scale;
      }
    }
}

}  // namespace

void d1(const Real* u, Real* out, int axis, Real h) {
  const auto& W = weights();
  const Real inv = 1.0 / h;
  switch (axis) {
    case 0: centered_sweep<0>(u, out, W.w1, inv); break;
    case 1: centered_sweep<1>(u, out, W.w1, inv); break;
    default: centered_sweep<2>(u, out, W.w1, inv); break;
  }
}

void d2(const Real* u, Real* out, int axis, Real h) {
  const auto& W = weights();
  const Real inv = 1.0 / (h * h);
  switch (axis) {
    case 0: centered_sweep<0>(u, out, W.w2, inv); break;
    case 1: centered_sweep<1>(u, out, W.w2, inv); break;
    default: centered_sweep<2>(u, out, W.w2, inv); break;
  }
}

void d2_mixed(const Real* u, Real* scratch, Real* out, int axis_a, int axis_b,
              Real h) {
  DGR_CHECK(axis_a != axis_b);
  d1(u, scratch, axis_a, h);
  d1(scratch, out, axis_b, h);
}

void d1_upwind(const Real* u, const Real* beta, Real* out, int axis, Real h) {
  const auto& W = weights();
  const int s = stride_of(axis);
  const Real inv = 1.0 / h;
  for (int k = kPad; k < kPad + kR; ++k)
    for (int j = kPad; j < kPad + kR; ++j)
      for (int i = kPad; i < kPad + kR; ++i) {
        const int p = patch_idx(i, j, k);
        Real acc = 0;
        if (beta[p] >= 0) {
          for (int t = -1; t <= 3; ++t) acc += W.up_pos[t + 1] * u[p + t * s];
        } else {
          for (int t = -3; t <= 1; ++t) acc += W.up_neg[t + 3] * u[p + t * s];
        }
        out[p] = acc * inv;
      }
}

void ko_dissipation(const Real* u, Real* out, Real sigma, Real h) {
  const auto& W = weights();
  const Real f = sigma / h;
  for (int k = kPad; k < kPad + kR; ++k)
    for (int j = kPad; j < kPad + kR; ++j)
      for (int i = kPad; i < kPad + kR; ++i) {
        const int p = patch_idx(i, j, k);
        Real acc = 0;
        for (int t = -3; t <= 3; ++t) {
          acc += W.ko[t + 3] *
                 (u[p + t] + u[p + t * kPatch] + u[p + t * kPatch * kPatch]);
        }
        out[p] = acc * f;
      }
}

}  // namespace dgr::fd
