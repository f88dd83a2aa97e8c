#include "gw/extract.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "mesh/sampling.hpp"

namespace dgr::gw {

namespace {
int num_modes(int lmax) {
  int n = 0;
  for (int l = 2; l <= lmax; ++l) n += 2 * l + 1;
  return n;
}
}  // namespace

WaveExtractor::WaveExtractor(std::vector<Real> radii, int lmax, int quad_order)
    : radii_(std::move(radii)), lmax_(lmax), quad_(gauss_product(quad_order)) {
  DGR_CHECK(lmax_ >= 2);
  basis_conj_.resize(num_modes(lmax_));
  for (int l = 2; l <= lmax_; ++l)
    for (int m = -l; m <= l; ++m) {
      auto& b = basis_conj_[SphereModes::mode_index(l, m)];
      b.resize(quad_.size());
      for (std::size_t i = 0; i < quad_.size(); ++i) {
        const auto& n = quad_.points[i];
        const Real theta = std::acos(std::clamp(n[2], Real(-1), Real(1)));
        const Real phi = std::atan2(n[1], n[0]);
        b[i] = std::conj(swsh_m2(l, m, theta, phi));
      }
    }
}

std::vector<SphereModes> WaveExtractor::extract(const mesh::Mesh& mesh,
                                                const Real* psi4_re,
                                                const Real* psi4_im) const {
  mesh::PointSampler sampler(mesh);
  std::vector<SphereModes> out;
  out.reserve(radii_.size());
  std::vector<Complex> samples(quad_.size());
  for (Real r : radii_) {
    for (std::size_t i = 0; i < quad_.size(); ++i) {
      const auto& n = quad_.points[i];
      const Real re = sampler.evaluate(psi4_re, r * n[0], r * n[1], r * n[2]);
      const Real im = sampler.evaluate(psi4_im, r * n[0], r * n[1], r * n[2]);
      samples[i] = {re, im};
    }
    out.push_back(decompose(samples, r));
  }
  return out;
}

SphereModes WaveExtractor::decompose(const std::vector<Complex>& samples,
                                     Real radius) const {
  DGR_CHECK(samples.size() == quad_.size());
  SphereModes modes;
  modes.radius = radius;
  modes.lmax = lmax_;
  modes.coeffs.resize(num_modes(lmax_));
  for (int l = 2; l <= lmax_; ++l)
    for (int m = -l; m <= l; ++m) {
      const auto& b = basis_conj_[SphereModes::mode_index(l, m)];
      Complex s{0, 0};
      for (std::size_t i = 0; i < quad_.size(); ++i)
        s += quad_.weights[i] * samples[i] * b[i];
      modes.coeffs[SphereModes::mode_index(l, m)] = s;
    }
  return modes;
}

}  // namespace dgr::gw
