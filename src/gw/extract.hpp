#pragma once
/// \file extract.hpp
/// \brief Gravitational-wave extraction on spheres (paper §III-A, Fig. 4):
/// Psi4 is sampled on extraction spheres at radii 50–100 M (scaled down in
/// our configurations), decomposed into spin-weight -2 (l, m) modes with
/// sphere quadrature, and recorded as time series.

#include <complex>
#include <map>
#include <vector>

#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
#include "gw/psi4.hpp"
#include "gw/quadrature.hpp"
#include "gw/swsh.hpp"
#include "mesh/mesh.hpp"

namespace dgr::gw {

/// Mode coefficients C_lm = \int Psi4 \bar{sYlm} dOmega on one sphere.
struct SphereModes {
  Real radius = 0;
  int lmax = 2;
  /// Index (l, m) with l in [2, lmax], m in [-l, l]: see mode_index().
  std::vector<Complex> coeffs;

  static int mode_index(int l, int m) {
    // Modes are packed l = 2..lmax, each with 2l+1 m values.
    int idx = 0;
    for (int ll = 2; ll < l; ++ll) idx += 2 * ll + 1;
    return idx + (m + l);
  }
  Complex mode(int l, int m) const { return coeffs[mode_index(l, m)]; }
};

class WaveExtractor {
 public:
  /// `radii`: extraction sphere radii; `lmax`: highest multipole;
  /// `quad_order`: Gauss product-rule order (2*order^2 points per sphere).
  WaveExtractor(std::vector<Real> radii, int lmax = 4, int quad_order = 12);

  const std::vector<Real>& radii() const { return radii_; }
  int lmax() const { return lmax_; }
  const SphereQuadrature& quadrature() const { return quad_; }

  /// Decompose precomputed zipped Psi4 fields on every sphere.
  std::vector<SphereModes> extract(const mesh::Mesh& mesh, const Real* psi4_re,
                                   const Real* psi4_im) const;

  /// Convenience: compute Psi4 from the state (gw::compute_psi4_field, so
  /// callers link dgr_exec_space), then extract.
  std::vector<SphereModes> extract_from_state(
      const mesh::Mesh& mesh, const bssn::BssnState& state,
      const bssn::BssnParams& params) const {
    std::vector<Real> re(mesh.num_dofs()), im(mesh.num_dofs());
    compute_psi4_field(mesh, state, params, re.data(), im.data());
    return extract(mesh, re.data(), im.data());
  }

  /// Decompose an analytic function on the unit sphere (tests).
  SphereModes decompose(const std::vector<Complex>& samples,
                        Real radius = 1.0) const;

 private:
  std::vector<Real> radii_;
  int lmax_;
  SphereQuadrature quad_;
  // Precomputed conj(sYlm) at the quadrature points, per mode.
  std::vector<std::vector<Complex>> basis_conj_;
};

/// A recorded (l, m) waveform: time samples of one mode at one radius —
/// the series plotted in the paper's Figs. 19 and 21.
struct ModeTimeSeries {
  int l = 2, m = 2;
  Real radius = 0;
  std::vector<Real> times;
  std::vector<Complex> values;

  void append(Real t, Complex v) {
    times.push_back(t);
    values.push_back(v);
  }
};

}  // namespace dgr::gw
