#pragma once
/// \file psi4.hpp
/// \brief The Penrose scalar Psi4 used for gravitational-wave extraction
/// (paper §III-A): computed from the evolved BSSN variables via the
/// electric/magnetic parts of the Weyl tensor,
///   E_ij = R_ij + K K_ij - K_ik K^k_j,
///   B_ij = eps_i^{kl} D_k K_{lj},
/// projected onto a quasi-Kinnersley null tetrad built by Gram–Schmidt
/// orthonormalization of the spherical coordinate triad:
///   Psi4 = (E_jk - i B_jk) mbar^j mbar^k,  mbar = (e_theta - i e_phi)/sqrt2.

#include <complex>

#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
#include "mesh/mesh.hpp"

namespace dgr::gw {

using Complex = std::complex<Real>;

/// Compute Psi4 on the interior of one patch (outputs are 13^3 buffers,
/// interior region written). `ws` must hold the derivative stage of `in`
/// (pass run_derivs = true to compute it here). Points too close to the
/// coordinate origin (within `r_min`) are set to zero — the tetrad is
/// radial and extraction happens on far spheres anyway.
void psi4_patch(const Real* const in[bssn::kNumVars],
                const mesh::PatchGeom& geom, const bssn::BssnParams& params,
                bssn::DerivWorkspace& ws, Real* out_re, Real* out_im,
                bool run_derivs = true, Real r_min = 1e-8);

/// Compute Psi4 as a pair of zipped scalar fields over the whole mesh, as
/// the chunked exec_space diagnostic sweep on the host space with
/// transient scratch. Defined in exec_space/bssn_sweeps.cpp (callers link
/// dgr_exec_space); solver::BssnCtx::psi4_field runs the same sweep in the
/// solver's idle pipeline buffers.
void compute_psi4_field(const mesh::Mesh& mesh, const bssn::BssnState& state,
                        const bssn::BssnParams& params, Real* re, Real* im);

}  // namespace dgr::gw
