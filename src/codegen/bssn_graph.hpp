#pragma once
/// \file bssn_graph.hpp
/// \brief Construction of the BSSN algebraic-stage expression DAG (the
/// "composed graph G" of §IV-B / Fig. 10) by instantiating the shared
/// algebra template with the symbolic scalar, plus the input packer that
/// fills the interpreter's input vector in the exact registration order.

#include <array>

#include "bssn/algebra.hpp"
#include "bssn/rhs.hpp"
#include "codegen/expr.hpp"

namespace dgr::codegen {

struct BssnAlgebraGraph {
  Graph graph;
  std::array<std::int32_t, bssn::kNumVars> outputs;  ///< DAG roots
  int num_inputs = 0;
};

/// Build the DAG with the gauge/dissipation parameters baked in as
/// constants (as real code generators do).
BssnAlgebraGraph build_bssn_algebra_graph(Real lambda_f0 = 0.75,
                                          Real eta = 2.0,
                                          Real ko_sigma = 0.1);

/// Number of scalar inputs the packed vector carries.
int bssn_algebra_num_inputs();

/// Fill `buf` (size bssn_algebra_num_inputs()) from gathered point inputs,
/// in the same order the graph builder registered them.
void pack_algebra_inputs(const bssn::AlgebraInputs<Real>& q, Real* buf);

}  // namespace dgr::codegen
