#include "codegen/bssn_graph.hpp"

#include <string>

namespace dgr::codegen {

namespace {

/// Visit every input slot of AlgebraInputs in one canonical order. The
/// builder and the packer both go through this function, so they cannot
/// drift apart.
template <class S, class F>
void visit_inputs(bssn::AlgebraInputs<S>& q, F&& f) {
  f(q.a, "alpha");
  f(q.ch, "chi");
  f(q.Kt, "K");
  for (int i = 0; i < 3; ++i) f(q.Gt[i], "Gt" + std::to_string(i));
  for (int i = 0; i < 3; ++i) f(q.bet[i], "beta" + std::to_string(i));
  for (int i = 0; i < 3; ++i) f(q.Bv[i], "B" + std::to_string(i));
  for (int s = 0; s < 6; ++s) f(q.gt[s], "gt" + std::to_string(s));
  for (int s = 0; s < 6; ++s) f(q.At[s], "At" + std::to_string(s));
  for (int a = 0; a < 3; ++a) f(q.d_a[a], "d_alpha_" + std::to_string(a));
  for (int a = 0; a < 3; ++a) f(q.d_ch[a], "d_chi_" + std::to_string(a));
  for (int a = 0; a < 3; ++a) f(q.d_K[a], "d_K_" + std::to_string(a));
  for (int i = 0; i < 3; ++i)
    for (int a = 0; a < 3; ++a)
      f(q.d_b[i][a], "d_beta" + std::to_string(i) + "_" + std::to_string(a));
  for (int i = 0; i < 3; ++i)
    for (int a = 0; a < 3; ++a)
      f(q.d_Gt[i][a], "d_Gt" + std::to_string(i) + "_" + std::to_string(a));
  for (int s = 0; s < 6; ++s)
    for (int a = 0; a < 3; ++a)
      f(q.d_gt[s][a], "d_gt" + std::to_string(s) + "_" + std::to_string(a));
  for (int s = 0; s < 6; ++s)
    for (int a = 0; a < 3; ++a)
      f(q.d_At[s][a], "d_At" + std::to_string(s) + "_" + std::to_string(a));
  for (int s = 0; s < 6; ++s) f(q.dd_a[s], "dd_alpha_" + std::to_string(s));
  for (int s = 0; s < 6; ++s) f(q.dd_ch[s], "dd_chi_" + std::to_string(s));
  for (int i = 0; i < 3; ++i)
    for (int s = 0; s < 6; ++s)
      f(q.dd_b[i][s], "dd_beta" + std::to_string(i) + "_" + std::to_string(s));
  for (int g = 0; g < 6; ++g)
    for (int s = 0; s < 6; ++s)
      f(q.dd_gt[g][s], "dd_gt" + std::to_string(g) + "_" + std::to_string(s));
  for (int v = 0; v < bssn::kNumVars; ++v)
    f(q.ad[v], "adv_" + std::string(bssn::var_name(v)));
  for (int v = 0; v < bssn::kNumVars; ++v)
    f(q.ko[v], "ko_" + std::string(bssn::var_name(v)));
}

}  // namespace

int bssn_algebra_num_inputs() {
  int n = 0;
  bssn::AlgebraInputs<int> dummy{};
  visit_inputs(dummy, [&](int&, const std::string&) { ++n; });
  return n;
}

BssnAlgebraGraph build_bssn_algebra_graph(Real lambda_f0, Real eta,
                                          Real ko_sigma) {
  BssnAlgebraGraph out;
  Graph& g = out.graph;
  bssn::AlgebraInputs<Sym> q;
  visit_inputs(q, [&](Sym& slot, const std::string& name) {
    slot = Sym(&g, g.add_input(name));
  });
  out.num_inputs = g.num_inputs();
  const bssn::AlgebraParams<Sym> prm{Sym(&g, g.add_const(lambda_f0)),
                                     Sym(&g, g.add_const(eta)),
                                     Sym(&g, g.add_const(ko_sigma))};
  Sym rhs[bssn::kNumVars];
  bssn::bssn_algebra_point(q, prm, rhs);
  for (int v = 0; v < bssn::kNumVars; ++v) out.outputs[v] = rhs[v].id();
  return out;
}

void pack_algebra_inputs(const bssn::AlgebraInputs<Real>& q, Real* buf) {
  int idx = 0;
  visit_inputs(const_cast<bssn::AlgebraInputs<Real>&>(q),
               [&](Real& slot, const std::string&) { buf[idx++] = slot; });
}

}  // namespace dgr::codegen
