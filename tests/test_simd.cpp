/// \file test_simd.cpp
/// \brief Tests of the explicit SIMD wrapper dgr::simd<double, W>: memory
/// ops (aligned, unaligned, partial tails), lanewise arithmetic identity
/// with scalar expressions, single-rounding fma, min/max semantics, and
/// runtime width selection.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "simd/simd.hpp"

namespace dgr {
namespace {

using P4 = simd<double, 4>;
using P1 = simd<double, 1>;

TEST(Simd, LoadStoreRoundTrip) {
  alignas(32) double src[8] = {1.5, -2.25, 3.0, 0.0, 7.5, -0.5, 2.0, 9.0};
  double dst[4] = {0, 0, 0, 0};
  P4::load(src + 1).store(dst);  // unaligned
  for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], src[1 + i]);
  alignas(32) double adst[4];
  P4::load_aligned(src).store_aligned(adst);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(adst[i], src[i]);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(P4::load(src)[i], src[i]);
}

TEST(Simd, PartialLoadStoreTails) {
  const double src[4] = {1.0, 2.0, 3.0, 4.0};
  for (int n = 0; n <= 4; ++n) {
    const P4 v = P4::load_partial(src, n);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], i < n ? src[i] : 0.0) << n;
    double dst[4] = {-1, -1, -1, -1};
    P4::load(src).store_partial(dst, n);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], i < n ? src[i] : -1.0) << n;
  }
  // Scalar specialization honors the same contract.
  EXPECT_EQ(P1::load_partial(src, 0)[0], 0.0);
  EXPECT_EQ(P1::load_partial(src, 1)[0], 1.0);
}

TEST(Simd, ArithmeticIsLanewiseBitwiseEqualToScalar) {
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    double a[4], b[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = rng.uniform(-10, 10);
      b[i] = rng.uniform(0.1, 10);  // nonzero divisor
    }
    const P4 pa = P4::load(a), pb = P4::load(b);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ((pa + pb)[i], a[i] + b[i]);
      EXPECT_EQ((pa - pb)[i], a[i] - b[i]);
      EXPECT_EQ((pa * pb)[i], a[i] * b[i]);
      EXPECT_EQ((pa / pb)[i], a[i] / b[i]);
      EXPECT_EQ((-pa)[i], -a[i]);
    }
  }
}

TEST(Simd, FmaIsSingleRounding) {
  // Pick operands where round(a*b)+c differs from fma(a,b,c): the product
  // 1+2^-30 squared needs more than 53 bits against c = -1.
  const double a = 1.0 + std::ldexp(1.0, -30);
  const double c = -1.0;
  const double fused = std::fma(a, a, c);
  const double unfused = a * a + c;
  ASSERT_NE(fused, unfused);  // the case actually discriminates
  const P4 r = fma(P4::broadcast(a), P4::broadcast(a), P4::broadcast(c));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r[i], fused);
  EXPECT_EQ(fma(P1::broadcast(a), P1::broadcast(a), P1::broadcast(c))[0],
            fused);
}

TEST(Simd, MinMaxMatchVectorSemantics) {
  // maxpd/minpd return the SECOND operand on NaN; both specializations and
  // the chi-floor usage max(floor, x) rely on exactly that.
  const double nan = std::nan("");
  const double xs[4] = {1.0, -2.0, nan, 0.5};
  const double ys[4] = {0.5, -1.0, 2.0, nan};
  const P4 x = P4::load(xs);
  const P4 y = P4::load(ys);
  const P4 mx = max(x, y), mn = min(x, y);
  EXPECT_EQ(mx[0], 1.0);
  EXPECT_EQ(mx[1], -1.0);
  EXPECT_EQ(mx[2], 2.0);  // NaN in first operand -> second
  EXPECT_TRUE(std::isnan(mx[3]));
  EXPECT_EQ(mn[0], 0.5);
  EXPECT_EQ(mn[1], -2.0);
  EXPECT_EQ(mn[2], 2.0);
  EXPECT_TRUE(std::isnan(mn[3]));
  // Scalar specialization agrees lane for lane.
  for (int i = 0; i < 4; ++i) {
    const P1 sx = P1::broadcast(x[i]), sy = P1::broadcast(y[i]);
    const double m4 = mx[i], s1 = max(sx, sy)[0];
    EXPECT_TRUE(m4 == s1 || (std::isnan(m4) && std::isnan(s1)));
  }
}

TEST(Simd, SelectGeZero) {
  const double cs[4] = {1.0, -1.0, 0.0, -0.0};
  const P4 c = P4::load(cs);
  const P4 a = P4::broadcast(10.0), b = P4::broadcast(20.0);
  const P4 r = select_ge_zero(c, a, b);
  EXPECT_EQ(r[0], 10.0);
  EXPECT_EQ(r[1], 20.0);
  EXPECT_EQ(r[2], 10.0);   // +0 >= 0
  EXPECT_EQ(r[3], 10.0);   // -0 >= 0, like the scalar branch
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(r[i], select_ge_zero(P1::broadcast(c[i]), P1::broadcast(10.0),
                                   P1::broadcast(20.0))[0]);
}

TEST(Simd, WidthSelection) {
#if DGR_SIMD_HAS_AVX2
  EXPECT_EQ(kSimdNativeWidth, 4);
  EXPECT_STREQ(simd_backend_name(4), "avx2");
#else
  EXPECT_EQ(kSimdNativeWidth, 1);
#endif
  EXPECT_STREQ(simd_backend_name(1), "scalar");
  const int w = simd_active_width();
  EXPECT_TRUE(w == 1 || w == 4);
}

}  // namespace
}  // namespace dgr
