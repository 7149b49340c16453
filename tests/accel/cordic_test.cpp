#include "accel/cordic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace acc::accel {
namespace {

constexpr double kTol = 3e-3;  // 16 iterations + Q16 quantization

TEST(Cordic, RotateZeroAngleIsIdentity) {
  const RotateResult r =
      cordic_rotate(Q16::from_double(0.7), Q16::from_double(-0.3),
                    Q16::from_double(0.0));
  EXPECT_NEAR(r.x.to_double(), 0.7, kTol);
  EXPECT_NEAR(r.y.to_double(), -0.3, kTol);
}

TEST(Cordic, RotateUnitVectorGivesSinCos) {
  for (double a : {0.1, 0.5, 1.0, 1.5, 2.0, 3.0, -0.7, -2.5, M_PI, -3.0}) {
    const Q16 angle = Q16::from_double(a);
    const RotateResult r =
        cordic_rotate(Q16::from_double(1.0), Q16::from_double(0.0), angle);
    EXPECT_NEAR(r.x.to_double(), std::cos(a), kTol) << "angle " << a;
    EXPECT_NEAR(r.y.to_double(), std::sin(a), kTol) << "angle " << a;
  }
}

// The rotation accepts any angle in [-pi, pi]: both ends of that range and
// the +-pi/2 boundaries of its quadrant fold, on a vector off both axes.
TEST(Cordic, RotateAcceptsBothEndsOfThePrincipalRange) {
  const double x = 0.6;
  const double y = 0.2;
  const auto rotate = [&](Q16 angle) {
    return cordic_rotate(Q16::from_double(x), Q16::from_double(y), angle);
  };
  for (const Q16 half_turn : {q16_pi(), -q16_pi()}) {
    const RotateResult r = rotate(half_turn);
    EXPECT_NEAR(r.x.to_double(), -x, kTol);
    EXPECT_NEAR(r.y.to_double(), -y, kTol);
  }
  const RotateResult left = rotate(q16_half_pi());
  EXPECT_NEAR(left.x.to_double(), -y, kTol);
  EXPECT_NEAR(left.y.to_double(), x, kTol);
  const RotateResult right = rotate(-q16_half_pi());
  EXPECT_NEAR(right.x.to_double(), y, kTol);
  EXPECT_NEAR(right.y.to_double(), -x, kTol);
}

TEST(Cordic, VectorRecoverAngleAndMagnitude) {
  for (double a : {0.0, 0.4, 1.2, 2.8, -0.4, -1.6, -3.0}) {
    const double m = 0.8;
    const VectorResult v = cordic_vector(Q16::from_double(m * std::cos(a)),
                                         Q16::from_double(m * std::sin(a)));
    EXPECT_NEAR(v.angle.to_double(), a, kTol) << "angle " << a;
    EXPECT_NEAR(v.magnitude.to_double(), m, kTol) << "angle " << a;
  }
}

TEST(Cordic, IterationCountTradesAccuracy) {
  const double a = 1.1;
  const RotateResult coarse =
      cordic_rotate(Q16::from_double(1.0), Q16{}, Q16::from_double(a), 6);
  const RotateResult fine =
      cordic_rotate(Q16::from_double(1.0), Q16{}, Q16::from_double(a), 20);
  EXPECT_LT(std::abs(fine.x.to_double() - std::cos(a)),
            std::abs(coarse.x.to_double() - std::cos(a)) + 1e-4);
}

TEST(Cordic, RejectsBadIterationCounts) {
  EXPECT_THROW((void)cordic_rotate(Q16{}, Q16{}, Q16{}, 0), precondition_error);
  EXPECT_THROW((void)cordic_vector(Q16{}, Q16{}, 99), precondition_error);
}

// Property: rotation matches the double-precision rotation over random
// inputs covering all quadrants.
TEST(CordicProperty, RotateMatchesReference) {
  SplitMix64 rng(0xC02D1C);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform_real(-1.2, 1.2);
    const double y = rng.uniform_real(-1.2, 1.2);
    const double a = rng.uniform_real(-M_PI, M_PI);
    const RotateResult r = cordic_rotate(Q16::from_double(x),
                                         Q16::from_double(y),
                                         Q16::from_double(a));
    const double ex = x * std::cos(a) - y * std::sin(a);
    const double ey = x * std::sin(a) + y * std::cos(a);
    EXPECT_NEAR(r.x.to_double(), ex, 6e-3) << x << "," << y << "," << a;
    EXPECT_NEAR(r.y.to_double(), ey, 6e-3) << x << "," << y << "," << a;
  }
}

// Property: vectoring matches atan2/hypot; angle error small even near the
// +-pi seam.
TEST(CordicProperty, VectorMatchesReference) {
  SplitMix64 rng(0xA7A2);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform_real(-1.2, 1.2);
    const double y = rng.uniform_real(-1.2, 1.2);
    if (std::hypot(x, y) < 0.05) continue;  // tiny vectors: angle ill-defined
    const VectorResult v =
        cordic_vector(Q16::from_double(x), Q16::from_double(y));
    EXPECT_NEAR(v.magnitude.to_double(), std::hypot(x, y), 8e-3);
    double err = v.angle.to_double() - std::atan2(y, x);
    if (err > M_PI) err -= 2 * M_PI;
    if (err < -M_PI) err += 2 * M_PI;
    EXPECT_LT(std::abs(err), 6e-3) << x << "," << y;
  }
}

}  // namespace
}  // namespace acc::accel
