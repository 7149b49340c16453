#include "common/rng.hpp"

#include <gtest/gtest.h>

namespace acc {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, KnownSplitMix64Vectors) {
  // Reference outputs of splitmix64 with seed 0 (Vigna's reference code).
  SplitMix64 r(0);
  EXPECT_EQ(r.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(r.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(r.next(), 0x06c45d188009454fULL);
}

TEST(Rng, UniformBoundsInclusive) {
  SplitMix64 r(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.uniform(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenRange) {
  SplitMix64 r(9);
  for (int i = 0; i < 2000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  SplitMix64 r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 3000, 200);
}

}  // namespace
}  // namespace acc
