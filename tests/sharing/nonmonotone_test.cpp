#include "sharing/nonmonotone.hpp"

#include <gtest/gtest.h>

#include "dataflow/buffer_sizing.hpp"

namespace acc::sharing {
namespace {

std::vector<std::int64_t> caps_of(const std::vector<BufferSweepPoint>& pts) {
  std::vector<std::int64_t> caps;
  for (const BufferSweepPoint& p : pts)
    if (p.min_capacity >= 0) caps.push_back(p.min_capacity);
  return caps;
}

TEST(NonMonotone, DetectorBasics) {
  EXPECT_FALSE(is_non_monotone({}));
  EXPECT_FALSE(is_non_monotone({3}));
  EXPECT_FALSE(is_non_monotone({1, 2, 3}));
  EXPECT_FALSE(is_non_monotone({3, 2, 1}));
  EXPECT_FALSE(is_non_monotone({2, 2, 2}));
  EXPECT_TRUE(is_non_monotone({2, 4, 3}));
  EXPECT_TRUE(is_non_monotone({5, 6, 7, 8, 5}));  // the paper's Fig. 8(b)
}

TEST(NonMonotone, TwoActorSweepIsMonotoneUnderStandardSemantics) {
  // Under consume-at-start / produce-at-end token semantics, the simple
  // producer/consumer min-capacity IS monotone — documented as the baseline
  // against which the chunked-consumer case stands out.
  const auto pts = two_actor_buffer_sweep(1, 5, 1, 8);
  ASSERT_EQ(pts.size(), 8u);
  const auto caps = caps_of(pts);
  EXPECT_FALSE(is_non_monotone(caps));
  for (std::size_t i = 1; i < caps.size(); ++i) EXPECT_GE(caps[i], caps[i - 1]);
}

TEST(NonMonotone, ChunkedConsumerSweepIsNonMonotone) {
  // The paper's headline observation (its Fig. 8): minimum buffer capacity
  // is not monotone in the block size. Our reproduction uses the
  // down-sampling consumer of the PAL chain (chunk = 4): block remainders
  // misaligned with the chunk make a *smaller* block need a *larger* buffer.
  const auto pts = chunked_consumer_buffer_sweep(
      /*reconfig=*/6, /*per_sample=*/1, /*sample_period=*/3, /*chunk=*/4,
      /*eta_lo=*/3, /*eta_hi=*/16);
  const auto caps = caps_of(pts);
  ASSERT_GE(caps.size(), 10u);
  EXPECT_TRUE(is_non_monotone(caps));
}

TEST(NonMonotone, ChunkedSweepSmallerBlockLargerBuffer) {
  // Concrete instance mirroring the paper's "eta=2 needs more than eta=5":
  // here eta=3 needs a larger buffer than eta=4.
  const auto pts = chunked_consumer_buffer_sweep(6, 1, 3, 4, 3, 4);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_GT(pts[0].min_capacity, pts[1].min_capacity)
      << "eta=3 cap=" << pts[0].min_capacity
      << " eta=4 cap=" << pts[1].min_capacity;
}

TEST(NonMonotone, ChunkAlignedBlocksBeatTheirMisalignedNeighbours) {
  // Blocks that are multiples of the chunk avoid lingering remainders: they
  // need less buffering than both adjacent (misaligned) block sizes.
  const auto pts = chunked_consumer_buffer_sweep(10, 1, 2, 8, 10, 25);
  for (std::size_t i = 1; i + 1 < pts.size(); ++i) {
    if (pts[i].min_capacity < 0 || pts[i - 1].min_capacity < 0) continue;
    if (pts[i].eta % 8 != 0) continue;
    EXPECT_LT(pts[i].min_capacity, pts[i - 1].min_capacity)
        << "eta=" << pts[i].eta;
    EXPECT_LT(pts[i].min_capacity, pts[i + 1].min_capacity)
        << "eta=" << pts[i].eta;
  }
}

TEST(NonMonotone, InfeasibleEtasFlagged) {
  // Very small blocks cannot sustain the rate (reconfiguration dominates).
  const auto pts = chunked_consumer_buffer_sweep(10, 1, 2, 8, 8, 12);
  EXPECT_EQ(pts.front().min_capacity, -1);
}

TEST(NonMonotone, InfeasibleEtasCountTheirSimulations) {
  // The capacity search of an infeasible eta ends in a throw after
  // simulating; the sweep's stats count those simulations all the same.
  df::DseStats stats;
  const auto pts = chunked_consumer_buffer_sweep(10, 1, 2, 8, 8, 8, &stats);
  ASSERT_EQ(pts.size(), 1u);
  ASSERT_EQ(pts[0].min_capacity, -1);
  EXPECT_GT(stats.simulations, 0);
  EXPECT_EQ(stats.simulations, stats.cache_misses);
}

TEST(NonMonotone, GatewaySweepFeasibilityBoundary) {
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = 2;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, 8), 10}};
  const auto pts = gateway_buffer_sweep(sys, 0, 8, 2, 6);
  ASSERT_EQ(pts.size(), 5u);
  // eta=2: gamma = 10+(2+2)*2 = 18 > 16 = 2*8: infeasible; eta=3 feasible.
  EXPECT_FALSE(pts[0].feasible);
  EXPECT_TRUE(pts[1].feasible);
  for (const auto& p : pts) {
    if (p.feasible) {
      EXPECT_GE(p.alpha0, p.eta);
    }
  }
}

}  // namespace
}  // namespace acc::sharing
