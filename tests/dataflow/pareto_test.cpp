#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "dataflow/dse.hpp"
#include "dataflow/graph.hpp"

namespace acc::df {
namespace {

TEST(Pareto, StaircaseOfUnitRatePipeline) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 1);
  const Channel ch = g.add_channel(a, b, {1}, {1}, 1);
  const std::vector<ParetoPoint> pts = pareto_buffer_sweep(g, ch, a);
  // cap 1 -> 1/2, cap 2 -> 1 (saturated).
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].capacity, 1);
  EXPECT_EQ(pts[0].throughput, Rational(1, 2));
  EXPECT_EQ(pts[1].capacity, 2);
  EXPECT_EQ(pts[1].throughput, Rational(1));
  // Original capacity restored.
  EXPECT_EQ(g.channel_capacity(ch), 1);
}

TEST(Pareto, StaircaseStrictlyIncreasing) {
  SplitMix64 rng(0x9A3);
  for (int trial = 0; trial < 25; ++trial) {
    Graph g;
    const ActorId a = g.add_sdf_actor("A", rng.uniform(1, 4));
    const ActorId b = g.add_sdf_actor("B", rng.uniform(1, 4));
    const std::int64_t p = rng.uniform(1, 3);
    const std::int64_t c = rng.uniform(1, 3);
    const Channel ch = g.add_channel(a, b, {p}, {c}, std::max(p, c));
    const std::vector<ParetoPoint> pts = pareto_buffer_sweep(g, ch, b);
    ASSERT_FALSE(pts.empty());
    for (std::size_t i = 1; i < pts.size(); ++i) {
      EXPECT_GT(pts[i].capacity, pts[i - 1].capacity);
      EXPECT_GT(pts[i].throughput, pts[i - 1].throughput);
    }
    // Final point reaches the saturated maximum.
    const Rational best = DseEngine(g, {ch}, b).max_throughput_unbounded();
    EXPECT_EQ(pts.back().throughput, best);
    // And each breakpoint is the true single-channel minimum for its rate.
    for (const ParetoPoint& pt : pts) {
      EXPECT_EQ(min_channel_capacity_for_throughput(g, ch, b, pt.throughput),
                pt.capacity);
    }
  }
}

}  // namespace
}  // namespace acc::df
