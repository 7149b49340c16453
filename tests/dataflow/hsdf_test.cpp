#include "../support/hsdf.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/graph.hpp"

namespace acc::df {
namespace {

TEST(Hsdf, ExpansionNodeCountEqualsRepetitionSum) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 2);
  g.add_sdf_edge(a, b, 2, 3, 0);
  const HsdfGraph h = expand_to_hsdf(g);
  EXPECT_EQ(h.num_nodes(), 3 + 2);  // r = [3, 2]
  // Copies carry their origin's duration.
  for (std::int32_t k = 0; k < h.num_nodes(); ++k)
    EXPECT_EQ(h.duration[k], g.actor(h.origin[k]).phase_durations[0]);
}

TEST(Hsdf, HomogeneousGraphExpandsToItself) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 2);
  const ActorId b = g.add_sdf_actor("B", 3);
  g.add_sdf_edge(a, b, 1, 1, 0);
  g.add_sdf_edge(b, a, 1, 1, 1);
  const HsdfGraph h = expand_to_hsdf(g);
  EXPECT_EQ(h.num_nodes(), 2);
  // Edges: a->b (0 tokens), b->a (1 token), plus two self-edges.
  EXPECT_EQ(h.edges.size(), 4u);
}

TEST(Hsdf, RejectsCsdfActors) {
  Graph g;
  g.add_actor("A", {1, 1});
  EXPECT_THROW(expand_to_hsdf(g), precondition_error);
}

TEST(Hsdf, ThroughputMatchesExecutorOnCycle) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 2);
  const ActorId b = g.add_sdf_actor("B", 3);
  g.add_sdf_edge(a, b, 1, 1, 0);
  g.add_sdf_edge(b, a, 1, 1, 1);
  const SdfThroughput mcm = sdf_throughput_via_mcm(g, a);
  ASSERT_FALSE(mcm.deadlocked);
  EXPECT_EQ(mcm.firings_per_time, Rational(1, 5));
}

TEST(Hsdf, DeadlockDetectedViaZeroTokenCycle) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 1);
  g.add_sdf_edge(a, b, 1, 1, 0);
  g.add_sdf_edge(b, a, 1, 1, 0);
  EXPECT_TRUE(sdf_throughput_via_mcm(g, a).deadlocked);
}

TEST(Hsdf, MultiRateThroughputMatchesExecutor) {
  // A --2:3--> B with a bounded return channel; both analyses must agree.
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 3);
  const ActorId b = g.add_sdf_actor("B", 4);
  g.add_sdf_edge(a, b, 2, 3, 0);
  g.add_sdf_edge(b, a, 3, 2, 6);
  const SdfThroughput mcm = sdf_throughput_via_mcm(g, a);
  SelfTimedExecutor exec(g);
  const ThroughputResult st = exec.analyze_throughput(a);
  ASSERT_FALSE(mcm.deadlocked);
  ASSERT_FALSE(st.deadlocked);
  EXPECT_EQ(mcm.firings_per_time, st.throughput);
}

// Property: for random bounded producer-consumer graphs, MCM analysis on the
// HSDF expansion and self-timed execution agree exactly.
TEST(HsdfProperty, AgreesWithSelfTimedExecutionOnRandomGraphs) {
  SplitMix64 rng(0xD00D);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Graph g;
    const ActorId a = g.add_sdf_actor("A", rng.uniform(1, 5));
    const ActorId b = g.add_sdf_actor("B", rng.uniform(1, 5));
    const std::int64_t p = rng.uniform(1, 4);
    const std::int64_t c = rng.uniform(1, 4);
    // Capacity generous enough to avoid structural deadlock.
    const std::int64_t cap = p + c + rng.uniform(0, 6);
    g.add_channel(a, b, {p}, {c}, cap);
    const SdfThroughput mcm = sdf_throughput_via_mcm(g, b);
    SelfTimedExecutor exec(g);
    const ThroughputResult st = exec.analyze_throughput(b);
    ASSERT_EQ(mcm.deadlocked, st.deadlocked) << "p=" << p << " c=" << c
                                             << " cap=" << cap;
    if (!st.deadlocked) {
      EXPECT_EQ(mcm.firings_per_time, st.throughput)
          << "p=" << p << " c=" << c << " cap=" << cap;
      ++checked;
    }
  }
  EXPECT_GT(checked, 30);  // most random instances must be live
}

}  // namespace
}  // namespace acc::df
