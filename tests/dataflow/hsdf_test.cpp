#include "../support/hsdf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

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

/// Producer -> shared -> chunked consumer (the Fig. 7 stream model's shape)
/// with bounded channels and any subset of auto-concurrent actors.
struct ChunkedChain {
  Graph g;
  ActorId consumer = kInvalidActor;
  Channel in{};
  Channel out{};
};

ChunkedChain chunked_chain(std::int64_t eta, std::int64_t chunk,
                           const Time (&dur)[3], const bool (&concurrent)[3],
                           std::int64_t alpha0, std::int64_t alpha3) {
  ChunkedChain c;
  const ActorId p = c.g.add_sdf_actor("P", dur[0], concurrent[0]);
  const ActorId s = c.g.add_sdf_actor("S", dur[1], concurrent[1]);
  c.consumer = c.g.add_sdf_actor("C", dur[2], concurrent[2]);
  c.in = c.g.add_channel(p, s, {1}, {eta}, alpha0);
  c.out = c.g.add_channel(s, c.consumer, {eta}, {chunk}, alpha3);
  return c;
}

void expect_same_analysis(const ThroughputResult& a,
                          const ThroughputResult& b) {
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.firings_in_period, b.firings_in_period);
  EXPECT_EQ(a.transient_iterations, b.transient_iterations);
}

// An auto-concurrent reference can complete more than one iteration's
// firings at one instant; two iteration boundaries then pass with no step
// between them, and the recurrence must not take that for a period.
TEST(Hsdf, AutoConcurrentReferenceOvershootingABoundary) {
  ChunkedChain c = chunked_chain(4, 4, {5, 2, 3}, {true, true, true}, 8, 10);
  const SdfThroughput mcm = sdf_throughput_via_mcm(c.g, c.consumer);
  ASSERT_FALSE(mcm.deadlocked);
  EXPECT_EQ(mcm.firings_per_time, Rational(2, 7));
  SelfTimedExecutor exec(c.g);
  const ThroughputResult st = exec.analyze_throughput(c.consumer);
  ASSERT_FALSE(st.deadlocked);
  EXPECT_EQ(st.throughput, Rational(2, 7));
}

// Property: on random chunked chains with a random subset of
// auto-concurrent actors, self-timed execution agrees with the MCM oracle;
// and one executor re-analysing after set_channel_capacity answers exactly
// as a fresh executor does.
TEST(HsdfProperty, AgreesOnAutoConcurrentChunkedChains) {
  SplitMix64 rng(0xC0C0A);
  int live = 0;
  int concurrent_reference = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::int64_t eta = rng.uniform(1, 6);
    const std::int64_t chunk = rng.uniform(1, 6);
    Time dur[3];
    bool concurrent[3];
    for (int i = 0; i < 3; ++i) {
      dur[i] = rng.uniform(0, 20);
      concurrent[i] = rng.chance(0.5);
    }
    // No zero-duration cycle: a serialized actor's self-edge, P <-> S and
    // S <-> C must each take time.
    const bool zero_cycle = (!concurrent[0] && dur[0] == 0) ||
                            (!concurrent[1] && dur[1] == 0) ||
                            (!concurrent[2] && dur[2] == 0) ||
                            dur[0] + dur[1] == 0 || dur[1] + dur[2] == 0;
    if (zero_cycle) continue;
    const std::int64_t alpha0 = eta + rng.uniform(0, 2 * eta);
    const std::int64_t alpha3 = std::max(eta, chunk) + rng.uniform(0, 8);
    ChunkedChain c = chunked_chain(eta, chunk, dur, concurrent, alpha0, alpha3);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": eta=" +
                 std::to_string(eta) + " chunk=" + std::to_string(chunk) +
                 " dur=" + std::to_string(dur[0]) + "/" +
                 std::to_string(dur[1]) + "/" + std::to_string(dur[2]) +
                 " concurrent=" + std::to_string(concurrent[0]) +
                 std::to_string(concurrent[1]) + std::to_string(concurrent[2]) +
                 " caps=" + std::to_string(alpha0) + "/" +
                 std::to_string(alpha3));

    const SdfThroughput mcm = sdf_throughput_via_mcm(c.g, c.consumer);
    SelfTimedExecutor exec(c.g);
    const ThroughputResult st = exec.analyze_throughput(c.consumer);
    ASSERT_EQ(mcm.deadlocked, st.deadlocked);
    if (!st.deadlocked) {
      EXPECT_EQ(mcm.firings_per_time, st.throughput);
      ++live;
      if (concurrent[2]) ++concurrent_reference;
    }

    // Reuse: the same executor after a capacity change, against a fresh one.
    c.g.set_channel_capacity(c.out, alpha3 + rng.uniform(0, 4));
    const ThroughputResult again = exec.analyze_throughput(c.consumer);
    SelfTimedExecutor fresh(c.g);
    expect_same_analysis(again, fresh.analyze_throughput(c.consumer));
  }
  EXPECT_GT(live, 200);
  EXPECT_GT(concurrent_reference, 100);
}

}  // namespace
}  // namespace acc::df
