#include "../support/hsdf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "dataflow/buffer_sizing.hpp"
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

/// A chunked chain drawn as HsdfProperty draws them, with up to
/// `alpha0_spread` * eta spare input slots; nullopt for a draw with a
/// zero-duration cycle (a serialized actor's self-edge, P <-> S or S <-> C
/// taking no time). `concurrent_reference` reports whether C overlaps.
std::optional<ChunkedChain> random_chunked_chain(SplitMix64& rng,
                                                 std::int64_t alpha0_spread,
                                                 std::string& desc,
                                                 bool& concurrent_reference) {
  const std::int64_t eta = rng.uniform(1, 6);
  const std::int64_t chunk = rng.uniform(1, 6);
  Time dur[3];
  bool concurrent[3];
  for (int i = 0; i < 3; ++i) {
    dur[i] = rng.uniform(0, 20);
    concurrent[i] = rng.chance(0.5);
  }
  const bool zero_cycle = (!concurrent[0] && dur[0] == 0) ||
                          (!concurrent[1] && dur[1] == 0) ||
                          (!concurrent[2] && dur[2] == 0) ||
                          dur[0] + dur[1] == 0 || dur[1] + dur[2] == 0;
  if (zero_cycle) return std::nullopt;
  const std::int64_t alpha0 = eta + rng.uniform(0, alpha0_spread * eta);
  const std::int64_t alpha3 = std::max(eta, chunk) + rng.uniform(0, 8);
  desc = "eta=" + std::to_string(eta) + " chunk=" + std::to_string(chunk) +
         " dur=" + std::to_string(dur[0]) + "/" + std::to_string(dur[1]) +
         "/" + std::to_string(dur[2]) +
         " concurrent=" + std::to_string(concurrent[0]) +
         std::to_string(concurrent[1]) + std::to_string(concurrent[2]) +
         " caps=" + std::to_string(alpha0) + "/" + std::to_string(alpha3);
  concurrent_reference = concurrent[2];
  return chunked_chain(eta, chunk, dur, concurrent, alpha0, alpha3);
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
    std::string desc;
    bool concurrent_c = false;
    std::optional<ChunkedChain> drawn =
        random_chunked_chain(rng, 2, desc, concurrent_c);
    if (!drawn) continue;
    ChunkedChain& c = *drawn;
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + desc);

    const SdfThroughput mcm = sdf_throughput_via_mcm(c.g, c.consumer);
    SelfTimedExecutor exec(c.g);
    const ThroughputResult st = exec.analyze_throughput(c.consumer);
    ASSERT_EQ(mcm.deadlocked, st.deadlocked);
    if (!st.deadlocked) {
      EXPECT_EQ(mcm.firings_per_time, st.throughput);
      ++live;
      if (concurrent_c) ++concurrent_reference;
    }

    // Reuse: the same executor after a capacity change, against a fresh one.
    c.g.set_channel_capacity(c.out,
                             c.g.channel_capacity(c.out) + rng.uniform(0, 4));
    const ThroughputResult again = exec.analyze_throughput(c.consumer);
    SelfTimedExecutor fresh(c.g);
    expect_same_analysis(again, fresh.analyze_throughput(c.consumer));
  }
  EXPECT_GT(live, 200);
  EXPECT_GT(concurrent_reference, 100);
}

// Property: the drift replay changes no answer. On chunked chains whose
// input buffer has room to fill over many iterations, an executor answers
// as it does with an observer installed, which turns the replay off.
TEST(HsdfProperty, DriftReplayMatchesRunWithoutJumpsOnChunkedChains) {
  SplitMix64 rng(0xF111);
  int jumped = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string desc;
    bool concurrent_c = false;
    std::optional<ChunkedChain> c =
        random_chunked_chain(rng, 40, desc, concurrent_c);
    if (!c) continue;
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + desc);
    SelfTimedExecutor exec(c->g);
    const ThroughputResult replayed = exec.analyze_throughput(c->consumer);
    exec.set_observers({[](ActorId, std::int32_t, Time, Time) {}, {}});
    const ThroughputResult plain = exec.analyze_throughput(c->consumer);
    EXPECT_EQ(plain.replayed_iterations, 0);
    EXPECT_EQ(replayed.deadlocked, plain.deadlocked);
    EXPECT_EQ(replayed.throughput, plain.throughput);
    EXPECT_EQ(replayed.period, plain.period);
    EXPECT_EQ(replayed.firings_in_period, plain.firings_in_period);
    if (replayed.replayed_iterations > 0) ++jumped;
  }
  EXPECT_GT(jumped, 10);
}

// A Fig. 7 chain whose input buffer is wide open and whose output buffer is
// one slot below the minimum for full rate: P outruns S, so the input
// buffer fills by a fixed count per window for hundreds of iterations. The
// executor jumps them, and still agrees with the MCM oracle.
TEST(Hsdf, DriftingChainJumpsAndMatchesMcm) {
  ChunkedChain c =
      chunked_chain(4, 2, {2, 5, 3}, {false, false, false}, 400, 64);
  const Rational full = measure_throughput(c.g, c.consumer);
  EXPECT_EQ(full, Rational(1, 4));
  BufferSizingOptions opt;
  DseStats stats;
  opt.stats = &stats;
  EXPECT_EQ(min_channel_capacity_for_throughput(c.g, c.out, c.consumer, full,
                                                opt),
            6);
  EXPECT_GT(stats.replayed_iterations, 0);

  c.g.set_channel_capacity(c.out, 5);
  SelfTimedExecutor exec(c.g);
  const ThroughputResult st = exec.analyze_throughput(c.consumer);
  const SdfThroughput mcm = sdf_throughput_via_mcm(c.g, c.consumer);
  ASSERT_FALSE(mcm.deadlocked);
  ASSERT_FALSE(st.deadlocked);
  EXPECT_EQ(st.throughput, mcm.firings_per_time);
  EXPECT_EQ(st.throughput, Rational(2, 11));
  EXPECT_GT(st.replayed_iterations, 200);
  EXPECT_LT(st.replayed_iterations, st.transient_iterations);
}

// Found by seeded search over chunked chains: a buffer fills at a steady
// drift into the periodic regime, so a boundary after the jump repeats one
// recorded before it. A nearer repeat may lie among the jumped
// boundaries, so the analysis is answered without jumps. Taking the repeat
// as found would detect the period one iteration late, at time 266.
TEST(Hsdf, RepeatOfABoundaryBeforeAJumpIsAnsweredWithoutJumps) {
  ChunkedChain c =
      chunked_chain(1, 5, {18, 8, 3}, {true, true, false}, 11, 14);
  SelfTimedExecutor exec(c.g);
  const ThroughputResult replayed = exec.analyze_throughput(c.consumer);
  const Time replayed_end = exec.now();
  EXPECT_EQ(replayed.replayed_iterations, 0);
  EXPECT_EQ(replayed.transient_iterations, 20);
  EXPECT_EQ(replayed_end, 263);
  exec.set_observers({[](ActorId, std::int32_t, Time, Time) {}, {}});
  expect_same_analysis(replayed, exec.analyze_throughput(c.consumer));
  EXPECT_EQ(exec.now(), replayed_end);
}

}  // namespace
}  // namespace acc::df
