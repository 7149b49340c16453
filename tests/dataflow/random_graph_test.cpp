// Cross-validation fuzzing: on random multi-actor SDF graphs, the
// self-timed executor and the HSDF/max-cycle-ratio analysis must agree on
// throughput, and buffer monotonicity must hold across the whole graph.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "dataflow/executor.hpp"
#include "../support/hsdf.hpp"

namespace acc::df {
namespace {

struct RandomPipeline {
  Graph g;
  std::vector<ActorId> actors;
  std::vector<Channel> channels;
};

/// Random linear pipeline with bounded channels (always consistent; live
/// when capacities fit the rates).
RandomPipeline make_pipeline(SplitMix64& rng, int stages) {
  RandomPipeline p;
  for (int i = 0; i < stages; ++i)
    p.actors.push_back(
        p.g.add_sdf_actor("a" + std::to_string(i), rng.uniform(1, 5)));
  for (int i = 0; i + 1 < stages; ++i) {
    const std::int64_t prod = rng.uniform(1, 3);
    const std::int64_t cons = rng.uniform(1, 3);
    const std::int64_t cap = prod + cons + rng.uniform(0, 4);
    p.channels.push_back(
        p.g.add_channel(p.actors[i], p.actors[i + 1], {prod}, {cons}, cap));
  }
  return p;
}

TEST(RandomGraph, ExecutorAgreesWithHsdfMcmOnPipelines) {
  SplitMix64 rng(0xFA57);
  int live = 0;
  for (int trial = 0; trial < 80; ++trial) {
    RandomPipeline p = make_pipeline(rng, static_cast<int>(rng.uniform(2, 5)));
    const ActorId last = p.actors.back();
    const SdfThroughput mcm = sdf_throughput_via_mcm(p.g, last);
    SelfTimedExecutor exec(p.g);
    const ThroughputResult st = exec.analyze_throughput(last);
    ASSERT_EQ(mcm.deadlocked, st.deadlocked) << "trial " << trial;
    if (st.deadlocked) continue;
    EXPECT_EQ(mcm.firings_per_time, st.throughput) << "trial " << trial;
    ++live;
  }
  EXPECT_GT(live, 40);
}

TEST(RandomGraph, ThroughputMonotoneWhenAnyChannelGrows) {
  SplitMix64 rng(0x90A7);
  for (int trial = 0; trial < 30; ++trial) {
    RandomPipeline p = make_pipeline(rng, 3);
    const ActorId last = p.actors.back();
    const Rational base = measure_throughput(p.g, last);
    for (const Channel& ch : p.channels) {
      const std::int64_t cap = p.g.channel_capacity(ch);
      p.g.set_channel_capacity(ch, cap + rng.uniform(1, 4));
      EXPECT_GE(measure_throughput(p.g, last), base) << "trial " << trial;
      p.g.set_channel_capacity(ch, cap);
    }
  }
}

TEST(RandomGraph, IterationReturnsTokensToInitialState) {
  // After r[a] firings of every actor, token counts equal initial counts —
  // the defining property of a consistent graph iteration.
  SplitMix64 rng(0x17E2);
  for (int trial = 0; trial < 50; ++trial) {
    RandomPipeline p = make_pipeline(rng, static_cast<int>(rng.uniform(2, 5)));
    const RepetitionVector rv = compute_repetition_vector(p.g);
    ASSERT_TRUE(rv.consistent);
    SelfTimedExecutor exec(p.g);
    // Run exactly one iteration by stepping the LAST actor to its count and
    // confirming the others also completed a multiple (self-timed runs may
    // overlap iterations, so check conservation instead of equality).
    if (!exec.run_until_firings(p.actors.back(), rv.firings[p.actors.back()])
             .has_value())
      continue;  // structurally deadlocked instance
    for (std::size_t e = 0; e < p.g.num_edges(); ++e) {
      const Edge& edge = p.g.edge(static_cast<EdgeId>(e));
      const std::int64_t produced =
          exec.completed_firings(edge.src) * edge.prod[0];
      // In-flight firings consumed tokens but have not produced yet; infer
      // consumption from starts = completions + in-flight.
      const std::int64_t tokens = exec.tokens(static_cast<EdgeId>(e));
      EXPECT_LE(tokens, edge.initial_tokens + produced);
      EXPECT_GE(tokens, 0);
    }
  }
}

}  // namespace
}  // namespace acc::df
