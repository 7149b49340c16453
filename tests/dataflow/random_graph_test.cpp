// Cross-validation fuzzing: on random multi-actor SDF graphs, the
// self-timed executor and the HSDF/max-cycle-ratio analysis must agree on
// throughput, and buffer monotonicity must hold across the whole graph.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/repetition.hpp"
#include "../support/hsdf.hpp"
#include "../support/throughput.hpp"

namespace acc::df {
namespace {

struct RandomPipeline {
  Graph g;
  std::vector<ActorId> actors;
  std::vector<Channel> channels;
};

/// Random linear pipeline with bounded channels of up to `slack` spare
/// slots (always consistent; live when capacities fit the rates).
RandomPipeline make_pipeline(SplitMix64& rng, int stages,
                             std::int64_t slack = 4) {
  RandomPipeline p;
  for (int i = 0; i < stages; ++i)
    p.actors.push_back(
        p.g.add_sdf_actor("a" + std::to_string(i), rng.uniform(1, 5)));
  for (int i = 0; i + 1 < stages; ++i) {
    const std::int64_t prod = rng.uniform(1, 3);
    const std::int64_t cons = rng.uniform(1, 3);
    const std::int64_t cap = prod + cons + rng.uniform(0, slack);
    p.channels.push_back(
        p.g.add_channel(p.actors[i], p.actors[i + 1], {prod}, {cons}, cap));
  }
  return p;
}

/// The same with CSDF actors of 1-3 phases, whose quanta may be zero in
/// every phase but the first.
RandomPipeline make_csdf_pipeline(SplitMix64& rng, int stages,
                                  std::int64_t slack) {
  RandomPipeline p;
  for (int i = 0; i < stages; ++i) {
    std::vector<Time> durations(static_cast<std::size_t>(rng.uniform(1, 3)));
    for (Time& d : durations) d = rng.uniform(1, 9);
    p.actors.push_back(p.g.add_actor("a" + std::to_string(i), durations));
  }
  const auto quanta = [&](ActorId a) {
    std::vector<std::int64_t> q(p.g.actor(a).phases());
    for (std::size_t k = 0; k < q.size(); ++k)
      q[k] = rng.uniform(k == 0 ? 1 : 0, 4);
    return q;
  };
  for (int i = 0; i + 1 < stages; ++i) {
    std::vector<std::int64_t> prod = quanta(p.actors[i]);
    std::vector<std::int64_t> cons = quanta(p.actors[i + 1]);
    const std::int64_t cap =
        std::max(*std::max_element(prod.begin(), prod.end()),
                 *std::max_element(cons.begin(), cons.end())) +
        rng.uniform(0, slack);
    p.channels.push_back(p.g.add_channel(p.actors[i], p.actors[i + 1],
                                         std::move(prod), std::move(cons),
                                         cap));
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

// Property: the drift replay changes no answer. On random SDF and CSDF
// pipelines with room for buffers to fill, an executor answers as it does
// with an observer installed, which turns the replay off.
TEST(RandomGraph, DriftReplayMatchesRunWithoutJumps) {
  SplitMix64 rng(0xD21F7);
  int jumped = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int stages = static_cast<int>(rng.uniform(2, 4));
    RandomPipeline p = trial % 2 == 0 ? make_pipeline(rng, stages, 40)
                                      : make_csdf_pipeline(rng, stages, 40);
    const ActorId last = p.actors.back();
    SelfTimedExecutor exec(p.g);
    const ThroughputResult replayed = exec.analyze_throughput(last);
    exec.set_observers({[](ActorId, std::int32_t, Time, Time) {}, {}});
    const ThroughputResult plain = exec.analyze_throughput(last);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(plain.replayed_iterations, 0);
    EXPECT_EQ(replayed.deadlocked, plain.deadlocked);
    EXPECT_EQ(replayed.throughput, plain.throughput);
    EXPECT_EQ(replayed.period, plain.period);
    EXPECT_EQ(replayed.firings_in_period, plain.firings_in_period);
    if (replayed.replayed_iterations > 0) ++jumped;
  }
  EXPECT_GT(jumped, 40);
}

// Found by seeded search over pipelines: an actor waits for input that
// fills by a fixed count per window, so its failing check bounds the jump
// to 3 iterations. Without that bound the executor jumps 4, lands on a
// state the run never reaches and detects the period one iteration late,
// at time 515 instead of 491 (throughput and period happen to agree).
TEST(RandomGraph, FailingCheckBoundsTheJump) {
  Graph g;
  const ActorId a0 = g.add_sdf_actor("a0", 2);
  const ActorId a1 = g.add_sdf_actor("a1", 6);
  const ActorId a2 = g.add_sdf_actor("a2", 3);
  const ActorId a3 = g.add_sdf_actor("a3", 3);
  g.add_channel(a0, a1, {3}, {1}, 34);
  g.add_channel(a1, a2, {4}, {3}, 30);
  g.add_channel(a2, a3, {2}, {1}, 38);
  SelfTimedExecutor exec(g);
  const ThroughputResult replayed = exec.analyze_throughput(a3);
  const Time replayed_end = exec.now();
  EXPECT_EQ(replayed.replayed_iterations, 3);
  exec.set_observers({[](ActorId, std::int32_t, Time, Time) {}, {}});
  const ThroughputResult plain = exec.analyze_throughput(a3);
  EXPECT_EQ(replayed.throughput, plain.throughput);
  EXPECT_EQ(replayed.period, plain.period);
  EXPECT_EQ(replayed.firings_in_period, plain.firings_in_period);
  EXPECT_EQ(replayed.transient_iterations, plain.transient_iterations);
  EXPECT_EQ(replayed_end, 491);
  EXPECT_EQ(exec.now(), 491);
}

// Property: the periodic regime analyze_throughput reports is the one the
// executor runs into. Past the transient, the reference actor's completion
// times repeat with the reported period every firings_in_period firings.
TEST(RandomGraph, FiringsRepeatWithTheAnalyzedPeriod) {
  SplitMix64 rng(0xC1C11C);
  int checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int stages = static_cast<int>(rng.uniform(2, 4));
    RandomPipeline p = trial % 2 == 0 ? make_pipeline(rng, stages, 12)
                                      : make_csdf_pipeline(rng, stages, 12);
    const ActorId last = p.actors.back();
    SelfTimedExecutor exec(p.g);
    const ThroughputResult r = exec.analyze_throughput(last);
    if (r.deadlocked) continue;
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_GT(r.firings_in_period, 0);
    EXPECT_EQ(r.throughput, Rational(r.firings_in_period, r.period));
    const std::int64_t per_iteration =
        compute_repetition_vector(p.g).firings[last];
    const std::int64_t settled = (r.transient_iterations + 1) * per_iteration;
    const std::int64_t k = r.firings_in_period;
    const std::int64_t total = settled + 3 * k;
    if (total > 200000) continue;

    std::vector<Time> ends;
    ExecObservers obs;
    obs.on_firing = [&](ActorId a, std::int32_t, Time, Time end) {
      if (a == last) ends.push_back(end);
    };
    exec.reset();
    exec.set_observers(obs);
    ASSERT_TRUE(exec.run_until_firings(last, total).has_value());
    ASSERT_GE(static_cast<std::int64_t>(ends.size()), total);
    const auto step = static_cast<std::size_t>(k);
    for (auto j = static_cast<std::size_t>(settled);
         j + step < static_cast<std::size_t>(total); ++j) {
      ASSERT_EQ(ends[j + step] - ends[j], r.period) << "firing " << j;
    }
    ++checked;
  }
  EXPECT_GT(checked, 60);
}

TEST(RandomGraph, ThroughputMonotoneWhenAnyChannelGrows) {
  SplitMix64 rng(0x90A7);
  for (int trial = 0; trial < 30; ++trial) {
    RandomPipeline p = make_pipeline(rng, 3);
    const ActorId last = p.actors.back();
    const Rational base = reference_throughput(p.g, last);
    for (const Channel& ch : p.channels) {
      const std::int64_t cap = p.g.channel_capacity(ch);
      p.g.set_channel_capacity(ch, cap + rng.uniform(1, 4));
      EXPECT_GE(reference_throughput(p.g, last), base) << "trial " << trial;
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
