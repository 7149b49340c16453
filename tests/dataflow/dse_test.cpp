// Tests for the design-space exploration engine (dataflow/dse.hpp):
// memo-cache hit accounting, monotone-pruning correctness against the
// brute-force staircase, one engine answering a mix of queries and targets,
// and re-timing against fresh engines.
#include "dataflow/dse.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "../support/throughput.hpp"
#include "common/rng.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "dataflow/graph.hpp"
#include "sharing/sdf_model.hpp"

namespace acc::df {
namespace {

// ---------------------------------------------------------------- fixtures

struct ProducerConsumer {
  Graph g;
  ActorId a;
  ActorId b;
  Channel ch;
};

ProducerConsumer make_pc(Time da, Time db, std::int64_t p, std::int64_t c,
                         std::int64_t cap) {
  ProducerConsumer pc;
  pc.a = pc.g.add_sdf_actor("A", da);
  pc.b = pc.g.add_sdf_actor("B", db);
  pc.ch = pc.g.add_channel(pc.a, pc.b, {p}, {c}, cap);
  return pc;
}

/// Reference implementation: the pre-engine serial staircase DFS, probing
/// the graph directly with reference_throughput. Ground truth for pruning
/// correctness.
MultiBufferResult brute_force_minimize(Graph& g,
                                       const std::vector<Channel>& channels,
                                       ActorId reference,
                                       const Rational& target,
                                       const BufferSizingOptions& opt) {
  const std::size_t k = channels.size();
  std::vector<std::int64_t> saved;
  for (const Channel& ch : channels) saved.push_back(g.channel_capacity(ch));

  std::vector<std::int64_t> lower(k), upper(k);
  for (const Channel& ch : channels)
    g.set_channel_capacity(ch, opt.max_capacity);
  for (std::size_t i = 0; i < k; ++i) {
    // Single-channel exact minimum by linear scan (small graphs only).
    for (std::int64_t c = channel_capacity_lower_bound(g, channels[i]);; ++c) {
      ACC_CHECK(c <= opt.max_capacity);
      g.set_channel_capacity(channels[i], c);
      if (reference_throughput(g, reference) >= target) {
        lower[i] = c;
        break;
      }
    }
    g.set_channel_capacity(channels[i], opt.max_capacity);
  }
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j)
      g.set_channel_capacity(channels[j], j == i ? opt.max_capacity : lower[j]);
    for (std::int64_t c = channel_capacity_lower_bound(g, channels[i]);; ++c) {
      ACC_CHECK(c <= opt.max_capacity);
      g.set_channel_capacity(channels[i], c);
      if (reference_throughput(g, reference) >= target) {
        upper[i] = c;
        break;
      }
    }
  }

  const std::int64_t base_total =
      std::accumulate(lower.begin(), lower.end(), std::int64_t{0});
  const std::int64_t max_total =
      std::accumulate(upper.begin(), upper.end(), std::int64_t{0});
  std::vector<std::int64_t> caps(k);
  MultiBufferResult best;
  std::function<bool(std::size_t, std::int64_t)> dfs =
      [&](std::size_t idx, std::int64_t slack) -> bool {
    if (idx + 1 == k) {
      if (lower[idx] + slack > upper[idx]) return false;
      caps[idx] = lower[idx] + slack;
      for (std::size_t j = 0; j < k; ++j)
        g.set_channel_capacity(channels[j], caps[j]);
      return reference_throughput(g, reference) >= target;
    }
    for (std::int64_t extra = 0; extra <= slack; ++extra) {
      if (lower[idx] + extra > upper[idx]) break;
      caps[idx] = lower[idx] + extra;
      if (dfs(idx + 1, slack - extra)) return true;
    }
    return false;
  };
  for (std::int64_t total = base_total; total <= max_total; ++total) {
    if (dfs(0, total - base_total)) {
      best.capacities = caps;
      best.total = total;
      break;
    }
  }
  for (std::size_t i = 0; i < k; ++i)
    g.set_channel_capacity(channels[i], saved[i]);
  ACC_CHECK(!best.capacities.empty());
  return best;
}

// ---------------------------------------------------------------- memo cache

TEST(DseEngine, MemoCacheCountsHitsAndMisses) {
  ProducerConsumer pc = make_pc(1, 1, 1, 1, 2);
  DseEngine engine(pc.g, {pc.ch}, pc.a);
  const Rational t1 = engine.throughput({2});
  const Rational t2 = engine.throughput({2});
  EXPECT_EQ(t1, t2);
  const DseStats s = engine.stats();
  EXPECT_EQ(s.simulations, 1);
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_GT(s.cache_hit_rate(), 0.0);
}

TEST(DseEngine, MemoCacheSharedAcrossSearchPhases) {
  // The saturation doubling probes and the min-capacity binary search hit
  // overlapping capacity vectors — the shared memo must convert the overlap
  // into hits.
  ProducerConsumer pc = make_pc(1, 1, 2, 3, 3);
  DseEngine engine(pc.g, {pc.ch}, pc.b);
  const Rational best = engine.max_throughput_unbounded();
  (void)engine.min_capacity_for(0, engine.snapshot_capacities(), best);
  EXPECT_GT(engine.stats().cache_hits, 0);
}

// ---------------------------------------------------------------- pruning

TEST(DseEngine, MonotonePruningOnComparableChain) {
  // One channel: capacity vectors form a chain, so every query after the
  // first two is decidable from the frontier alone.
  ProducerConsumer pc = make_pc(1, 1, 1, 1, 1);
  DseEngine engine(pc.g, {pc.ch}, pc.a);
  const Rational target(1);
  EXPECT_FALSE(engine.feasible({1}, target));  // simulated
  EXPECT_TRUE(engine.feasible({2}, target));   // simulated
  EXPECT_TRUE(engine.feasible({5}, target));   // >= feasible 2: pruned
  const DseStats s = engine.stats();
  EXPECT_EQ(s.simulations, 2);
  EXPECT_EQ(s.pruned_feasible, 1);
  EXPECT_EQ(s.pruned_infeasible, 0);
}

TEST(DseEngine, PruningNeverChangesAnswers) {
  // Pruned feasibility answers must equal fresh simulation on a second
  // engine with a cold cache.
  SplitMix64 rng(0xDE5E);
  for (int trial = 0; trial < 10; ++trial) {
    ProducerConsumer pc =
        make_pc(rng.uniform(1, 3), rng.uniform(1, 3), rng.uniform(1, 2),
                rng.uniform(1, 2), 1);
    DseEngine warm(pc.g, {pc.ch}, pc.a);
    const Rational target(1, rng.uniform(1, 3));
    // Warm the frontier from both sides, then query the whole range.
    (void)warm.feasible({1}, target);
    (void)warm.feasible({6}, target);
    for (std::int64_t c = 1; c <= 6; ++c) {
      DseEngine cold(pc.g, {pc.ch}, pc.a);
      EXPECT_EQ(warm.feasible({c}, target), cold.feasible({c}, target))
          << "cap=" << c;
    }
  }
}

TEST(DseEngine, MinimizeMatchesBruteForceOnSmallGraphs) {
  SplitMix64 rng(0xACC);
  for (int trial = 0; trial < 8; ++trial) {
    Graph g;
    const ActorId a = g.add_sdf_actor("A", rng.uniform(1, 3));
    const ActorId b = g.add_sdf_actor("B", rng.uniform(1, 4));
    const ActorId c = g.add_sdf_actor("C", rng.uniform(1, 3));
    const Channel ab = g.add_channel(a, b, {rng.uniform(1, 2)}, {1}, 2);
    const Channel bc = g.add_channel(b, c, {1}, {rng.uniform(1, 2)}, 2);
    BufferSizingOptions opt;
    opt.max_capacity = 64;
    const Rational target =
        DseEngine(g, {ab, bc}, b, opt).max_throughput_unbounded();
    const MultiBufferResult ref =
        brute_force_minimize(g, {ab, bc}, b, target, opt);
    const MultiBufferResult res =
        DseEngine(g, {ab, bc}, b, opt).minimize_total(target);
    EXPECT_EQ(res.total, ref.total) << "trial=" << trial;
    EXPECT_EQ(res.capacities, ref.capacities) << "trial=" << trial;
  }
}

// One engine reuses its snapshot, executor, memo and frontier across every
// query; switching queries and targets must leave each answer as a fresh
// engine gives it, on the Fig. 7 model with a chunked consumer.
TEST(DseEngine, OneEngineAnswersMixedQueriesLikeFreshEngines) {
  sharing::SdfModelOptions opt;
  opt.eta = 6;
  opt.producer_period = 3;
  opt.consumer_period = 12;
  opt.consumer_chunk = 4;
  opt.alpha0 = 40;
  opt.alpha3 = 40;
  opt.shared_duration = 14;
  const sharing::SdfStreamModel model = sharing::build_sdf_stream_model(opt);
  const std::vector<Channel> channels = {model.input_buffer,
                                         model.output_buffer};
  BufferSizingOptions bopt;
  bopt.max_capacity = 40;
  const auto fresh = [&] {
    return std::make_unique<DseEngine>(model.graph, channels, model.consumer,
                                       bopt);
  };
  DseEngine engine(model.graph, channels, model.consumer, bopt);

  const Rational fast(1, 12);
  const Rational slow(1, 24);
  const MultiBufferResult first = engine.minimize_total(fast);
  EXPECT_EQ(first.capacities, fresh()->minimize_total(fast).capacities);

  const std::vector<ParetoPoint> sweep = engine.pareto_sweep(1);
  const std::vector<ParetoPoint> fresh_sweep = fresh()->pareto_sweep(1);
  ASSERT_EQ(sweep.size(), fresh_sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].capacity, fresh_sweep[i].capacity) << "i=" << i;
    EXPECT_EQ(sweep[i].throughput, fresh_sweep[i].throughput) << "i=" << i;
  }

  const MultiBufferResult relaxed = engine.minimize_total(slow);
  EXPECT_EQ(relaxed.capacities, fresh()->minimize_total(slow).capacities);
  EXPECT_LE(relaxed.total, first.total);

  // Back to the first target: the frontier built for `slow` must not
  // answer for it.
  const std::vector<std::int64_t> caps = {40, first.capacities[1]};
  EXPECT_EQ(engine.min_capacity_for(0, caps, fast),
            fresh()->min_capacity_for(0, caps, fast));
  for (std::int64_t c = 1; c <= 12; ++c) {
    const std::vector<std::int64_t> probe = {c, first.capacities[1]};
    EXPECT_EQ(engine.feasible(probe, fast), fresh()->feasible(probe, fast))
        << "c=" << c;
    EXPECT_EQ(engine.throughput(probe), fresh()->throughput(probe))
        << "c=" << c;
  }
  EXPECT_GT(engine.stats().cache_hits, 0);
}

// ---------------------------------------------------------------- re-timing

TEST(DseEngine, RetimeClearsTheMemo) {
  ProducerConsumer pc = make_pc(1, 2, 1, 1, 4);
  DseEngine engine(pc.g, {pc.ch}, pc.b);
  EXPECT_EQ(engine.throughput({4}), Rational(1, 2));
  engine.retime(pc.b, 4);
  EXPECT_EQ(engine.throughput({4}), Rational(1, 4));  // simulated again
  EXPECT_EQ(engine.stats().simulations, 2);
  EXPECT_EQ(engine.stats().cache_hits, 0);
  // The duration coordinate belongs to one actor.
  EXPECT_THROW(engine.retime(pc.a, 3), precondition_error);
}

TEST(DseEngine, RetimeKeepsFrontierPointsOfOtherDurations) {
  // B of duration d: capacity 1 serializes A and B (rate 1/(1 + d)),
  // capacity 2 lets them overlap (rate 1/d).
  ProducerConsumer pc = make_pc(1, 2, 1, 1, 2);
  DseEngine engine(pc.g, {pc.ch}, pc.b);
  const Rational target(1, 2);
  EXPECT_FALSE(engine.feasible({1}, target));  // 1/3, simulated
  EXPECT_TRUE(engine.feasible({2}, target));   // 1/2, simulated
  engine.retime(pc.b, 3);
  // Infeasible at d = 2 stays infeasible at d = 3: pruned.
  EXPECT_FALSE(engine.feasible({1}, target));
  EXPECT_EQ(engine.stats().pruned_infeasible, 1);
  EXPECT_FALSE(engine.feasible({2}, target));  // 1/3, simulated
  engine.retime(pc.b, 1);
  // Feasible at d = 2 stays feasible at d = 1: pruned.
  EXPECT_TRUE(engine.feasible({3}, target));
  EXPECT_EQ(engine.stats().pruned_feasible, 1);
  EXPECT_EQ(engine.stats().simulations, 3);
}

// One engine re-timed across durations answers each minimize_total as a
// fresh engine at that duration does, on the Fig. 7 model with a chunked
// consumer, with fewer simulations in total.
TEST(DseEngine, RetimedMinimizeMatchesFreshEngines) {
  sharing::SdfModelOptions opt;
  opt.eta = 6;
  opt.producer_period = 3;
  opt.consumer_period = 12;
  opt.consumer_chunk = 4;
  opt.alpha0 = 40;
  opt.alpha3 = 40;
  opt.shared_duration = 10;
  sharing::SdfStreamModel model = sharing::build_sdf_stream_model(opt);
  const Rational target(1, 12);
  BufferSizingOptions bopt;
  bopt.max_capacity = 40;
  DseEngine engine(model.graph, {model.input_buffer, model.output_buffer},
                   model.consumer, bopt);
  DseStats fresh_stats;
  // The shared actor keeps up with one sample per 3 cycles up to d = 18.
  for (const Time d : {10, 18, 14, 12, 16, 11, 13, 15, 17}) {
    engine.retime(model.shared, d);
    model.graph.set_actor_duration(model.shared, d);
    DseEngine fresh(model.graph, {model.input_buffer, model.output_buffer},
                    model.consumer, bopt);
    const MultiBufferResult got = engine.minimize_total(target);
    const MultiBufferResult want = fresh.minimize_total(target);
    EXPECT_EQ(got.capacities, want.capacities) << "d=" << d;
    EXPECT_EQ(got.total, want.total) << "d=" << d;
    fresh_stats += fresh.stats();
  }
  EXPECT_LT(engine.stats().simulations, fresh_stats.simulations);
  EXPECT_GT(engine.stats().pruned(), fresh_stats.pruned());
}

// ------------------------------------------------------------ executor path

TEST(DseEngine, AssumeValidatedExecutorMatchesValidatingOne) {
  ProducerConsumer pc = make_pc(2, 3, 2, 3, 6);
  SelfTimedExecutor checked(pc.g);
  SelfTimedExecutor unchecked(pc.g, assume_validated);
  const ThroughputResult a = checked.analyze_throughput(pc.b);
  const ThroughputResult b = unchecked.analyze_throughput(pc.b);
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.firings_in_period, b.firings_in_period);
}

}  // namespace
}  // namespace acc::df
