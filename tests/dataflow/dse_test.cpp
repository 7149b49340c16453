// Tests for the design-space exploration engine (dataflow/dse.hpp) and the
// thread pool beneath it: memo-cache hit accounting, monotone-pruning
// correctness against the brute-force staircase, and thread-count
// determinism on the PAL decoder stream graphs.
#include "dataflow/dse.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "dataflow/graph.hpp"
#include "sharing/blocksize.hpp"
#include "sharing/sdf_model.hpp"

namespace acc::df {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTaskOnValidWorkerIds) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> sum{0};
  std::atomic<bool> bad_worker{false};
  for (int i = 0; i < 100; ++i)
    pool.submit([&, i](std::size_t w) {
      if (w >= pool.size()) bad_worker = true;
      sum += i;
    });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
  EXPECT_FALSE(bad_worker.load());
}

TEST(ThreadPool, InlineModeExecutesAtSubmit) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int calls = 0;
  pool.submit([&](std::size_t w) {
    EXPECT_EQ(w, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);  // ran inline, before wait_idle
  pool.wait_idle();
}

TEST(ThreadPool, TaskExceptionRethrownFromWaitIdle) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(threads);
    pool.submit([](std::size_t) { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    // The pool stays usable after an exception.
    std::atomic<int> ok{0};
    pool.submit([&](std::size_t) { ++ok; });
    pool.wait_idle();
    EXPECT_EQ(ok.load(), 1);
  }
}

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
/// the graph directly with measure_throughput. Ground truth for pruning
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
      if (measure_throughput(g, reference, opt) >= target) {
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
      if (measure_throughput(g, reference, opt) >= target) {
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
      return measure_throughput(g, reference, opt) >= target;
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

TEST(DseEngine, FingerprintSeparatesStructures) {
  ProducerConsumer pc1 = make_pc(1, 2, 1, 1, 2);
  ProducerConsumer pc2 = make_pc(1, 2, 1, 1, 2);
  ProducerConsumer pc3 = make_pc(1, 3, 1, 1, 2);
  DseEngine e1(pc1.g, {pc1.ch}, pc1.a);
  DseEngine e2(pc2.g, {pc2.ch}, pc2.a);
  DseEngine e3(pc3.g, {pc3.ch}, pc3.a);
  EXPECT_EQ(e1.graph_fingerprint(), e2.graph_fingerprint());
  EXPECT_NE(e1.graph_fingerprint(), e3.graph_fingerprint());
  // Capacity changes must NOT change the fingerprint (they are the memo key,
  // not part of it).
  pc1.g.set_channel_capacity(pc1.ch, 7);
  DseEngine e4(pc1.g, {pc1.ch}, pc1.a);
  EXPECT_EQ(e1.graph_fingerprint(), e4.graph_fingerprint());
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
    const Rational target = max_throughput_with_unbounded_channels(
        g, {ab, bc}, b, opt);
    const MultiBufferResult ref =
        brute_force_minimize(g, {ab, bc}, b, target, opt);
    for (const int jobs : {1, 3}) {
      BufferSizingOptions jopt = opt;
      jopt.jobs = jobs;
      const MultiBufferResult res =
          DseEngine(g, {ab, bc}, b, jopt).minimize_total(target);
      EXPECT_EQ(res.total, ref.total) << "trial=" << trial << " jobs=" << jobs;
      EXPECT_EQ(res.capacities, ref.capacities)
          << "trial=" << trial << " jobs=" << jobs;
    }
  }
}

// ---------------------------------------------------------------- re-timing

TEST(DseEngine, RetimeClearsTheMemoAndMovesTheFingerprint) {
  ProducerConsumer pc = make_pc(1, 2, 1, 1, 4);
  DseEngine engine(pc.g, {pc.ch}, pc.b);
  EXPECT_EQ(engine.throughput({4}), Rational(1, 2));
  engine.retime(pc.b, 4);
  EXPECT_EQ(engine.throughput({4}), Rational(1, 4));  // simulated again
  EXPECT_EQ(engine.stats().simulations, 2);
  EXPECT_EQ(engine.stats().cache_hits, 0);
  pc.g.set_actor_duration(pc.b, 4);
  DseEngine fresh(pc.g, {pc.ch}, pc.b);
  EXPECT_EQ(engine.graph_fingerprint(), fresh.graph_fingerprint());
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
  for (const int jobs : {1, 3}) {
    bopt.jobs = jobs;
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
}

// ------------------------------------------------------------- determinism

/// The Fig. 7 SDF abstraction of a PAL-decoder-shaped stream (shared actor
/// with reconfiguration, chunked down-sampling consumer) — the graphs the
/// Sec. 6 explorations run on, scaled to test size.
sharing::SharedSystemSpec pal_like_small() {
  sharing::SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1, 1};
  sys.chain.entry_cycles_per_sample = 2;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"start", Rational(1, 8), 20}, {"end", Rational(1, 64), 20}};
  return sys;
}

TEST(DseDeterminism, MinimizeTotalIdenticalAcrossThreadCountsOnPalGraphs) {
  const sharing::SharedSystemSpec sys = pal_like_small();
  const sharing::BlockSizeResult blocks =
      sharing::solve_block_sizes_fixpoint(sys);
  ASSERT_TRUE(blocks.feasible);
  for (const std::size_t stream : {std::size_t{0}, std::size_t{1}}) {
    const Time period = stream == 0 ? 8 : 64;
    df::DseStats stats1, stats4;
    const sharing::StreamBufferResult r1 = sharing::min_buffers_for_stream(
        sys, stream, blocks.eta, period, /*consumer_chunk=*/stream == 0 ? 8 : 1,
        /*jobs=*/1, &stats1);
    const sharing::StreamBufferResult r4 = sharing::min_buffers_for_stream(
        sys, stream, blocks.eta, period, /*consumer_chunk=*/stream == 0 ? 8 : 1,
        /*jobs=*/4, &stats4);
    ASSERT_EQ(r1.feasible, r4.feasible);
    EXPECT_EQ(r1.alpha0, r4.alpha0) << "stream=" << stream;
    EXPECT_EQ(r1.alpha3, r4.alpha3) << "stream=" << stream;
    EXPECT_EQ(r1.total(), r4.total());
    EXPECT_GT(stats1.simulations, 0);
    EXPECT_GT(stats4.simulations, 0);
  }
}

TEST(DseDeterminism, MinimizeTotalIdenticalAcrossThreadCountsOnSdfModel) {
  // Drive minimize_total directly on the two-buffer SDF stream model with
  // a chunked consumer (the non-monotone Fig. 8 shape).
  sharing::SdfModelOptions opt;
  opt.eta = 6;
  opt.shared_duration = 17;
  opt.producer_period = 3;
  opt.consumer_period = 12;
  opt.consumer_chunk = 4;
  opt.alpha0 = 40;
  opt.alpha3 = 40;
  sharing::SdfStreamModel model = sharing::build_sdf_stream_model(opt);
  const Rational target(1, 12);
  BufferSizingOptions bopt;
  bopt.max_capacity = 40;

  const auto minimize = [&](int jobs) {
    bopt.jobs = jobs;
    return DseEngine(model.graph, {model.input_buffer, model.output_buffer},
                     model.consumer, bopt)
        .minimize_total(target);
  };
  const MultiBufferResult r1 = minimize(1);
  for (const int jobs : {2, 4, 8}) {
    const MultiBufferResult rn = minimize(jobs);
    EXPECT_EQ(rn.total, r1.total) << "jobs=" << jobs;
    EXPECT_EQ(rn.capacities, r1.capacities) << "jobs=" << jobs;
  }
}

TEST(DseDeterminism, ParetoSweepIdenticalAcrossThreadCounts) {
  ProducerConsumer pc = make_pc(2, 3, 2, 3, 3);
  BufferSizingOptions o1;
  const std::vector<ParetoPoint> p1 = pareto_buffer_sweep(pc.g, pc.ch, pc.b, o1);
  BufferSizingOptions o4;
  o4.jobs = 4;
  const std::vector<ParetoPoint> p4 = pareto_buffer_sweep(pc.g, pc.ch, pc.b, o4);
  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].capacity, p4[i].capacity);
    EXPECT_EQ(p1[i].throughput, p4[i].throughput);
  }
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
