#include "dataflow/buffer_sizing.hpp"

#include <gtest/gtest.h>

#include "../support/throughput.hpp"
#include "common/rng.hpp"
#include "dataflow/dse.hpp"
#include "dataflow/graph.hpp"

namespace acc::df {
namespace {

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

TEST(BufferSizing, LowerBoundCoversRatesAndFill) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 1);
  const Channel ch = g.add_channel(a, b, {3}, {5}, 8, 2);
  EXPECT_EQ(channel_capacity_lower_bound(g, ch), 5);
}

TEST(BufferSizing, DoubleBufferingForUnitRates) {
  // Classic result: rate-1 pipeline of equal-speed actors needs capacity 2
  // to reach full throughput.
  ProducerConsumer pc = make_pc(1, 1, 1, 1, 1);
  const std::int64_t cap = min_channel_capacity_for_throughput(
      pc.g, pc.ch, pc.a, Rational(1));
  EXPECT_EQ(cap, 2);
  // The search must not leave the graph reconfigured.
  EXPECT_EQ(pc.g.channel_capacity(pc.ch), 1);
}

TEST(BufferSizing, SlowerConsumerNeedsOnlySingleSlotForItsRate) {
  // B takes 2 time units: max rate of A is 1/2; a single slot suffices for
  // 1/3 but capacity 2 is needed for 1/2.
  ProducerConsumer pc = make_pc(1, 2, 1, 1, 1);
  EXPECT_EQ(min_channel_capacity_for_throughput(pc.g, pc.ch, pc.a,
                                                Rational(1, 3)),
            1);
  EXPECT_EQ(min_channel_capacity_for_throughput(pc.g, pc.ch, pc.a,
                                                Rational(1, 2)),
            2);
}

TEST(BufferSizing, UnreachableTargetThrows) {
  ProducerConsumer pc = make_pc(2, 1, 1, 1, 1);
  BufferSizingOptions opt;
  opt.max_capacity = 64;
  // A alone caps the rate at 1/2; demanding 1 must fail at any capacity.
  EXPECT_THROW((void)min_channel_capacity_for_throughput(pc.g, pc.ch, pc.a,
                                                         Rational(1), opt),
               invariant_error);
}

// A search that ends in "unreachable" has simulated on its way there; its
// counters reach opt.stats all the same.
TEST(BufferSizing, UnreachableTargetStillCountsItsSimulations) {
  ProducerConsumer pc = make_pc(2, 1, 1, 1, 1);
  DseStats stats;
  BufferSizingOptions opt;
  opt.max_capacity = 64;
  opt.stats = &stats;
  EXPECT_THROW((void)min_channel_capacity_for_throughput(pc.g, pc.ch, pc.a,
                                                         Rational(1), opt),
               invariant_error);
  EXPECT_GT(stats.simulations, 0);
  EXPECT_EQ(stats.simulations, stats.cache_misses);
}

// max_capacity bounds every search: no capacity above it is probed or
// returned, and the unbounded-channel probe ends with max_capacity itself.
TEST(BufferSizing, SearchesStayWithinMaxCapacity) {
  // A fills and B drains 5 tokens per 5-cycle firing: a rate of 1/5 needs
  // room for both at once.
  ProducerConsumer pc = make_pc(5, 5, 5, 5, 5);
  BufferSizingOptions opt;
  for (const std::int64_t cap : {6, 7, 8, 9}) {
    opt.max_capacity = cap;
    EXPECT_THROW((void)min_channel_capacity_for_throughput(
                     pc.g, pc.ch, pc.a, Rational(1, 5), opt),
                 invariant_error)
        << "max_capacity=" << cap;
  }
  opt.max_capacity = 10;
  EXPECT_EQ(min_channel_capacity_for_throughput(pc.g, pc.ch, pc.a,
                                                Rational(1, 5), opt),
            10);
  // Below the structural minimum of 5 the channel deadlocks the graph, and
  // no target is reachable, not even the rate 1/10 that 5 gives.
  opt.max_capacity = 4;
  EXPECT_EQ(DseEngine(pc.g, {pc.ch}, pc.a, opt).max_throughput_unbounded(),
            Rational(0));
  EXPECT_THROW((void)min_channel_capacity_for_throughput(
                   pc.g, pc.ch, pc.a, Rational(1, 10), opt),
               invariant_error);

  // Doubling from the minimum 6 would stop at 6; capacity 8 does better.
  ProducerConsumer wide = make_pc(3, 1, 2, 6, 8);
  const Rational at_max = reference_throughput(wide.g, wide.b);
  EXPECT_EQ(at_max, Rational(1, 9));
  opt.max_capacity = 8;
  EXPECT_EQ(
      DseEngine(wide.g, {wide.ch}, wide.b, opt).max_throughput_unbounded(),
      at_max);
}

TEST(BufferSizing, MaxThroughputWithUnboundedChannels) {
  ProducerConsumer pc = make_pc(3, 1, 1, 1, 1);
  const Rational best =
      DseEngine(pc.g, {pc.ch}, pc.a).max_throughput_unbounded();
  EXPECT_EQ(best, Rational(1, 3));
  EXPECT_EQ(pc.g.channel_capacity(pc.ch), 1);  // untouched
}

TEST(BufferSizing, MultiRateMinimumCapacity) {
  // A produces 2 per firing (dur 1), B consumes 3 (dur 1). For maximum
  // throughput the channel needs room for a consumer batch plus production
  // granularity; the search must find the exact minimum.
  ProducerConsumer pc = make_pc(1, 1, 2, 3, 3);
  const Rational best =
      DseEngine(pc.g, {pc.ch}, pc.b).max_throughput_unbounded();
  const std::int64_t cap = min_channel_capacity_for_throughput(
      pc.g, pc.ch, pc.b, best);
  // Verify exactness: cap works, cap-1 does not.
  pc.g.set_channel_capacity(pc.ch, cap);
  EXPECT_GE(reference_throughput(pc.g, pc.b), best);
  pc.g.set_channel_capacity(pc.ch, cap - 1);
  EXPECT_LT(reference_throughput(pc.g, pc.b), best);
}

TEST(BufferSizing, MinimizeTotalCapacityTwoStagePipeline) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 1);
  const ActorId c = g.add_sdf_actor("C", 1);
  const Channel ab = g.add_channel(a, b, {1}, {1}, 1);
  const Channel bc = g.add_channel(b, c, {1}, {1}, 1);
  const MultiBufferResult res =
      DseEngine(g, {ab, bc}, a).minimize_total(Rational(1));
  EXPECT_EQ(res.total, 4);  // 2 + 2: double buffering on both hops
  EXPECT_EQ(res.capacities, (std::vector<std::int64_t>{2, 2}));
  // The engine searches on its own copy of the graph.
  EXPECT_EQ(g.channel_capacity(ab), 1);
  EXPECT_EQ(g.channel_capacity(bc), 1);
}

TEST(BufferSizing, MinimizeTotalRespectsTradeoffs) {
  // Slower middle actor: hops need different capacities; the staircase
  // search must find the cheapest split, and the result must be feasible
  // while every strictly smaller total is infeasible.
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 2);
  const ActorId b = g.add_sdf_actor("B", 4);
  const ActorId c = g.add_sdf_actor("C", 1);
  const Channel ab = g.add_channel(a, b, {2}, {1}, 2);
  const Channel bc = g.add_channel(b, c, {1}, {2}, 2);
  const Rational target(1, 4);  // B's natural rate
  const MultiBufferResult res =
      DseEngine(g, {ab, bc}, b).minimize_total(target);
  // Feasibility of the reported assignment.
  g.set_channel_capacity(ab, res.capacities[0]);
  g.set_channel_capacity(bc, res.capacities[1]);
  EXPECT_GE(reference_throughput(g, b), target);
  // Optimality: brute-force all assignments with smaller total.
  for (std::int64_t x = 2; x <= res.total; ++x) {
    for (std::int64_t y = 2; y <= res.total; ++y) {
      if (x + y >= res.total) continue;
      g.set_channel_capacity(ab, x);
      g.set_channel_capacity(bc, y);
      EXPECT_LT(reference_throughput(g, b), target)
          << "smaller assignment (" << x << "," << y << ") is feasible";
    }
  }
}

// Property: throughput is monotone non-decreasing in channel capacity.
TEST(BufferSizingProperty, ThroughputMonotoneInCapacity) {
  SplitMix64 rng(0x5EED);
  for (int trial = 0; trial < 40; ++trial) {
    ProducerConsumer pc =
        make_pc(rng.uniform(1, 4), rng.uniform(1, 4), rng.uniform(1, 3),
                rng.uniform(1, 3), 1);
    const std::int64_t lb = channel_capacity_lower_bound(pc.g, pc.ch);
    Rational prev(0);
    for (std::int64_t cap = lb; cap <= lb + 8; ++cap) {
      pc.g.set_channel_capacity(pc.ch, cap);
      const Rational t = reference_throughput(pc.g, pc.a);
      EXPECT_GE(t, prev) << "cap=" << cap;
      prev = t;
    }
  }
}

}  // namespace
}  // namespace acc::df
