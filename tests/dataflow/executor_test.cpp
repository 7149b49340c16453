#include "dataflow/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "dataflow/graph.hpp"

namespace acc::df {
namespace {

// A(2) -> B(3) with the return edge holding one token: the classic two-actor
// cycle with period 5.
struct TwoActorCycle {
  Graph g;
  ActorId a;
  ActorId b;
};

TwoActorCycle two_actor_cycle() {
  TwoActorCycle c;
  c.a = c.g.add_sdf_actor("A", 2);
  c.b = c.g.add_sdf_actor("B", 3);
  c.g.add_sdf_edge(c.a, c.b, 1, 1, 0);
  c.g.add_sdf_edge(c.b, c.a, 1, 1, 1);
  return c;
}

/// Completion times of the first `count` firings of `actor`, read from the
/// on_firing observer (a firing's end time is known when it starts).
std::vector<Time> completion_times(SelfTimedExecutor& exec, ActorId actor,
                                   std::size_t count) {
  std::vector<Time> times;
  ExecObservers obs;
  obs.on_firing = [&](ActorId a, std::int32_t, Time, Time end) {
    if (a == actor) times.push_back(end);
  };
  exec.set_observers(obs);
  (void)exec.run_until_firings(actor, static_cast<std::int64_t>(count));
  exec.set_observers({});
  times.resize(std::min(times.size(), count));
  return times;
}

TEST(Executor, TwoActorCycleSchedule) {
  const TwoActorCycle c = two_actor_cycle();
  SelfTimedExecutor exec(c.g);
  const auto t = exec.run_until_firings(c.b, 2);
  ASSERT_TRUE(t.has_value());
  // A: [0,2], B: [2,5], A: [5,7], B: [7,10].
  EXPECT_EQ(*t, 10);
}

TEST(Executor, TwoActorCycleThroughput) {
  const TwoActorCycle c = two_actor_cycle();
  SelfTimedExecutor exec(c.g);
  const ThroughputResult r = exec.analyze_throughput(c.a);
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(r.throughput, Rational(1, 5));
}

TEST(Executor, CompletionTimesAreMonotone) {
  const TwoActorCycle c = two_actor_cycle();
  SelfTimedExecutor exec(c.g);
  const std::vector<Time> times =
      completion_times(exec, c.a, 4);
  ASSERT_EQ(times.size(), 4u);
  EXPECT_EQ(times[0], 2);
  EXPECT_EQ(times[1], 7);
  EXPECT_EQ(times[2], 12);
  EXPECT_EQ(times[3], 17);
}

TEST(Executor, DeadlockDetected) {
  // Cycle with no initial tokens can never fire.
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 1);
  g.add_sdf_edge(a, b, 1, 1, 0);
  g.add_sdf_edge(b, a, 1, 1, 0);
  SelfTimedExecutor exec(g);
  EXPECT_FALSE(exec.run_until_firings(a, 1).has_value());
  SelfTimedExecutor exec2(g);
  EXPECT_TRUE(exec2.analyze_throughput(a).deadlocked);
}

TEST(Executor, SerializedSourceFiresBackToBack) {
  Graph g;
  const ActorId src = g.add_sdf_actor("src", 4);
  const ActorId sink = g.add_sdf_actor("sink", 1);
  g.add_sdf_edge(src, sink, 1, 1, 0);
  SelfTimedExecutor exec(g);
  const auto t = exec.run_until_firings(src, 3);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 12);  // firings at [0,4],[4,8],[8,12]
}

TEST(Executor, MultiRateTokenAccounting) {
  // A produces 2 per firing, B consumes 3: after one iteration (3 A firings,
  // 2 B firings) tokens return to initial.
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 1);
  const EdgeId e = g.add_sdf_edge(a, b, 2, 3, 0);
  SelfTimedExecutor exec(g);
  ASSERT_TRUE(exec.run_until_firings(b, 2).has_value());
  // Token conservation: produced - consumed = in queue. (Self-timed A runs
  // ahead of B, so the edge need not drain to zero.)
  EXPECT_EQ(exec.tokens(e),
            exec.completed_firings(a) * 2 - exec.completed_firings(b) * 3);
  EXPECT_GE(exec.completed_firings(b), 2);
}

TEST(Executor, CsdfPhasesRespectPerPhaseQuantaAndDurations) {
  // A alternates phases: phase 0 (dur 1) produces 1, phase 1 (dur 4)
  // produces 0. B needs 1 token per firing.
  Graph g;
  const ActorId a = g.add_actor("A", {1, 4});
  const ActorId b = g.add_sdf_actor("B", 1);
  g.add_edge(a, b, {1, 0}, {1}, 0);
  SelfTimedExecutor exec(g);
  std::vector<Time> times = completion_times(exec, b, 3);
  ASSERT_EQ(times.size(), 3u);
  // A: ph0 [0,1] -> token; B: [1,2]. A: ph1 [1,5]. A: ph0 [5,6] -> B [6,7].
  EXPECT_EQ(times[0], 2);
  EXPECT_EQ(times[1], 7);
  EXPECT_EQ(times[2], 12);
}

TEST(Executor, BoundedChannelCreatesBackPressure) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 2);
  Channel ch = g.add_channel(a, b, {1}, {1}, /*capacity=*/1);
  SelfTimedExecutor exec(g);
  const ThroughputResult r = exec.analyze_throughput(a);
  // With a single-slot buffer the pair strictly alternates: period 3.
  EXPECT_EQ(r.throughput, Rational(1, 3));
  // A double buffer lets B's duration dominate: period 2.
  g.set_channel_capacity(ch, 2);
  SelfTimedExecutor exec2(g);
  EXPECT_EQ(exec2.analyze_throughput(a).throughput, Rational(1, 2));
}

TEST(Executor, MaxTokensSeenTracksOccupancy) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 10);
  const EdgeId e = g.add_sdf_edge(a, b, 1, 1, 0);
  SelfTimedExecutor exec(g);
  ASSERT_TRUE(exec.run_until_firings(b, 1).has_value());
  // While B's first firing runs (10 time units), A produced ~9 more tokens.
  EXPECT_GE(exec.max_tokens_seen(e), 8);
}

TEST(Executor, ZeroDurationActorsComplete) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 0);
  const ActorId b = g.add_sdf_actor("B", 1);
  g.add_sdf_edge(a, b, 1, 1, 0);
  g.add_sdf_edge(b, a, 1, 1, 1);
  SelfTimedExecutor exec(g);
  const auto t = exec.run_until_firings(b, 3);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 3);  // only B's duration matters
}

TEST(Executor, ZeroDurationCycleIsRejectedNotHung) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 0);
  const ActorId b = g.add_sdf_actor("B", 0);
  g.add_sdf_edge(a, b, 1, 1, 1);
  g.add_sdf_edge(b, a, 1, 1, 1);
  SelfTimedExecutor exec(g);
  EXPECT_THROW(exec.run_until_firings(a, 1000000000), invariant_error);
}

TEST(Executor, ZeroTokenCycleStarvesBothActorsAtTimeZero) {
  Graph g;
  const ActorId a = g.add_sdf_actor("prodA", 1);
  const ActorId b = g.add_sdf_actor("consB", 1);
  const EdgeId ab = g.add_sdf_edge(a, b, 1, 1, 0);
  const EdgeId ba = g.add_sdf_edge(b, a, 1, 1, 0);
  SelfTimedExecutor exec(g);
  EXPECT_FALSE(exec.run_until_firings(b, 1).has_value());
  // Dead on arrival: nothing fired, both actors wait on an empty edge.
  EXPECT_EQ(exec.now(), 0);
  EXPECT_EQ(exec.completed_firings(a), 0);
  EXPECT_EQ(exec.completed_firings(b), 0);
  EXPECT_EQ(exec.tokens(ab), 0);
  EXPECT_EQ(exec.tokens(ba), 0);
  const ThroughputResult r = exec.analyze_throughput(a);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_EQ(r.throughput, Rational(0));
}

TEST(Executor, DeadlockAfterPartialProgress) {
  // B consumes 3 per firing but only 2 tokens ever circulate.
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 2);
  const ActorId b = g.add_sdf_actor("B", 1);
  const EdgeId ab = g.add_sdf_edge(a, b, 1, 3, 0);
  g.add_sdf_edge(b, a, 3, 1, 2);
  SelfTimedExecutor exec(g);
  EXPECT_FALSE(exec.run_until_firings(b, 1).has_value());
  // A fired twice before starving; B holds 2 of the 3 tokens it needs.
  EXPECT_EQ(exec.completed_firings(a), 2);
  EXPECT_EQ(exec.completed_firings(b), 0);
  EXPECT_EQ(exec.now(), 4);
  EXPECT_EQ(exec.tokens(ab), 2);
  EXPECT_TRUE(exec.analyze_throughput(a).deadlocked);
}

TEST(Executor, LiveCycleNeverDeadlocks) {
  const TwoActorCycle c = two_actor_cycle();
  SelfTimedExecutor exec(c.g);
  const auto t = exec.run_until_firings(c.b, 200);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 200 * 5);
  const ThroughputResult r = exec.analyze_throughput(c.a);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.throughput, Rational(1, 5));
}

TEST(Executor, RunUntilFiringsStopsAtTheCountedCompletion) {
  const TwoActorCycle c = two_actor_cycle();
  SelfTimedExecutor exec(c.g);
  // Completions A@2, B@5, A@7, B@10: the run stops at A's second one, and
  // B's completion at t=10 must not run.
  const auto t = exec.run_until_firings(c.a, 2);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 7);
  EXPECT_EQ(exec.now(), 7);
  EXPECT_EQ(exec.completed_firings(c.a), 2);
  EXPECT_EQ(exec.completed_firings(c.b), 1);
  // A later call resumes from there rather than starting over.
  const auto resumed = exec.run_until_firings(c.b, 2);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(*resumed, 10);
}

TEST(Executor, ResetRestoresInitialState) {
  const TwoActorCycle c = two_actor_cycle();
  SelfTimedExecutor exec(c.g);
  ASSERT_TRUE(exec.run_until_firings(c.a, 3).has_value());
  exec.reset();
  EXPECT_EQ(exec.now(), 0);
  EXPECT_EQ(exec.completed_firings(c.a), 0);
  const auto t = exec.run_until_firings(c.a, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 2);
}

TEST(Executor, ObserverSeesFiringsAndProductions) {
  const TwoActorCycle c = two_actor_cycle();
  SelfTimedExecutor exec(c.g);
  int firings = 0;
  int produces = 0;
  ExecObservers obs;
  obs.on_firing = [&](ActorId, std::int32_t, Time, Time) { ++firings; };
  obs.on_produce = [&](EdgeId, std::int64_t, Time) { ++produces; };
  exec.set_observers(obs);
  ASSERT_TRUE(exec.run_until_firings(c.b, 2).has_value());
  // When B's 2nd completion lands, its back-token immediately lets A start a
  // 3rd firing within the same step: 5 starts, 4 completed productions.
  EXPECT_EQ(firings, 5);
  EXPECT_EQ(produces, 4);
}

// src(2) -> mid(3), bounded by a feedback edge holding 4 tokens. The
// refinement checks read these exact timestamps through ExecObservers.
struct Pipeline {
  Graph g;
  ActorId src;
  ActorId mid;
  EdgeId back;
};

Pipeline serialized_pipeline() {
  Pipeline p;
  p.src = p.g.add_sdf_actor("src", 2);
  p.mid = p.g.add_sdf_actor("mid", 3);
  p.g.add_sdf_edge(p.src, p.mid, 1, 1, 0);
  p.back = p.g.add_sdf_edge(p.mid, p.src, 1, 1, 4);
  return p;
}

struct Production {
  EdgeId edge;
  std::int64_t count;
  Time when;
  bool operator==(const Production&) const = default;
};

TEST(ExecutorObservers, FiringStartTimesOfSerializedSource) {
  Pipeline p = serialized_pipeline();
  SelfTimedExecutor exec(p.g);
  std::vector<std::pair<Time, Time>> src_firings;
  ExecObservers obs;
  obs.on_firing = [&](ActorId a, std::int32_t, Time start, Time end) {
    if (a == p.src) src_firings.emplace_back(start, end);
  };
  exec.set_observers(obs);
  ASSERT_TRUE(exec.run_until_firings(p.src, 3).has_value());
  // src is serialized with 4 feedback tokens: back-to-back firings, each
  // reported at its start with its end already known.
  ASSERT_GE(src_firings.size(), 3u);
  EXPECT_EQ(src_firings[0], std::make_pair(Time{0}, Time{2}));
  EXPECT_EQ(src_firings[1], std::make_pair(Time{2}, Time{4}));
  EXPECT_EQ(src_firings[2], std::make_pair(Time{4}, Time{6}));
}

TEST(ExecutorObservers, ProductionTimesOnFeedbackEdge) {
  Pipeline p = serialized_pipeline();
  SelfTimedExecutor exec(p.g);
  std::vector<Production> seen;
  ExecObservers obs;
  obs.on_produce = [&](EdgeId e, std::int64_t n, Time t) {
    if (e == p.back) seen.push_back({e, n, t});
  };
  exec.set_observers(obs);
  ASSERT_TRUE(exec.run_until_firings(p.mid, 3).has_value());
  // mid fires [2,5], [5,8], [8,11] (serialized, inputs at 2, 4, 6).
  const std::vector<Production> want = {
      {p.back, 1, 5}, {p.back, 1, 8}, {p.back, 1, 11}};
  EXPECT_EQ(seen, want);
}

TEST(ExecutorObservers, BulkProductionIsOneCallWithItsCount) {
  Graph g;
  const ActorId a = g.add_sdf_actor("a", 4);
  const ActorId b = g.add_sdf_actor("b", 1);
  const EdgeId e = g.add_sdf_edge(a, b, 3, 1, 0);
  SelfTimedExecutor exec(g);
  std::vector<Production> seen;
  ExecObservers obs;
  obs.on_produce = [&](EdgeId edge, std::int64_t n, Time t) {
    seen.push_back({edge, n, t});
  };
  exec.set_observers(obs);
  ASSERT_TRUE(exec.run_until_firings(a, 2).has_value());
  const std::vector<Production> want = {{e, 3, 4}, {e, 3, 8}};
  EXPECT_EQ(seen, want);
}

TEST(ExecutorObservers, ZeroTokenCycleReportsNothing) {
  Graph g;
  const ActorId x = g.add_sdf_actor("x", 1);
  const ActorId y = g.add_sdf_actor("y", 1);
  g.add_sdf_edge(x, y, 1, 1, 0);
  g.add_sdf_edge(y, x, 1, 1, 0);
  SelfTimedExecutor exec(g);
  int firings = 0;
  int produces = 0;
  ExecObservers obs;
  obs.on_firing = [&](ActorId, std::int32_t, Time, Time) { ++firings; };
  obs.on_produce = [&](EdgeId, std::int64_t, Time) { ++produces; };
  exec.set_observers(obs);
  EXPECT_EQ(exec.run_until_firings(x, 3), std::nullopt);
  EXPECT_EQ(firings, 0);
  EXPECT_EQ(produces, 0);
}

TEST(ExecutorObservers, CsdfFiringsReportPhaseIndexAndDuration) {
  // Three phases with distinct durations; A has no inputs, so its phases
  // run back to back.
  Graph g;
  const ActorId a = g.add_actor("A", {1, 4, 2});
  const ActorId b = g.add_sdf_actor("B", 1);
  g.add_edge(a, b, {1, 0, 1}, {1}, 0);
  SelfTimedExecutor exec(g);
  std::vector<std::int32_t> phases;
  std::vector<Time> durations;
  Time last_end = 0;
  ExecObservers obs;
  obs.on_firing = [&](ActorId actor, std::int32_t phase, Time start,
                      Time end) {
    if (actor != a) return;
    EXPECT_EQ(start, last_end);
    last_end = end;
    phases.push_back(phase);
    durations.push_back(end - start);
  };
  exec.set_observers(obs);
  ASSERT_TRUE(exec.run_until_firings(a, 6).has_value());
  ASSERT_GE(phases.size(), 6u);
  phases.resize(6);
  durations.resize(6);
  EXPECT_EQ(phases, (std::vector<std::int32_t>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(durations, (std::vector<Time>{1, 4, 2, 1, 4, 2}));
}

}  // namespace
}  // namespace acc::df
