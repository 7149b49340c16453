#include "dataflow/serialize.hpp"

#include <gtest/gtest.h>

#include "../support/graph_json.hpp"
#include "common/rng.hpp"
#include "dataflow/executor.hpp"
#include "sharing/csdf_model.hpp"

namespace acc::df {
namespace {

/// Rebuild a graph from its JSON text, as a tool reading a file would.
Graph from_text(const std::string& text) {
  return graph_from_json(json::parse_or_throw(text));
}

TEST(Serialize, RoundTripPreservesStructure) {
  Graph g;
  const ActorId a = g.add_sdf_actor("src", 2);
  const ActorId b = g.add_actor("worker", {1, 4});
  g.add_edge(a, b, {2}, {1, 1}, 3, "ab");
  g.add_channel(b, a, {1, 0}, {1}, 5, 1, "back");

  const Graph h = from_text(graph_to_json(g).pretty());
  ASSERT_EQ(h.num_actors(), g.num_actors());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_actors(); ++i) {
    const Actor& x = g.actor(static_cast<ActorId>(i));
    const Actor& y = h.actor(static_cast<ActorId>(i));
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.phase_durations, y.phase_durations);
    EXPECT_EQ(x.auto_concurrent, y.auto_concurrent);
  }
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const Edge& x = g.edge(static_cast<EdgeId>(i));
    const Edge& y = h.edge(static_cast<EdgeId>(i));
    EXPECT_EQ(x.src, y.src);
    EXPECT_EQ(x.dst, y.dst);
    EXPECT_EQ(x.prod, y.prod);
    EXPECT_EQ(x.cons, y.cons);
    EXPECT_EQ(x.initial_tokens, y.initial_tokens);
    EXPECT_EQ(x.name, y.name);
  }
}

TEST(Serialize, RoundTripPreservesTemporalBehaviour) {
  // Stronger than structural equality: the deserialized graph must execute
  // identically. Use the paper's Fig. 5 model as the payload.
  sharing::SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {2};
  sys.chain.entry_cycles_per_sample = 3;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, 100), 17}};
  sharing::CsdfModelOptions o;
  o.eta = 5;
  o.alpha0 = 5;
  o.alpha3 = 5;
  o.producer_period = 0;
  o.consumer_period = 0;
  sharing::CsdfStreamModel m = sharing::build_csdf_stream_model(sys, 0, o);

  const Graph copy = from_text(graph_to_json(m.graph).pretty());
  SelfTimedExecutor e1(m.graph);
  SelfTimedExecutor e2(copy);
  const auto t1 = e1.run_until_firings(m.exit, 5);
  const auto t2 = e2.run_until_firings(m.exit, 5);
  ASSERT_TRUE(t1.has_value());
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(*t1, *t2);
}

TEST(Serialize, MalformedDocumentsRejected) {
  EXPECT_THROW((void)from_text("{}"), precondition_error);
  EXPECT_THROW((void)from_text("not json"), precondition_error);
  // Edge referencing a missing actor.
  EXPECT_THROW(
      (void)from_text(
          R"({"actors":[{"name":"a","durations":[1]}],
              "edges":[{"src":0,"dst":5,"prod":[1],"cons":[1],"tokens":0}]})"),
      precondition_error);
  // Arity mismatch caught by graph construction.
  EXPECT_THROW(
      (void)from_text(
          R"({"actors":[{"name":"a","durations":[1,1]},
                        {"name":"b","durations":[1]}],
              "edges":[{"src":0,"dst":1,"prod":[1],"cons":[1],"tokens":0}]})"),
      precondition_error);
}

TEST(Serialize, RandomGraphsRoundTrip) {
  SplitMix64 rng(0x5E1A);
  for (int trial = 0; trial < 40; ++trial) {
    Graph g;
    const int n = static_cast<int>(rng.uniform(2, 6));
    for (int i = 0; i < n; ++i) {
      std::vector<Time> durations;
      const int phases = static_cast<int>(rng.uniform(1, 3));
      for (int p = 0; p < phases; ++p) durations.push_back(rng.uniform(0, 9));
      g.add_actor("a" + std::to_string(i), durations, rng.chance(0.2));
    }
    for (int e = 0; e < n - 1; ++e) {
      const auto src = static_cast<ActorId>(e);
      const auto dst = static_cast<ActorId>(e + 1);
      std::vector<std::int64_t> prod(g.actor(src).phases(), 0);
      std::vector<std::int64_t> cons(g.actor(dst).phases(), 0);
      prod[0] = rng.uniform(1, 4);
      cons[0] = rng.uniform(1, 4);
      g.add_edge(src, dst, prod, cons, rng.uniform(0, 5));
    }
    EXPECT_EQ(graph_to_json(graph_from_json(graph_to_json(g))),
              graph_to_json(g));
  }
}

}  // namespace
}  // namespace acc::df
