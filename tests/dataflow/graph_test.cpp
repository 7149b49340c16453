#include "dataflow/graph.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace acc::df {
namespace {

TEST(Graph, AddActorsAndEdges) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 2);
  const ActorId b = g.add_actor("B", {1, 3});
  EXPECT_EQ(g.num_actors(), 2u);
  EXPECT_EQ(g.actor(a).phases(), 1u);
  EXPECT_EQ(g.actor(b).phases(), 2u);

  const EdgeId e = g.add_edge(a, b, {2}, {1, 1}, 3, "ab");
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(e).initial_tokens, 3);
  EXPECT_EQ(g.edge(e).name, "ab");
  EXPECT_EQ(g.in_edges(b).size(), 1u);
  EXPECT_EQ(g.out_edges(a).size(), 1u);
  EXPECT_TRUE(g.in_edges(a).empty());
}

TEST(Graph, SdfEdgeBroadcastsRatesOverPhases) {
  Graph g;
  const ActorId a = g.add_actor("A", {1, 2, 3});
  const ActorId b = g.add_sdf_actor("B", 1);
  const EdgeId e = g.add_sdf_edge(a, b, 2, 5, 0);
  EXPECT_EQ(g.edge(e).prod, (std::vector<std::int64_t>{2, 2, 2}));
  EXPECT_EQ(g.edge(e).cons, (std::vector<std::int64_t>{5}));
}

TEST(Graph, EdgeArityMismatchThrows) {
  Graph g;
  const ActorId a = g.add_actor("A", {1, 1});
  const ActorId b = g.add_sdf_actor("B", 1);
  EXPECT_THROW(g.add_edge(a, b, {1}, {1}, 0), precondition_error);
  EXPECT_THROW(g.add_edge(a, b, {1, 1}, {1, 1}, 0), precondition_error);
}

TEST(Graph, NegativeTokensThrow) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 1);
  EXPECT_THROW(g.add_edge(a, b, {1}, {1}, -1), precondition_error);
}

TEST(Graph, EmptyPhaseListThrows) {
  Graph g;
  EXPECT_THROW(g.add_actor("A", {}), precondition_error);
}

TEST(Graph, NegativeDurationThrows) {
  Graph g;
  EXPECT_THROW(g.add_actor("A", {1, -1}), precondition_error);
}

TEST(Graph, ChannelModelsBoundedBuffer) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 1);
  const Channel ch = g.add_channel(a, b, {1}, {1}, /*capacity=*/4,
                                   /*initial_tokens=*/1, "buf");
  EXPECT_EQ(g.edge(ch.data).initial_tokens, 1);
  EXPECT_EQ(g.edge(ch.space).initial_tokens, 3);
  EXPECT_EQ(g.channel_capacity(ch), 4);
  // Space edge runs in the reverse direction with swapped quanta.
  EXPECT_EQ(g.edge(ch.space).src, b);
  EXPECT_EQ(g.edge(ch.space).dst, a);
}

TEST(Graph, SetChannelCapacity) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 1);
  const Channel ch = g.add_channel(a, b, {2}, {3}, 6, 0);
  g.set_channel_capacity(ch, 9);
  EXPECT_EQ(g.channel_capacity(ch), 9);
  EXPECT_EQ(g.edge(ch.space).initial_tokens, 9);
}

TEST(Graph, ChannelCapacityBelowFillThrows) {
  Graph g;
  const ActorId a = g.add_sdf_actor("A", 1);
  const ActorId b = g.add_sdf_actor("B", 1);
  EXPECT_THROW(g.add_channel(a, b, {1}, {1}, 1, 2), precondition_error);
  const Channel ch = g.add_channel(a, b, {1}, {1}, 4, 2);
  EXPECT_THROW(g.set_channel_capacity(ch, 1), precondition_error);
}

TEST(Graph, ValidateRejectsAllZeroQuanta) {
  Graph g;
  const ActorId a = g.add_actor("A", {1, 1});
  const ActorId b = g.add_sdf_actor("B", 1);
  g.add_edge(a, b, {0, 0}, {1}, 0);
  EXPECT_THROW(g.validate(), invariant_error);
}

TEST(Graph, ValidateAcceptsWellFormed) {
  Graph g;
  const ActorId a = g.add_actor("A", {1, 0});
  const ActorId b = g.add_sdf_actor("B", 2);
  g.add_edge(a, b, {1, 0}, {1}, 0);
  g.add_edge(b, a, {1}, {0, 1}, 1);
  EXPECT_NO_THROW(g.validate());
}

}  // namespace
}  // namespace acc::df
