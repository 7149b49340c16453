#include "dataflow/dot.hpp"

#include <gtest/gtest.h>

namespace acc::df {
namespace {

TEST(Dot, ContainsActorsAndDurations) {
  Graph g;
  g.add_sdf_actor("src", 3);
  g.add_actor("worker", {1, 4});
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("src\\n[3]"), std::string::npos);
  EXPECT_NE(dot.find("worker\\n[1,4]"), std::string::npos);
}

TEST(Dot, EdgeLabelsShowRatesAndTokens) {
  Graph g;
  const ActorId a = g.add_sdf_actor("a", 1);
  const ActorId b = g.add_sdf_actor("b", 1);
  g.add_sdf_edge(a, b, 2, 3, 1);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("2:3"), std::string::npos);
  EXPECT_NE(dot.find("(*)"), std::string::npos);
}

TEST(Dot, LargeTokenCountsPrintedNumerically) {
  Graph g;
  const ActorId a = g.add_sdf_actor("a", 1);
  const ActorId b = g.add_sdf_actor("b", 1);
  g.add_sdf_edge(a, b, 1, 1, 12);
  EXPECT_NE(to_dot(g).find("(12*)"), std::string::npos);
}

TEST(Dot, PerPhaseQuantaListed) {
  Graph g;
  const ActorId a = g.add_actor("a", {1, 1, 1});
  const ActorId b = g.add_sdf_actor("b", 1);
  g.add_edge(a, b, {2, 0, 1}, {1}, 0);
  EXPECT_NE(to_dot(g).find("<2,0,1>:1"), std::string::npos);
}

TEST(Dot, SpaceEdgesDashed) {
  Graph g;
  const ActorId a = g.add_sdf_actor("a", 1);
  const ActorId b = g.add_sdf_actor("b", 1);
  g.add_channel(a, b, {1}, {1}, 4, 0, "buf");
  EXPECT_NE(to_dot(g).find("style=dashed"), std::string::npos);
}

}  // namespace
}  // namespace acc::df
