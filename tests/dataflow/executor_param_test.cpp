// Parameterized executor sweeps: producer/consumer rate grids where the
// exact steady-state throughput has a closed form to check against.
#include <gtest/gtest.h>

#include <tuple>

#include "dataflow/executor.hpp"
#include "dataflow/graph.hpp"
#include "../support/hsdf.hpp"

namespace acc::df {
namespace {

// (producer duration, consumer duration, prod rate, cons rate)
using PcParams = std::tuple<Time, Time, std::int64_t, std::int64_t>;

class ProducerConsumerSweep : public ::testing::TestWithParam<PcParams> {};

TEST_P(ProducerConsumerSweep, SaturatedThroughputMatchesBottleneckFormula) {
  const auto [da, db, p, c] = GetParam();
  Graph g;
  const ActorId a = g.add_sdf_actor("A", da);
  const ActorId b = g.add_sdf_actor("B", db);
  // Generous buffer: double the per-iteration traffic, so only the actors
  // themselves constrain the rate.
  const RepetitionVector rv = [&] {
    Graph probe;
    const ActorId pa = probe.add_sdf_actor("A", da);
    const ActorId pb = probe.add_sdf_actor("B", db);
    probe.add_sdf_edge(pa, pb, p, c, 0);
    return compute_repetition_vector(probe);
  }();
  const std::int64_t traffic = rv.firings[0] * p;
  g.add_channel(a, b, {p}, {c}, 2 * traffic + p + c);

  SelfTimedExecutor exec(g);
  const ThroughputResult r = exec.analyze_throughput(b);
  ASSERT_FALSE(r.deadlocked);
  // Closed form: per graph iteration, A fires r[A] times (busy r[A]*da) and
  // B fires r[B] times (busy r[B]*db); with ample buffering the pipeline
  // runs at the slower of the two: iteration period = max(r[A]*da,
  // r[B]*db), so B's rate is r[B] / that.
  const Rational expect(rv.firings[1],
                        std::max(rv.firings[0] * da, rv.firings[1] * db));
  EXPECT_EQ(r.throughput, expect)
      << "da=" << da << " db=" << db << " p=" << p << " c=" << c;
  // MCM on the HSDF expansion agrees.
  EXPECT_EQ(sdf_throughput_via_mcm(g, b).firings_per_time, r.throughput);
}

INSTANTIATE_TEST_SUITE_P(
    RateGrid, ProducerConsumerSweep,
    ::testing::Combine(::testing::Values<Time>(1, 2, 5),        // da
                       ::testing::Values<Time>(1, 3, 4),        // db
                       ::testing::Values<std::int64_t>(1, 2, 3),  // prod
                       ::testing::Values<std::int64_t>(1, 2, 5)),  // cons
    [](const ::testing::TestParamInfo<PcParams>& info) {
      return "da" + std::to_string(std::get<0>(info.param)) + "_db" +
             std::to_string(std::get<1>(info.param)) + "_p" +
             std::to_string(std::get<2>(info.param)) + "_c" +
             std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace acc::df
