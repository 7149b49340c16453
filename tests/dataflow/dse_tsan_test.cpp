// Thread-sanitizer harness for the DSE engine: runs the parallel searches
// with several worker counts and checks the results agree with the serial
// path. Compiled as its own TSan-instrumented binary (no gtest — the
// sanitizer must see every thread this process creates), registered in
// tier-1 ctest when the toolchain supports -fsanitize=thread.
#include <cstdio>
#include <vector>

#include "dataflow/buffer_sizing.hpp"
#include "dataflow/dse.hpp"
#include "dataflow/graph.hpp"

namespace {

int failures = 0;

#define REQUIRE(cond)                                                   \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

using namespace acc;
using namespace acc::df;

/// Shared-actor + chunked down-sampling consumer, the Fig. 8 shape that
/// exercises the two-channel staircase search.
struct Model {
  Graph g;
  ActorId producer;
  ActorId shared;
  ActorId consumer;
  Channel in;
  Channel out;
};

Model make_model(std::int64_t eta, std::int64_t chunk) {
  Model m;
  m.producer = m.g.add_sdf_actor("prod", 3);
  m.shared = m.g.add_sdf_actor("shared", 11 + 2 * eta);
  m.consumer = m.g.add_sdf_actor("cons", 4 * chunk);
  m.in = m.g.add_channel(m.producer, m.shared, {1}, {eta}, 4 * eta);
  m.out = m.g.add_channel(m.shared, m.consumer, {eta}, {chunk},
                          4 * eta + 4 * chunk);
  return m;
}

void check_minimize(std::int64_t eta, std::int64_t chunk) {
  Model ref_model = make_model(eta, chunk);
  BufferSizingOptions opt;
  opt.max_capacity = 8 * eta + 8 * chunk + 32;
  const Rational target =
      max_throughput_with_unbounded_channels(
          ref_model.g, {ref_model.in, ref_model.out}, ref_model.consumer, opt);

  opt.jobs = 1;
  const MultiBufferResult serial =
      DseEngine(ref_model.g, {ref_model.in, ref_model.out}, ref_model.consumer,
                opt)
          .minimize_total(target);
  for (int jobs : {2, 4}) {
    Model m = make_model(eta, chunk);
    BufferSizingOptions jopt = opt;
    jopt.jobs = jobs;
    DseEngine engine(m.g, {m.in, m.out}, m.consumer, jopt);
    const MultiBufferResult par = engine.minimize_total(target);
    REQUIRE(par.total == serial.total);
    REQUIRE(par.capacities == serial.capacities);
    REQUIRE(engine.stats().simulations > 0);
  }
}

void check_pareto(std::int64_t eta) {
  Model ref_model = make_model(eta, 2);
  BufferSizingOptions o1;
  const std::vector<ParetoPoint> serial =
      pareto_buffer_sweep(ref_model.g, ref_model.out, ref_model.consumer, o1);
  BufferSizingOptions o4;
  o4.jobs = 4;
  const std::vector<ParetoPoint> par =
      pareto_buffer_sweep(ref_model.g, ref_model.out, ref_model.consumer, o4);
  REQUIRE(serial.size() == par.size());
  for (std::size_t i = 0; i < serial.size() && i < par.size(); ++i) {
    REQUIRE(serial[i].capacity == par[i].capacity);
    REQUIRE(serial[i].throughput == par[i].throughput);
  }
}

/// One parallel engine re-timed across the shared actor's durations
/// answers each minimize_total as the serial search at that duration does.
void check_retime(std::int64_t eta, std::int64_t chunk) {
  Model m = make_model(eta, chunk);
  const Time longest = 11 + 2 * eta;
  BufferSizingOptions opt;
  opt.max_capacity = 8 * eta + 8 * chunk + 32;
  // Reachable at the longest duration, hence at every shorter one.
  const Rational target = max_throughput_with_unbounded_channels(
      m.g, {m.in, m.out}, m.consumer, opt);
  const std::vector<Time> durations{longest - 8, longest, longest - 4,
                                    longest - 6, longest - 2};
  std::vector<MultiBufferResult> serial;
  for (const Time d : durations) {
    m.g.set_actor_duration(m.shared, d);
    serial.push_back(
        DseEngine(m.g, {m.in, m.out}, m.consumer, opt).minimize_total(target));
  }
  for (int jobs : {2, 4}) {
    BufferSizingOptions jopt = opt;
    jopt.jobs = jobs;
    DseEngine engine(m.g, {m.in, m.out}, m.consumer, jopt);
    for (std::size_t i = 0; i < durations.size(); ++i) {
      engine.retime(m.shared, durations[i]);
      const MultiBufferResult par = engine.minimize_total(target);
      REQUIRE(par.total == serial[i].total);
      REQUIRE(par.capacities == serial[i].capacities);
    }
    REQUIRE(engine.stats().pruned() > 0);
  }
}

}  // namespace

int main() {
  for (std::int64_t eta : {1, 3, 5}) check_minimize(eta, /*chunk=*/2);
  check_minimize(/*eta=*/4, /*chunk=*/3);
  check_pareto(/*eta=*/3);
  check_retime(/*eta=*/4, /*chunk=*/3);
  if (failures == 0) std::puts("dse_tsan_test: all checks passed");
  return failures == 0 ? 0 : 1;
}
