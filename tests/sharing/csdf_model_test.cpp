#include "sharing/csdf_model.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/repetition.hpp"
#include "sharing/analysis.hpp"
#include "sharing/parametric.hpp"

namespace acc::sharing {
namespace {

SharedSystemSpec small_system(Time entry = 3, Time accel = 2, Time exit = 1,
                              Time reconfig = 10) {
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {accel};
  sys.chain.entry_cycles_per_sample = entry;
  sys.chain.exit_cycles_per_sample = exit;
  sys.streams = {{"s", Rational(1, 100), reconfig}};
  return sys;
}

CsdfModelOptions ready_input_options(std::int64_t eta) {
  // Producer/consumer with zero cost and exactly one block of buffering:
  // models the paper's Fig. 6 scenario (block ready, pipeline idle).
  CsdfModelOptions o;
  o.eta = eta;
  o.alpha0 = eta;
  o.alpha3 = eta;
  o.producer_period = 0;
  o.consumer_period = 0;
  o.contention = 0;
  return o;
}

TEST(CsdfModel, StructureMatchesFigure5) {
  SharedSystemSpec sys = small_system();
  const CsdfStreamModel m = build_csdf_stream_model(sys, 0, ready_input_options(4));
  // vP, vG0, vA, vG1, vC.
  EXPECT_EQ(m.graph.num_actors(), 5u);
  EXPECT_EQ(m.graph.actor(m.entry).phases(), 4u);
  EXPECT_EQ(m.graph.actor(m.exit).phases(), 4u);
  EXPECT_EQ(m.graph.actor(m.accelerators[0]).phases(), 1u);
  // Entry-gateway phase 0 folds contention + reconfig + epsilon (Eq. 1).
  EXPECT_EQ(m.graph.actor(m.entry).phase_durations[0], 10 + 3);
  EXPECT_EQ(m.graph.actor(m.entry).phase_durations[1], 3);
  // Idle edge carries exactly one initial token.
  EXPECT_EQ(m.graph.edge(m.idle_edge).initial_tokens, 1);
  // Output-space edge starts full (buffer empty).
  EXPECT_EQ(m.graph.edge(m.output_space).initial_tokens, 4);
}

TEST(CsdfModel, ModelIsConsistent) {
  SharedSystemSpec sys = small_system();
  const CsdfStreamModel m = build_csdf_stream_model(sys, 0, ready_input_options(5));
  const df::RepetitionVector rv = df::compute_repetition_vector(m.graph);
  ASSERT_TRUE(rv.consistent);
  // One iteration: producer and consumer fire eta times, gateways one full
  // cycle (eta phases), each accelerator eta times.
  EXPECT_EQ(rv.firings[m.producer], 5);
  EXPECT_EQ(rv.firings[m.consumer], 5);
  EXPECT_EQ(rv.cycles[m.entry], 1);
  EXPECT_EQ(rv.firings[m.entry], 5);
  EXPECT_EQ(rv.firings[m.accelerators[0]], 5);
}

TEST(CsdfModel, RejectsSubBlockBuffers) {
  SharedSystemSpec sys = small_system();
  CsdfModelOptions o = ready_input_options(4);
  o.alpha0 = 3;
  EXPECT_THROW((void)build_csdf_stream_model(sys, 0, o), precondition_error);
  o = ready_input_options(4);
  o.alpha3 = 3;
  EXPECT_THROW((void)build_csdf_stream_model(sys, 0, o), precondition_error);
}

// Key cross-validation: the CSDF model executed self-timed must produce the
// block exactly when the analytic Fig. 6 schedule says (same semantics, two
// independent implementations).
TEST(CsdfModel, ExecutionMatchesAnalyticSchedule) {
  for (const std::int64_t eta : {1, 2, 3, 5, 8, 17}) {
    SharedSystemSpec sys = small_system();
    const CsdfStreamModel m =
        build_csdf_stream_model(sys, 0, ready_input_options(eta));
    df::SelfTimedExecutor exec(m.graph);
    const auto done = exec.run_until_firings(m.exit, eta);
    ASSERT_TRUE(done.has_value()) << "eta=" << eta;
    const BlockSchedule sch = block_schedule(sys, 0, eta);
    EXPECT_EQ(*done, sch.completion) << "eta=" << eta;
  }
}

// The same on the paper's chain (entry 15, one accelerator, R = 4100), up to
// blocks far past the pipeline fill, where the derived affine law applies.
TEST(CsdfModel, ExecutionMatchesAnalyticScheduleOnPaperChain) {
  SharedSystemSpec sys = small_system(/*entry=*/15, /*accel=*/1, /*exit=*/1,
                                      /*reconfig=*/4100);
  const ParametricCompletion law = parametric_block_completion(sys, 0);
  for (const std::int64_t eta : {1, 2, 3, 7, 32, 200}) {
    const CsdfStreamModel m =
        build_csdf_stream_model(sys, 0, ready_input_options(eta));
    df::SelfTimedExecutor exec(m.graph);
    const auto done = exec.run_until_firings(m.exit, eta);
    ASSERT_TRUE(done.has_value()) << "eta=" << eta;
    EXPECT_EQ(*done, block_schedule(sys, 0, eta).completion) << "eta=" << eta;
    EXPECT_EQ(*done, law.eval(eta)) << "eta=" << eta;
  }
}

// Eq. 2's per-sample slope c0 seen in the executed model: once the pipeline
// has filled, the exit gateway delivers one sample every bottleneck period.
TEST(CsdfModel, ExitDeliveriesSpacedByBottleneckCost) {
  const std::int64_t eta = 64;
  for (const Time entry : {1, 3, 7}) {
    SharedSystemSpec sys = small_system(entry);
    sys.chain.accel_cycles_per_sample = {2, 5};
    const Time c0 = bottleneck_cycles_per_sample(sys.chain);
    const CsdfStreamModel m =
        build_csdf_stream_model(sys, 0, ready_input_options(eta));
    df::SelfTimedExecutor exec(m.graph);
    std::vector<Time> deliveries;
    df::ExecObservers obs;
    obs.on_firing = [&](df::ActorId a, std::int32_t, Time, Time end) {
      if (a == m.exit) deliveries.push_back(end);
    };
    exec.set_observers(obs);
    ASSERT_TRUE(exec.run_until_firings(m.exit, eta).has_value());
    ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(eta));
    const std::size_t fill = sys.chain.num_accelerators() + 2;
    for (std::size_t k = fill; k + 1 < deliveries.size(); ++k) {
      EXPECT_EQ(deliveries[k + 1] - deliveries[k], c0)
          << "entry=" << entry << " sample " << k;
    }
    EXPECT_EQ(deliveries.back(), block_schedule(sys, 0, eta).completion);
  }
}

// Property: over random chains, CSDF execution equals the analytic schedule
// and respects the Eq. 2 bound.
TEST(CsdfModelProperty, ExecutionEqualsScheduleAndRespectsBound) {
  SplitMix64 rng(0xCAB);
  for (int trial = 0; trial < 60; ++trial) {
    SharedSystemSpec sys;
    const int accels = static_cast<int>(rng.uniform(1, 3));
    sys.chain.accel_cycles_per_sample.clear();
    for (int a = 0; a < accels; ++a)
      sys.chain.accel_cycles_per_sample.push_back(rng.uniform(1, 5));
    sys.chain.entry_cycles_per_sample = rng.uniform(1, 10);
    sys.chain.exit_cycles_per_sample = rng.uniform(1, 4);
    sys.chain.ni_capacity = 2;
    sys.streams = {{"s", Rational(1, 1000), rng.uniform(0, 50)}};
    const std::int64_t eta = rng.uniform(1, 30);

    const CsdfStreamModel m =
        build_csdf_stream_model(sys, 0, ready_input_options(eta));
    df::SelfTimedExecutor exec(m.graph);
    const auto done = exec.run_until_firings(m.exit, eta);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(*done, block_schedule(sys, 0, eta).completion);
    EXPECT_LE(*done, tau_hat(sys, 0, eta));
  }
}

TEST(CsdfModel, SteadyStateThroughputMeetsConstraintWhenBlocksSolved) {
  // A stream with mu = 1/40 on a slow chain; choose eta via Eq. 5 by hand:
  // gamma(eta) = 10 + (eta + 2) * 3; eta/gamma >= 1/40 -> 37*eta >= 16
  // -> eta = 1. Check the executed CSDF model really sustains 1/40.
  SharedSystemSpec sys = small_system(/*entry=*/3, /*accel=*/2, /*exit=*/1,
                                      /*reconfig=*/10);
  sys.streams[0].mu = Rational(1, 40);
  const std::int64_t eta = 1;
  CsdfModelOptions o;
  o.eta = eta;
  // Give the stream generous buffering and a producer at the sample rate.
  o.alpha0 = 4;
  o.alpha3 = 4;
  o.producer_period = 40;
  o.consumer_period = 40;
  o.contention = 0;
  const CsdfStreamModel m = build_csdf_stream_model(sys, 0, o);
  df::SelfTimedExecutor exec(m.graph);
  const df::ThroughputResult r = exec.analyze_throughput(m.consumer);
  ASSERT_FALSE(r.deadlocked);
  EXPECT_GE(r.throughput, Rational(1, 40));
}

TEST(CsdfModel, ContentionDelaysFirstPhaseOnly) {
  SharedSystemSpec sys = small_system();
  CsdfModelOptions o = ready_input_options(3);
  o.contention = 1000;
  const CsdfStreamModel m = build_csdf_stream_model(sys, 0, o);
  EXPECT_EQ(m.graph.actor(m.entry).phase_durations[0], 1000 + 10 + 3);
  EXPECT_EQ(m.graph.actor(m.entry).phase_durations[1], 3);
  df::SelfTimedExecutor exec(m.graph);
  const auto done = exec.run_until_firings(m.exit, 3);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, 1000 + block_schedule(sys, 0, 3).completion);
}

}  // namespace
}  // namespace acc::sharing
