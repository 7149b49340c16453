#include "sharing/sdf_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/refinement.hpp"
#include "sharing/analysis.hpp"
#include "sharing/csdf_model.hpp"

namespace acc::sharing {
namespace {

TEST(SdfModel, StructureMatchesFigure7) {
  SdfModelOptions o;
  o.eta = 4;
  o.alpha0 = 8;
  o.alpha3 = 8;
  o.producer_period = 2;
  o.consumer_period = 2;
  o.shared_duration = 100;
  const SdfStreamModel m = build_sdf_stream_model(o);
  EXPECT_EQ(m.graph.num_actors(), 3u);
  EXPECT_EQ(m.graph.actor(m.shared).phase_durations[0], 100);
  EXPECT_EQ(m.graph.channel_capacity(m.input_buffer), 8);
  EXPECT_EQ(m.graph.channel_capacity(m.output_buffer), 8);
  // vS consumes and produces whole blocks.
  EXPECT_EQ(m.graph.edge(m.input_buffer.data).cons[0], 4);
  EXPECT_EQ(m.graph.edge(m.output_buffer.data).prod[0], 4);
}

TEST(SdfModel, ThroughputIsEtaOverGamma) {
  SdfModelOptions o;
  o.eta = 5;
  o.alpha0 = 10;
  o.alpha3 = 10;
  o.producer_period = 1;
  o.consumer_period = 1;
  o.shared_duration = 50;
  const SdfStreamModel m = build_sdf_stream_model(o);
  df::SelfTimedExecutor exec(m.graph);
  const df::ThroughputResult r = exec.analyze_throughput(m.consumer);
  ASSERT_FALSE(r.deadlocked);
  // Double-buffered (alpha = 2*eta), so vS runs back-to-back: eta samples
  // per shared_duration.
  EXPECT_EQ(r.throughput, Rational(5, 50));
}

TEST(SdfModel, RejectsSubBlockBuffers) {
  SdfModelOptions o;
  o.eta = 4;
  o.alpha0 = 3;
  o.alpha3 = 4;
  EXPECT_THROW((void)build_sdf_stream_model(o), precondition_error);
}

// The paper's refinement chain (its Fig. 2): the CSDF model is a refinement
// of the single-actor SDF abstraction — under equal stimuli, every output
// token of the CSDF model is produced no later than the matching token of
// the SDF abstraction.
TEST(SdfModel, CsdfRefinesSdfAbstraction) {
  SplitMix64 rng(0xF16);
  for (int trial = 0; trial < 40; ++trial) {
    SharedSystemSpec sys;
    sys.chain.accel_cycles_per_sample = {rng.uniform(1, 4)};
    sys.chain.entry_cycles_per_sample = rng.uniform(1, 8);
    sys.chain.exit_cycles_per_sample = rng.uniform(1, 3);
    sys.streams = {{"s", Rational(1, 1000), rng.uniform(0, 40)}};
    const std::int64_t eta = rng.uniform(1, 12);
    const Time period = rng.uniform(1, 6);
    const std::int64_t blocks = 6;

    CsdfModelOptions co;
    co.eta = eta;
    co.alpha0 = 2 * eta;
    co.alpha3 = 2 * eta;
    co.producer_period = period;
    co.consumer_period = period;
    CsdfStreamModel cm = build_csdf_stream_model(sys, 0, co);

    SdfModelOptions so;
    so.eta = eta;
    so.alpha0 = 2 * eta;
    so.alpha3 = 2 * eta;
    so.producer_period = period;
    so.consumer_period = period;
    // Single stream: gamma_hat = tau_hat.
    so.shared_duration = tau_hat(sys, 0, eta);
    SdfStreamModel sm = build_sdf_stream_model(so);

    // Collect output-token production times from both models.
    auto collect = [](df::Graph& g, df::ActorId until_actor, df::EdgeId edge,
                      std::int64_t tokens) {
      df::SelfTimedExecutor exec(g);
      std::vector<df::Time> times;
      df::ExecObservers obs;
      obs.on_produce = [&](df::EdgeId e, std::int64_t count, df::Time t) {
        if (e == edge)
          for (std::int64_t i = 0; i < count; ++i) times.push_back(t);
      };
      exec.set_observers(obs);
      (void)exec.run_until_firings(until_actor, tokens);
      return times;
    };

    const std::vector<df::Time> refined =
        collect(cm.graph, cm.consumer, cm.output_data, blocks * eta);
    const std::vector<df::Time> abstraction =
        collect(sm.graph, sm.consumer, sm.output_buffer.data, blocks * eta);
    ASSERT_GE(refined.size(), static_cast<std::size_t>(blocks * eta));
    ASSERT_GE(abstraction.size(), static_cast<std::size_t>(blocks * eta));

    const df::RefinementReport rep =
        df::check_earlier_the_better(refined, abstraction);
    EXPECT_TRUE(rep.holds) << df::describe(rep) << " (eta=" << eta
                           << ", period=" << period << ")";
  }
}

// Property: the Fig. 7 model's throughput never rises as the shared actor's
// duration grows (self-timed execution is monotone in every firing
// duration), so every capacity vector that sustains the sample rate at
// gamma_2 sustains it at each gamma_1 < gamma_2. The DSE engine's duration
// coordinate (dataflow/dse.hpp) rests on this. Each model runs on one
// executor re-timed in place, as the engine's do; in the last model the
// input buffer fills at a steady drift, so the drift replay jumps there.
TEST(SdfModelProperty, SustainedAtLongerSharedDurationIsSustainedAtShorter) {
  SplitMix64 rng(0x6A77A);
  constexpr std::int64_t kChunks[] = {1, 2, 4, 8};
  constexpr int kRandomModels = 40;
  int sustained = 0;        // vectors sustaining the rate at gamma_2
  int only_shorter = 0;     // vectors sustaining it at gamma_1 only
  std::int64_t jumped = 0;  // drift-replayed iterations of the last model
  for (int trial = 0; trial <= kRandomModels; ++trial) {
    const bool large = trial == kRandomModels;
    SdfModelOptions o;
    o.eta = large ? 4 : rng.uniform(1, 8);
    o.consumer_chunk = large ? 8 : kChunks[rng.uniform(0, 3)];
    const Time period = large ? 4 : rng.uniform(4, 32);
    o.producer_period = period;
    o.consumer_period = o.consumer_chunk * period;
    // Durations around eta * period, where the shared actor stops keeping
    // up with the producer.
    const Time g2 = large ? 20 : rng.uniform(2, 3 * o.eta * period / 2);
    const Time g1 = large ? 12 : rng.uniform(1, g2 - 1);
    const std::int64_t lo0 = large ? 200 : o.eta;
    const std::int64_t lo3 = std::max(o.eta, o.consumer_chunk);
    o.alpha0 = lo0;
    o.alpha3 = lo3;
    o.shared_duration = g1;
    SdfStreamModel m = build_sdf_stream_model(o);
    df::SelfTimedExecutor exec(m.graph);
    const auto rate = [&](Time gamma) {
      m.graph.set_actor_duration(m.shared, gamma);
      const df::ThroughputResult r = exec.analyze_throughput(m.consumer);
      if (large) jumped += r.replayed_iterations;
      return r.deadlocked ? Rational(0) : r.throughput;
    };
    const Rational target(1, o.consumer_period);
    for (std::int64_t a0 = lo0; a0 <= lo0 + 4; ++a0) {
      for (std::int64_t a3 = lo3; a3 <= lo3 + 4; ++a3) {
        m.graph.set_channel_capacity(m.input_buffer, a0);
        m.graph.set_channel_capacity(m.output_buffer, a3);
        const Rational at1 = rate(g1);
        const Rational at2 = rate(g2);
        SCOPED_TRACE("trial " + std::to_string(trial) + ": alpha0 " +
                     std::to_string(a0) + ", alpha3 " + std::to_string(a3) +
                     ", gamma " + std::to_string(g1) + " < " +
                     std::to_string(g2));
        EXPECT_GE(at1, at2);
        if (at2 >= target) {
          ++sustained;
          EXPECT_GE(at1, target);
        } else if (at1 >= target) {
          ++only_shorter;
        }
      }
    }
  }
  EXPECT_GT(sustained, 100);
  EXPECT_GT(only_shorter, 50);
  EXPECT_GT(jumped, 0);
}

}  // namespace
}  // namespace acc::sharing
