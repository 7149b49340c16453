#include "sharing/parametric.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dataflow/executor.hpp"
#include "sharing/csdf_model.hpp"

namespace acc::sharing {
namespace {

SharedSystemSpec paper_chain() {
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = 15;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, 1000), 4100}};
  return sys;
}

TEST(Parametric, DerivesEquation2Structure) {
  const SharedSystemSpec sys = paper_chain();
  const ParametricCompletion p = parametric_block_completion(sys, 0);
  // The derived slope IS the bottleneck per-sample cost c0 of Eq. 2.
  EXPECT_EQ(p.slope(), bottleneck_cycles_per_sample(sys.chain));
  // And the derived intercept stays below Eq. 2's conservative constant
  // R + (tail)*c0.
  EXPECT_LE(p.intercept(),
            sys.streams[0].reconfig +
                pipeline_tail(sys.chain) *
                    bottleneck_cycles_per_sample(sys.chain));
  EXPECT_GE(p.intercept(), sys.streams[0].reconfig);
}

TEST(Parametric, EvalExactForSmallAndLargeEta) {
  const SharedSystemSpec sys = paper_chain();
  const ParametricCompletion p = parametric_block_completion(sys, 0);
  for (const std::int64_t eta : {1, 2, 3, 5, 17, 100, 10136, 1000000}) {
    if (eta <= 20000) {
      EXPECT_EQ(p.eval(eta), block_schedule(sys, 0, eta).completion)
          << "eta=" << eta;
    } else {
      // Too large to enumerate a schedule — affine law applies.
      EXPECT_EQ(p.eval(eta), p.slope() * eta + p.intercept());
    }
  }
}

TEST(Parametric, ScheduleGrowsBySlopeBeyondEtaLinear) {
  // The paper's chain is paced by its entry gateway; this one by its middle
  // accelerator.
  SharedSystemSpec three_stage = paper_chain();
  three_stage.chain.entry_cycles_per_sample = 3;
  three_stage.chain.accel_cycles_per_sample = {4, 9, 2};
  three_stage.chain.ni_capacity = 3;
  for (const SharedSystemSpec& sys : {paper_chain(), three_stage}) {
    const ParametricCompletion p = parametric_block_completion(sys, 0);
    EXPECT_EQ(p.slope(), bottleneck_cycles_per_sample(sys.chain));
    // From eta_linear on, one more sample costs exactly one bottleneck
    // period c0 in the schedule itself, not only in the derived law.
    const std::int64_t lin = p.eta_linear();
    for (std::int64_t eta = lin; eta < lin + 64; ++eta) {
      EXPECT_EQ(block_schedule(sys, 0, eta + 1).completion -
                    block_schedule(sys, 0, eta).completion,
                p.slope())
          << "eta=" << eta;
    }
  }
}

TEST(Parametric, RejectsBadEta) {
  const ParametricCompletion p = parametric_block_completion(paper_chain(), 0);
  EXPECT_THROW((void)p.eval(0), precondition_error);
}

// Property: on random chains the derived slope equals c0 and eval matches
// the schedule everywhere sampled.
TEST(ParametricProperty, SlopeIsAlwaysBottleneckCost) {
  SplitMix64 rng(0xAF1E);
  for (int trial = 0; trial < 60; ++trial) {
    SharedSystemSpec sys;
    const int accels = static_cast<int>(rng.uniform(1, 3));
    sys.chain.accel_cycles_per_sample.clear();
    for (int a = 0; a < accels; ++a)
      sys.chain.accel_cycles_per_sample.push_back(rng.uniform(1, 7));
    sys.chain.entry_cycles_per_sample = rng.uniform(1, 16);
    sys.chain.exit_cycles_per_sample = rng.uniform(1, 4);
    sys.streams = {{"s", Rational(1, 1000), rng.uniform(0, 300)}};
    const ParametricCompletion p = parametric_block_completion(sys, 0);
    EXPECT_EQ(p.slope(), bottleneck_cycles_per_sample(sys.chain))
        << "trial " << trial;
    for (int probe = 0; probe < 8; ++probe) {
      const std::int64_t eta = rng.uniform(1, 300);
      EXPECT_EQ(p.eval(eta), block_schedule(sys, 0, eta).completion)
          << "trial " << trial << " eta=" << eta;
    }
    // Eq. 2 remains an upper bound on the derived exact law.
    for (const std::int64_t eta : {1L, 10L, 1000L})
      EXPECT_LE(p.eval(eta), tau_hat(sys, 0, eta));
  }
}

// Property: on random chains the executed Fig. 5 CSDF model, the closed-form
// Fig. 6 schedule and the derived affine law give the same block
// completion.
TEST(ParametricProperty, CsdfExecutionFollowsTheAffineLaw) {
  SplitMix64 rng(0x3CA1E);
  for (int trial = 0; trial < 40; ++trial) {
    SharedSystemSpec sys;
    const int accels = static_cast<int>(rng.uniform(1, 3));
    sys.chain.accel_cycles_per_sample.clear();
    for (int a = 0; a < accels; ++a)
      sys.chain.accel_cycles_per_sample.push_back(rng.uniform(1, 6));
    sys.chain.entry_cycles_per_sample = rng.uniform(1, 12);
    sys.chain.exit_cycles_per_sample = rng.uniform(1, 4);
    sys.chain.ni_capacity = rng.uniform(2, 4);
    sys.streams = {{"s", Rational(1, 1000), rng.uniform(0, 200)}};
    const ParametricCompletion p = parametric_block_completion(sys, 0);
    for (int probe = 0; probe < 6; ++probe) {
      const std::int64_t eta = rng.uniform(1, 120);
      CsdfModelOptions o;
      o.eta = eta;
      o.alpha0 = eta;
      o.alpha3 = eta;
      o.producer_period = 0;
      o.consumer_period = 0;
      const CsdfStreamModel m = build_csdf_stream_model(sys, 0, o);
      df::SelfTimedExecutor exec(m.graph);
      const auto done = exec.run_until_firings(m.exit, eta);
      ASSERT_TRUE(done.has_value()) << "trial " << trial << " eta=" << eta;
      EXPECT_EQ(*done, p.eval(eta)) << "trial " << trial << " eta=" << eta;
      EXPECT_EQ(*done, block_schedule(sys, 0, eta).completion)
          << "trial " << trial << " eta=" << eta;
    }
  }
}

}  // namespace
}  // namespace acc::sharing
