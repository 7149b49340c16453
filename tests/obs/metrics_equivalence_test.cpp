// Differential metrics-determinism suite (ISSUE 7 tentpole proof): a
// metrics snapshot is part of the simulation's observable outcome, so it
// must be bit-identical across both steppers (kDense / kWakeList) on the
// same workload, and independent of how many worker threads evaluate a
// campaign (--jobs). The suites draw their random system
// shapes from tests/support/random_chain.hpp — the SAME population the
// stepper-equivalence suite proves cycle-exact — fault-free and with all
// four fault sites armed.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "app/fault_campaign.hpp"
#include "app/pal_system.hpp"
#include "obs/metrics.hpp"
#include "sim/system.hpp"

#include "../support/random_chain.hpp"

namespace acc::sim {
namespace {

using testsupport::Params;
using testsupport::Scenario;
using testsupport::random_params;

std::string run_snapshot(const Params& p, StepperKind kind) {
  obs::MetricsRegistry reg;
  Scenario s(p, &reg);
  s.sys.run_with(kind, p.run_cycles);
  return reg.snapshot_text();
}

TEST(MetricsEquivalence, RandomChainsFaultFree) {
  std::mt19937_64 rng(0x0B5);  // fixed seed: the suite is reproducible
  for (int iter = 0; iter < 8; ++iter) {
    const Params p = random_params(rng, /*with_fault=*/false);
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const std::string dense = run_snapshot(p, StepperKind::kDense);
    const std::string wake = run_snapshot(p, StepperKind::kWakeList);
    EXPECT_EQ(dense, wake);
    // Not vacuous: the chain must actually move data through the
    // instrumented interaction points.
    EXPECT_NE(dense.find("gateway.c.entry.admissions"), std::string::npos);
    EXPECT_NE(dense.find("ring.data.delivered"), std::string::npos);
    EXPECT_NE(dense.find("cfifo.in.pushed"), std::string::npos);
  }
}

TEST(MetricsEquivalence, RandomChainsWithFaults) {
  std::mt19937_64 rng(0x0B6);
  for (int iter = 0; iter < 6; ++iter) {
    const Params p = random_params(rng, /*with_fault=*/true);
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const std::string dense = run_snapshot(p, StepperKind::kDense);
    const std::string wake = run_snapshot(p, StepperKind::kWakeList);
    EXPECT_EQ(dense, wake);
    // All four fault sites are armed, so their counters must be registered
    // (activation itself is probabilistic per shape, but the site rows are
    // present and bit-compared above).
    EXPECT_NE(dense.find("fault.ring_link.consults"), std::string::npos);
    EXPECT_NE(dense.find("fault.config_bus.consults"), std::string::npos);
    EXPECT_NE(dense.find("fault.exit_notify.consults"), std::string::npos);
    EXPECT_NE(dense.find("fault.credit_withhold.consults"),
              std::string::npos);
  }
}

TEST(MetricsEquivalence, AttachingRegistryDoesNotPerturbTheRun) {
  // Metrics are observational only: wiring the registry must not change a
  // single event. The full trace is the strictest witness we have.
  std::mt19937_64 rng(0x0B7);
  for (int iter = 0; iter < 4; ++iter) {
    const Params p = random_params(rng, /*with_fault=*/iter % 2 == 1);
    SCOPED_TRACE("iteration " + std::to_string(iter));
    Scenario bare(p);
    bare.sys.run_with(StepperKind::kWakeList, p.run_cycles);
    obs::MetricsRegistry reg;
    Scenario observed(p, &reg);
    observed.sys.run_with(StepperKind::kWakeList, p.run_cycles);
    EXPECT_EQ(bare.trace.to_csv(), observed.trace.to_csv());
    EXPECT_EQ(bare.sys.now(), observed.sys.now());
    EXPECT_EQ(bare.sink->received(), observed.sink->received());
  }
}

TEST(MetricsEquivalence, PalDecoderSnapshotAcrossSteppers) {
  const auto snapshot = [](StepperKind kind) {
    obs::MetricsRegistry reg;
    app::PalSimConfig cfg;
    cfg.input_samples = 1 << 11;
    cfg.stepper = kind;
    cfg.metrics = &reg;
    (void)app::run_pal_decoder(cfg);
    return reg.snapshot_text();
  };
  const std::string dense = snapshot(StepperKind::kDense);
  const std::string wake = snapshot(StepperKind::kWakeList);
  EXPECT_EQ(dense, wake);
  EXPECT_NE(dense.find("tile.cordic.samples"), std::string::npos);
  EXPECT_NE(dense.find("sink.dac.left.received"), std::string::npos);
}

TEST(MetricsEquivalence, CampaignSnapshotsIndependentOfJobs) {
  // Each campaign point owns a private registry, so the per-point snapshot
  // must be byte-identical whether the points run sequentially or on three
  // threads.
  app::FaultCampaignConfig cfg;
  cfg.pal.input_samples = 1 << 11;
  cfg.jobs = 1;
  const app::FaultCampaignResult seq = app::run_fault_campaign(cfg);
  cfg.jobs = 3;
  const app::FaultCampaignResult par = app::run_fault_campaign(cfg);
  ASSERT_EQ(seq.points.size(), par.points.size());
  for (std::size_t i = 0; i < seq.points.size(); ++i) {
    SCOPED_TRACE("point " + seq.points[i].level.label);
    EXPECT_FALSE(seq.points[i].metrics_snapshot.empty());
    EXPECT_EQ(seq.points[i].metrics_snapshot, par.points[i].metrics_snapshot);
  }
}

}  // namespace
}  // namespace acc::sim
