// ISSUE 2 satellite 2: the fault campaign is deterministic — the same seed
// yields a bit-identical BENCH_faults.json document and bit-identical
// per-point gateway traces, across repeated runs and across --jobs values.
// The test is sanitizer-friendly: under TSan it additionally exercises the
// parallel loop for races (campaign points share no mutable state).
#include <gtest/gtest.h>

#include "app/fault_campaign.hpp"

namespace acc::app {
namespace {

TEST(FaultDeterminism, SameSeedSameDocAcrossRunsAndJobs) {
  FaultCampaignConfig cfg;  // default small campaign, seed 0x5EED
  cfg.jobs = 1;
  const FaultCampaignResult serial = run_fault_campaign(cfg);
  const std::string serial_doc = faults_bench_doc(cfg, serial).dump();

  cfg.jobs = 2;
  const FaultCampaignResult threaded = run_fault_campaign(cfg);
  const std::string threaded_doc = faults_bench_doc(cfg, threaded).dump();

  EXPECT_EQ(serial_doc, threaded_doc);
  ASSERT_EQ(serial.points.size(), threaded.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].trace_csv, threaded.points[i].trace_csv)
        << "point " << i << " (" << serial.points[i].level.label << ")";
  }

  // Same seed again: bit-identical, not merely equivalent.
  cfg.jobs = 1;
  const FaultCampaignResult again = run_fault_campaign(cfg);
  EXPECT_EQ(faults_bench_doc(cfg, again).dump(), serial_doc);
}

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  FaultCampaignConfig a;
  a.levels = {{"moderate", 1.0, false}};
  FaultCampaignConfig b = a;
  b.seed = a.seed + 1;
  const FaultCampaignResult ra = run_fault_campaign(a);
  const FaultCampaignResult rb = run_fault_campaign(b);
  ASSERT_EQ(ra.points.size(), 1u);
  ASSERT_EQ(rb.points.size(), 1u);
  EXPECT_NE(ra.points[0].trace_csv, rb.points[0].trace_csv);
}

}  // namespace
}  // namespace acc::app
