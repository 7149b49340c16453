#include "hwcost/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"

namespace acc::hwcost {
namespace {

TEST(Published, TableOneComponentRows) {
  // Verbatim Table I values.
  EXPECT_EQ(published_cost(Component::kGatewayPair), (FpgaCost{3788, 4445}));
  EXPECT_EQ(published_cost(Component::kFirDownsampler),
            (FpgaCost{6512, 10837}));
  EXPECT_EQ(published_cost(Component::kCordic), (FpgaCost{1714, 1882}));
}

TEST(Published, GatewaySplitSumsToPair) {
  const FpgaCost entry = published_cost(Component::kEntryGateway);
  const FpgaCost exit = published_cost(Component::kExitGateway);
  const FpgaCost pair = published_cost(Component::kGatewayPair);
  EXPECT_EQ(entry + exit, pair);
  // The entry-gateway is "mostly a MicroBlaze" (paper §VI-B).
  const FpgaCost mb = published_cost(Component::kMicroBlaze);
  EXPECT_GT(mb.slices, entry.slices * 7 / 10);
  EXPECT_LT(mb.slices, entry.slices);
}

TEST(TableOne, NonSharedTotals) {
  const SharingComparison c = paper_case_study();
  // Paper Table I: 4*(F+D) + 4*C.
  EXPECT_EQ(c.non_shared.slices, 32904);
  EXPECT_EQ(c.non_shared.luts, 50876);
}

TEST(TableOne, SharedTotals) {
  const SharingComparison c = paper_case_study();
  // Paper Table I: Gateways + (F+D) + (C).
  EXPECT_EQ(c.shared.slices, 12014);
  EXPECT_EQ(c.shared.luts, 17164);
}

TEST(TableOne, SavingsMatchPaper) {
  const SharingComparison c = paper_case_study();
  EXPECT_EQ(c.savings.slices, 20890);
  EXPECT_EQ(c.savings.luts, 33712);
  EXPECT_NEAR(c.slice_saving_pct, 63.5, 0.05);
  EXPECT_NEAR(c.lut_saving_pct, 66.3, 0.05);
}

TEST(Compare, SingleCopyDemandMakesSharingALoss) {
  // Sharing one instance used once just adds gateway overhead.
  const SharingComparison c =
      compare_sharing({{Component::kCordic, 1}});
  EXPECT_LT(c.savings.slices, 0);
  EXPECT_LT(c.slice_saving_pct, 0.0);
}

TEST(Compare, BreakEvenCopyCount) {
  // CORDIC-only sharing pays off once the gateway pair costs less than the
  // saved copies: pair 3788 slices vs CORDIC 1714 -> breakeven at n = 4
  // (savings (n-1)*1714 - 3788 > 0 <=> n > 3.2).
  EXPECT_LT(compare_sharing({{Component::kCordic, 3}}).savings.slices, 0);
  EXPECT_GT(compare_sharing({{Component::kCordic, 4}}).savings.slices, 0);
}

TEST(Compare, RejectsEmptyAndNonPositive) {
  EXPECT_THROW((void)compare_sharing({}), acc::precondition_error);
  EXPECT_THROW((void)compare_sharing({{Component::kCordic, 0}}),
               precondition_error);
}

TEST(Structural, CordicEstimateNearPublished) {
  // 16-iteration, 32-bit datapath (the configuration of our accelerator
  // model) should land near the published CORDIC area.
  const StructuralEstimate e = estimate_cordic(16, 32);
  const FpgaCost pub = published_cost(Component::kCordic);
  EXPECT_NEAR(static_cast<double>(e.luts), static_cast<double>(pub.luts),
              0.3 * static_cast<double>(pub.luts));
}

TEST(Structural, FirEstimateNearPublished) {
  const StructuralEstimate e = estimate_fir(33, 16);
  const FpgaCost pub = published_cost(Component::kFirDownsampler);
  EXPECT_NEAR(static_cast<double>(e.luts), static_cast<double>(pub.luts),
              0.3 * static_cast<double>(pub.luts));
}

TEST(Structural, MicroBlazeEstimateNearPublished) {
  const StructuralEstimate e = estimate_microblaze();
  const FpgaCost pub = published_cost(Component::kMicroBlaze);
  EXPECT_NEAR(static_cast<double>(e.luts), static_cast<double>(pub.luts),
              0.3 * static_cast<double>(pub.luts));
}

TEST(Structural, EstimatesScaleWithParameters) {
  EXPECT_GT(estimate_cordic(24, 32).luts, estimate_cordic(16, 32).luts);
  EXPECT_GT(estimate_cordic(16, 48).luts, estimate_cordic(16, 32).luts);
  EXPECT_GT(estimate_fir(65, 16).luts, estimate_fir(33, 16).luts);
  EXPECT_THROW((void)estimate_cordic(0, 32), acc::precondition_error);
  EXPECT_THROW((void)estimate_fir(33, 4), acc::precondition_error);
}

TEST(Structural, PackingModelMapsToSlices) {
  StructuralEstimate e;
  e.luts = 290;
  e.ffs = 100;
  const FpgaCost c = e.to_cost(PackingModel{2.9, 5.0});
  EXPECT_EQ(c.slices, 100);  // LUT-bound
  EXPECT_EQ(c.luts, 290);
  e.ffs = 1000;
  EXPECT_EQ(e.to_cost(PackingModel{2.9, 5.0}).slices, 200);  // FF-bound
}

TEST(Interconnect, RingScalesLinearly) {
  const auto cmp = compare_interconnects({8, 16});
  ASSERT_EQ(cmp.size(), 2u);
  EXPECT_EQ(cmp[1].ring.luts, 2 * cmp[0].ring.luts);  // strictly linear
}

TEST(Interconnect, CrossbarScalesSuperlinearly) {
  const auto cmp = compare_interconnects({8, 16});
  ASSERT_EQ(cmp.size(), 2u);
  // Quadratic crosspoint growth.
  EXPECT_GT(cmp[1].crossbar.luts, 2 * cmp[0].crossbar.luts);
}

TEST(Interconnect, RingCheaperAtScale) {
  // The paper's argument for the ring (refs [11]/[13]): a switch "results
  // in higher hardware costs compared to the ring-based interconnect".
  const auto cmp = compare_interconnects({4, 8, 16, 32});
  ASSERT_EQ(cmp.size(), 4u);
  // The advantage grows with system size...
  for (std::size_t i = 1; i < cmp.size(); ++i)
    EXPECT_GT(cmp[i].crossbar_over_ring, cmp[i - 1].crossbar_over_ring);
  // ...and the crossbar is decisively more expensive for large MPSoCs.
  EXPECT_GT(cmp.back().crossbar_over_ring, 1.5);
}

TEST(Interconnect, RejectsBadParameters) {
  EXPECT_THROW((void)compare_interconnects({1}), acc::precondition_error);
}

TEST(Arithmetic, CostAlgebra) {
  const FpgaCost a{10, 20};
  const FpgaCost b{1, 2};
  EXPECT_EQ(a + b, (FpgaCost{11, 22}));
  EXPECT_EQ(3 * b, (FpgaCost{3, 6}));
}

}  // namespace
}  // namespace acc::hwcost
