#include "sim/cfifo.hpp"

#include <gtest/gtest.h>

namespace acc::sim {
namespace {

TEST(CFifo, PushVisibleToReaderAfterLag) {
  CFifo f("t", 8, /*rlag=*/4, /*wlag=*/4);
  f.push(0, 11);
  EXPECT_EQ(f.fill_visible(0), 0);
  EXPECT_EQ(f.fill_visible(3), 0);
  EXPECT_EQ(f.fill_visible(4), 1);
  EXPECT_EQ(f.pop(4), 11u);
}

TEST(CFifo, SpaceVisibleToWriterAfterLag) {
  CFifo f("t", 2, 0, /*wlag=*/5);
  f.push(0, 1);
  f.push(0, 2);
  EXPECT_FALSE(f.can_push(0));
  (void)f.pop(1);
  // The freed slot becomes writer-visible at cycle 6.
  EXPECT_FALSE(f.can_push(5));
  EXPECT_TRUE(f.can_push(6));
}

TEST(CFifo, ZeroLagBehavesLikePlainFifo) {
  CFifo f("t", 3, 0, 0);
  f.push(0, 1);
  f.push(0, 2);
  EXPECT_EQ(f.fill_visible(0), 2);
  EXPECT_EQ(f.pop(0), 1u);
  EXPECT_EQ(f.pop(0), 2u);
  EXPECT_TRUE(f.can_push(0));
}

TEST(CFifo, PopWithoutDataThrows) {
  CFifo f("t", 2, 3, 0);
  f.push(0, 9);
  EXPECT_THROW((void)f.pop(1), precondition_error);  // not visible yet
  EXPECT_EQ(f.pop(3), 9u);
  EXPECT_THROW((void)f.pop(10), precondition_error);  // empty
}

TEST(CFifo, PushWithoutSpaceThrows) {
  CFifo f("t", 1, 0, 0);
  f.push(0, 1);
  EXPECT_THROW(f.push(0, 2), precondition_error);
}

TEST(CFifo, CountersAndPeak) {
  CFifo f("t", 4, 0, 0);
  for (int i = 0; i < 4; ++i) f.push(i, static_cast<Flit>(i));
  EXPECT_EQ(f.peak_fill(), 4);
  (void)f.pop(5);
  (void)f.pop(5);
  f.push(6, 9);
  EXPECT_EQ(f.total_pushed(), 5);
  EXPECT_EQ(f.total_popped(), 2);
  EXPECT_EQ(f.true_fill(), 3);
  EXPECT_EQ(f.peak_fill(), 4);
}

TEST(CFifo, OrderPreserved) {
  CFifo f("t", 8, 2, 1);
  for (Flit i = 0; i < 8; ++i) f.push(static_cast<Cycle>(i), 100 + i);
  for (Flit i = 0; i < 8; ++i) EXPECT_EQ(f.pop(100), 100 + i);
}

TEST(CFifo, WriterViewIsConservativeNeverUnsafe) {
  // Whatever the lags, the writer's space estimate never exceeds the true
  // free space.
  CFifo f("t", 4, 3, 7);
  Cycle now = 0;
  for (int step = 0; step < 200; ++step) {
    now += 1;
    if (f.can_push(now)) f.push(now, static_cast<Flit>(step));
    if (step % 3 == 0 && f.can_pop(now)) (void)f.pop(now);
    EXPECT_LE(f.space_visible(now), f.capacity() - f.true_fill());
    EXPECT_LE(f.fill_visible(now), f.true_fill());
  }
}

TEST(CFifo, InvalidConstruction) {
  EXPECT_THROW(CFifo("t", 0), precondition_error);
  EXPECT_THROW(CFifo("t", 1, -1, 0), precondition_error);
}

// --- PR6 hot-path backfill: the O(1) guards at exact deadlines ----------

TEST(CFifo, CanPopFlipsExactlyAtVisibilityDeadline) {
  // can_pop is the head-deadline comparison (<=, not <): the sample is
  // poppable AT its visibility cycle, one cycle earlier it is not.
  CFifo f("t", 8, /*rlag=*/3, /*wlag=*/0);
  f.push(10, 5);
  EXPECT_EQ(f.when_fill_visible(1, 10), 13);
  EXPECT_FALSE(f.can_pop(12));
  EXPECT_TRUE(f.can_pop(13));
  EXPECT_EQ(f.pop(13), 5u);
}

TEST(CFifo, CanPopAtSameCycleWithZeroLag) {
  CFifo f("t", 4, 0, 0);
  EXPECT_FALSE(f.can_pop(0));
  f.push(0, 7);
  EXPECT_TRUE(f.can_pop(0));
}

TEST(CFifo, CanPushFlipsExactlyAtCreditDeadline) {
  // The freed slot becomes writer-visible exactly wlag cycles after the
  // pop, boundary inclusive.
  CFifo f("t", 1, /*rlag=*/0, /*wlag=*/4);
  f.push(0, 1);
  EXPECT_FALSE(f.can_push(1));
  (void)f.pop(2);
  EXPECT_EQ(f.when_space_visible(1, 2), 6);
  EXPECT_FALSE(f.can_push(5));
  EXPECT_TRUE(f.can_push(6));
}

TEST(CFifo, WhenPredictionsAgreeWithGuardsAtEveryCycle) {
  // The event-horizon stepper trusts when_* to be EXACT: stepping the clock
  // cycle by cycle, the guard must flip precisely at the predicted cycle.
  CFifo f("t", 2, /*rlag=*/5, /*wlag=*/3);
  f.push(0, 1);
  f.push(1, 2);
  const Cycle fill_at = f.when_fill_visible(2, 1);
  for (Cycle now = 1; now < fill_at + 2; ++now)
    EXPECT_EQ(f.fill_visible(now) >= 2, now >= fill_at) << "cycle " << now;
  (void)f.pop(fill_at);
  const Cycle space_at = f.when_space_visible(1, fill_at);
  for (Cycle now = fill_at; now < space_at + 2; ++now)
    EXPECT_EQ(f.can_push(now), now >= space_at) << "cycle " << now;
}

TEST(CFifo, HeadDeadlineAdvancesPerToken) {
  // Popping a visible head does not expose a later push before that
  // push's own visibility deadline.
  CFifo f("t", 16, /*rlag=*/6, /*wlag=*/1);
  f.push(0, 1);   // visible at 6
  f.push(10, 2);  // visible at 16
  EXPECT_EQ(f.pop(8), 1u);
  EXPECT_EQ(f.when_fill_visible(1, 8), 16);
  EXPECT_FALSE(f.can_pop(15));
  EXPECT_EQ(f.pop(16), 2u);
}

TEST(CFifo, MetricsFollowPushAndPop) {
  obs::MetricsRegistry reg;
  CFifo f("q", 4, 0, 0);
  f.set_metrics(&reg);
  f.push(0, 1);
  f.push(1, 2);
  (void)f.pop(2);
  const obs::MetricCell* pushed = reg.find("cfifo.q.pushed");
  const obs::MetricCell* popped = reg.find("cfifo.q.popped");
  const obs::MetricCell* occ = reg.find("cfifo.q.occupancy");
  ASSERT_NE(pushed, nullptr);
  ASSERT_NE(popped, nullptr);
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(pushed->value, 2);
  EXPECT_EQ(popped->value, 1);
  EXPECT_EQ(occ->value, 1);  // gauge: occupancy after the pop
  EXPECT_EQ(occ->max, 2);    // peak occupancy seen
}

}  // namespace
}  // namespace acc::sim
