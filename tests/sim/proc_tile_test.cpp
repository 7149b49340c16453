#include "sim/proc_tile.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "sim/system.hpp"

namespace acc::sim {
namespace {

TEST(ProcessorTile, RunsTasksAndChargesCost) {
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/100);
  int runs = 0;
  pt.add_task(Task{"t", [&](Cycle) -> Cycle {
                     ++runs;
                     return 10;
                   },
                   /*budget=*/100});
  sys.run(100);
  // Each invocation costs 10 cycles: ~10 invocations in 100 cycles.
  EXPECT_GE(runs, 9);
  EXPECT_LE(runs, 11);
  EXPECT_EQ(pt.invocations(0), runs);
}

TEST(ProcessorTile, BudgetLimitsTaskShare) {
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/100);
  int greedy = 0;
  pt.add_task(Task{"greedy", [&](Cycle) -> Cycle {
                     ++greedy;
                     return 10;
                   },
                   /*budget=*/30});
  sys.run(1000);
  // 30 cycles of budget per 100-cycle period -> at most 3 runs per period.
  EXPECT_LE(greedy, 3 * 10 + 1);
  EXPECT_GE(greedy, 3 * 10 - 3);
}

TEST(ProcessorTile, RoundRobinSharesBetweenTasks) {
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", 100);
  int a = 0;
  int b = 0;
  pt.add_task(Task{"a", [&](Cycle) -> Cycle {
                     ++a;
                     return 5;
                   },
                   50});
  pt.add_task(Task{"b", [&](Cycle) -> Cycle {
                     ++b;
                     return 5;
                   },
                   50});
  sys.run(1000);
  EXPECT_NEAR(a, b, 2);
  EXPECT_GT(a, 50);
}

TEST(ProcessorTile, UnequalBudgetsEachGetTheirShare) {
  // Two always-ready tasks: the one registered first exhausts its small
  // budget and is suspended until the next replenishment, so the other
  // gets its whole budget every period — the temporal isolation the
  // dataflow analysis of software tasks relies on.
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", 100);
  int greedy = 0;
  int meek = 0;
  pt.add_task(Task{"greedy", [&](Cycle) -> Cycle {
                     ++greedy;
                     return 5;
                   },
                   /*budget=*/20});
  pt.add_task(Task{"meek", [&](Cycle) -> Cycle {
                     ++meek;
                     return 5;
                   },
                   /*budget=*/80});
  sys.run(1000);
  EXPECT_NEAR(greedy, 4 * 10, 2);  // 20/5 runs per period
  EXPECT_NEAR(meek, 16 * 10, 3);   // 80/5 runs per period
}

TEST(ProcessorTile, BlockedTaskYieldsToOthers) {
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", 100);
  int blocked_polls = 0;
  int worker = 0;
  pt.add_task(Task{"blocked", [&](Cycle) -> Cycle {
                     ++blocked_polls;
                     return 0;  // never has work
                   },
                   50});
  pt.add_task(Task{"worker", [&](Cycle) -> Cycle {
                     ++worker;
                     return 4;
                   },
                   50});
  sys.run(400);
  EXPECT_GT(worker, 40);  // got the cycles the blocked task couldn't use
}

TEST(ProcessorTile, HintedTaskWithoutWakeFifosIsRejected) {
  // A next_ready hint with no declared wake FIFO could go stale: no push
  // or pop would wake the tile, so add_task refuses it and keeps its tasks.
  System sys(2);
  CFifo& f = sys.add_fifo("f", 8);
  auto& pt = sys.add<ProcessorTile>("pt", 100);
  Task t{"pop", [&f](Cycle now) -> Cycle {
           if (!f.can_pop(now)) return 0;
           (void)f.pop(now);
           return 1;
         },
         50};
  t.next_ready = [&f](Cycle now) { return f.when_fill_visible(1, now); };
  EXPECT_THROW(pt.add_task(t), precondition_error);
  EXPECT_THROW((void)pt.invocations(0), precondition_error);
  t.wake_on_push = {&f};
  pt.add_task(std::move(t));
  f.push(0, 7);
  sys.run(10);
  EXPECT_EQ(pt.invocations(0), 1);
}

TEST(SourceTile, EmitsAtFixedRateAndCountsDrops) {
  System sys(2);
  CFifo& f = sys.add_fifo("f", 4, 0, 0);
  std::vector<Flit> data(10, 7);
  auto& src = sys.add<SourceTile>("src", f, data, /*period=*/3);
  sys.run(100);
  // Nobody drains: 4 accepted, 6 dropped.
  EXPECT_EQ(src.emitted(), 4);
  EXPECT_EQ(src.dropped(), 6);
  EXPECT_TRUE(src.exhausted());
}

TEST(SourceTile, NoDropsWhenDrained) {
  System sys(2);
  CFifo& f = sys.add_fifo("f", 4, 0, 0);
  std::vector<Flit> data(20, 9);
  auto& src = sys.add<SourceTile>("src", f, data, 3);
  auto& sink = sys.add<SinkTile>("sink", f, 3, 1);
  // Run just past the stream's natural end: a DAC counts demands beyond the
  // end of the broadcast as underruns, so the horizon matters.
  sys.run(58);
  EXPECT_EQ(src.dropped(), 0);
  EXPECT_EQ(sink.received().size(), 20u);
  EXPECT_EQ(sink.underruns(), 0);
}

TEST(SinkTile, WaitsForPrefillThenConsumesPeriodically) {
  System sys(2);
  CFifo& f = sys.add_fifo("f", 16, 0, 0);
  auto& sink = sys.add<SinkTile>("sink", f, /*period=*/5, /*prefill=*/3);
  sys.run(10);
  EXPECT_FALSE(sink.started());
  f.push(sys.now(), 1);
  f.push(sys.now(), 2);
  sys.run(10);
  EXPECT_FALSE(sink.started());  // below prefill
  f.push(sys.now(), 3);
  sys.run(20);
  EXPECT_TRUE(sink.started());
  ASSERT_GE(sink.timestamps().size(), 2u);
  EXPECT_EQ(sink.timestamps()[1] - sink.timestamps()[0], 5);
}

TEST(SinkTile, CountsUnderruns) {
  System sys(2);
  CFifo& f = sys.add_fifo("f", 16, 0, 0);
  auto& sink = sys.add<SinkTile>("sink", f, 2, 1);
  f.push(0, 1);
  sys.run(21);
  // Started at t=0 with one sample; 10 more demands with nothing there.
  EXPECT_EQ(sink.received().size(), 1u);
  EXPECT_GE(sink.underruns(), 9);
}

}  // namespace
}  // namespace acc::sim
