#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "accel/kernel.hpp"
#include "sim/cfifo.hpp"
#include "sim/gateway.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace acc::sim {
namespace {

class Passthrough final : public accel::StreamKernel {
 public:
  void push(CQ16 in, std::vector<CQ16>& out) override { out.push_back(in); }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {0};
  }
  void restore_state(std::span<const std::int32_t>) override {}
  void reset() override {}
  [[nodiscard]] std::size_t state_words() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "pass"; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override {
    return std::make_unique<Passthrough>();
  }
};

/// Two streams multiplexed over one passthrough accelerator, with optional
/// fault injection on every hook point.
struct FaultySystem {
  System sys{4};
  CFifo* in0;
  CFifo* in1;
  CFifo* out0;
  CFifo* out1;
  AcceleratorTile* accel;
  EntryGateway* entry;
  ExitGateway* exit;
  SourceTile* src0;
  SourceTile* src1;

  FaultySystem(std::int64_t eta, Cycle reconfig, std::size_t samples,
               FaultInjector* fault, TraceLog* trace = nullptr,
               Cycle accel_cycles = 1) {
    in0 = &sys.add_fifo("in0", 4 * eta);
    in1 = &sys.add_fifo("in1", 4 * eta);
    out0 = &sys.add_fifo("out0", 4 * eta);
    out1 = &sys.add_fifo("out1", 4 * eta);

    accel = &sys.add<AcceleratorTile>("acc", sys.ring(), 1, accel_cycles, 2);
    accel->register_context(0, std::make_unique<Passthrough>());
    accel->register_context(1, std::make_unique<Passthrough>());
    accel->set_upstream(0, 1);
    accel->set_downstream(3, 2, 2);

    exit = &sys.add<ExitGateway>("exit", sys.ring(), 3, 1, 2);
    exit->set_upstream(1, 1);
    entry = &sys.add<EntryGateway>("entry", sys.ring(), 0, 2, 1, 1, 2);
    entry->set_chain({accel});
    entry->set_exit(exit);
    exit->set_entry(entry);
    entry->add_stream({0, "s0", eta, eta, in0, out0, reconfig});
    entry->add_stream({1, "s1", eta, eta, in1, out1, reconfig});

    if (fault != nullptr) {
      entry->set_fault(fault);
      exit->set_fault(fault);
      sys.ring().set_fault(fault);
      in0->set_fault(fault);
      in1->set_fault(fault);
    }
    if (trace != nullptr) {
      entry->set_trace(trace);
      exit->set_trace(trace);
    }

    std::vector<Flit> payload0(samples);
    std::vector<Flit> payload1(samples);
    std::iota(payload0.begin(), payload0.end(), Flit{1000});
    std::iota(payload1.begin(), payload1.end(), Flit{500000});
    src0 = &sys.add<SourceTile>("src0", *in0, payload0, 16);
    src1 = &sys.add<SourceTile>("src1", *in1, payload1, 16);
  }

  std::vector<Flit> drain_out(CFifo& f) {
    std::vector<Flit> v;
    while (f.can_pop(sys.now())) v.push_back(f.pop(sys.now()));
    return v;
  }

  void expect_all_delivered(std::size_t samples) {
    const std::vector<Flit> got0 = drain_out(*out0);
    const std::vector<Flit> got1 = drain_out(*out1);
    ASSERT_EQ(got0.size(), samples);
    ASSERT_EQ(got1.size(), samples);
    for (std::size_t i = 0; i < samples; ++i) {
      EXPECT_EQ(got0[i], 1000 + i);
      EXPECT_EQ(got1[i], 500000 + i);
    }
  }
};

FaultSpec delay_spec(double p, Cycle max_delay, Cycle min_spacing = 0) {
  FaultSpec s;
  s.probability = p;
  s.max_delay = max_delay;
  s.min_spacing = min_spacing;
  return s;
}

TEST(FaultInjector, SameSeedSameSequenceDifferentSeedDiverges) {
  FaultInjector a(42);
  FaultInjector b(42);
  FaultInjector c(43);
  const FaultSpec spec = delay_spec(0.5, 10);
  a.configure(FaultSite::kRingLink, spec);
  b.configure(FaultSite::kRingLink, spec);
  c.configure(FaultSite::kRingLink, spec);
  bool diverged = false;
  for (Cycle t = 0; t < 2000; ++t) {
    const Cycle da = a.delay(FaultSite::kRingLink, t);
    EXPECT_EQ(da, b.delay(FaultSite::kRingLink, t));
    diverged |= da != c.delay(FaultSite::kRingLink, t);
  }
  EXPECT_TRUE(diverged);
  EXPECT_GT(a.total_injected(), 0);
  EXPECT_EQ(a.total_injected(), b.total_injected());
}

TEST(FaultInjector, SitesHaveIndependentStreams) {
  FaultInjector inj(7);
  inj.configure(FaultSite::kRingLink, delay_spec(0.5, 10));
  inj.configure(FaultSite::kConfigBus, delay_spec(0.5, 10));
  bool differ = false;
  for (Cycle t = 0; t < 500; ++t) {
    differ |= inj.delay(FaultSite::kRingLink, t) !=
              inj.delay(FaultSite::kConfigBus, t);
  }
  EXPECT_TRUE(differ);
}

TEST(FaultInjector, HonorsMinSpacing) {
  FaultInjector inj(1);
  inj.configure(FaultSite::kRingLink, delay_spec(1.0, 4, /*spacing=*/100));
  Cycle last_hit = -1;
  for (Cycle t = 0; t < 5000; ++t) {
    if (inj.delay(FaultSite::kRingLink, t) > 0) {
      if (last_hit >= 0) {
        EXPECT_GE(t - last_hit, 100);
      }
      last_hit = t;
    }
  }
  EXPECT_GE(inj.total_injected(), 2);
}

TEST(FaultInjector, HonorsWindow) {
  FaultInjector inj(1);
  FaultSpec s = delay_spec(1.0, 4);
  s.window_from = 100;
  s.window_until = 200;
  inj.configure(FaultSite::kConfigBus, s);
  for (Cycle t = 0; t < 400; ++t) {
    const Cycle d = inj.delay(FaultSite::kConfigBus, t);
    if (t < 100 || t >= 200) {
      EXPECT_EQ(d, 0) << "at " << t;
    }
  }
  EXPECT_GT(inj.total_injected(), 0);
  EXPECT_LE(inj.stats(FaultSite::kConfigBus).consults, 100);
}

TEST(FaultInjector, StatsAreConsistent) {
  FaultInjector inj(99);
  inj.configure(FaultSite::kExitNotify, delay_spec(0.3, 8));
  Cycle sum = 0;
  for (Cycle t = 0; t < 1000; ++t) sum += inj.delay(FaultSite::kExitNotify, t);
  const FaultSiteStats& st = inj.stats(FaultSite::kExitNotify);
  // Injected delays open quiet windows, so not every cycle is a consult.
  EXPECT_GT(st.consults, 0);
  EXPECT_LE(st.consults, 1000);
  EXPECT_GT(st.injected, 0);
  EXPECT_LT(st.injected, st.consults);
  EXPECT_EQ(st.delay_cycles, sum);
  EXPECT_LE(st.max_delay_seen, 8);
  EXPECT_GE(st.max_delay_seen, 1);
  EXPECT_EQ(inj.total_delay_cycles(), sum);
}

TEST(FaultInjector, WorstCaseBlockDelayScalesWithSpecs) {
  FaultInjector none(5);
  EXPECT_EQ(none.worst_case_block_delay(10000, 64), 0);

  FaultInjector inj(5);
  inj.configure(FaultSite::kConfigBus, delay_spec(0.1, 64));
  const Cycle bus_only = inj.worst_case_block_delay(10000, 64);
  EXPECT_GE(bus_only, 64);
  inj.configure(FaultSite::kCreditWithhold, delay_spec(0.1, 4));
  const Cycle with_credit = inj.worst_case_block_delay(10000, 64);
  EXPECT_GE(with_credit, bus_only + 2 * 64 * 4);
  inj.configure(FaultSite::kRingLink, delay_spec(0.1, 6, 200));
  EXPECT_GT(inj.worst_case_block_delay(10000, 64), with_credit);
}

TEST(FaultRing, StallsDelayButDeliverEverything) {
  FaultInjector inj(11);
  inj.configure(FaultSite::kRingLink, delay_spec(1.0, 3, /*spacing=*/50));
  FaultySystem faulty(16, 20, 64, &inj);
  FaultySystem clean(16, 20, 64, nullptr);
  faulty.sys.run(64 * 16 + 20000);
  clean.sys.run(64 * 16 + 20000);

  EXPECT_GT(faulty.sys.ring().data().stall_cycles(), 0);
  faulty.expect_all_delivered(64);
  // Faults must slow the system down, never speed it up (conservatism).
  ASSERT_EQ(faulty.entry->block_completions(0).size(),
            clean.entry->block_completions(0).size());
  for (std::size_t k = 0; k < clean.entry->block_completions(0).size(); ++k) {
    EXPECT_GE(faulty.entry->block_completions(0)[k],
              clean.entry->block_completions(0)[k]);
  }
}

TEST(FaultCfifo, WithheldCreditsPreserveOrderAndData) {
  FaultInjector inj(13);
  inj.configure(FaultSite::kCreditWithhold, delay_spec(1.0, 6));
  CFifo f("f", 8, /*rlag=*/2, /*wlag=*/2);
  f.set_fault(&inj);

  // Visibility of a push is delayed beyond the nominal lag but data
  // survives in order.
  f.push(0, 111);
  EXPECT_FALSE(f.can_pop(2));  // nominal lag alone would have shown it
  Cycle seen_at = -1;
  for (Cycle t = 2; t <= 9; ++t) {
    if (f.can_pop(t)) {
      seen_at = t;
      break;
    }
  }
  ASSERT_GE(seen_at, 3);
  EXPECT_LE(seen_at, 2 + 6);
  f.push(seen_at, 222);
  EXPECT_EQ(f.pop(seen_at), 111);
  for (Cycle t = seen_at; t < seen_at + 10; ++t) {
    if (f.can_pop(t)) {
      EXPECT_EQ(f.pop(t), 222);
      break;
    }
  }
  EXPECT_EQ(f.total_popped(), 2);
}

TEST(FaultCfifo, VisibilityStaysMonotone) {
  // A withheld credit must also hold back everything pushed after it —
  // the reader sees a single write counter, not per-sample flags.
  FaultInjector inj(17);
  FaultSpec s = delay_spec(1.0, 50);
  s.min_spacing = 1000;  // only the first push gets the big delay
  inj.configure(FaultSite::kCreditWithhold, s);
  CFifo f("f", 8, 1, 1);
  f.set_fault(&inj);
  f.push(0, 1);   // delayed visibility
  f.push(1, 2);   // nominal lag, but must NOT become visible before flit 1
  Cycle first_visible = -1;
  for (Cycle t = 0; t < 100 && first_visible < 0; ++t)
    if (f.fill_visible(t) > 0) first_visible = t;
  ASSERT_GE(first_visible, 2);
  // When the first flit becomes visible the second follows, never leads.
  EXPECT_EQ(f.fill_visible(first_visible), 2);
}

TEST(FaultGateway, ConfigBusContentionIsTracedAndHarmless) {
  FaultInjector inj(19);
  inj.configure(FaultSite::kConfigBus, delay_spec(1.0, 32));
  TraceLog trace;
  FaultySystem ms(16, 20, 64, &inj, &trace);
  ms.sys.run(64 * 16 + 30000);
  ms.expect_all_delivered(64);
  EXPECT_FALSE(trace.of("fault.config_bus").empty());
  for (const TraceEvent& e : trace.of("fault.config_bus")) {
    EXPECT_GE(e.value, 1);
    EXPECT_LE(e.value, 32);
  }
}

TEST(FaultGateway, DroppedNotificationsRecoverViaRetryWithoutDeadlock) {
  FaultInjector inj(23);
  FaultSpec s;
  s.drop_probability = 1.0;  // every notification is lost
  inj.configure(FaultSite::kExitNotify, s);
  TraceLog trace;
  FaultySystem ms(16, 20, 64, &inj, &trace);
  ms.entry->set_retry_policy(GatewayRetryPolicy{/*timeout=*/300,
                                                /*max_retries=*/4,
                                                /*backoff=*/0});
  ms.sys.run(64 * 16 + 120000);

  ms.expect_all_delivered(64);
  const GatewayStats& st = ms.entry->stats();
  EXPECT_EQ(st.blocks, 8);
  EXPECT_GT(st.notify_timeouts, 0);
  EXPECT_GT(st.notify_recoveries, 0);
  EXPECT_EQ(ms.exit->notifications_dropped(), inj.total_dropped());
  EXPECT_GT(inj.total_dropped(), 0);
  EXPECT_FALSE(trace.of("fault.notify_drop").empty());
  EXPECT_FALSE(trace.of("notify.reclaimed").empty());
}

TEST(FaultGateway, DelayedNotificationsNeedNoRetry) {
  FaultInjector inj(29);
  inj.configure(FaultSite::kExitNotify, delay_spec(1.0, 20));
  FaultySystem ms(16, 20, 64, &inj);
  ms.entry->set_retry_policy(GatewayRetryPolicy{/*timeout=*/5000,
                                                /*max_retries=*/4,
                                                /*backoff=*/0});
  ms.sys.run(64 * 16 + 30000);
  ms.expect_all_delivered(64);
  EXPECT_EQ(ms.entry->stats().notify_timeouts, 0);
}

TEST(FaultGateway, CreditStallEpisodesAreDetected) {
  // A slow accelerator (100 cycles/sample vs epsilon = 2) starves the
  // entry gateway of ring credits for long stretches mid-block: the stall
  // detector must flag the episodes, and every sample must still arrive.
  FaultySystem ms(16, 20, /*samples=*/32, nullptr, nullptr,
                  /*accel_cycles=*/100);
  TraceLog trace;
  ms.entry->set_trace(&trace);
  ms.sys.run(32 * 16 + 2 * 32 * 100 + 30000);
  ms.expect_all_delivered(32);
  EXPECT_GT(ms.entry->stats().credit_stalls, 0);
  EXPECT_GT(ms.entry->stats().credit_stall_cycles, 0);
  EXPECT_FALSE(trace.of("stall.credit").empty());
}

}  // namespace
}  // namespace acc::sim
