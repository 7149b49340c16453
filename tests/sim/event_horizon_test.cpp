// Cycle-exact equivalence of the two steppers: System::run (wake-list,
// selective ticking of woken components) must be indistinguishable from
// System::run_dense (the reference every-cycle loop) in EVERY externally
// visible respect — trace contents, final state, stats, delivered data, and
// the deterministic fault pattern — on randomized gateway chains with fixed
// seeds, fault-free and under fault injection, and on the full PAL decoder
// demonstrator.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <random>
#include <string>
#include <vector>

#include "app/pal_system.hpp"
#include "sim/fault.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

#include "../support/random_chain.hpp"

namespace acc::sim {
namespace {

// Generators shared with the metrics-determinism suite: both suites must
// stress the SAME population of random system shapes.
using testsupport::Params;
using testsupport::Scenario;
using testsupport::random_params;

/// Everything externally visible about one finished run.
struct Digest {
  Cycle now = 0;
  std::string trace_csv;
  std::int64_t emitted = 0;
  std::int64_t drops = 0;
  std::vector<Flit> received;
  std::vector<Cycle> stamps;
  std::int64_t underruns = 0;
  GatewayStats gw;
  std::int64_t exit_delivered = 0;
  std::int64_t ring_data_delivered = 0;
  std::int64_t ring_credit_delivered = 0;
  Cycle ring_data_stalls = 0;
  Cycle ring_credit_stalls = 0;
  std::int64_t in_pushed = 0;
  std::int64_t mid_popped = 0;
  std::int64_t proc_invocations = -1;
  Cycle proc_busy = -1;
  std::array<FaultSiteStats, kNumFaultSites> fsite{};
  StepperStats stepper;
};

Digest run_scenario(const Params& p, StepperKind kind) {
  Scenario s(p);
  s.sys.run_with(kind, p.run_cycles);

  Digest d;
  d.now = s.sys.now();
  d.trace_csv = s.trace.to_csv();
  d.emitted = s.src->emitted();
  d.drops = s.src->dropped();
  d.received = s.sink->received();
  d.stamps = s.sink->timestamps();
  d.underruns = s.sink->underruns();
  d.gw = s.chain.entry->stats();
  d.exit_delivered = s.chain.exit->samples_delivered();
  d.ring_data_delivered = s.sys.ring().data().delivered();
  d.ring_credit_delivered = s.sys.ring().credit().delivered();
  d.ring_data_stalls = s.sys.ring().data().stall_cycles();
  d.ring_credit_stalls = s.sys.ring().credit().stall_cycles();
  d.in_pushed = s.in->total_pushed();
  d.mid_popped = s.mid->total_popped();
  if (s.proc != nullptr) {
    d.proc_invocations = s.proc->invocations(0);
    d.proc_busy = s.proc->busy_cycles();
  }
  for (int i = 0; i < kNumFaultSites; ++i)
    d.fsite[static_cast<std::size_t>(i)] =
        s.fault.stats(static_cast<FaultSite>(i));
  d.stepper = s.sys.stepper_stats();
  return d;
}

void expect_equivalent(const Digest& dense, const Digest& event) {
  EXPECT_EQ(dense.now, event.now);
  EXPECT_EQ(dense.trace_csv, event.trace_csv);
  EXPECT_EQ(dense.emitted, event.emitted);
  EXPECT_EQ(dense.drops, event.drops);
  EXPECT_EQ(dense.received, event.received);
  EXPECT_EQ(dense.stamps, event.stamps);
  EXPECT_EQ(dense.underruns, event.underruns);
  EXPECT_EQ(dense.gw.blocks, event.gw.blocks);
  EXPECT_EQ(dense.gw.samples_forwarded, event.gw.samples_forwarded);
  EXPECT_EQ(dense.gw.data_cycles, event.gw.data_cycles);
  EXPECT_EQ(dense.gw.reconfig_cycles, event.gw.reconfig_cycles);
  EXPECT_EQ(dense.gw.wait_cycles, event.gw.wait_cycles);
  EXPECT_EQ(dense.gw.notify_timeouts, event.gw.notify_timeouts);
  EXPECT_EQ(dense.gw.notify_retries, event.gw.notify_retries);
  EXPECT_EQ(dense.gw.notify_recoveries, event.gw.notify_recoveries);
  EXPECT_EQ(dense.gw.credit_stalls, event.gw.credit_stalls);
  EXPECT_EQ(dense.gw.credit_stall_cycles, event.gw.credit_stall_cycles);
  EXPECT_EQ(dense.exit_delivered, event.exit_delivered);
  EXPECT_EQ(dense.ring_data_delivered, event.ring_data_delivered);
  EXPECT_EQ(dense.ring_credit_delivered, event.ring_credit_delivered);
  EXPECT_EQ(dense.ring_data_stalls, event.ring_data_stalls);
  EXPECT_EQ(dense.ring_credit_stalls, event.ring_credit_stalls);
  EXPECT_EQ(dense.in_pushed, event.in_pushed);
  EXPECT_EQ(dense.mid_popped, event.mid_popped);
  EXPECT_EQ(dense.proc_invocations, event.proc_invocations);
  EXPECT_EQ(dense.proc_busy, event.proc_busy);
  for (std::size_t i = 0; i < kNumFaultSites; ++i) {
    SCOPED_TRACE("fault site " + std::to_string(i));
    EXPECT_EQ(dense.fsite[i].consults, event.fsite[i].consults);
    EXPECT_EQ(dense.fsite[i].injected, event.fsite[i].injected);
    EXPECT_EQ(dense.fsite[i].dropped, event.fsite[i].dropped);
    EXPECT_EQ(dense.fsite[i].delay_cycles, event.fsite[i].delay_cycles);
    EXPECT_EQ(dense.fsite[i].max_delay_seen, event.fsite[i].max_delay_seen);
  }
  // Conservation: every simulated cycle was either ticked or skipped.
  EXPECT_EQ(event.stepper.dense_ticks + event.stepper.skipped_cycles,
            event.now);
  EXPECT_EQ(dense.stepper.dense_ticks, dense.now);
  EXPECT_EQ(dense.stepper.skips, 0);
  EXPECT_EQ(dense.stepper.wakes, 0);
  EXPECT_EQ(dense.stepper.horizon_queries, 0);
}

TEST(EventHorizon, RandomChainsFaultFree) {
  std::mt19937_64 rng(0xACC0);  // fixed seed: the suite is reproducible
  std::int64_t skipped_wake = 0;
  std::int64_t wake_notifications = 0;
  std::int64_t dense_component_ticks = 0;
  std::int64_t wake_component_ticks = 0;
  for (int iter = 0; iter < 10; ++iter) {
    const Params p = random_params(rng, /*with_fault=*/false);
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const Digest dense = run_scenario(p, StepperKind::kDense);
    const Digest wake = run_scenario(p, StepperKind::kWakeList);
    expect_equivalent(dense, wake);
    skipped_wake += wake.stepper.skipped_cycles;
    wake_notifications += wake.stepper.wakes;
    dense_component_ticks += dense.stepper.component_ticks;
    wake_component_ticks += wake.stepper.component_ticks;
  }
  // The machinery must actually engage — a stepper that never skips (or a
  // wake list that never fires, or that ticks everything anyway) would pass
  // every equivalence check vacuously.
  EXPECT_GT(skipped_wake, 0);
  EXPECT_GT(wake_notifications, 0);
  EXPECT_LT(wake_component_ticks, dense_component_ticks);
}

TEST(EventHorizon, RandomChainsWithFaults) {
  std::mt19937_64 rng(0xACC1);
  std::int64_t skipped_wake = 0;
  for (int iter = 0; iter < 8; ++iter) {
    const Params p = random_params(rng, /*with_fault=*/true);
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const Digest dense = run_scenario(p, StepperKind::kDense);
    const Digest wake = run_scenario(p, StepperKind::kWakeList);
    expect_equivalent(dense, wake);
    skipped_wake += wake.stepper.skipped_cycles;
  }
  EXPECT_GT(skipped_wake, 0);
}

TEST(EventHorizon, SkipsDominateQuiescentTail) {
  // Payload drains within a few thousand cycles; the remaining tail is pure
  // quiescence the wake-list stepper should jump over nearly for free.
  Params p;
  p.run_cycles = 30000;
  const Digest wake = run_scenario(p, StepperKind::kWakeList);
  EXPECT_GT(wake.stepper.skips, 0);
  EXPECT_GT(wake.stepper.skipped_cycles, p.run_cycles / 2);
}

TEST(EventHorizon, RunUntilMatchesDenseStepping) {
  // run_until with a STATE-based predicate must fire at the same cycle the
  // dense reference finds by single-stepping.
  Params p;
  const std::int64_t want =
      p.eta * p.payload_blocks / 2;  // mid-run, not at the quiescent tail
  Scenario dense(p);
  Cycle dense_fired = -1;
  for (Cycle c = 0; c < p.run_cycles; ++c) {
    if (dense.sink->received().size() >= static_cast<std::size_t>(want)) {
      dense_fired = dense.sys.now();
      break;
    }
    dense.sys.run_dense(1);
  }
  ASSERT_GE(dense_fired, 0);

  Scenario event(p);
  SinkTile* snk = event.sink;
  const bool fired = event.sys.run_until(
      [snk, want](Cycle) {
        return snk->received().size() >= static_cast<std::size_t>(want);
      },
      p.run_cycles);
  ASSERT_TRUE(fired);
  EXPECT_EQ(event.sys.now(), dense_fired);
  EXPECT_EQ(event.sink->received(), dense.sink->received());
}

TEST(EventHorizon, RunUntilEvaluatesPredicateOncePerStep) {
  // Regression: run_until used to evaluate the predicate twice per loop
  // step. The contract is one evaluation per visited cycle — observable
  // with a counting predicate: the cycles it sees must strictly increase
  // (no cycle presented twice) even across quiescent jumps.
  Params p;
  Scenario s(p);
  std::vector<Cycle> seen;
  const bool fired = s.sys.run_until(
      [&seen](Cycle now) {
        seen.push_back(now);
        return false;
      },
      2000);
  EXPECT_FALSE(fired);
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    ASSERT_LT(seen[i - 1], seen[i])
        << "predicate evaluated twice at cycle " << seen[i];
  }
  // The final evaluation happens at the budget end.
  EXPECT_EQ(seen.back(), 2000);
  // And one evaluation per visited cycle at most: never more evaluations
  // than cycles + 1 (the +1 is the entry check at cycle 0).
  EXPECT_LE(seen.size(), static_cast<std::size_t>(2001));
}

// --- Full PAL decoder demonstrator -------------------------------------

app::PalSimConfig small_pal() {
  app::PalSimConfig cfg;
  cfg.input_samples = 1 << 11;  // short but covers many blocks per stream
  return cfg;
}

void expect_same_pal(const app::PalSimResult& dense,
                     const app::PalSimResult& event) {
  EXPECT_EQ(dense.left, event.left);
  EXPECT_EQ(dense.right, event.right);
  EXPECT_EQ(dense.source_drops, event.source_drops);
  EXPECT_EQ(dense.sink_underruns, event.sink_underruns);
  EXPECT_EQ(dense.cycles_run, event.cycles_run);
  EXPECT_EQ(dense.max_audio_latency, event.max_audio_latency);
  EXPECT_EQ(dense.cordic_samples, event.cordic_samples);
  EXPECT_EQ(dense.fir_samples, event.fir_samples);
  EXPECT_EQ(dense.cordic_busy, event.cordic_busy);
  EXPECT_EQ(dense.fir_busy, event.fir_busy);
  EXPECT_EQ(dense.blocks_per_stream, event.blocks_per_stream);
  EXPECT_EQ(dense.gateway.blocks, event.gateway.blocks);
  EXPECT_EQ(dense.gateway.samples_forwarded, event.gateway.samples_forwarded);
  EXPECT_EQ(dense.gateway.data_cycles, event.gateway.data_cycles);
  EXPECT_EQ(dense.gateway.reconfig_cycles, event.gateway.reconfig_cycles);
  EXPECT_EQ(dense.gateway.wait_cycles, event.gateway.wait_cycles);
  EXPECT_EQ(dense.gateway.credit_stall_cycles,
            event.gateway.credit_stall_cycles);
}

TEST(EventHorizon, PalDecoderEquivalence) {
  app::PalSimConfig cfg = small_pal();
  cfg.stepper = StepperKind::kDense;
  const app::PalSimResult dense = app::run_pal_decoder(cfg);
  cfg.stepper = StepperKind::kWakeList;
  const app::PalSimResult wake = app::run_pal_decoder(cfg);
  expect_same_pal(dense, wake);
  EXPECT_EQ(dense.stepper.skips, 0);
  EXPECT_GT(wake.stepper.skipped_cycles, 0);
  EXPECT_GT(wake.stepper.wakes, 0);
  // Selective ticking: the wake list must tick strictly fewer components
  // than dense on the same workload.
  EXPECT_LT(wake.stepper.component_ticks, dense.stepper.component_ticks);
}

TEST(EventHorizon, PalDecoderEquivalenceUnderFaults) {
  const auto run = [](StepperKind kind) {
    FaultInjector inj(0xFA117);
    FaultSpec ring;
    ring.probability = 0.01;
    ring.max_delay = 4;
    ring.min_spacing = 200;
    inj.configure(FaultSite::kRingLink, ring);
    FaultSpec bus;
    bus.probability = 0.4;
    bus.max_delay = 50;
    inj.configure(FaultSite::kConfigBus, bus);
    FaultSpec notify;
    notify.probability = 0.3;
    notify.max_delay = 20;
    notify.drop_probability = 0.1;
    inj.configure(FaultSite::kExitNotify, notify);
    TraceLog trace(1 << 18);
    app::PalSimConfig cfg = small_pal();
    cfg.stepper = kind;
    cfg.fault = &inj;
    cfg.trace = &trace;
    cfg.notify_timeout = 2000;  // recovery: drops must not deadlock
    app::PalSimResult res = app::run_pal_decoder(cfg);
    return std::make_pair(std::move(res), trace.to_csv());
  };
  const auto [dense, dense_csv] = run(StepperKind::kDense);
  const auto [wake, wake_csv] = run(StepperKind::kWakeList);
  expect_same_pal(dense, wake);
  EXPECT_EQ(dense_csv, wake_csv);
  EXPECT_EQ(dense.gateway.notify_timeouts, wake.gateway.notify_timeouts);
  EXPECT_EQ(dense.gateway.notify_recoveries, wake.gateway.notify_recoveries);
}

TEST(EventHorizon, PalDedicatedDecoderEquivalence) {
  app::PalSimConfig cfg = small_pal();
  cfg.stepper = StepperKind::kDense;
  const app::PalSimResult dense = app::run_pal_decoder_dedicated(cfg);
  cfg.stepper = StepperKind::kWakeList;
  const app::PalSimResult wake = app::run_pal_decoder_dedicated(cfg);
  expect_same_pal(dense, wake);
}

}  // namespace
}  // namespace acc::sim
