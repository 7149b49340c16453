// Wake-path edge cases for the wake-list stepper (System::run).
//
// The equivalence suite (event_horizon_test.cpp) checks whole-workload
// digests; these tests pin the individual scheduling rules at the exact
// boundaries where a missed or double-counted wake would diverge from
// dense semantics:
//
//   1. a wake arriving at the very cycle a cached horizon expires must
//      tick the component exactly once (due-and-woken is not twice-due);
//   2. a data-ring delivery and a credit-ring delivery landing on the
//      same node in the same cycle must both be observed on the next tick;
//   3. the FaultInjector's seeded RNG stream must be consulted at the same
//      cycles even when those consults fall inside a range the wake-list
//      stepper skipped — fault stats and delivery timing stay bit-identical
//      to dense;
//   4. a fast source feeding a slow, out-of-phase sink wakes the sleeping
//      sink on every push — received flits, DAC timestamps, counters and
//      the metrics snapshot match dense;
//   5. a lone hinted processor task sleeps through its budget-exhausted
//      gaps and still invokes exactly as often as under dense;
//   6. cached horizons survive from one run() call to the next, so every
//      mutator that can lower a parked horizon between runs routes a wake
//      (WakeListBetweenRuns.*: one test per mutator that needs its wake);
//   7. parked slots cost no calendar visits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/accel_tile.hpp"
#include "sim/cfifo.hpp"
#include "sim/chain_builder.hpp"
#include "sim/fault.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

#include "../support/random_chain.hpp"

namespace acc::sim {
namespace {

// --- 1. wake on the exact cycle a cached horizon expires -------------------

/// Sleeps until `fire_at`, then pushes one flit and parks forever.
class OneShotEmitter final : public Component {
 public:
  OneShotEmitter(CFifo& out, Cycle fire_at, Flit value)
      : out_(out), fire_at_(fire_at), value_(value) {}

  void tick(Cycle now) override {
    if (!fired_ && now >= fire_at_) {
      out_.push(now, value_);
      fired_ = true;
    }
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    if (fired_) return kNeverCycle;
    return std::max(fire_at_, now + 1);
  }

 private:
  CFifo& out_;
  Cycle fire_at_;
  Flit value_;
  bool fired_ = false;
};

/// Pops everything visible each tick. Self-schedules one poll at `poll_at`
/// (so its cached horizon expires there) and otherwise relies on the
/// C-FIFO push watcher for wakes.
class PollingListener final : public Component {
 public:
  PollingListener(CFifo& in, Cycle poll_at) : in_(in), poll_at_(poll_at) {
    in_.add_push_watcher(this);
  }

  void tick(Cycle now) override {
    tick_log_.push_back(now);
    while (in_.can_pop(now)) pops_.emplace_back(now, in_.pop(now));
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    Cycle h = in_.when_fill_visible(1, now);
    if (poll_at_ > now) h = std::min(h, poll_at_);
    return h == kNeverCycle ? kNeverCycle : std::max(h, now + 1);
  }

  [[nodiscard]] const std::vector<std::pair<Cycle, Flit>>& pops() const {
    return pops_;
  }
  [[nodiscard]] std::int64_t ticks_at(Cycle c) const {
    return std::count(tick_log_.begin(), tick_log_.end(), c);
  }

 private:
  CFifo& in_;
  Cycle poll_at_;
  std::vector<std::pair<Cycle, Flit>> pops_;
  std::vector<Cycle> tick_log_;
};

/// Build the two-component scenario (listener polls at exactly the cycle
/// the emitter fires), run it with `kind`, and return what the listener
/// popped. `listener_first` selects the registration order, covering both
/// wake directions: toward an already-processed slot (lands at now + 1)
/// and toward a not-yet-scanned slot (picked up in the same cycle).
struct ExpiryResult {
  std::vector<std::pair<Cycle, Flit>> pops;
  std::int64_t ticks_at_fire = 0;
  StepperStats stats;
};

ExpiryResult run_expiry_scenario(StepperKind kind, bool listener_first) {
  constexpr Cycle kFireAt = 40;
  constexpr Flit kValue = 0xC0FFEE;
  System sys{2};
  // Zero visibility lag: the push becomes visible the cycle it happens, so
  // scheduling the woken listener even one cycle late would change when it
  // pops — the tightest possible probe of the wake timing rule.
  CFifo& fifo = sys.add_fifo("f", 8, 0, 0);
  PollingListener* listener = nullptr;
  if (listener_first) {
    listener = &sys.add<PollingListener>(fifo, kFireAt);
    sys.add<OneShotEmitter>(fifo, kFireAt, kValue);
  } else {
    sys.add<OneShotEmitter>(fifo, kFireAt, kValue);
    listener = &sys.add<PollingListener>(fifo, kFireAt);
  }
  sys.run_with(kind, 64);
  return {listener->pops(), listener->ticks_at(kFireAt), sys.stepper_stats()};
}

TEST(WakeListEdge, WakeOnExactHorizonExpiryTicksOnce) {
  for (const bool listener_first : {true, false}) {
    SCOPED_TRACE(listener_first ? "listener before emitter"
                                : "emitter before listener");
    const ExpiryResult dense =
        run_expiry_scenario(StepperKind::kDense, listener_first);
    const ExpiryResult wake =
        run_expiry_scenario(StepperKind::kWakeList, listener_first);

    ASSERT_EQ(dense.pops.size(), 1u);
    EXPECT_EQ(wake.pops, dense.pops);
    // Due-and-woken on the same cycle must not double-tick.
    EXPECT_EQ(dense.ticks_at_fire, 1);
    EXPECT_EQ(wake.ticks_at_fire, 1);
    // The run must actually have exercised the wake-list machinery.
    EXPECT_GT(wake.stats.skipped_cycles, 0);
    EXPECT_GT(wake.stats.wakes, 0);
    EXPECT_LT(wake.stats.component_ticks, dense.stats.component_ticks);
  }
}

// --- 2. simultaneous data delivery + credit return, same node, same cycle --

/// At `fire_at`, injects one data flit and one credit toward `dst` (equal
/// hop counts on the counter-rotating rings, so both eject the same cycle).
class DualInjector final : public Component {
 public:
  DualInjector(DualRing& ring, std::int32_t src, std::int32_t dst,
               Cycle fire_at)
      : ring_(ring), src_(src), dst_(dst), fire_at_(fire_at) {}

  void tick(Cycle now) override {
    if (fired_ || now < fire_at_) return;
    RingMsg data;
    data.dst = dst_;
    data.tag = 7;
    data.payload = 0xDA7A;
    RingMsg credit;
    credit.dst = dst_;
    credit.tag = 9;
    ASSERT_OK(ring_.data().try_inject(src_, data));
    ASSERT_OK(ring_.credit().try_inject(src_, credit));
    fired_ = true;
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    return fired_ ? kNeverCycle : std::max(fire_at_, now + 1);
  }

 private:
  static void ASSERT_OK(bool injected) { ACC_CHECK(injected); }

  DualRing& ring_;
  std::int32_t src_;
  std::int32_t dst_;
  Cycle fire_at_;
  bool fired_ = false;
};

/// Drains both rings at its node every tick, logging what arrived when.
class NodeObserver final : public Component {
 public:
  NodeObserver(DualRing& ring, std::int32_t node) : ring_(ring), node_(node) {}

  void tick(Cycle now) override {
    ring_.data().drain_into(node_, rx_);
    for (const RingMsg& m : rx_) data_log_.emplace_back(now, m.payload);
    const std::int64_t credits = ring_.credit().drain_count(node_);
    if (credits > 0) credit_log_.emplace_back(now, credits);
  }
  [[nodiscard]] Cycle next_event(Cycle) const override { return kNeverCycle; }
  [[nodiscard]] std::int32_t ring_node() const override { return node_; }

  [[nodiscard]] const std::vector<std::pair<Cycle, Flit>>& data_log() const {
    return data_log_;
  }
  [[nodiscard]] const std::vector<std::pair<Cycle, std::int64_t>>& credit_log()
      const {
    return credit_log_;
  }

 private:
  DualRing& ring_;
  std::int32_t node_;
  std::vector<RingMsg> rx_;
  std::vector<std::pair<Cycle, Flit>> data_log_;
  std::vector<std::pair<Cycle, std::int64_t>> credit_log_;
};

struct DeliveryResult {
  std::vector<std::pair<Cycle, Flit>> data_log;
  std::vector<std::pair<Cycle, std::int64_t>> credit_log;
  StepperStats stats;
};

DeliveryResult run_delivery_scenario(StepperKind kind) {
  // 4-node rings, src 0 -> dst 2: two hops clockwise on the data ring, two
  // hops counter-clockwise on the credit ring — both deliveries eject at
  // node 2 in the same cycle.
  System sys{4};
  sys.add<DualInjector>(sys.ring(), 0, 2, /*fire_at=*/50);
  NodeObserver& obs = sys.add<NodeObserver>(sys.ring(), 2);
  sys.run_with(kind, 200);
  return {obs.data_log(), obs.credit_log(), sys.stepper_stats()};
}

TEST(WakeListEdge, SimultaneousDataAndCreditDeliverySameNode) {
  const DeliveryResult dense = run_delivery_scenario(StepperKind::kDense);
  const DeliveryResult wake = run_delivery_scenario(StepperKind::kWakeList);

  ASSERT_EQ(dense.data_log.size(), 1u);
  ASSERT_EQ(dense.credit_log.size(), 1u);
  // Both rings delivered to node 2 in the same cycle, and the observer saw
  // both on one tick.
  EXPECT_EQ(dense.data_log[0].first, dense.credit_log[0].first);
  EXPECT_EQ(wake.data_log, dense.data_log);
  EXPECT_EQ(wake.credit_log, dense.credit_log);
  // A purely reactive observer (next_event = never) must still see the
  // deliveries — only the ring_delivery wake can get it there.
  EXPECT_GT(wake.stats.wakes, 0);
  EXPECT_GT(wake.stats.skipped_cycles, 0);
}

// --- 3. fault RNG consults inside a skipped range --------------------------

/// Sends one flit toward `dst` every `period` cycles (self-scheduled).
class PeriodicPinger final : public Component {
 public:
  PeriodicPinger(DualRing& ring, std::int32_t src, std::int32_t dst,
                 Cycle period, std::int64_t count)
      : ring_(ring), src_(src), dst_(dst), period_(period), left_(count) {}

  void tick(Cycle now) override {
    if (left_ <= 0 || now < next_fire_) return;
    RingMsg m;
    m.dst = dst_;
    m.tag = 1;
    m.payload = static_cast<Flit>(left_);
    if (!ring_.data().try_inject(src_, m)) return;  // retry next tick
    --left_;
    next_fire_ = now + period_;
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    if (left_ <= 0) return kNeverCycle;
    return std::max(next_fire_, now + 1);
  }

 private:
  DualRing& ring_;
  std::int32_t src_;
  std::int32_t dst_;
  Cycle period_;
  std::int64_t left_;
  Cycle next_fire_ = 0;
};

struct FaultResult {
  FaultSiteStats ring_stats;
  std::vector<std::pair<Cycle, Flit>> deliveries;
  Cycle data_stall_cycles = 0;
  StepperStats stats;
};

FaultResult run_fault_scenario(StepperKind kind, std::uint64_t seed) {
  System sys{4};
  FaultInjector inj(seed);
  FaultSpec spec;
  spec.probability = 0.5;
  spec.max_delay = 3;
  spec.min_spacing = 11;
  spec.window_from = 20;
  spec.window_until = 1500;
  inj.configure(FaultSite::kRingLink, spec);
  sys.ring().set_fault(&inj);

  sys.add<PeriodicPinger>(sys.ring(), 0, 2, /*period=*/60, /*count=*/8);
  NodeObserver& obs = sys.add<NodeObserver>(sys.ring(), 2);
  sys.run_with(kind, 2000);

  FaultResult r;
  r.ring_stats = inj.stats(FaultSite::kRingLink);
  r.deliveries = obs.data_log();
  r.data_stall_cycles = sys.ring().data().stall_cycles();
  r.stats = sys.stepper_stats();
  return r;
}

TEST(WakeListEdge, FaultRngConsultedInsideSkippedRange) {
  for (const std::uint64_t seed : {11ULL, 97ULL, 5150ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FaultResult dense = run_fault_scenario(StepperKind::kDense, seed);
    const FaultResult wake = run_fault_scenario(StepperKind::kWakeList, seed);

    // The traffic is sparse (8 pings, period 60), so the rings sit idle
    // between bursts — but the fault window stays open, and dense ticking
    // consults the seeded RNG at every eligible cycle in those gaps. The
    // wake-list run skips the gaps and must land on exactly the same
    // consult cycles, or the deterministic fault pattern desyncs.
    EXPECT_EQ(wake.ring_stats.consults, dense.ring_stats.consults);
    EXPECT_EQ(wake.ring_stats.injected, dense.ring_stats.injected);
    EXPECT_EQ(wake.ring_stats.delay_cycles, dense.ring_stats.delay_cycles);
    EXPECT_EQ(wake.ring_stats.max_delay_seen, dense.ring_stats.max_delay_seen);
    EXPECT_EQ(wake.data_stall_cycles, dense.data_stall_cycles);
    EXPECT_EQ(wake.deliveries, dense.deliveries);

    // Prove the scenario exercises what it claims: consults happened, some
    // triggered, and the wake-list run really skipped cycles.
    EXPECT_GT(dense.ring_stats.consults, 0);
    EXPECT_GT(dense.ring_stats.injected, 0);
    EXPECT_GT(wake.stats.skipped_cycles, 0);
    EXPECT_LT(wake.stats.dense_ticks, dense.stats.dense_ticks);
  }
}

// --- 4. staggered fast source / slow sink ----------------------------------

/// A fast source (period 4) feeding a slow DAC sink (period 50) through one
/// C-FIFO. The sink is registered first, so each push wakes a slot the
/// cycle's scan already passed (the wake lands at now + 1), and the sink
/// sleeps between DAC deadlines while the source keeps pushing.
struct StaggeredRig {
  static std::vector<Flit> payload() {
    std::vector<Flit> data;
    for (Flit i = 0; i < 40; ++i) data.push_back(100 + i);
    return data;
  }

  System sys{2};
  CFifo& fifo = sys.add_fifo("f", 64, /*read_visibility_lag=*/1,
                             /*write_visibility_lag=*/1);
  SinkTile& sink = sys.add<SinkTile>("sink", fifo, /*period=*/50,
                                     /*prefill=*/1);
  SourceTile& src = sys.add<SourceTile>("src", fifo, payload(),
                                        /*period=*/4);
};

struct StaggeredOutcome {
  std::vector<Flit> received;
  std::vector<Cycle> timestamps;
  std::int64_t emitted = 0;
  std::int64_t dropped = 0;
  std::int64_t underruns = 0;
  std::string metrics;
};

StaggeredOutcome run_staggered(StepperKind kind) {
  StaggeredRig rig;
  obs::MetricsRegistry metrics;
  rig.fifo.set_metrics(&metrics);
  rig.sink.set_metrics(&metrics);
  rig.src.set_metrics(&metrics);
  rig.sys.run_with(kind, 2100);
  return {rig.sink.received(), rig.sink.timestamps(), rig.src.emitted(),
          rig.src.dropped(),   rig.sink.underruns(),  metrics.snapshot_text()};
}

TEST(WakeListEdge, StaggeredSourceAndSinkMatchDense) {
  const StaggeredOutcome dense = run_staggered(StepperKind::kDense);
  const StaggeredOutcome wake = run_staggered(StepperKind::kWakeList);
  EXPECT_EQ(wake.received, dense.received);
  EXPECT_EQ(wake.timestamps, dense.timestamps);
  EXPECT_EQ(wake.emitted, dense.emitted);
  EXPECT_EQ(wake.dropped, dense.dropped);
  EXPECT_EQ(wake.underruns, dense.underruns);
  // Per-token FIFO traffic, the occupancy histogram and the source/sink
  // counters must be byte-identical.
  EXPECT_EQ(wake.metrics, dense.metrics);
  EXPECT_EQ(dense.dropped, 0);
  EXPECT_EQ(dense.received.size(), 40u);
}

TEST(WakeListEdge, StaggeredOneCycleRunsStopAtTheDenseCycle) {
  // Stopping on a state condition means polling it between one-cycle
  // run() calls. The wake-list rig must reach its 40th flit at the cycle
  // dense does and leave dense's DAC timestamps behind.
  const auto run_until_full = [](StaggeredRig& rig, StepperKind kind) {
    while (rig.sink.received().size() < 40 && rig.sys.now() < 3000)
      rig.sys.run_with(kind, 1);
    return rig.sys.now();
  };
  StaggeredRig dense, wake;
  const Cycle dense_full = run_until_full(dense, StepperKind::kDense);
  ASSERT_LT(dense_full, 3000);
  EXPECT_EQ(run_until_full(wake, StepperKind::kWakeList), dense_full);
  EXPECT_EQ(wake.src.dropped(), 0);
  EXPECT_EQ(wake.sink.timestamps(), dense.sink.timestamps());
  EXPECT_EQ(wake.sys.state_digest(), dense.sys.state_digest());
}

TEST(WakeListEdge, StaggeredSinkSleepsBetweenDacDeadlines) {
  // Not vacuous: the wake-list run skips over nine tenths of the 2100
  // cycles and does under a tenth of dense's component ticks.
  StaggeredRig dense, wake;
  dense.sys.run_with(StepperKind::kDense, 2100);
  wake.sys.run_with(StepperKind::kWakeList, 2100);
  const StepperStats& w = wake.sys.stepper_stats();
  EXPECT_GT(w.wakes, 0);
  EXPECT_GT(w.skipped_cycles * 10, 2100 * 9);
  EXPECT_LT(w.component_ticks * 10, dense.sys.stepper_stats().component_ticks);
}

// --- 5. lone hinted processor task ----------------------------------------

TEST(WakeListEdge, LoneHintedTaskInvocationsMatchDense) {
  // Always ready, cost 10, budget 50 per 100-cycle period: the task is
  // suspended for half of every period, and the wake-list run sleeps
  // through those gaps on the replenishment grid alone.
  const auto run = [](StepperKind kind) {
    System sys(2);
    CFifo& f = sys.add_fifo("f", 8, 1, 1);
    auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/100);
    Task t;
    t.name = "work";
    t.invoke = [](Cycle) -> Cycle { return 10; };
    t.budget = 50;
    t.next_ready = [](Cycle now) -> Cycle { return now; };
    t.wake_on_push = {&f};
    pt.add_task(std::move(t));
    sys.run_with(kind, 1000);
    return std::make_pair(pt.invocations(0), pt.busy_cycles());
  };
  const auto dense = run(StepperKind::kDense);
  EXPECT_GT(dense.first, 0);
  EXPECT_EQ(run(StepperKind::kWakeList), dense);
}

// --- 6. mutations between runs ---------------------------------------------

/// What a between-runs scenario leaves behind: the state digest, its
/// counters and what it delivered (cycle, value).
struct BetweenRuns {
  std::uint64_t digest = 0;
  std::vector<std::int64_t> counters;
  std::vector<std::pair<Cycle, std::int64_t>> delivered;
  std::string trace;  // CSV, for scenarios that trace
  StepperStats stats;
};

/// Runs `scenario` under both steppers and checks the wake-list outcome
/// against dense; returns the dense one so callers can check it is not
/// vacuous.
template <typename Scenario>
BetweenRuns expect_matches_dense(const Scenario& scenario) {
  const BetweenRuns dense = scenario(StepperKind::kDense);
  const BetweenRuns wake = scenario(StepperKind::kWakeList);
  EXPECT_EQ(wake.digest, dense.digest);
  EXPECT_EQ(wake.counters, dense.counters);
  EXPECT_EQ(wake.delivered, dense.delivered);
  EXPECT_EQ(wake.trace, dense.trace);
  // The wake-list runs really parked slots and skipped cycles.
  EXPECT_GT(wake.stats.skipped_cycles, 0);
  return dense;
}

/// A one-accelerator gateway chain streaming into a DAC sink.
struct ChainRig {
  explicit ChainRig(const ChainConfig& cc)
      : chain(build_gateway_chain(sys, cc)) {}

  /// One 8-sample block, pushed at now() before any stream watches `in`.
  void push_block() {
    for (Flit i = 0; i < 8; ++i) in.push(sys.now(), 100 + i);
  }
  void add_stream() {
    chain.add_stream({0, "s", 8, 8, &in, &out, /*reconfig=*/10},
                     testsupport::passes(1));
  }

  [[nodiscard]] BetweenRuns outcome() const {
    BetweenRuns r;
    r.digest = sys.state_digest();
    const GatewayStats& g = chain.entry->stats();
    r.counters = {g.blocks,          g.samples_forwarded,
                  g.data_cycles,     g.reconfig_cycles,
                  g.wait_cycles,     g.notify_timeouts,
                  g.notify_retries,  g.notify_recoveries,
                  g.credit_stalls,   g.credit_stall_cycles,
                  chain.exit->samples_delivered(), sink.underruns()};
    for (std::size_t i = 0; i < sink.received().size(); ++i)
      r.delivered.emplace_back(sink.timestamps()[i], sink.received()[i]);
    r.stats = sys.stepper_stats();
    return r;
  }

  System sys{4};
  GatewayChain chain;
  CFifo& in = sys.add_fifo("in", 16, 1, 1);
  CFifo& out = sys.add_fifo("out", 16, 1, 1);
  SinkTile& sink = sys.add<SinkTile>("snk", out, /*period=*/16,
                                     /*prefill=*/8);
};

TEST(WakeListBetweenRuns, AddStreamFindsABlockAlreadyWaiting) {
  // The entry gateway parks while it has no stream. A block pushed before
  // the stream exists announces itself to nobody: only add_stream's own
  // wake gets the gateway to admit it.
  const BetweenRuns dense = expect_matches_dense([](StepperKind kind) {
    ChainConfig cc;
    cc.epsilon = 2;
    ChainRig rig(cc);
    rig.sys.run_with(kind, 100);
    rig.push_block();
    rig.add_stream();
    rig.sys.run_with(kind, 2000);
    return rig.outcome();
  });
  EXPECT_EQ(dense.delivered.size(), 8u);
}

/// A task that pops one sample from `f` per invocation (cost 1), logging
/// (cycle, value); `f` is its wake FIFO.
Task pop_task(std::string name, CFifo& f,
              std::vector<std::pair<Cycle, std::int64_t>>& log) {
  Task t;
  t.name = std::move(name);
  t.budget = 1000;
  t.invoke = [&f, &log](Cycle now) -> Cycle {
    if (!f.can_pop(now)) return 0;
    log.emplace_back(now, f.pop(now));
    return 1;
  };
  t.next_ready = [&f](Cycle now) { return f.when_fill_visible(1, now); };
  t.wake_on_push = {&f};
  return t;
}

TEST(WakeListBetweenRuns, AddTaskOnAParkedTile) {
  // A tile without tasks parks; the task added between runs is ready at
  // once (no hint), so only add_task's wake can start it.
  const BetweenRuns dense = expect_matches_dense([](StepperKind kind) {
    std::int64_t left = 8;
    System sys(2);
    auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/100);
    sys.run_with(kind, 50);
    Task t;
    t.name = "eight";
    t.budget = 1000;
    t.invoke = [&left](Cycle) -> Cycle {
      if (left == 0) return 0;
      --left;
      return 10;
    };
    pt.add_task(std::move(t));
    sys.run_with(kind, 500);
    BetweenRuns r;
    r.digest = sys.state_digest();
    r.counters = {pt.invocations(0), pt.busy_cycles(), left};
    r.stats = sys.stepper_stats();
    return r;
  });
  EXPECT_EQ(dense.counters[0], 8);
}

TEST(WakeListBetweenRuns, LateHintedTaskWakesOnItsFifo) {
  // The tile parks on its first task's FIFO `g`, which stays empty. The
  // late task pops `f`, which the source fills from cycle 20 on: add_task
  // registers the tile as `f`'s push watcher, so every push wakes it.
  const BetweenRuns dense = expect_matches_dense([](StepperKind kind) {
    std::vector<std::pair<Cycle, std::int64_t>> first_log;
    std::vector<std::pair<Cycle, std::int64_t>> late_log;
    System sys(2);
    CFifo& f = sys.add_fifo("f", 64, 1, 1);
    CFifo& g = sys.add_fifo("g", 64, 1, 1);
    std::vector<Flit> payload(20);
    std::iota(payload.begin(), payload.end(), Flit{1});
    sys.add<SourceTile>("src", f, payload, /*period=*/20, /*start_at=*/20);
    auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/1000);
    pt.add_task(pop_task("first", g, first_log));
    sys.run_with(kind, 10);
    pt.add_task(pop_task("late", f, late_log));
    sys.run_with(kind, 400);
    BetweenRuns r;
    r.digest = sys.state_digest();
    r.counters = {pt.invocations(0), pt.invocations(1), pt.busy_cycles()};
    r.delivered = late_log;
    r.stats = sys.stepper_stats();
    return r;
  });
  EXPECT_EQ(dense.counters[1], 20);
}

TEST(WakeListBetweenRuns, CreditStallTracedAcrossRunBoundaries) {
  // A slow accelerator (400 cycles per sample) starves the entry gateway
  // of credits for hundreds of cycles. The starved gateway's only horizon
  // is the cycle its stall crosses the 32-cycle trace threshold; runs of
  // 7 cycles end inside every such window, so that cached horizon must
  // survive each run boundary and trace the stall at dense's cycle.
  const BetweenRuns dense = expect_matches_dense([](StepperKind kind) {
    TraceLog trace;
    ChainConfig cc;
    cc.epsilon = 2;
    cc.accel_cycles = {400};
    cc.trace = &trace;
    ChainRig rig(cc);
    rig.push_block();
    rig.add_stream();
    for (int i = 0; i < 900; ++i) rig.sys.run_with(kind, 7);
    BetweenRuns r = rig.outcome();
    r.trace = trace.to_csv();
    return r;
  });
  EXPECT_EQ(dense.delivered.size(), 8u);
  EXPECT_GT(dense.counters[8], 0);  // credit_stalls
}

TEST(WakeListBetweenRuns, RetryPolicyEnabledWhileDraining) {
  // Every pipeline-idle notification is dropped, so without recovery the
  // entry gateway drains forever and parks. Enabling recovery between
  // runs must start the polls at once.
  const BetweenRuns dense = expect_matches_dense([](StepperKind kind) {
    FaultInjector inj(7);
    FaultSpec drop;
    drop.drop_probability = 1.0;
    inj.configure(FaultSite::kExitNotify, drop);
    ChainConfig cc;
    cc.epsilon = 2;
    cc.fault = &inj;
    ChainRig rig(cc);
    rig.push_block();
    rig.add_stream();
    rig.sys.run_with(kind, 2000);
    GatewayRetryPolicy retry;
    retry.notify_timeout = 50;
    rig.chain.entry->set_retry_policy(retry);
    rig.sys.run_with(kind, 2000);
    return rig.outcome();
  });
  EXPECT_EQ(dense.counters[0], 1);  // blocks
  EXPECT_EQ(dense.counters[7], 1);  // notify_recoveries
}

/// One accelerator tile at node 1 holding two samples it received from
/// node 0; NodeObservers drain node 0 (credits returned upstream) and
/// node 2 (forwarded output).
struct TileRig {
  TileRig() {
    tile.register_context(0, std::make_unique<testsupport::Pass>());
    for (const Flit f : {Flit{11}, Flit{22}}) {
      RingMsg m;
      m.dst = 1;
      m.tag = 1;
      m.payload = f;
      ACC_CHECK(sys.ring().data().try_inject(0, m));
    }
  }

  [[nodiscard]] BetweenRuns outcome() const {
    BetweenRuns r;
    r.digest = sys.state_digest();
    r.counters = {tile.samples_processed(), tile.busy_cycles(),
                  tile.credits(), tile.pending_returns()};
    for (const auto& [at, v] : down.data_log()) r.delivered.emplace_back(at, v);
    for (const auto& [at, n] : up.credit_log()) r.delivered.emplace_back(at, n);
    r.stats = sys.stepper_stats();
    return r;
  }

  System sys{4};
  NodeObserver& up = sys.add<NodeObserver>(sys.ring(), 0);
  AcceleratorTile& tile = sys.add<AcceleratorTile>(
      "acc", sys.ring(), 1, /*cycles_per_sample=*/3, /*ni_capacity=*/2);
  NodeObserver& down = sys.add<NodeObserver>(sys.ring(), 2);
};

TEST(WakeListBetweenRuns, DownstreamWiredWhileOutputWaits) {
  // Unwired downstream: the tile processes both samples, holds the output
  // and parks. Wiring it between runs must forward the output at once.
  const BetweenRuns dense = expect_matches_dense([](StepperKind kind) {
    TileRig rig;
    rig.tile.set_upstream(0, 1);
    rig.sys.run_with(kind, 200);
    rig.tile.set_downstream(2, 2, /*credits=*/2);
    rig.sys.run_with(kind, 200);
    return rig.outcome();
  });
  EXPECT_EQ(dense.delivered.size(), 4u);  // two samples, two credit returns
}

TEST(WakeListBetweenRuns, UpstreamWiredWhileCreditsAreOwed) {
  // Unwired upstream: the tile forwards both samples but owes their
  // credits and parks. Wiring it between runs must return them at once.
  const BetweenRuns dense = expect_matches_dense([](StepperKind kind) {
    TileRig rig;
    rig.tile.set_downstream(2, 2, /*credits=*/2);
    rig.sys.run_with(kind, 200);
    rig.tile.set_upstream(0, 1);
    rig.sys.run_with(kind, 200);
    return rig.outcome();
  });
  EXPECT_EQ(dense.counters[3], 0);        // no credit return left owing
  EXPECT_EQ(dense.delivered.size(), 4u);  // two samples, two credit returns
}

/// The ring-link fault law of the scenarios below (as in scenario 3).
FaultSpec ring_link_spec() {
  FaultSpec spec;
  spec.probability = 0.5;
  spec.max_delay = 3;
  spec.min_spacing = 11;
  spec.window_from = 20;
  spec.window_until = 1500;
  return spec;
}

/// Sparse pings from node 0 to a NodeObserver at node 2 (one per 60
/// cycles): the rings idle between them, where only the fault injector's
/// consults keep them due.
struct PingRig {
  [[nodiscard]] BetweenRuns outcome(const FaultInjector& inj) const {
    BetweenRuns r;
    r.digest = sys.state_digest();
    const FaultSiteStats& f = inj.stats(FaultSite::kRingLink);
    r.counters = {f.consults, f.injected, f.delay_cycles,
                  sys.ring().data().stall_cycles(),
                  sys.ring().credit().stall_cycles()};
    for (const auto& [at, v] : obs.data_log()) r.delivered.emplace_back(at, v);
    r.stats = sys.stepper_stats();
    return r;
  }

  System sys{4};
  PeriodicPinger& pinger = sys.add<PeriodicPinger>(
      sys.ring(), 0, 2, /*period=*/60, /*count=*/20);
  NodeObserver& obs = sys.add<NodeObserver>(sys.ring(), 2);
};

TEST(WakeListBetweenRuns, FaultInjectorAttachedToAnIdleRing) {
  // Fault-free, the idle rings park between pings. An injector attached
  // between runs consults its RNG on every eligible idle cycle; only
  // Ring::set_fault's ring_activity re-derives the parked ring horizons.
  const BetweenRuns dense = expect_matches_dense([](StepperKind kind) {
    FaultInjector inj(11);
    inj.configure(FaultSite::kRingLink, ring_link_spec());
    PingRig rig;
    rig.sys.run_with(kind, 100);
    rig.sys.ring().set_fault(&inj);
    rig.sys.run_with(kind, 1500);
    return rig.outcome(inj);
  });
  EXPECT_GT(dense.counters[0], 0);  // consults
  EXPECT_EQ(dense.delivered.size(), 20u);
}

TEST(WakeListBetweenRuns, RingFaultConfiguredBetweenRuns) {
  // An injector with no ring-link law leaves the idle rings parked;
  // configuring one between runs opens an eligibility window at once. The
  // injector is attached before the first run (prepare_wake hands it the
  // hub) or between runs (Ring::set_fault hands it the ring's hub).
  for (const bool late_attach : {false, true}) {
    SCOPED_TRACE(late_attach ? "attached between runs"
                             : "attached before the first run");
    const BetweenRuns dense =
        expect_matches_dense([late_attach](StepperKind kind) {
          FaultInjector inj(11);
          PingRig rig;
          if (!late_attach) rig.sys.ring().set_fault(&inj);
          rig.sys.run_with(kind, 100);
          if (late_attach) {
            rig.sys.ring().set_fault(&inj);
            rig.sys.run_with(kind, 100);
          }
          inj.configure(FaultSite::kRingLink, ring_link_spec());
          rig.sys.run_with(kind, 1400);
          return rig.outcome(inj);
        });
    EXPECT_GT(dense.counters[0], 0);  // consults
    EXPECT_EQ(dense.delivered.size(), 20u);
  }
}

// --- 7. parked slots cost no calendar visits -------------------------------

struct ParkedOutcome {
  std::string trace;
  std::uint64_t digest = 0;
  std::int64_t first_cycle_visits = 0;
  std::int64_t later_visits = 0;
};

/// The AddStream chain with a source, plus `parked` exhausted sources
/// (empty payloads) that park after their first tick. One cycle is run
/// first, then the rest, so the visits of each part can be told apart.
ParkedOutcome run_parked(StepperKind kind, int parked) {
  TraceLog trace;
  ChainConfig cc;
  cc.epsilon = 2;
  cc.trace = &trace;
  ChainRig rig(cc);
  rig.add_stream();
  std::vector<Flit> payload(32);
  std::iota(payload.begin(), payload.end(), Flit{1});
  rig.sys.add<SourceTile>("src", rig.in, payload, /*period=*/6);
  for (int i = 0; i < parked; ++i) {
    CFifo& f = rig.sys.add_fifo("p" + std::to_string(i), 4);
    rig.sys.add<SourceTile>("p" + std::to_string(i), f, std::vector<Flit>{},
                            /*period=*/6);
  }
  rig.sys.run_with(kind, 1);
  const std::int64_t first = rig.sys.stepper_stats().calendar_visits;
  rig.sys.run_with(kind, 3000);
  ParkedOutcome o;
  o.trace = trace.to_csv();
  o.digest = rig.sys.state_digest();
  o.first_cycle_visits = first;
  o.later_visits = rig.sys.stepper_stats().calendar_visits - first;
  return o;
}

TEST(WakeListEdge, ParkedSlotsAreNotVisited) {
  constexpr int kParked = 256;
  const ParkedOutcome dense = run_parked(StepperKind::kDense, kParked);
  const ParkedOutcome wake = run_parked(StepperKind::kWakeList, kParked);
  const ParkedOutcome bare = run_parked(StepperKind::kWakeList, 0);
  ASSERT_FALSE(dense.trace.empty());
  EXPECT_EQ(wake.trace, dense.trace);
  EXPECT_EQ(wake.digest, dense.digest);
  EXPECT_EQ(dense.first_cycle_visits + dense.later_visits, 0);
  // The first cycle visits every slot once; after it, the parked sources
  // are never visited again.
  EXPECT_EQ(wake.first_cycle_visits, bare.first_cycle_visits + kParked);
  EXPECT_GT(bare.later_visits, 0);
  EXPECT_EQ(wake.later_visits, bare.later_visits);
}

}  // namespace
}  // namespace acc::sim
