// System: owns the interconnect, the tiles and the C-FIFOs, and steps the
// whole MPSoC.
//
// Two steppers share one cycle-exact semantics:
//
//  - run_dense: the reference loop — every component ticks every cycle.
//  - run (wake-list): each component's event horizon (the earliest cycle
//    at which its next tick could have an externally visible effect,
//    Component::next_event) is CACHED in a flat calendar and only
//    re-queried when its owner ticked or was woken through WakeHub
//    (sim/wake.hpp). Each cycle ticks ONLY the components whose cached
//    horizon is due — partial quiescence falls out for free (idle tiles
//    sleep while the accelerator chain streams) — and when nothing is due,
//    now_ jumps straight to the calendar minimum, a branch-free integer
//    min-scan. (A min-heap calendar was measured and rejected: with a
//    dozen-odd slots, re-arming every active slot each cycle churns the
//    heap harder than scanning the whole table costs.)
//    Exactness rests on two rules:
//      1. no component may act before its cached horizon unless woken, so
//         every interaction point (C-FIFO push/pop, ring inject/eject,
//         gateway callbacks, fault triggers) must route a wake;
//      2. waking EARLY is always exact (an extra tick is dense behaviour);
//         only a missed wake — acting later than dense would — diverges.
//    Frozen components are synchronized lazily: skip_to replays the
//    accounting for [last tick + 1, wake cycle) right before they run, and
//    sync_all() settles everyone when a run returns.
//    See docs/performance.md for the invariants and the equivalence proof
//    obligations (tests/sim/event_horizon_test.cpp).
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sim/cfifo.hpp"
#include "sim/component.hpp"
#include "sim/fault.hpp"
#include "sim/ring.hpp"
#include "sim/wake.hpp"

namespace acc::sim {

/// Stepper instrumentation: how much work the wake-list core avoided.
/// All counters are per-stepper diagnostics, not simulation state — the
/// cycle-exactness contract covers component state, traces and metric
/// snapshots, while these legitimately differ between steppers.
struct StepperStats {
  std::int64_t dense_ticks = 0;      // cycles actually stepped
  std::int64_t skips = 0;            // quiescent jumps taken
  std::int64_t skipped_cycles = 0;   // cycles covered by those jumps
  std::int64_t component_ticks = 0;  // Component::tick calls (both steppers)
  std::int64_t horizon_queries = 0;  // next_event consultations
  std::int64_t wakes = 0;            // wake notifications delivered
};

/// Which stepper advances the system (both are cycle-exact).
enum class StepperKind {
  kDense = 0,     // reference semantics, every component every cycle
  kWakeList = 1,  // cached horizons, selective ticking, O(active)
};

class System final : public WakeHub {
 public:
  explicit System(std::int32_t ring_nodes) : ring_(ring_nodes) {}

  [[nodiscard]] DualRing& ring() { return ring_; }
  [[nodiscard]] const DualRing& ring() const { return ring_; }

  /// Construct and own a component; ticked in creation order.
  template <typename T, typename... Args>
  T& add(Args&&... args) {
    auto p = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *p;
    components_.push_back(std::move(p));
    wake_ready_ = false;
    return ref;
  }

  /// Construct and own a software FIFO.
  template <typename... Args>
  CFifo& add_fifo(Args&&... args) {
    fifos_.push_back(std::make_unique<CFifo>(std::forward<Args>(args)...));
    wake_ready_ = false;
    return *fifos_.back();
  }

  /// Run for `cycles` clock cycles with the wake-list stepper (cycle-exact
  /// vs run_dense; see file header).
  void run(Cycle cycles) {
    const Cycle end = now_ + cycles;
    begin_wake_run();
    Cycle due = now_;  // begin_wake_run schedules every slot at now_
    while (now_ < end) {
      if (due > now_) {
        const Cycle target = std::min(due, end);
        stats_.skipped_cycles += target - now_;
        ++stats_.skips;
        now_ = target;
        if (now_ >= end) break;
      }
      due = step_wake_cycle();
    }
    sync_all(end);
  }

  /// Run for `cycles` clock cycles, ticking every component every cycle
  /// (the reference semantics for the equivalence suites and the model
  /// checker).
  void run_dense(Cycle cycles) {
    wake_ready_ = false;
    const Cycle end = now_ + cycles;
    for (; now_ < end; ++now_) {
      for (auto& c : components_) c->tick(now_);
      ring_.tick();
      ++stats_.dense_ticks;
      stats_.component_ticks += static_cast<std::int64_t>(components_.size());
    }
  }

  /// Dispatch on a stepper selection (bench/config surface).
  void run_with(StepperKind kind, Cycle cycles) {
    switch (kind) {
      case StepperKind::kDense: run_dense(cycles); return;
      case StepperKind::kWakeList: run(cycles); return;
    }
  }

  /// Run until `pred(now)` holds or `max_cycles` elapse; returns true if
  /// the predicate fired. Uses the wake-list stepper: `pred` must be a
  /// function of simulation STATE (not of the numeric value of `now`), so
  /// that its value cannot change across a certified-quiescent range. The
  /// predicate is evaluated exactly once per loop step — at every stepped
  /// cycle and at every jump target — with all lazily-synchronized
  /// accounting settled first.
  template <typename Pred>
  bool run_until(Pred&& pred, Cycle max_cycles) {
    const Cycle end = now_ + max_cycles;
    begin_wake_run();
    while (now_ < end) {
      sync_all(now_);
      if (pred(now_)) return true;
      const Cycle due = next_due();
      if (due > now_) {
        const Cycle target = std::min(due, end);
        stats_.skipped_cycles += target - now_;
        ++stats_.skips;
        now_ = target;
        continue;
      }
      (void)step_wake_cycle();
    }
    sync_all(end);
    return pred(now_);
  }

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] const StepperStats& stepper_stats() const { return stats_; }

  // --- Introspection (bounded model checker / wake audit, src/verify/) ---

  [[nodiscard]] std::size_t num_components() const {
    return components_.size();
  }
  [[nodiscard]] Component& component(std::size_t i) { return *components_[i]; }
  [[nodiscard]] const Component& component(std::size_t i) const {
    return *components_[i];
  }
  [[nodiscard]] std::size_t num_fifos() const { return fifos_.size(); }
  [[nodiscard]] CFifo& fifo(std::size_t i) { return *fifos_[i]; }
  [[nodiscard]] const CFifo& fifo(std::size_t i) const { return *fifos_[i]; }

  /// Canonical frozen digest of the whole system (every component in
  /// registration order, every owned C-FIFO, both rings), with deadlines
  /// canonicalized relative to now(). Equal digests mean equal futures
  /// under identical environment actions — the explorer's dedup key.
  [[nodiscard]] std::uint64_t state_digest() const {
    StateHasher h(now_);
    for (const auto& c : components_) {
      c->snapshot_state(h);
      h.mix(std::uint64_t{0x5EB1});  // component delimiter
    }
    for (const auto& f : fifos_) {
      f->snapshot_state(h);
      h.mix(std::uint64_t{0x5EB2});
    }
    ring_.data().snapshot_state(h);
    ring_.credit().snapshot_state(h);
    return h.frozen();
  }

  // --- WakeHub (wake-list stepper plumbing; see sim/wake.hpp) ------------

  void wake(Component& c) override {
    if (!wake_ready_) return;
    // prepare_wake stamped the slot index on the component; only this
    // system installs component hubs, so the index is always ours.
    wake_slot(c.wake_slot());
  }

  void ring_activity(Ring& r) override {
    if (!wake_ready_) return;
    wake_slot(&r == &ring_.data() ? data_slot() : credit_slot());
  }

  void ring_delivery(Ring& r, std::int32_t node) override {
    (void)r;  // both rings deliver to the same node owner
    if (!wake_ready_) return;
    const std::size_t owner = node_owner_[static_cast<std::size_t>(node)];
    if (owner != kNoSlot) wake_slot(owner);
  }

  void fault_site_changed(FaultSite site) override {
    // Only kRingLink feeds cached horizons (Ring::next_event consults
    // next_eligible); the other sites' RNG draws happen inside component
    // ticks that are scheduled anyway. A trigger moves the site's quiet
    // window FORWARD, so the fresh horizon may be later than the cached
    // one — re-deriving it (rather than the schedule-early wake rule) is
    // what keeps the rings skippable across the quiet window.
    if (!wake_ready_ || site != FaultSite::kRingLink) return;
    requery_ring(data_slot());
    requery_ring(credit_slot());
  }

 private:
  /// Scheduling slot per unit: components 0..n-1 in registration order,
  /// then the data ring, then the credit ring — matching the dense tick
  /// order, which the active-cycle scan preserves by visiting slots in
  /// ascending index order.
  struct Slot {
    Cycle at = 0;       // authoritative scheduled cycle (kNeverCycle = parked)
    Cycle synced = -1;  // last cycle whose accounting is settled
  };

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t data_slot() const { return slots_.size() - 2; }
  [[nodiscard]] std::size_t credit_slot() const { return slots_.size() - 1; }

  // --- Wake-list core ----------------------------------------------------

  /// (Re)build the wake-list bookkeeping: slot table, component index,
  /// ring-node routing and hub installation. Invalidated by add/add_fifo
  /// and by run_dense (which advances state without maintaining cached
  /// horizons).
  void prepare_wake() {
    const std::size_t n = components_.size();
    slots_.assign(n + 2, Slot{});
    unsafe_.clear();
    unsafe_mask_.assign(n, false);
    node_owner_.assign(static_cast<std::size_t>(ring_.data().nodes()),
                       kNoSlot);
    for (std::size_t i = 0; i < n; ++i) {
      Component* c = components_[i].get();
      c->set_wake_hub(this, i);
      if (!c->wake_list_safe()) {
        unsafe_.push_back(i);
        unsafe_mask_[i] = true;
      }
      const std::int32_t node = c->ring_node();
      if (node >= 0) {
        ACC_CHECK_MSG(node < ring_.data().nodes(),
                      "ring_node out of range for the wake-list scheduler");
        std::size_t& owner = node_owner_[static_cast<std::size_t>(node)];
        ACC_CHECK_MSG(owner == kNoSlot,
                      "two components drain the same ring node");
        owner = i;
      }
    }
    ring_.data().set_wake_hub(this);
    ring_.credit().set_wake_hub(this);
    if (FaultInjector* f = ring_.data().fault()) f->set_wake_hub(this);
    if (FaultInjector* f = ring_.credit().fault()) f->set_wake_hub(this);
    for (std::size_t i = 0; i < slots_.size(); ++i) slots_[i].synced = now_ - 1;
    wake_ready_ = true;
  }

  /// Entry of every wake-list run: make the first cycle fully dense so
  /// state mutated BETWEEN runs (test scaffolding poking components or
  /// FIFOs directly, without a wake) is observed before any jump.
  void begin_wake_run() {
    if (!wake_ready_) prepare_wake();
    for (Slot& s : slots_) s.at = now_;
  }

  /// Earliest authoritative scheduled cycle, or kNeverCycle when every
  /// slot is parked. A plain min over the calendar: slot counts are small
  /// (tiles + gateways + two rings), so the scan is a handful of integer
  /// compares — cheaper per active cycle than maintaining a heap.
  [[nodiscard]] Cycle next_due() const {
    Cycle m = kNeverCycle;
    for (const Slot& s : slots_) m = std::min(m, s.at);
    return m;
  }

  /// Step one ACTIVE cycle: run every due slot in ascending index order
  /// (components before rings, matching dense). Wakes raised mid-cycle for
  /// not-yet-scanned slots land at `now_` and are picked up by the same
  /// scan; wakes for already-passed slots land at now_ + 1 — exactly when
  /// the dense loop would have let them observe the interaction.
  ///
  /// Returns the earliest due cycle after the step (the next_due() scan is
  /// fused into the processing scan — one calendar pass per active cycle
  /// instead of two). Visited slots can be LOWERED afterwards only through
  /// wake_slot or a ring requery, both of which feed wake_floor_min_; they
  /// can be RAISED only by a mid-cycle ring requery
  /// (fault triggers), which makes the returned minimum conservative-early
  /// — the next iteration scans again, finds nothing due, and returns the
  /// fresh minimum without stepping (the !any path below), so stats stay
  /// identical to the unfused loop.
  [[nodiscard]] Cycle step_wake_cycle() {
    const Cycle t = now_;
    processing_ = true;
    wake_floor_min_ = kNeverCycle;
    Cycle min_next = kNeverCycle;
    bool any = false;
    for (std::size_t idx = 0; idx < slots_.size(); ++idx) {
      if (slots_[idx].at > t) {
        min_next = std::min(min_next, slots_[idx].at);
        continue;
      }
      any = true;
      processing_pos_ = idx;
      run_slot(idx, t);
      min_next = std::min(min_next, slots_[idx].at);
    }
    if (!any) {
      // Stale minimum (a horizon was raised since it was computed): no
      // slot was due, nothing ticked — report the fresh minimum only.
      processing_ = false;
      return min_next;
    }
    // Wake-unsafe components are re-queried after every active cycle, so
    // their hints never go stale.
    for (const std::size_t idx : unsafe_) {
      ++stats_.horizon_queries;
      schedule_horizon(idx, components_[idx]->next_event(t), t + 1);
      min_next = std::min(min_next, slots_[idx].at);
    }
    processing_ = false;
    ++now_;
    ++stats_.dense_ticks;
    return std::min(min_next, wake_floor_min_);
  }

  /// Sync a frozen slot's accounting through `t - 1`, tick it at `t`, and
  /// cache its fresh horizon.
  void run_slot(std::size_t idx, Cycle t) {
    Slot& s = slots_[idx];
    if (idx < components_.size()) {
      Component& c = *components_[idx];
      if (s.synced < t - 1) c.skip_to(s.synced + 1, t);
      s.synced = t;
      ++stats_.component_ticks;
      c.tick(t);
      if (unsafe_mask_[idx]) {
        s.at = kNeverCycle;  // re-queried after the cycle completes
        return;
      }
      ++stats_.horizon_queries;
      schedule_horizon(idx, c.next_event(t), t + 1);
    } else {
      Ring& r = idx == data_slot() ? ring_.data() : ring_.credit();
      if (r.cycle() < t) r.skip_to(t);
      s.synced = t;
      r.tick();
      ++stats_.horizon_queries;
      schedule_horizon(idx, r.next_event(), t + 1);
    }
  }

  /// Cache horizon `h` for `idx`, clamped to `floor` (kNeverCycle parks
  /// the slot out of the calendar until a wake).
  void schedule_horizon(std::size_t idx, Cycle h, Cycle floor) {
    slots_[idx].at = h == kNeverCycle ? kNeverCycle : std::max(h, floor);
  }

  /// Deliver a wake: schedule the slot at now_ — or now_ + 1 if this cycle
  /// already processed it (the dense loop, too, would only let it react
  /// next cycle). Never moves a slot later.
  void wake_slot(std::size_t idx) {
    ++stats_.wakes;
    const Cycle target =
        processing_ && idx <= processing_pos_ ? now_ + 1 : now_;
    Slot& s = slots_[idx];
    if (target < s.at) {
      s.at = target;
      wake_floor_min_ = std::min(wake_floor_min_, target);
    }
  }

  /// Re-derive a ring slot's horizon from scratch (fault triggers move
  /// quiet windows forward, so the fresh value may be LATER than the cached
  /// one — still conservative: next_eligible never undershoots truth).
  void requery_ring(std::size_t idx) {
    Ring& r = idx == data_slot() ? ring_.data() : ring_.credit();
    ++stats_.horizon_queries;
    const Cycle floor =
        processing_ && idx <= processing_pos_ ? now_ + 1 : now_;
    schedule_horizon(idx, r.next_event(), floor);
    // Keep the fused next-due minimum sound if this LOWERED a slot the
    // processing scan already visited (raises are covered by the stale-
    // minimum rescan in step_wake_cycle).
    wake_floor_min_ = std::min(wake_floor_min_, slots_[idx].at);
  }

  /// Settle every frozen slot's lazily-deferred accounting through
  /// `upto - 1` (callers read counters and stats after run()/run_until()
  /// returns, and predicates read them at evaluation points).
  void sync_all(Cycle upto) {
    for (std::size_t i = 0; i < components_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.synced < upto - 1) {
        components_[i]->skip_to(s.synced + 1, upto);
        s.synced = upto - 1;
      }
    }
    if (ring_.data().cycle() < upto) ring_.data().skip_to(upto);
    if (ring_.credit().cycle() < upto) ring_.credit().skip_to(upto);
  }

  DualRing ring_;
  std::vector<std::unique_ptr<Component>> components_;
  std::vector<std::unique_ptr<CFifo>> fifos_;
  Cycle now_ = 0;
  StepperStats stats_;

  // Wake-list state (valid while wake_ready_).
  bool wake_ready_ = false;
  std::vector<Slot> slots_;
  std::vector<std::size_t> node_owner_;  // ring node -> component slot
  std::vector<std::size_t> unsafe_;      // wake-unsafe component slots
  std::vector<bool> unsafe_mask_;
  bool processing_ = false;        // inside step_wake_cycle
  std::size_t processing_pos_ = 0; // slot currently (or last) run this cycle
  Cycle wake_floor_min_ = kNeverCycle;  // lowest at lowered mid-cycle
};

}  // namespace acc::sim
