// System: owns the interconnect, the tiles and the C-FIFOs, and steps the
// whole MPSoC.
//
// Two steppers share one cycle-exact semantics:
//
//  - run_dense: the reference loop — every component ticks every cycle.
//  - run (wake-list): each component's event horizon (the earliest cycle
//    at which its next tick could have an externally visible effect,
//    Component::next_event) is CACHED in a calendar and only re-queried
//    when its owner ticked or was woken through WakeHub (sim/wake.hpp).
//    Each cycle ticks ONLY the components whose cached horizon is due —
//    partial quiescence falls out for free (idle tiles sleep while the
//    accelerator chain streams) — and when nothing is due, now_ jumps
//    straight to the calendar minimum. Parked slots (horizon kNeverCycle)
//    cost nothing: an armed-slot bitmap, one bit per slot whose horizon is
//    finite, drives both the active-cycle scan and the minimum, so the work
//    per active cycle is O(due slots), however many departed sessions'
//    tiles stay registered. (A min-heap calendar was measured and
//    rejected: with a dozen-odd busy slots, re-arming every active slot
//    each cycle churns the heap harder than walking the armed bits costs.)
//    Exactness rests on two rules:
//      1. no component may act before its cached horizon unless woken, so
//         every interaction point (C-FIFO push/pop, ring inject/eject,
//         gateway callbacks, fault triggers) must route a wake — and so
//         must every mutator that can lower a parked horizon BETWEEN runs
//         (cached horizons survive from one run() call to the next);
//      2. waking EARLY is always exact (an extra tick is dense behaviour);
//         only a missed wake — acting later than dense would — diverges.
//    Frozen components are synchronized lazily: skip_to replays the
//    accounting for [last tick + 1, wake cycle) right before they run, and
//    sync_all() settles everyone when a run returns.
//    Steady-state replay: while an entry gateway streams with ε above its
//    chain's sample latency, a block is periodic (Eq. 2's max(ε, ρ_A, δ)
//    per sample) and the chain empties between samples. At every active-cycle
//    end where both rings are empty and no data payload sits outside
//    C-FIFOs and kernel state, run() hashes the control state of the slots
//    and C-FIFOs that ran (StateHasher::control: no payloads, no progress
//    cursors, no kernel data words). When that hash recurs after P cycles,
//    and the next period [B, B+P) confirms it,
//    run() jumps k·P cycles at once: each in-period component extrapolates
//    its counters and deadlines (Component::replay, sim/replay.hpp), the
//    period's C-FIFO pushes and pops are replayed at their own cycles, and
//    the popped samples run through the chain's kernels with
//    process_block. k stops short of a block's or a source's last sample,
//    of any slot outside the period, of the run's end and of any C-FIFO
//    that could fill or run dry; a fault injector, a component without a
//    replay hook or a pop of a chain's output inside the period vetoes the
//    jump. The confirmed period and the search's back-off are kept per
//    route, the set of (gateway, stream) pairs streaming: a boundary
//    checks only its own route's period, and a route without one whose
//    search is backed off is not watched at all.
//    See docs/performance.md for the invariants and the equivalence proof
//    obligations (tests/sim/event_horizon_test.cpp).
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
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
  std::int64_t calendar_visits = 0;  // armed slots examined (scan, next_due)
  std::int64_t rearms = 0;           // slots armed at now (prepare, add)
  std::int64_t sync_visits = 0;      // components visited by sync_all
  std::int64_t replays = 0;          // steady-state jumps taken
  std::int64_t replayed_cycles = 0;  // cycles covered by those jumps
  std::int64_t replay_boundaries = 0;  // payload-free boundaries examined
  std::int64_t period_checks = 0;      // confirmed periods compared there
};

/// Which stepper advances the system (both are cycle-exact).
enum class StepperKind {
  kDense = 0,     // reference semantics, every component every cycle
  kWakeList = 1,  // cached horizons, selective ticking, O(due slots)
};

class System final : public WakeHub {
 public:
  explicit System(std::int32_t ring_nodes) : ring_(ring_nodes) {}

  [[nodiscard]] DualRing& ring() { return ring_; }
  [[nodiscard]] const DualRing& ring() const { return ring_; }

  /// Construct and own a component; ticked in creation order. Between
  /// wake-list runs it gets a fresh slot armed at now(); the other slots
  /// keep their cached horizons.
  template <typename T, typename... Args>
  T& add(Args&&... args) {
    auto p = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *p;
    components_.push_back(std::move(p));
    if (wake_ready_) append_slot();
    return ref;
  }

  /// Construct and own a software FIFO.
  template <typename... Args>
  CFifo& add_fifo(Args&&... args) {
    fifos_.push_back(std::make_unique<CFifo>(std::forward<Args>(args)...));
    fifos_.back()->set_journal(&journal_,
                               static_cast<std::uint32_t>(fifos_.size() - 1));
    return *fifos_.back();
  }

  /// Run for `cycles` clock cycles with the wake-list stepper (cycle-exact
  /// vs run_dense; see file header). Cached horizons carry over from the
  /// previous run: state mutated between runs reaches the calendar through
  /// the same wakes as state mutated mid-run (rule 1 of the file header).
  void run(Cycle cycles) {
    const Cycle end = now_ + cycles;
    if (!wake_ready_) prepare_wake();
    begin_replay_watch();
    Cycle due = now_;  // the first scan finds the earliest due slot itself
    while (now_ < end) {
      if (due > now_) {
        const Cycle target = std::min(due, end);
        stats_.skipped_cycles += target - now_;
        ++stats_.skips;
        now_ = target;
        if (now_ >= end) break;
      }
      due = step_wake_cycle();
      if (route_ != nullptr && ring_.data().empty() &&
          ring_.credit().empty() &&
          (now_ >= route_->watch_from || route_->period))
        due = replay_boundary(due, end);
    }
    journal_.on = false;
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
    if (!wake_ready_ || replaying_) return;
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

  void streaming(Component& c, std::optional<std::int64_t> stream) override {
    if (!wake_ready_) return;
    const std::size_t slot = c.wake_slot();
    std::erase_if(streaming_,
                  [slot](const Streamer& s) { return s.slot == slot; });
    if (stream) {
      const Streamer s{slot, *stream};
      streaming_.insert(
          std::upper_bound(streaming_.begin(), streaming_.end(), s), s);
    }
    enter_route();
  }

 private:
  /// Scheduling slot per unit: components 0..n-1 in registration order,
  /// then the data ring, then the credit ring — matching the dense tick
  /// order, which the active-cycle scan preserves by visiting armed slots
  /// in ascending index order.
  struct Slot {
    Cycle at = 0;       // authoritative scheduled cycle (kNeverCycle = parked)
    Cycle synced = -1;  // last cycle whose accounting is settled
    Cycle ran = -1;     // last cycle the slot ran
  };

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  static constexpr std::size_t kWordBits = 64;

  [[nodiscard]] std::size_t data_slot() const { return slots_.size() - 2; }
  [[nodiscard]] std::size_t credit_slot() const { return slots_.size() - 1; }

  [[nodiscard]] static std::uint64_t slot_bit(std::size_t idx) {
    return std::uint64_t{1} << (idx % kWordBits);
  }

  // --- Wake-list core ----------------------------------------------------

  /// (Re)build the wake-list bookkeeping — slot table, armed-slot bitmap,
  /// ring-node routing and hub installation — with every slot armed at
  /// now_, so the first cycle is fully dense. Runs on the first wake-list
  /// run and on the first one after run_dense (which advances state
  /// without maintaining cached horizons); add() extends it in place.
  void prepare_wake() {
    const std::size_t n = components_.size();
    slots_.assign(n + 2, Slot{now_, now_ - 1});
    armed_.assign((n + 2 + kWordBits - 1) / kWordBits, 0);
    for (std::size_t i = 0; i < n + 2; ++i)
      armed_[i / kWordBits] |= slot_bit(i);
    streaming_.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (const auto stream = components_[i]->streaming())
        streaming_.push_back(Streamer{i, *stream});
    node_owner_.assign(static_cast<std::size_t>(ring_.data().nodes()),
                       kNoSlot);
    for (std::size_t i = 0; i < n; ++i) register_slot(i);
    ring_.data().set_wake_hub(this);
    ring_.credit().set_wake_hub(this);
    if (FaultInjector* f = ring_.data().fault()) f->set_wake_hub(this);
    if (FaultInjector* f = ring_.credit().fault()) f->set_wake_hub(this);
    stats_.rearms += static_cast<std::int64_t>(n + 2);
    wake_ready_ = true;
    enter_route();
  }

  /// Hub and ring-node route of component slot `i`.
  void register_slot(std::size_t i) {
    Component* c = components_[i].get();
    c->set_wake_hub(this, i);
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

  /// Slot for the component add() just appended, armed at now_. It takes
  /// the data ring's index; both rings move up one and keep their cached
  /// horizons and armed bits.
  void append_slot() {
    const std::size_t i = components_.size() - 1;
    const bool data_armed = slots_[i].at != kNeverCycle;
    const bool credit_armed = slots_[i + 1].at != kNeverCycle;
    slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(i),
                  Slot{now_, now_ - 1});
    if (armed_.size() * kWordBits < slots_.size()) armed_.push_back(0);
    const auto put = [this](std::size_t idx, bool on) {
      if (on)
        armed_[idx / kWordBits] |= slot_bit(idx);
      else
        armed_[idx / kWordBits] &= ~slot_bit(idx);
    };
    put(i, true);
    put(i + 1, data_armed);
    put(i + 2, credit_armed);
    register_slot(i);
    ++stats_.rearms;
  }

  /// Earliest authoritative scheduled cycle, or kNeverCycle when every
  /// slot is parked: a min over the armed slots only, so parked slots
  /// cost nothing.
  [[nodiscard]] Cycle next_due() {
    Cycle m = kNeverCycle;
    std::int64_t visits = 0;
    for (std::size_t w = 0; w < armed_.size(); ++w) {
      for (std::uint64_t bits = armed_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t idx =
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        ++visits;
        m = std::min(m, slots_[idx].at);
      }
    }
    stats_.calendar_visits += visits;
    return m;
  }

  /// Step one ACTIVE cycle: run every due slot in ascending index order
  /// (components before rings, matching dense), walking the armed bits
  /// only. Wakes raised mid-cycle for not-yet-scanned slots land at `now_`
  /// and are picked up by the same scan — a wake that lowers a slot sets
  /// lowered_, and the scan re-reads the rest of the current word (later
  /// words are read fresh anyway); wakes for already-passed slots land at
  /// now_ + 1 — exactly when the dense loop would have let them observe
  /// the interaction.
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
    lowered_ = false;
    wake_floor_min_ = kNeverCycle;
    Cycle min_next = kNeverCycle;
    std::int64_t visits = 0;  // kept local: run_slot's calls would spill it
    bool any = false;
    for (std::size_t w = 0; w < armed_.size(); ++w) {
      std::uint64_t bits = armed_[w];
      while (bits != 0) {
        const auto b = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t idx = w * kWordBits + b;
        ++visits;
        if (slots_[idx].at > t) {
          min_next = std::min(min_next, slots_[idx].at);
          continue;
        }
        any = true;
        processing_pos_ = idx;
        run_slot(idx, t);
        min_next = std::min(min_next, slots_[idx].at);
        if (lowered_) {
          lowered_ = false;
          bits = armed_[w] & ~((std::uint64_t{2} << b) - 1);
        }
      }
    }
    stats_.calendar_visits += visits;
    processing_ = false;
    // Stale minimum (a horizon was raised since it was computed): no slot
    // was due, nothing ticked — report the fresh minimum only.
    if (!any) return min_next;
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
      s.ran = t;
      ++stats_.component_ticks;
      c.tick(t);
      ++stats_.horizon_queries;
      schedule_horizon(idx, c.next_event(t), t + 1);
    } else {
      Ring& r = idx == data_slot() ? ring_.data() : ring_.credit();
      if (r.cycle() < t) r.skip_to(t);
      s.synced = t;
      s.ran = t;
      r.tick();
      ++stats_.horizon_queries;
      schedule_horizon(idx, r.next_event(), t + 1);
    }
  }

  /// Cache `at` for slot `idx`. The armed bit flips only when the slot
  /// moves between parked (kNeverCycle) and armed.
  void set_at(std::size_t idx, Cycle at) {
    Slot& s = slots_[idx];
    if ((s.at == kNeverCycle) != (at == kNeverCycle))
      armed_[idx / kWordBits] ^= slot_bit(idx);
    s.at = at;
  }

  /// Cache horizon `h` for `idx`, clamped to `floor` (kNeverCycle parks
  /// the slot out of the calendar until a wake).
  void schedule_horizon(std::size_t idx, Cycle h, Cycle floor) {
    set_at(idx, h == kNeverCycle ? kNeverCycle : std::max(h, floor));
  }

  /// Deliver a wake: schedule the slot at now_ — or now_ + 1 if this cycle
  /// already processed it (the dense loop, too, would only let it react
  /// next cycle). Never moves a slot later. Whether the woken slot was
  /// parked is a coin flip on busy chains, so every lowering wake sets its
  /// armed bit (a no-op unless it was parked) and sets lowered_: on the PAL
  /// decode, a branch on the old horizon cost more than the spare re-reads.
  void wake_slot(std::size_t idx) {
    ++stats_.wakes;
    const Cycle target =
        processing_ && idx <= processing_pos_ ? now_ + 1 : now_;
    Slot& s = slots_[idx];
    if (target < s.at) {
      armed_[idx / kWordBits] |= slot_bit(idx);
      lowered_ = true;
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
    // minimum rescan in step_wake_cycle), and let the scan re-read the
    // current word in case this un-parked a ring slot.
    wake_floor_min_ = std::min(wake_floor_min_, slots_[idx].at);
    lowered_ = true;
  }

  /// Settle every frozen slot's lazily-deferred accounting through
  /// `upto - 1` (callers read counters and stats after run() returns).
  void sync_all(Cycle upto) {
    stats_.sync_visits += static_cast<std::int64_t>(components_.size());
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

  // --- Steady-state replay (system.cpp; see the file header) -------------

  /// Control hash of each unit — slot index, or slots_.size() + C-FIFO
  /// index — that ran or was touched since some boundary, ascending.
  using Row = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

  /// A payload-free active-cycle end while some entry gateway streams.
  struct Mark {
    Cycle at = 0;
    std::int64_t op = 0;  // journal position (absolute op count)
    Row row;
  };

  /// A period found by hash recurrence, waiting for its next repetition to
  /// confirm it: [start, start + period) becomes the replayed period.
  struct Pending {
    Cycle start = 0;
    Cycle period = 0;  // 0 = none
    std::int64_t op = 0;
    Row row;                          // the period's units, hashed at start
    std::vector<std::int64_t> fill;   // C-FIFO units: reader-visible fill
    std::vector<std::int64_t> space;  // and writer-visible space at start
  };

  /// A confirmed period, replayable from every boundary whose units hash
  /// as they did at its end.
  struct Period {
    Cycle length = 0;  // P
    Row row;           // its units, hashed at its end
    std::vector<FifoJournal::Op> ops;  // `at` is the offset into the period
    std::vector<Component*> actors;    // per op: the value's producer/taker
    std::vector<char> derived;         // per op: a chain output push
    Replay replay;                     // its words' steps and C-FIFO roles
  };

  static constexpr std::size_t kMarks = 32;
  /// Routes remembered. A new route beyond them evicts the least recently
  /// entered one with its period and back-off: more than kRoutes routes
  /// entered in turn evict each other before they recur.
  static constexpr std::size_t kRoutes = 32;
  /// Boundaries in a row without a period match before a route's search
  /// backs off (a block whose periods a processor tile or a sink keeps
  /// breaking); each back-off without a new period doubles, up to
  /// kMaxBackoff cycles. A backed-off route with a confirmed period still
  /// matches it; one without is not watched at all.
  static constexpr std::int64_t kMissLimit = 4 * kMarks;
  static constexpr Cycle kBackoff = 2048;
  static constexpr Cycle kMaxBackoff = Cycle{1} << 20;

  /// A streaming gateway's slot and its active stream.
  struct Streamer {
    std::size_t slot = 0;
    std::int64_t stream = 0;
    auto operator<=>(const Streamer&) const = default;
  };

  /// The search state of one route: the set of streamers, ascending.
  struct Route {
    std::vector<Streamer> streamers;
    std::optional<Period> period;  // the last one confirmed
    std::int64_t misses = 0;  // boundaries since the last period candidate
    Cycle watch_from = 0;     // the search is backed off until this cycle
    Cycle backoff = kBackoff;  // the next back-off
  };

  void begin_replay_watch();
  [[nodiscard]] Cycle replay_boundary(Cycle due, Cycle end);
  [[nodiscard]] std::uint64_t unit_hash(std::uint32_t u);
  [[nodiscard]] bool period_now(const Period& per);
  void hash_units(Cycle since, std::int64_t since_op, Row& row);
  [[nodiscard]] bool in_period(std::uint32_t u, Cycle at,
                               std::int64_t op) const;
  [[nodiscard]] bool period_matches(const Mark& old, const Row& row) const;
  void begin_pending(const Mark& old, const Row& row);
  [[nodiscard]] bool confirm(const Row& row);
  [[nodiscard]] Cycle jump(Period& per, Cycle end);
  void replay_op(const FifoJournal::Op& op, Component* actor, Cycle t);
  [[nodiscard]] bool replay_units(Replay& r, const Row& units);
  void settle(std::size_t idx, Cycle b);
  /// Drop the marks, the pending period and the journal (confirmed periods
  /// survive).
  void forget_marks();
  /// Point route_ at the route of the current streamers (null when none
  /// streams), creating it if new; the marks belong to the old one.
  void enter_route();

  DualRing ring_;
  std::vector<std::unique_ptr<Component>> components_;
  std::vector<std::unique_ptr<CFifo>> fifos_;
  Cycle now_ = 0;
  StepperStats stats_;

  // Wake-list state (valid while wake_ready_).
  bool wake_ready_ = false;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> armed_;     // bit per slot whose at is finite
  std::vector<std::size_t> node_owner_;  // ring node -> component slot
  bool processing_ = false;        // inside step_wake_cycle
  bool lowered_ = false;           // a wake or requery lowered a slot
  std::size_t processing_pos_ = 0; // slot currently (or last) run this cycle
  Cycle wake_floor_min_ = kNeverCycle;  // lowest at lowered mid-cycle

  // Steady-state replay state (valid during run()).
  std::vector<Streamer> streaming_;  // ascending: the current route's key
  FifoJournal journal_;
  std::int64_t journal_base_ = 0;          // ops trimmed off the front
  std::vector<std::int64_t> last_touch_;   // per C-FIFO: last op, absolute
  std::vector<Mark> marks_;                // ring of the last kMarks
  std::size_t mark_head_ = 0;
  std::size_t mark_count_ = 0;
  Row row_;                                // scratch: this boundary's row
  std::vector<std::uint64_t> memo_;        // per unit: control hash, valid
  std::vector<std::uint64_t> memo_stamps_; //   while its stamp is current
  std::uint64_t memo_stamp_ = 0;
  std::vector<char> member_;               // scratch: a period's units
  Pending pending_;
  Replay pending_replay_;
  std::vector<Route> routes_;  // least recently entered first
  Route* route_ = nullptr;     // the streamers' route; null if none streams
  bool replaying_ = false;     // a jump's data plane is running
};

}  // namespace acc::sim
