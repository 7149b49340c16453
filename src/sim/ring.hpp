// Low-cost guaranteed-throughput dual-ring interconnect (refs [11]/[14] of
// the paper).
//
// Two unidirectional slotted rings: the DATA ring carries posted writes
// (flits) between tiles, the CREDIT ring carries flow-control credits in
// the OPPOSITE direction. Each hop takes one cycle. A node injects into the
// empty slot passing by (guaranteed-throughput: every node sees a free slot
// within one revolution under the paper's acceptance rule) and ejection
// always succeeds (lossless network: every tile guarantees acceptance,
// which is what removes the need for end-to-end flow control on writes).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/ring_buffer.hpp"
#include "obs/metrics.hpp"
#include "sim/flit.hpp"
#include "sim/state_hash.hpp"
#include "sim/wake.hpp"

namespace acc::sim {

using Cycle = std::int64_t;

/// Event-horizon sentinel: "no state change will ever happen here unless
/// some other component acts first" (see System::run).
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

class FaultInjector;

struct RingMsg {
  std::int32_t dst = -1;
  std::uint32_t tag = 0;  // channel / stream discriminator, component-defined
  Flit payload = 0;
};

/// One slotted unidirectional ring.
class Ring {
 public:
  Ring(std::int32_t nodes, bool clockwise);

  /// Queue a message for injection at `node` (bounded injection FIFO; the
  /// tile must retry next cycle when full — a posted write "completes when
  /// the interconnect accepts"). Inline: tiles call this in retry loops on
  /// every tick of a streaming phase.
  [[nodiscard]] bool try_inject(std::int32_t node, const RingMsg& msg) {
    ACC_EXPECTS(node >= 0 && node < nodes());
    ACC_EXPECTS(msg.dst >= 0 && msg.dst < nodes());
    auto& q = inject_[static_cast<std::size_t>(node)];
    if (q.size() >= kInjectQueueDepth) return false;
    q.push_back(msg);
    ++queued_;
    m_injected_.add();
    // The hub only needs to hear transitions that can LOWER the ring's
    // horizon. With messages already queued before this push, next_event
    // was (and stays) pinned at the next non-stalled tick, so the cached
    // schedule is already as early as it can get and the notification
    // would be a no-op. queued_ == 1 means this push made the queues
    // non-empty — the only injection that can un-park the ring.
    if (hub_ != nullptr && queued_ == 1) hub_->ring_activity(*this);
    return true;
  }

  /// Messages ejected at `node` since last drained, appended to `out`
  /// (cleared first). The caller owns `out` and reuses it across ticks, so
  /// the hot path performs no per-call allocation once the buffer warmed up.
  void drain_into(std::int32_t node, std::vector<RingMsg>& out) {
    ACC_EXPECTS(node >= 0 && node < nodes());
    out.clear();
    auto& src = ejected_[static_cast<std::size_t>(node)];
    if (src.empty()) return;
    out.insert(out.end(), src.begin(), src.end());
    pending_eject_ -= static_cast<std::int64_t>(src.size());
    src.clear();
  }

  /// Eject-and-count for callers that only tally messages (credit returns):
  /// returns the number of messages ejected at `node` and discards them.
  [[nodiscard]] std::int64_t drain_count(std::int32_t node) {
    ACC_EXPECTS(node >= 0 && node < nodes());
    auto& src = ejected_[static_cast<std::size_t>(node)];
    const auto n = static_cast<std::int64_t>(src.size());
    pending_eject_ -= n;
    src.clear();
    return n;
  }

  /// Allocating convenience wrapper over drain_into (tests / cold paths).
  [[nodiscard]] std::vector<RingMsg> drain(std::int32_t node);

  /// Advance every slot one hop; eject and inject at each node. While a
  /// fault-injected stall window is open the ring freezes: no rotation, no
  /// ejection, no drain of the injection queues (messages are delayed,
  /// never lost — the paper's interconnect stays lossless under faults).
  void tick();

  /// Opt-in metrics: registers <prefix>.{injected,delivered,hops} (see
  /// docs/observability.md). Injections and deliveries are events; `hops`
  /// accrues one count per occupied slot per rotation — a rotation only
  /// happens on a densely ticked, non-stalled cycle, and the steppers skip
  /// exactly the cycles where no rotation moves anything, so all three
  /// totals are stepper-exact.
  void set_metrics(obs::MetricsRegistry* registry, const std::string& prefix);

  /// Opt-in fault injection: consult `injector` at `site` once per tick
  /// for a stall window (see sim/fault.hpp).
  void set_fault(FaultInjector* injector, FaultSite site);
  [[nodiscard]] FaultInjector* fault() const { return fault_; }

  /// Wake-list plumbing (see sim/wake.hpp): report injections and
  /// ejections so the scheduler can wake the ring and the draining tiles.
  /// Null (the default) until a wake-list run installs it.
  void set_wake_hub(WakeHub* hub) { hub_ = hub; }

  /// True when no slot is occupied and no injection queue holds a message —
  /// ticking such a ring moves nothing. Ejected messages awaiting pickup
  /// do NOT make the ring busy: the draining tile's next_event (fed by
  /// has_ejected) schedules the pickup, not the ring's.
  [[nodiscard]] bool idle() const { return occupied_ == 0 && queued_ == 0; }

  /// True when ejected messages await `node`'s drain. Components that
  /// drain this node must report now + 1 from their next_event while this
  /// holds — that is what lets the ring itself fast-forward across
  /// in-flight hop cycles without stranding a delivered message.
  [[nodiscard]] bool has_ejected(std::int32_t node) const {
    return !ejected_[static_cast<std::size_t>(node)].empty();
  }

  /// Event horizon (see System::run): the earliest internal cycle at which
  /// a tick can change ring state or consult the fault injector's RNG,
  /// assuming no component injects in the meantime. With messages queued
  /// for pickup (or a fault injector consuming RNG per tick) that is the
  /// next non-stalled cycle; with traffic purely IN FLIGHT it is the cycle
  /// whose rotation lands the nearest message on its destination — the
  /// intermediate hop cycles only accrue the hops metric, which skip_to
  /// replays exactly. kNeverCycle when nothing will ever happen again.
  /// Inline: the wake-list stepper consults it after every ring tick.
  [[nodiscard]] Cycle next_event() const {
    if (queued_ > 0 || (fault_ != nullptr && occupied_ > 0)) {
      // Pickups happen on the very next non-stalled tick, and a fault
      // injector consults its RNG on every non-stalled tick while traffic
      // is in flight (each consult advances the deterministic stream): tick
      // every cycle, or — while frozen by a stall window — resume when the
      // window releases (frozen cycles only accrue stall accounting,
      // replayed by skip_to).
      return now_ > stall_until_ ? now_ : stall_until_;
    }
    if (occupied_ > 0) {
      // Fault-free traffic purely in flight: every tick rotates (no stall
      // window can open without an injector), and nothing externally
      // visible happens until the rotation that lands the nearest message
      // on its destination — its ejection tick. Hops in between are
      // replayed by skip_to. The scan is O(nodes); rings are 4-16 nodes
      // wide.
      const auto n = static_cast<Cycle>(slots_.size());
      Cycle k_min = kNeverCycle;
      for (std::int32_t node = 0; node < nodes(); ++node) {
        const Slot& s = slots_[slot_at(node)];
        if (!s.occupied) continue;
        // dst and node both lie in [0, n), so the hop distance wraps with
        // one conditional add — no runtime-divisor modulo on this path.
        Cycle k = clockwise_ ? s.msg.dst - node : node - s.msg.dst;
        if (k <= 0) k += n;  // wrapped, or self-addressed: full revolution
        if (k < k_min) k_min = k;
      }
      return now_ + k_min - 1;
    }
    // Empty ring: a tick only matters when it would consult the fault
    // injector's RNG (an eligible consult advances the deterministic
    // stream, which is externally visible state). Skipped stall-window
    // accounting is replayed exactly by skip_to.
    if (fault_ == nullptr) return kNeverCycle;
    return fault_next_eligible();
  }

  /// Jump the internal clock to `target` without ticking, accounting the
  /// skipped cycles exactly as dense ticking would: stall-window cycles,
  /// and — for in-flight traffic — slot rotations and per-hop metric
  /// accrual. Only valid while the skipped range is quiescent per
  /// next_event() (no ejection or pickup can fall inside it).
  /// Inline: the wake-list stepper syncs both rings on every jump.
  void skip_to(Cycle target) {
    if (target <= now_) return;
    // Dense ticks inside an open stall window each count one stall cycle;
    // replay that accounting for the portion of the window we jump over.
    if (stall_until_ > now_) {
      const Cycle stalled_until = target < stall_until_ ? target : stall_until_;
      stall_cycles_ += stalled_until - now_;
    }
    if (occupied_ > 0) skip_rotations(target);
    now_ = target;
  }

  /// Messages currently inside the network addressed to `dst`: in-flight
  /// slots, injection-queue entries, and ejected messages awaiting drain
  /// (ejection only ever happens at msg.dst). The model checker's credit-
  /// conservation rule (V02) counts these as tokens in flight on the link
  /// terminating at `dst`.
  [[nodiscard]] std::int64_t count_to(std::int32_t dst) const {
    ACC_EXPECTS(dst >= 0 && dst < nodes());
    std::int64_t n = 0;
    for (const Slot& s : slots_) {
      if (s.occupied && s.msg.dst == dst) ++n;
    }
    for (const auto& q : inject_) {
      for (std::size_t i = 0; i < q.size(); ++i) {
        if (q[i].dst == dst) ++n;
      }
    }
    for (const auto& e : ejected_) {
      for (const RingMsg& m : e) {
        if (m.dst == dst) ++n;
      }
    }
    return n;
  }

  /// Canonical state snapshot (see sim/state_hash.hpp). Slots are visited
  /// in NODE order through slot_at, so two rings differing only in their
  /// rotation offset — physically the same network state — hash equal.
  /// delivered_ is a lifetime counter (excluded); stall_cycles_ is
  /// skip-replayed accounting.
  void snapshot_state(StateHasher& h) const {
    for (std::int32_t node = 0; node < nodes(); ++node) {
      const Slot& s = slots_[slot_at(node)];
      h.mix(s.occupied);
      if (s.occupied) {
        h.mix(s.msg.dst);
        h.mix(s.msg.tag);
        h.mix(s.msg.payload);
      }
      const auto& q = inject_[static_cast<std::size_t>(node)];
      h.mix(static_cast<std::int64_t>(q.size()));
      for (std::size_t i = 0; i < q.size(); ++i) {
        h.mix(q[i].dst);
        h.mix(q[i].tag);
        h.mix(q[i].payload);
      }
      const auto& e = ejected_[static_cast<std::size_t>(node)];
      h.mix(static_cast<std::int64_t>(e.size()));
      for (const RingMsg& m : e) {
        h.mix(m.dst);
        h.mix(m.tag);
        h.mix(m.payload);
      }
    }
    h.mix_cycle(stall_until_);
    h.accounting(stall_cycles_);
  }

  [[nodiscard]] std::int32_t nodes() const {
    return static_cast<std::int32_t>(slots_.size());
  }
  /// Internal tick counter (the wake-list scheduler syncs a frozen ring
  /// with skip_to before ticking it).
  [[nodiscard]] Cycle cycle() const { return now_; }
  /// Total messages delivered (stats).
  [[nodiscard]] std::int64_t delivered() const { return delivered_; }
  /// Cycles lost to fault-injected stall windows.
  [[nodiscard]] Cycle stall_cycles() const { return stall_cycles_; }

 private:
  struct Slot {
    bool occupied = false;
    RingMsg msg;
  };

  static constexpr std::size_t kInjectQueueDepth = 8;

  /// Physical slot currently sitting at `node` (rotation is an index
  /// offset, not a copy of the slot array). offset_ < n and node < n, so a
  /// conditional subtract replaces the modulo — tick() sits on the hot path
  /// of every stepper and a div on a runtime divisor costs more than the
  /// rest of the per-node work combined.
  [[nodiscard]] std::size_t slot_at(std::int32_t node) const {
    const std::size_t i = static_cast<std::size_t>(node) + offset_;
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  /// Out-of-line arm of next_event for the empty-ring-with-injector case
  /// (needs FaultInjector's definition, which this header cannot include).
  [[nodiscard]] Cycle fault_next_eligible() const;

  /// Out-of-line arm of skip_to: replay the rotations and per-hop metric
  /// accrual for in-flight traffic (the only case with a runtime modulo).
  void skip_rotations(Cycle target);

  std::vector<Slot> slots_;
  std::vector<RingBuffer<RingMsg>> inject_;
  std::vector<std::vector<RingMsg>> ejected_;
  std::size_t offset_ = 0;  // slots_[ (node + offset_) % n ] is at node
  bool clockwise_;
  std::int64_t delivered_ = 0;
  std::int64_t occupied_ = 0;       // slots in flight
  std::int64_t queued_ = 0;         // messages waiting in injection queues
  std::int64_t pending_eject_ = 0;  // ejected messages awaiting drain
  Cycle now_ = 0;  // internal tick counter (fault windows are cycle-based)
  FaultInjector* fault_ = nullptr;
  FaultSite fault_site_{};
  Cycle stall_until_ = 0;
  Cycle stall_cycles_ = 0;
  WakeHub* hub_ = nullptr;
  obs::Counter m_injected_;
  obs::Counter m_delivered_;
  obs::Counter m_hops_;
};

/// The paper's dual ring: data one way, credits the other way.
class DualRing {
 public:
  explicit DualRing(std::int32_t nodes)
      : data_(nodes, /*clockwise=*/true), credit_(nodes, /*clockwise=*/false) {}

  Ring& data() { return data_; }
  Ring& credit() { return credit_; }
  [[nodiscard]] const Ring& data() const { return data_; }
  [[nodiscard]] const Ring& credit() const { return credit_; }

  /// Wire both rings to one injector's kRingLink site (a stall models
  /// link-level contention hitting the physical ring pair).
  void set_fault(FaultInjector* injector);

  /// Register ring.data.* / ring.credit.* metrics on both rings.
  void set_metrics(obs::MetricsRegistry* registry) {
    data_.set_metrics(registry, "ring.data");
    credit_.set_metrics(registry, "ring.credit");
  }

  void tick() {
    data_.tick();
    credit_.tick();
  }

  [[nodiscard]] Cycle next_event() const {
    return std::min(data_.next_event(), credit_.next_event());
  }

  void skip_to(Cycle target) {
    data_.skip_to(target);
    credit_.skip_to(target);
  }

  void set_wake_hub(WakeHub* hub) {
    data_.set_wake_hub(hub);
    credit_.set_wake_hub(hub);
  }

 private:
  Ring data_;
  Ring credit_;
};

}  // namespace acc::sim
