// Base class for cycle-stepped simulator components.
#pragma once

#include "sim/ring.hpp"
#include "sim/state_hash.hpp"
#include "sim/wake.hpp"

namespace acc::sim {

class Component {
 public:
  virtual ~Component() = default;
  /// Advance one clock cycle. Components are ticked in registration order,
  /// then the interconnect advances (System::run).
  virtual void tick(Cycle now) = 0;

  /// Mix this component's canonical state into `h` (see sim/state_hash.hpp
  /// for the frozen/accounting channel contract). The bounded model checker
  /// (src/verify/) deduplicates explored states on the frozen digest and
  /// the wake-soundness audit checks frozen-channel bit-stability across
  /// declared skip windows. The default — contribute nothing — keeps
  /// unknown subclasses safe on both paths: an empty snapshot is trivially
  /// stable, and such components are exempt from dedup-sensitive state.
  virtual void snapshot_state(StateHasher& h) const { (void)h; }

  /// Event-horizon hint (see System::run and docs/performance.md). Called
  /// after every component and the ring ticked at cycle `now`; returns the
  /// earliest cycle > now at which this component's tick could have an
  /// externally visible effect (state, stats, trace events or RNG draws),
  /// assuming NO other component acts before then. kNeverCycle means "only
  /// another component's action can wake me". The default — tick next
  /// cycle — is exact legacy behavior and keeps unknown subclasses safe.
  [[nodiscard]] virtual Cycle next_event(Cycle now) const { return now + 1; }

  /// Jump from cycle `from` to cycle `to` (from < to) without ticking the
  /// range in between. Overriders must replay, exactly, whatever per-cycle
  /// accounting their tick would have performed over a quiescent range
  /// (wait/busy/stall counters, replenishment grids). Only called for a
  /// range this component's own next_event() certified as quiescent — under
  /// the wake-list stepper other components MAY have acted inside the
  /// range, but never in a way this component could observe (any observable
  /// interaction routes a wake through WakeHub first).
  virtual void skip_to(Cycle from, Cycle to) {
    (void)from;
    (void)to;
  }

  /// Wake-list contract (System::run): true when every input this
  /// component's next_event() depends on is covered by a wake notification
  /// (C-FIFO watcher, ring delivery, direct callback), so a cached horizon
  /// can never go stale-late. Components that cannot promise that return
  /// false and are re-queried every active cycle instead (exact, slower).
  [[nodiscard]] virtual bool wake_list_safe() const { return true; }

  /// True when skip_to() replays FROZEN-channel state — state that
  /// snapshot_state() mixes (not just accounting counters), e.g. a budget-
  /// replenishment grid whose phase advances deterministically across a
  /// parked window. The wake-soundness audit (V05, src/verify/) cannot
  /// check such components by per-cycle digest bit-stability; their skip
  /// equivalence is certified by the differential stepper suite
  /// (tests/sim/event_horizon_test.cpp) instead.
  [[nodiscard]] virtual bool frozen_skip_replay() const { return false; }

  /// Ring node this component drains (data and/or credit), or -1 when it
  /// has no network interface. The wake-list scheduler uses it to route
  /// Ring ejections back to the tile that must pick them up.
  [[nodiscard]] virtual std::int32_t ring_node() const { return -1; }

  /// Installed by System::run's wake-list preparation; null under the
  /// dense stepper and in standalone unit tests. The slot index keys this
  /// component's calendar entry so wake delivery is a direct array access
  /// instead of a map lookup.
  void set_wake_hub(WakeHub* hub, std::size_t slot = 0) {
    hub_ = hub;
    wake_slot_ = slot;
  }
  [[nodiscard]] std::size_t wake_slot() const { return wake_slot_; }

  /// Notify the scheduler that this component may need to act earlier than
  /// its cached horizon (no-op without a hub). Called by C-FIFOs on behalf
  /// of registered watchers and by components delivering direct callbacks.
  void request_wake() {
    if (hub_ != nullptr) hub_->wake(*this);
  }

 protected:
  WakeHub* hub_ = nullptr;

 private:
  std::size_t wake_slot_ = 0;
};

}  // namespace acc::sim
