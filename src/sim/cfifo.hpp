// C-FIFO: the software FIFO synchronization scheme (Gangwal et al., ref
// [12] of the paper) used between processor tiles and gateways.
//
// Data lives in the consumer's memory; the producer performs posted writes
// of data and of its write counter, the consumer posts back its read
// counter. Because the interconnect only supports posted writes, each
// side's view of the other's counter LAGS by the network latency. This
// class models exactly that: pushes become visible to the reader
// `read_visibility_lag` cycles later, and freed space becomes visible to
// the writer `write_visibility_lag` cycles later. Flow control is thus
// conservative but never unsafe — the behaviour the paper's dataflow model
// abstracts with the alpha0/alpha3 buffer edges.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ring_buffer.hpp"
#include "obs/metrics.hpp"
#include "sim/flit.hpp"
#include "sim/ring.hpp"
#include "sim/state_hash.hpp"

namespace acc::sim {

class Component;

class CFifo {
 public:
  CFifo(std::string name, std::int64_t capacity, Cycle read_visibility_lag = 4,
        Cycle write_visibility_lag = 4);

  /// Writer-side: is a slot free *as visible to the writer* at `now`?
  [[nodiscard]] bool can_push(Cycle now) const;
  void push(Cycle now, Flit f);
  /// Slots the writer believes are free (conservative).
  [[nodiscard]] std::int64_t space_visible(Cycle now) const;

  /// Reader-side: samples the reader can see at `now`.
  [[nodiscard]] std::int64_t fill_visible(Cycle now) const;

  /// Event-horizon predictions (exact, not estimates): the earliest cycle
  /// >= now at which `fill_visible` / `space_visible` reaches `n`, assuming
  /// nobody pushes or pops in the meantime — which is exactly the frozen
  /// state the event-horizon stepper certifies before skipping. Returns
  /// kNeverCycle when the frozen state can never satisfy the demand (the
  /// other side must act first). Both lean on the monotone visibility
  /// deadlines push/pop maintain.
  [[nodiscard]] Cycle when_fill_visible(std::int64_t n, Cycle now) const;
  [[nodiscard]] Cycle when_space_visible(std::int64_t n, Cycle now) const;
  /// Equivalent to fill_visible(now) > 0: arrival deadlines are monotone,
  /// so only the head's deadline matters (O(1) — this guards every pop).
  [[nodiscard]] bool can_pop(Cycle now) const {
    return !data_.empty() && data_.front().visible_at <= now;
  }
  [[nodiscard]] Flit front(Cycle now) const;
  Flit pop(Cycle now);

  /// Ground-truth occupancy (stats/assertions, not visible to either side).
  [[nodiscard]] std::int64_t true_fill() const {
    return static_cast<std::int64_t>(data_.size());
  }
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }

  /// Control-plane resize (mode change): rebind the FIFO to a new depth.
  /// Growing is always safe; shrinking is allowed only down to the
  /// outstanding-token count (queued data plus in-flight freed credits) —
  /// the mode-change protocol quiesces first, so in practice both sides are
  /// settled. Growth immediately increases writer-visible space, so pop
  /// watchers (producers waiting on credits) are woken. The occupancy
  /// histogram keeps its construction-time bucket bounds.
  void set_capacity(std::int64_t capacity);
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Lifetime counters (stats).
  [[nodiscard]] std::int64_t total_pushed() const { return pushed_; }
  [[nodiscard]] std::int64_t total_popped() const { return popped_; }
  /// Peak ground-truth occupancy ever seen.
  [[nodiscard]] std::int64_t peak_fill() const { return peak_; }

  /// Opt-in metrics (see docs/observability.md): registers
  /// cfifo.<name>.{pushed,popped,occupancy,occupancy_hist} and updates them
  /// on every push/pop — event-driven, so snapshots are stepper-exact.
  /// Null detaches (handles become no-ops).
  void set_metrics(obs::MetricsRegistry* registry);

  /// Opt-in fault injection (kCreditWithhold): each push/pop may have its
  /// counter update delayed beyond the nominal visibility lag — a withheld
  /// software credit. Data is never lost and order is preserved; the other
  /// side just sees the update later (still conservative, still safe).
  void set_fault(FaultInjector* injector) { fault_ = injector; }

  /// Wake-list plumbing (see sim/wake.hpp): a component whose event
  /// horizon depends on this FIFO's fill (a consumer waiting for data)
  /// registers as a push watcher; one whose horizon depends on freed space
  /// (a producer waiting for credits) registers as a pop watcher. Every
  /// push/pop then requests a wake for the registered components — a no-op
  /// until the wake-list scheduler installs its hub on them. Duplicate
  /// registrations are coalesced.
  void add_push_watcher(Component* c);
  void add_pop_watcher(Component* c);

  /// Canonical state snapshot (see sim/state_hash.hpp): queue contents and
  /// visibility deadlines are frozen protocol state; the lifetime counters
  /// (pushed_/popped_/peak_) are excluded by contract.
  void snapshot_state(StateHasher& h) const {
    h.mix(static_cast<std::int64_t>(data_.size()));
    for (std::size_t i = 0; i < data_.size(); ++i) {
      h.mix_cycle(data_[i].visible_at);
      h.mix(data_[i].flit);
    }
    h.mix(static_cast<std::int64_t>(freed_.size()));
    for (std::size_t i = 0; i < freed_.size(); ++i) h.mix_cycle(freed_[i]);
  }

 private:
  struct Entry {
    Cycle visible_at;  // when this flit becomes visible to the reader
    Flit flit;
  };

  /// Entries of `data_` whose deadline has passed at `now` (the visible
  /// prefix). Deadlines are monotone, so this is a binary search.
  [[nodiscard]] std::int64_t visible_data_prefix(Cycle now) const;

  std::string name_;
  std::int64_t capacity_;
  Cycle rlag_;
  Cycle wlag_;

  RingBuffer<Entry> data_;   // (visible-to-reader-at, flit)
  RingBuffer<Cycle> freed_;  // space visible-to-writer-at
  FaultInjector* fault_ = nullptr;
  std::vector<Component*> push_watchers_;
  std::vector<Component*> pop_watchers_;
  std::int64_t pushed_ = 0;
  std::int64_t popped_ = 0;
  std::int64_t peak_ = 0;
  obs::Counter m_pushed_;
  obs::Counter m_popped_;
  obs::Gauge m_occupancy_;
  obs::Histogram m_occupancy_hist_;
  // Monotonic-time guard: visibility bookkeeping assumes non-decreasing now.
  mutable Cycle last_now_ = 0;
};

}  // namespace acc::sim
