// Wake-soundness audit (rule V05): cross-checks every component's
// next_event() horizon against its actual frozen-state evolution under
// DENSE stepping.
//
// The wake-list stepper's exactness rests on one promise (see
// src/sim/system.hpp): a component whose cached horizon lies in the future
// must not change frozen state before that horizon unless it is woken
// through the WakeHub. The audit installs itself as every component's hub,
// arms a frozen-channel digest (StateHasher base 0 — absolute bit-stability
// is exactly the property) whenever a component declares a horizon beyond
// now+1, and re-hashes after each densely ticked cycle: any digest change
// strictly inside the declared quiescent window, with no wake delivered, is
// a missed-wake hazard — the wake-list stepper would have skipped a cycle
// where dense semantics act.
//
// Run under run_dense only: the dense stepper never installs its own hubs
// (it sets wake_ready_ = false), so the audit's hub installation survives,
// and every cycle is ticked so no window goes unobserved.
//
// Exempt from the digest check: components declaring frozen_skip_replay()
// (their frozen state evolves deterministically across a parked window and
// skip_to replays it — e.g. the ProcessorTile's budget-replenishment grid;
// the differential stepper suite certifies that replay instead).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hpp"
#include "sim/wake.hpp"

namespace acc::verify {

struct WakeViolation {
  std::size_t slot = 0;      // component registration index
  sim::Cycle at = 0;         // cycle the frozen state changed
  sim::Cycle declared = 0;   // horizon the component had declared
  sim::Cycle armed_at = 0;   // cycle the horizon was declared
};

class WakeAudit final : public sim::WakeHub {
 public:
  /// Install the audit as every component's (and both rings') wake hub.
  /// The system must then be advanced ONLY through audited_cycle().
  explicit WakeAudit(sim::System& sys);

  /// Dense-tick one cycle, then verify every armed component's digest.
  void audited_cycle();

  /// Drive until `pred()` holds or `max_cycles` elapse; returns true when
  /// the predicate fired.
  template <typename Pred>
  bool run_until(Pred&& pred, sim::Cycle max_cycles) {
    for (sim::Cycle i = 0; i < max_cycles; ++i) {
      if (pred()) return true;
      audited_cycle();
    }
    return pred();
  }

  [[nodiscard]] const std::vector<WakeViolation>& violations() const {
    return violations_;
  }

  // --- WakeHub ----------------------------------------------------------
  void wake(sim::Component& c) override;
  void ring_activity(sim::Ring& r) override { (void)r; }
  void ring_delivery(sim::Ring& r, std::int32_t node) override;
  void fault_site_changed(sim::FaultSite site) override { (void)site; }

 private:
  struct Watch {
    bool armed = false;
    bool woken = true;  // a wake (or its own tick) voids the window
    sim::Cycle horizon = 0;
    sim::Cycle armed_at = 0;
    std::uint64_t digest = 0;
  };

  [[nodiscard]] std::uint64_t frozen_digest(std::size_t slot) const;
  void rearm(std::size_t slot, sim::Cycle ticked);

  sim::System& sys_;
  std::vector<Watch> watches_;
  std::vector<std::int32_t> node_owner_;  // ring node -> component slot
  std::vector<WakeViolation> violations_;
};

}  // namespace acc::verify
