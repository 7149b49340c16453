#include "verify/wake_audit.hpp"

namespace acc::verify {

WakeAudit::WakeAudit(sim::System& sys) : sys_(sys) {
  const std::size_t n = sys_.num_components();
  watches_.resize(n);
  node_owner_.assign(static_cast<std::size_t>(sys_.ring().data().nodes()), -1);
  for (std::size_t i = 0; i < n; ++i) {
    sim::Component& c = sys_.component(i);
    c.set_wake_hub(this, i);
    const std::int32_t node = c.ring_node();
    if (node >= 0) node_owner_[static_cast<std::size_t>(node)] =
        static_cast<std::int32_t>(i);
  }
  sys_.ring().data().set_wake_hub(this);
  sys_.ring().credit().set_wake_hub(this);
}

void WakeAudit::wake(sim::Component& c) {
  const std::size_t slot = c.wake_slot();
  if (slot < watches_.size()) watches_[slot].woken = true;
}

void WakeAudit::ring_delivery(sim::Ring& r, std::int32_t node) {
  (void)r;
  const std::int32_t owner = node_owner_[static_cast<std::size_t>(node)];
  if (owner >= 0) watches_[static_cast<std::size_t>(owner)].woken = true;
}

std::uint64_t WakeAudit::frozen_digest(std::size_t slot) const {
  // Base 0: the audit checks ABSOLUTE bit-stability between two dense
  // cycles, so deadlines must not be canonicalized away.
  sim::StateHasher h(0);
  sys_.component(slot).snapshot_state(h);
  return h.frozen();
}

void WakeAudit::rearm(std::size_t slot, sim::Cycle ticked) {
  Watch& w = watches_[slot];
  const sim::Cycle h = sys_.component(slot).next_event(ticked);
  // A horizon of ticked+1 ("I act next cycle") opens no skip window; only
  // horizons strictly beyond it are promises the wake-list stepper would
  // cash in by freezing the component.
  w.armed = h > ticked + 1;
  w.woken = false;
  if (w.armed) {
    w.horizon = h;
    w.armed_at = ticked;
    w.digest = frozen_digest(slot);
  }
}

void WakeAudit::audited_cycle() {
  // run_dense never installs its own hubs (it only marks the wake-list's
  // cached bookkeeping stale), so our installation from the constructor
  // stays live and every request_wake routes here.
  sys_.run_dense(1);
  const sim::Cycle ticked = sys_.now() - 1;
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    // Components whose skip_to replays frozen-channel state are exempt:
    // their in-window dense evolution is deterministic grid replay, not a
    // missed wake (see Component::frozen_skip_replay).
    if (sys_.component(i).frozen_skip_replay()) continue;
    Watch& w = watches_[i];
    if (w.woken || !w.armed || ticked >= w.horizon) {
      rearm(i, ticked);
      continue;
    }
    // Inside a declared quiescent window with no wake delivered: the
    // frozen digest must be bit-identical to the one captured when the
    // horizon was declared.
    if (frozen_digest(i) != w.digest) {
      violations_.push_back(WakeViolation{i, ticked, w.horizon, w.armed_at});
      rearm(i, ticked);
    }
  }
}

}  // namespace acc::verify
