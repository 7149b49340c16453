#include "sim/ring.hpp"

#include <algorithm>

#include "sim/fault.hpp"

namespace acc::sim {

Ring::Ring(std::int32_t nodes, bool clockwise)
    : slots_(static_cast<std::size_t>(nodes)),
      inject_(static_cast<std::size_t>(nodes)),
      ejected_(static_cast<std::size_t>(nodes)),
      clockwise_(clockwise) {
  ACC_EXPECTS(nodes >= 2);
}

std::vector<RingMsg> Ring::drain(std::int32_t node) {
  std::vector<RingMsg> out;
  drain_into(node, out);
  return out;
}

void Ring::set_fault(FaultInjector* injector, FaultSite site) {
  fault_ = injector;
  fault_site_ = site;
  if (hub_ != nullptr) {
    // An injector consults its RNG even on an idle ring: re-derive our
    // horizon, and let the injector's own reconfigurations reach the hub.
    if (injector != nullptr) injector->set_wake_hub(hub_);
    hub_->ring_activity(*this);
  }
}

void Ring::set_metrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) {
  m_injected_ = obs::make_counter(registry, prefix + ".injected");
  m_delivered_ = obs::make_counter(registry, prefix + ".delivered");
  m_hops_ = obs::make_counter(registry, prefix + ".hops");
}

void Ring::tick() {
  const Cycle now = now_++;
  if (now < stall_until_) {
    ++stall_cycles_;
    return;
  }
  if (fault_ != nullptr) {
    const Cycle d = fault_->delay(fault_site_, now);
    if (d > 0) {
      stall_until_ = now + d;
      ++stall_cycles_;
      return;
    }
  }
  // Idle fast path: with every slot empty and every injection queue empty,
  // the rotation moves nothing, no node can eject or pick up, and
  // m_hops_.add(0) is a no-op. The only state the full body would touch is
  // offset_, and the offset of an all-empty slot array is unobservable —
  // skip_to already skips rotation replay for an empty ring on the same
  // grounds. The dense stepper ticks both rings every cycle, so this is
  // the common case there.
  if (occupied_ == 0 && queued_ == 0) return;
  const auto n = static_cast<std::int32_t>(slots_.size());
  // Rotate slots one hop: the slot at node i moves to node i+1 (clockwise)
  // or i-1 (counter-clockwise). Rotation is a single offset update — the
  // slot array itself never moves (no per-tick allocation or copy). The
  // offset stays in [0, n), maintained with wraps instead of modulo.
  if (clockwise_) {
    offset_ = offset_ == 0 ? slots_.size() - 1 : offset_ - 1;
  } else {
    ++offset_;
    if (offset_ == slots_.size()) offset_ = 0;
  }
  // Every occupied slot just advanced one hop. Rotations happen only on
  // non-stalled dense ticks; skipped cycles are exactly those where either
  // nothing is in flight or the ring is frozen, so this stays stepper-exact.
  m_hops_.add(occupied_);

  // At each node: eject a slot addressed to it, then fill a free slot from
  // the local injection queue. The scan stops once every occupied slot has
  // been passed and every queued message picked up — the remaining nodes
  // provably see an empty slot and an empty queue, so skipping them is a
  // pure no-op (typical streaming ticks carry one or two messages on a
  // wider ring).
  std::int64_t occ = occupied_;  // occupied slots not yet scanned past
  std::int64_t q = queued_;      // queued messages not yet offered a slot
  for (std::int32_t i = 0; i < n && (occ > 0 || q > 0); ++i) {
    Slot& s = slots_[slot_at(i)];
    if (s.occupied) {
      --occ;
      if (s.msg.dst == i) {
        ejected_[i].push_back(s.msg);
        s.occupied = false;
        ++delivered_;
        --occupied_;
        ++pending_eject_;
        m_delivered_.add();
        if (hub_ != nullptr) hub_->ring_delivery(*this, i);
      }
    }
    if (!s.occupied && q > 0 && !inject_[i].empty()) {
      s.msg = inject_[i].front();
      inject_[i].pop_front();
      s.occupied = true;
      ++occupied_;
      --queued_;
      --q;
    }
  }
}

Cycle Ring::fault_next_eligible() const {
  const Cycle first_consult = std::max(now_, stall_until_);
  return fault_->next_eligible(fault_site_, first_consult);
}

void Ring::skip_rotations(Cycle target) {
  // In-flight fast-forward: replay the rotations and the per-hop metric
  // accrual the skipped dense ticks would have performed. next_event
  // certified that no ejection (and, with queued_ == 0, no pickup) falls
  // inside the range, so the occupancy is constant across it — exactly
  // occupied_ hops per rotation. Only non-stalled cycles rotate.
  const Cycle stalled_until = std::min(target, stall_until_);
  const Cycle rotations = target - std::max(now_, stalled_until);
  if (rotations <= 0) return;
  const std::size_t n = slots_.size();
  const auto r = static_cast<std::size_t>(rotations % static_cast<Cycle>(n));
  offset_ = clockwise_ ? (offset_ + n - r) % n : (offset_ + r) % n;
  m_hops_.add(occupied_ * rotations);
}

void DualRing::set_fault(FaultInjector* injector) {
  data_.set_fault(injector, FaultSite::kRingLink);
  credit_.set_fault(injector, FaultSite::kRingLink);
}

}  // namespace acc::sim
