// Wake-notification plumbing for the wake-list stepper (System::run).
//
// The wake-list scheduler caches each component's event horizon and only
// re-queries it when the component itself ticked — or when somebody ELSE
// performed an action the frozen component must react to. Every such
// interaction point (a C-FIFO push/pop, a ring injection or delivery, a
// gateway's pipeline-idle callback, a fault-injector trigger) reports the
// interaction through this interface so a frozen component can never miss
// input. The System implements the hub; passive objects hold a nullable
// pointer, and the dense stepper ignores every notification.
//
// Safety rule the hub relies on (see docs/performance.md): scheduling a
// component EARLIER than necessary is always exact — an extra tick is dense
// behaviour — so wakes conservatively schedule "now" (or "next cycle" for
// slots already processed this cycle) rather than re-deriving a precise
// horizon mid-cycle.
#pragma once

#include <cstdint>

namespace acc::sim {

class Component;
class Ring;
enum class FaultSite : int;

class WakeHub {
 public:
  virtual ~WakeHub() = default;

  /// `c` received input (or an unblocking callback) and its cached horizon
  /// may now be too late: reschedule it.
  virtual void wake(Component& c) = 0;

  /// A message was queued for injection into `r`: the ring has work.
  virtual void ring_activity(Ring& r) = 0;

  /// `r` ejected a message at `node` this tick: wake the draining tile.
  virtual void ring_delivery(Ring& r, std::int32_t node) = 0;

  /// A fault trigger moved `site`'s quiet window: horizons derived from
  /// FaultInjector::next_eligible(site) may have shifted (either way).
  virtual void fault_site_changed(FaultSite site) = 0;
};

}  // namespace acc::sim
