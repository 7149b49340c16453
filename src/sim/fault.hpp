// Deterministic, seed-driven fault injection for the MPSoC simulator.
//
// The paper's guarantees rest on the CSDF abstraction being CONSERVATIVE
// ("the-earlier-the-better") for the real interconnect: bounded timing
// perturbations must never push a block past its analysis bound plus the
// slack that covers them. This module makes that claim testable. Components
// consult one shared FaultInjector at well-defined hook points:
//
//   kRingLink       Ring::tick        whole-ring stall windows (link-level
//                                     jitter/contention; both rings of the
//                                     DualRing consult the same site)
//   kConfigBus      EntryGateway      extra contention delay on the context
//                                     save/restore bus transfer (R_s)
//   kExitNotify     ExitGateway       delayed — or dropped — pipeline-idle
//                                     notification to the entry-gateway
//   kCreditWithhold CFifo::push/pop   transient withholding of a C-FIFO
//                                     counter update (the software credit),
//                                     delaying visibility to the other side
//
// Every decision derives from SplitMix64 streams keyed by (seed, site) and
// advanced once per *triggering opportunity* — never from wall time or
// thread identity — so a given seed produces a bit-identical fault pattern
// on every run and under every --jobs setting. See docs/robustness.md.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/ring.hpp"

namespace acc::sim {

class WakeHub;

enum class FaultSite : int {
  kRingLink = 0,
  kConfigBus = 1,
  kExitNotify = 2,
  kCreditWithhold = 3,
};
inline constexpr int kNumFaultSites = 4;

[[nodiscard]] const char* fault_site_name(FaultSite site);

/// Per-site fault law. All faults are DELAYS (bounded by max_delay) except
/// the exit-notification, which may additionally be DROPPED outright —
/// modelling a lost interrupt that only the gateway's timeout/retry policy
/// can recover from.
struct FaultSpec {
  /// Chance that an eligible consult triggers a delay.
  double probability = 0.0;
  /// Triggered delays are uniform in [1, max_delay] cycles.
  Cycle max_delay = 0;
  /// kExitNotify only: chance the notification is lost entirely (checked
  /// before the delay law).
  double drop_probability = 0.0;
  /// Rate limiter: after a trigger, the site stays quiet for this many
  /// cycles. Keeps per-window fault totals boundable (worst_case_block_delay).
  Cycle min_spacing = 0;
  /// Faults only fire inside [window_from, window_until).
  Cycle window_from = 0;
  Cycle window_until = std::numeric_limits<Cycle>::max();

  [[nodiscard]] bool active() const {
    return probability > 0.0 || drop_probability > 0.0;
  }
};

struct FaultSiteStats {
  std::int64_t consults = 0;  // eligible opportunities seen
  std::int64_t injected = 0;  // delays actually triggered
  std::int64_t dropped = 0;   // events lost (kExitNotify)
  Cycle delay_cycles = 0;     // sum of injected delays
  Cycle max_delay_seen = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed);

  void configure(FaultSite site, const FaultSpec& spec);
  [[nodiscard]] const FaultSpec& spec(FaultSite site) const;

  /// Hook point: extra delay in cycles (0 = no fault this time). Advances
  /// the site's deterministic stream on every eligible consult.
  [[nodiscard]] Cycle delay(FaultSite site, Cycle now);

  /// Drop-style hook (kExitNotify): true = the event is lost.
  [[nodiscard]] bool drop(FaultSite site, Cycle now);

  /// Earliest cycle >= now at which delay(site, ...) would be an ELIGIBLE
  /// consult (advancing the site's RNG stream), or kNeverCycle if no such
  /// cycle exists. Mirrors eligible(): inactive specs, closed windows and
  /// the post-trigger quiet period are ineligible — delay() early-outs on
  /// those without touching RNG or stats, which is what lets the
  /// event-horizon stepper skip through them without desyncing the
  /// deterministic fault pattern (see System::run).
  [[nodiscard]] Cycle next_eligible(FaultSite site, Cycle now) const;

  [[nodiscard]] const FaultSiteStats& stats(FaultSite site) const;
  [[nodiscard]] std::int64_t total_injected() const;
  [[nodiscard]] std::int64_t total_dropped() const;
  [[nodiscard]] Cycle total_delay_cycles() const;
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Conservative bound on the fault-induced inflation of one block's
  /// service window of `nominal_service` cycles moving `samples` samples:
  /// one config-bus delay per admission, one notification delay per block,
  /// a per-sample credit-withhold delay on each C-FIFO transfer, and one
  /// ring stall window per min_spacing (both rings). Dropped notifications
  /// are NOT covered — their recovery cost is bounded by the gateway's
  /// retry policy instead. Feed the result to ConformanceOptions::
  /// fault_slack: injected delays within this envelope must never produce a
  /// genuine bound breach if the analysis is conservative.
  [[nodiscard]] Cycle worst_case_block_delay(Cycle nominal_service,
                                             std::int64_t samples) const;

  /// Wake-list plumbing (see sim/wake.hpp): every delay() trigger moves
  /// the site's quiet window, which shifts horizons derived from
  /// next_eligible — report it so cached horizons get re-derived. Null
  /// (the default) until a wake-list run installs it.
  void set_wake_hub(WakeHub* hub) { hub_ = hub; }

  /// Opt-in metrics: fault.<site>.{consults,injected,dropped,delay_cycles}
  /// per site, mirroring the FaultSiteStats increments. The stats are
  /// already proven bit-identical across steppers (conformance-under-faults
  /// suite), so the mirrored counters inherit that guarantee.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  struct SiteState {
    FaultSpec spec;
    SplitMix64 rng{0};
    Cycle quiet_until = 0;
    FaultSiteStats stats;
    obs::Counter m_consults;
    obs::Counter m_injected;
    obs::Counter m_dropped;
    obs::Counter m_delay_cycles;
  };

  [[nodiscard]] bool eligible(SiteState& s, Cycle now) const;

  std::uint64_t seed_;
  std::array<SiteState, kNumFaultSites> sites_;
  WakeHub* hub_ = nullptr;
};

}  // namespace acc::sim
