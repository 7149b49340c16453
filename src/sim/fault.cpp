#include "sim/fault.hpp"

#include <algorithm>

#include "sim/wake.hpp"

namespace acc::sim {

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kRingLink: return "ring_link";
    case FaultSite::kConfigBus: return "config_bus";
    case FaultSite::kExitNotify: return "exit_notify";
    case FaultSite::kCreditWithhold: return "credit_withhold";
  }
  return "unknown";
}

FaultInjector::FaultInjector(std::uint64_t seed) : seed_(seed) {
  // One independent stream per site: a component consulting site A never
  // perturbs the pattern another component sees at site B.
  for (int i = 0; i < kNumFaultSites; ++i) {
    sites_[static_cast<std::size_t>(i)].rng =
        SplitMix64(seed ^ (0x51faUL + 0x9e3779b97f4a7c15ULL *
                                          static_cast<std::uint64_t>(i + 1)));
  }
}

void FaultInjector::configure(FaultSite site, const FaultSpec& spec) {
  ACC_EXPECTS(spec.probability >= 0.0 && spec.probability <= 1.0);
  ACC_EXPECTS(spec.drop_probability >= 0.0 && spec.drop_probability <= 1.0);
  ACC_EXPECTS(spec.max_delay >= 0 && spec.min_spacing >= 0);
  ACC_EXPECTS_MSG(spec.probability == 0.0 || spec.max_delay >= 1,
                  "a delay fault needs max_delay >= 1");
  sites_[static_cast<std::size_t>(site)].spec = spec;
  // A new spec can open an eligibility window earlier than the cached
  // horizons derived from the old one.
  if (hub_ != nullptr) hub_->fault_site_changed(site);
}

const FaultSpec& FaultInjector::spec(FaultSite site) const {
  return sites_[static_cast<std::size_t>(site)].spec;
}

void FaultInjector::set_metrics(obs::MetricsRegistry* registry) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    SiteState& s = sites_[static_cast<std::size_t>(i)];
    const std::string p =
        std::string("fault.") + fault_site_name(static_cast<FaultSite>(i));
    s.m_consults = obs::make_counter(registry, p + ".consults");
    s.m_injected = obs::make_counter(registry, p + ".injected");
    s.m_dropped = obs::make_counter(registry, p + ".dropped");
    s.m_delay_cycles = obs::make_counter(registry, p + ".delay_cycles");
  }
}

bool FaultInjector::eligible(SiteState& s, Cycle now) const {
  if (!s.spec.active()) return false;
  if (now < s.spec.window_from || now >= s.spec.window_until) return false;
  return now >= s.quiet_until;
}

Cycle FaultInjector::delay(FaultSite site, Cycle now) {
  SiteState& s = sites_[static_cast<std::size_t>(site)];
  if (!eligible(s, now)) return 0;
  ++s.stats.consults;
  s.m_consults.add();
  if (!s.rng.chance(s.spec.probability)) return 0;
  const Cycle d = s.rng.uniform(1, s.spec.max_delay);
  s.quiet_until = now + d + s.spec.min_spacing;
  ++s.stats.injected;
  s.m_injected.add();
  s.stats.delay_cycles += d;
  s.m_delay_cycles.add(d);
  s.stats.max_delay_seen = std::max(s.stats.max_delay_seen, d);
  if (hub_ != nullptr) hub_->fault_site_changed(site);
  return d;
}

bool FaultInjector::drop(FaultSite site, Cycle now) {
  SiteState& s = sites_[static_cast<std::size_t>(site)];
  if (s.spec.drop_probability <= 0.0) return false;
  if (now < s.spec.window_from || now >= s.spec.window_until) return false;
  ++s.stats.consults;
  s.m_consults.add();
  if (!s.rng.chance(s.spec.drop_probability)) return false;
  ++s.stats.dropped;
  s.m_dropped.add();
  return true;
}

Cycle FaultInjector::next_eligible(FaultSite site, Cycle now) const {
  const SiteState& s = sites_[static_cast<std::size_t>(site)];
  if (!s.spec.active()) return kNeverCycle;
  const Cycle c = std::max({now, s.quiet_until, s.spec.window_from});
  if (c >= s.spec.window_until) return kNeverCycle;
  return c;
}

const FaultSiteStats& FaultInjector::stats(FaultSite site) const {
  return sites_[static_cast<std::size_t>(site)].stats;
}

std::int64_t FaultInjector::total_injected() const {
  std::int64_t n = 0;
  for (const SiteState& s : sites_) n += s.stats.injected;
  return n;
}

std::int64_t FaultInjector::total_dropped() const {
  std::int64_t n = 0;
  for (const SiteState& s : sites_) n += s.stats.dropped;
  return n;
}

Cycle FaultInjector::total_delay_cycles() const {
  Cycle n = 0;
  for (const SiteState& s : sites_) n += s.stats.delay_cycles;
  return n;
}

Cycle FaultInjector::worst_case_block_delay(Cycle nominal_service,
                                            std::int64_t samples) const {
  ACC_EXPECTS(nominal_service >= 0 && samples >= 0);
  Cycle bound = 0;

  const FaultSpec& bus = spec(FaultSite::kConfigBus);
  if (bus.probability > 0.0) bound += bus.max_delay;

  const FaultSpec& notify = spec(FaultSite::kExitNotify);
  if (notify.probability > 0.0) bound += notify.max_delay;

  // Each of the block's samples crosses a faulted C-FIFO at most twice
  // (push into and pop out of a gateway-facing FIFO).
  const FaultSpec& credit = spec(FaultSite::kCreditWithhold);
  if (credit.probability > 0.0) bound += 2 * samples * credit.max_delay;

  // Ring stalls: at most one window per (stall + min_spacing) span, two
  // rings consulting the site. Stalls extend the window they land in, so
  // iterate the bound once to cover windows opened by earlier stalls.
  const FaultSpec& ring = spec(FaultSite::kRingLink);
  if (ring.probability > 0.0) {
    const Cycle span = std::max<Cycle>(ring.max_delay + ring.min_spacing, 1);
    Cycle extra = 0;
    for (int pass = 0; pass < 2; ++pass)
      extra = 2 * ((nominal_service + bound + extra) / span + 1) *
              ring.max_delay;
    bound += extra;
  }
  return bound;
}

}  // namespace acc::sim
