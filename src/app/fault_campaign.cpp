#include "app/fault_campaign.hpp"

#include <algorithm>

#include "common/parallel_for.hpp"
#include "sharing/analysis.hpp"
#include "sharing/conformance.hpp"
#include "sim/trace.hpp"

namespace acc::app {

namespace {

/// Per-point injector seed: decorrelated from the campaign seed so point i
/// never shares a fault pattern with point j, independent of --jobs.
std::uint64_t point_seed(std::uint64_t campaign_seed, std::size_t index) {
  return campaign_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
}

double clamp01(double p) { return std::min(1.0, std::max(0.0, p)); }

}  // namespace

std::vector<FaultLevel> default_fault_levels() {
  return {
      {"baseline", 0.0, false},
      {"light", 0.25, false},
      {"moderate", 1.0, false},
      {"heavy", 2.0, false},
      {"lossy", 1.0, true},
  };
}

PalSimConfig small_campaign_pal_config() {
  PalSimConfig cfg;
  cfg.input_samples = 4096;
  cfg.input_period = 40;
  cfg.reconfig = 400;
  // Recovery from a lost notification costs ~notify_timeout cycles — far
  // beyond the delay envelope, so "lossy" points surface genuine breaches.
  cfg.notify_timeout = 20000;
  return cfg;
}

void apply_fault_level(sim::FaultInjector& inj, const FaultLevel& level) {
  if (level.intensity <= 0.0 && !level.drop_notifications) return;

  // Magnitudes are fixed; intensity only scales how OFTEN faults fire.
  // worst_case_block_delay depends on magnitudes and spacing alone, so
  // every delay-only level shares the same declared envelope.
  sim::FaultSpec ring;
  ring.probability = clamp01(0.10 * level.intensity);
  ring.max_delay = 6;
  ring.min_spacing = 200;
  inj.configure(sim::FaultSite::kRingLink, ring);

  sim::FaultSpec bus;
  bus.probability = clamp01(0.50 * level.intensity);
  bus.max_delay = 64;
  inj.configure(sim::FaultSite::kConfigBus, bus);

  sim::FaultSpec notify;
  notify.probability = clamp01(0.50 * level.intensity);
  notify.max_delay = 32;
  notify.drop_probability = level.drop_notifications ? 0.4 : 0.0;
  inj.configure(sim::FaultSite::kExitNotify, notify);

  sim::FaultSpec credit;
  credit.probability = clamp01(0.02 * level.intensity);
  credit.max_delay = 4;
  credit.min_spacing = 400;
  inj.configure(sim::FaultSite::kCreditWithhold, credit);
}

FaultCampaignResult run_fault_campaign(const FaultCampaignConfig& cfg) {
  FaultCampaignResult out;
  out.points.resize(cfg.levels.size());

  const auto run_point = [&cfg, &out](std::size_t i) {
    const FaultLevel& level = cfg.levels[i];
    sim::FaultInjector inj(point_seed(cfg.seed, i));
    apply_fault_level(inj, level);
    sim::TraceLog trace(1 << 18);
    obs::MetricsRegistry metrics;

    PalSimConfig pal = cfg.pal;
    pal.fault = &inj;
    pal.trace = &trace;
    pal.metrics = &metrics;
    const PalSimResult sim = run_pal_decoder(pal);

    const sharing::SharedSystemSpec spec = make_system_spec(pal);
    const std::vector<std::int64_t> etas = {sim.eta_stage1, sim.eta_stage1,
                                            sim.eta_stage2, sim.eta_stage2};
    sharing::ConformanceOptions copts;
    copts.slack = cfg.conformance_slack;
    Time tau_max = 0;
    for (std::size_t s = 0; s < spec.num_streams(); ++s)
      tau_max = std::max(tau_max, sharing::tau_hat(spec, s, etas[s]));
    const std::int64_t eta_max =
        *std::max_element(etas.begin(), etas.end());
    copts.fault_slack =
        inj.worst_case_block_delay(tau_max + copts.slack, eta_max);
    const sharing::ConformanceReport rep =
        sharing::check_conformance(spec, etas, trace, copts);

    FaultPointResult& p = out.points[i];
    p.level = level;
    p.seed = inj.seed();
    p.faults_injected = inj.total_injected();
    p.notifications_dropped = inj.total_dropped();
    p.fault_delay_cycles = inj.total_delay_cycles();
    p.fault_slack = copts.fault_slack;
    p.blocks_checked = rep.blocks_checked;
    p.violations = static_cast<std::int64_t>(rep.violations.size());
    p.covered_by_slack = rep.covered_by_slack;
    p.genuine_breaches = rep.genuine_breaches;
    p.max_service_observed = rep.max_service_observed;
    p.max_excess = rep.max_excess;
    p.notify_timeouts = sim.gateway.notify_timeouts;
    p.notify_recoveries = sim.gateway.notify_recoveries;
    p.credit_stalls = sim.gateway.credit_stalls;
    p.source_drops = sim.source_drops;
    p.sink_underruns = sim.sink_underruns;
    p.trace_truncated = trace.truncated();
    p.trace_csv = trace.to_csv();
    p.metrics_snapshot = metrics.snapshot_text();
  };

  parallel_for(cfg.jobs, cfg.levels.size(), run_point);
  return out;
}

json::Value faults_bench_doc(const FaultCampaignConfig& cfg,
                             const FaultCampaignResult& res) {
  json::Object doc;
  doc["bench"] = "faults";
  doc["seed"] = static_cast<std::int64_t>(cfg.seed);
  doc["conformance_slack"] = cfg.conformance_slack;

  json::Object pal;
  pal["input_samples"] = static_cast<std::int64_t>(cfg.pal.input_samples);
  pal["input_period"] = cfg.pal.input_period;
  pal["reconfig"] = cfg.pal.reconfig;
  pal["notify_timeout"] = cfg.pal.notify_timeout;
  doc["pal"] = std::move(pal);

  json::Array points;
  std::int64_t total_injected = 0;
  std::int64_t total_covered = 0;
  std::int64_t total_genuine = 0;
  for (const FaultPointResult& p : res.points) {
    json::Object o;
    o["label"] = p.level.label;
    o["intensity"] = p.level.intensity;
    o["drop_notifications"] = p.level.drop_notifications;
    o["seed"] = static_cast<std::int64_t>(p.seed);
    o["faults_injected"] = p.faults_injected;
    o["notifications_dropped"] = p.notifications_dropped;
    o["fault_delay_cycles"] = p.fault_delay_cycles;
    o["fault_slack"] = p.fault_slack;
    o["blocks_checked"] = p.blocks_checked;
    o["violations"] = p.violations;
    o["covered_by_slack"] = p.covered_by_slack;
    o["genuine_breaches"] = p.genuine_breaches;
    o["max_service_observed"] = p.max_service_observed;
    o["max_excess"] = p.max_excess;
    o["notify_timeouts"] = p.notify_timeouts;
    o["notify_recoveries"] = p.notify_recoveries;
    o["credit_stalls"] = p.credit_stalls;
    o["source_drops"] = p.source_drops;
    o["sink_underruns"] = p.sink_underruns;
    o["trace_truncated"] = p.trace_truncated;
    points.emplace_back(std::move(o));
    total_injected += p.faults_injected;
    total_covered += p.covered_by_slack;
    total_genuine += p.genuine_breaches;
  }
  doc["points"] = std::move(points);

  json::Object summary;
  summary["faults_injected"] = total_injected;
  summary["covered_by_slack"] = total_covered;
  summary["genuine_breaches"] = total_genuine;
  doc["summary"] = std::move(summary);
  return json::Value(std::move(doc));
}

}  // namespace acc::app
