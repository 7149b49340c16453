// E14 — scripted session churn on the dynamic control plane (src/ctrl/).
//
// Replays a seeded join/leave trace (ctrl/workload.hpp) against a live
// gateway chain: every join is decided online by the AdmissionController,
// every accepted transition is executed by the ModeChangeProtocol on the
// RUNNING simulator, and every admitted session streams real samples
// through per-stream source/sink tiles whose drop/underrun counters define
// the deadline-miss verdict.
//
// The campaign is deterministic by construction: the trace, every sample,
// and every admission decision derive from the seed alone; analysis cost is
// counted in integer work units (never wall clock); and the same scripted
// session sequence is replayed under both cycle-exact steppers, whose
// final state digests and audio checksums must agree. The resulting
// BENCH_admission.json is therefore bit-identical for any --jobs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "ctrl/admission.hpp"
#include "ctrl/workload.hpp"
#include "lint/linter.hpp"
#include "obs/metrics.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace acc::app {

/// One stream template sessions instantiate (the "accelerator setting" a
/// joining radio requests).
struct ChurnTemplate {
  std::string name;
  /// Input sample period (mu = 1/period samples per cycle).
  sim::Cycle period = 16;
  /// Output decimation of the template's kernel chain (the last accelerator
  /// runs a decimator when > 1); block sizes are decimation-aligned.
  std::int64_t decimation = 1;
  /// Context-switch cost R_s (config-bus programming window).
  sim::Cycle reconfig = 96;
};

struct ChurnConfig {
  ctrl::WorkloadConfig workload;
  /// Templates joined by index from the trace; size must be >=
  /// workload.num_templates.
  std::vector<ChurnTemplate> templates{
      {"voice", 16, 1, 96},
      {"music", 32, 2, 128},
  };

  // Shared chain (modest costs keep the 200-event trace in ctest range).
  std::vector<sim::Cycle> accel_cycles{1, 1};
  sim::Cycle epsilon = 2;
  sim::Cycle delta = 1;
  std::int64_t ni_capacity = 2;
  sim::Cycle exit_notify_lag = 4;

  // Admission-control envelope.
  std::int64_t eta_max = 512;
  std::int64_t eta_align = 32;

  // Session shape: each admitted session streams `blocks_per_session`
  // blocks end to end; its sink buffers `prefill_blocks` blocks before the
  // DAC grid starts; its C-FIFOs carry `fifo_slack` blocks of depth.
  std::int64_t blocks_per_session = 6;
  std::int64_t prefill_blocks = 2;
  std::int64_t fifo_slack = 4;

  /// Cycles run after every trace event (session inter-arrival time).
  sim::Cycle event_gap = 1024;
  /// Mode-change quiesce polling chunk (see ctrl/mode_change.hpp).
  sim::Cycle quiesce_chunk = 64;
  /// Session-completion polling chunk and per-session wait budget.
  sim::Cycle completion_chunk = 256;
  sim::Cycle max_session_wait = 1 << 22;

  /// Stepper runs evaluated concurrently; never changes the results.
  int jobs = 1;
  /// Optional observability, attached to the wake-list run only (the two
  /// reference runs stay bare so their cost is the simulation itself).
  obs::MetricsRegistry* metrics = nullptr;
  sim::TraceLog* trace = nullptr;
};

/// One per-event control-plane decision record.
struct ChurnDecision {
  std::int32_t event_index = 0;
  /// "join" | "leave" | "leave_skipped" (departure of a rejected session).
  std::string kind;
  std::int32_t session = 0;
  std::int32_t template_id = 0;
  bool accepted = false;
  bool cache_hit = false;
  std::string reason;
  std::int64_t eta = 0;
  ctrl::Time gamma = 0;
  std::int64_t analysis_work = 0;
  /// Whole-transition reconfiguration cost (quiesce + program + R_s); 0 for
  /// rejected joins and skipped leaves.
  sim::Cycle reconfig_cycles = 0;
};

/// Outcome of one full trace replay under one stepper.
struct ChurnRunResult {
  sim::StepperKind kind = sim::StepperKind::kWakeList;
  std::vector<ChurnDecision> decisions;
  sim::Cycle cycles_run = 0;
  std::uint64_t digest = 0;          // final System::state_digest()
  std::uint64_t audio_checksum = 0;  // FNV over every session's output
  std::int64_t samples_delivered = 0;
  std::int64_t source_drops = 0;
  std::int64_t sink_underruns = 0;
  std::int64_t deadline_misses = 0;  // drops + underruns, admitted sessions
  std::int64_t mode_changes = 0;
  sim::Cycle reconfig_cycles = 0;
  std::int64_t cache_lookups = 0;
  std::int64_t cache_hits = 0;
  std::int64_t accepts = 0;
  std::int64_t rejects = 0;
  std::int64_t analysis_work = 0;
  sim::StepperStats stepper;         // the stepper's own work counters
};

struct ChurnResult {
  /// One run per stepper: dense, wake-list (fixed order).
  std::vector<ChurnRunResult> runs;
  /// All runs produced identical decisions, digests and checksums.
  bool equivalent = false;
};

/// A configuration sized for ctest (the E14 default).
[[nodiscard]] ChurnConfig small_churn_config();

/// Replay the configured trace under one stepper.
[[nodiscard]] ChurnRunResult run_admission_churn(const ChurnConfig& cfg,
                                                 sim::StepperKind stepper);

/// Replay under both steppers (jobs-parallel) and cross-check.
[[nodiscard]] ChurnResult run_churn_campaign(const ChurnConfig& cfg);

/// Lintable declaration of the churn configuration: the chain spec with the
/// join templates as declared streams plus the control-plane section rules
/// C02/G03 gate on (wired through lint::startup_gate by the bench binary).
[[nodiscard]] lint::LintInput churn_lint_input(const ChurnConfig& cfg);

/// The BENCH_admission.json document (schema: common/bench_schema.hpp).
/// Deterministic for a given (config, result) pair: no timing fields.
[[nodiscard]] json::Value admission_bench_doc(const ChurnConfig& cfg,
                                              const ChurnResult& res);

}  // namespace acc::app
