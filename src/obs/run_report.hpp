// End-of-run RunReport document: the machine-readable summary of one
// simulation, schema-pinned by common/bench_schema.hpp::validate_run_report
// (same style as the BENCH_*.json schemas).
//
// The core of the report is the per-stream margin table: for each stream,
// the OBSERVED maxima of the run (worst block service time, worst
// completion spacing — measured from the gateway trace by
// sharing::observe_streams) joined against the ANALYTIC bounds from
// sharing/analysis (Eq. 2 and Eq. 4 plus the modelled notification slack).
// margin = bound - observed; a fault-free run of a conforming system keeps
// every margin >= 0, which is exactly the conformance theorem rendered as
// data. The full metrics snapshot and the trace disposition ride along.
//
// Everything in the document is integers, strings and bools derived from
// simulation state — no wall-clock, no doubles — so a fixed configuration
// produces a byte-identical report (the golden-diff test relies on it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace acc::obs {

/// One stream's observed-vs-bound row pair.
struct RunReportStream {
  std::int64_t id = 0;
  std::string name;
  std::int64_t eta = 0;
  std::int64_t blocks = 0;
  /// Worst admit -> block.done service time observed; -1 = no block seen.
  std::int64_t service_observed = -1;
  /// Analytic bound on it: tau_hat + modelled slack (Eq. 2).
  std::int64_t service_bound = 0;
  /// Worst completion-to-completion gap observed while backlogged; -1 =
  /// fewer than two completions (starvation gaps are excluded upstream,
  /// mirroring the conformance checker).
  std::int64_t spacing_observed = -1;
  /// Analytic bound on it: max(gamma_hat, ceil(eta/mu)) + slack (Eq. 4).
  std::int64_t spacing_bound = 0;
};

/// Control-plane activity during the run (src/ctrl/): admission decisions,
/// cache effectiveness, and executed mode changes. A static workload
/// reports zeros — the section still appears so one schema covers every
/// report, dynamic or not.
struct RunReportAdmissions {
  std::int64_t accepts = 0;
  std::int64_t rejects = 0;
  std::int64_t cache_lookups = 0;
  std::int64_t cache_hits = 0;
  std::int64_t mode_changes = 0;
  std::int64_t reconfig_cycles = 0;
};

struct RunReportInput {
  std::string workload;
  /// Workload parameters worth pinning in the document (ints only).
  json::Object params;
  /// Real-time verdict fields (source_drops, sink_underruns, ...).
  json::Object verdict;
  std::vector<RunReportStream> streams;
  RunReportAdmissions admissions;
  std::int64_t cycles_run = 0;
  std::string stepper;  // "dense" | "wake-list"
};

/// Assemble the report document. `metrics` embeds the registry snapshot
/// (required — a report without observations joins nothing); `trace` adds
/// the event-count/truncation disposition when available.
[[nodiscard]] json::Value run_report_doc(const RunReportInput& in,
                                         const MetricsRegistry& metrics,
                                         const sim::TraceLog* trace);

}  // namespace acc::obs
