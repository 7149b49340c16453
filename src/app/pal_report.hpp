// RunReport assembly for the PAL stereo decoder demonstrator: joins the
// per-stream maxima observed in a gateway trace (sharing::observe_streams)
// against the analytic bounds implied by the run's PalSimConfig, and embeds
// the metrics snapshot and real-time verdict. The resulting document
// satisfies common/bench_schema.hpp::validate_run_report and is
// byte-reproducible for a fixed configuration (golden-diffed in CI).
#pragma once

#include "app/pal_system.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace acc::app {

/// Human-readable stepper name as pinned in the report schema.
[[nodiscard]] const char* stepper_name(sim::StepperKind kind);

/// Build the RunReport document for one run_pal_decoder invocation.
/// `registry` must be the registry the run was wired to (cfg.metrics);
/// `trace` the run's gateway trace, or null (streams then report observed
/// = -1 against their bounds — nothing to join).
[[nodiscard]] json::Value pal_run_report(const PalSimConfig& cfg,
                                         const PalSimResult& res,
                                         const obs::MetricsRegistry& registry,
                                         const sim::TraceLog* trace);

}  // namespace acc::app
