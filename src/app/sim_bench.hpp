// Simulator perf-trajectory runs and their BENCH_sim.json document.
//
// E9 (bench_perf_analysis) measures the PAL stereo decoder, the default
// PalSimConfig, under both steppers — the dense reference loop and the
// wake-list core — and writes cycles/second plus the skip statistics to
// BENCH_sim.json, the repo's simulator perf baseline. The measured run and
// the document builder live here, not inside the bench binary, so the
// golden-schema tests (tests/sharing/bench_schema_test.cpp) and the drift
// gate on the committed document (tests/app/bench_sim_drift_test.cpp)
// exercise the exact code the bench ships. See docs/performance.md.
#pragma once

#include <cstdint>
#include <string>

#include "app/pal_system.hpp"
#include "common/json.hpp"

namespace acc::app {

/// One measured stepper run: timing plus a digest of the simulation's
/// observable outcome. Two runs with equal digests produced bit-identical
/// audio and verdicts — the cross-stepper equivalence check the bench and
/// the perf ctest both enforce.
struct SimBenchRun {
  std::string mode;  // "dense" | "wake_list"
  double wall_ms = 0.0;
  std::int64_t cycles = 0;  // simulated cycles
  // Simulated cycles per wall second; NaN when the wall clock rounded to
  // zero (sub-millisecond test-size runs) — serialized as JSON null.
  double cycles_per_sec = 0.0;
  std::int64_t dense_ticks = 0;  // cycles actually ticked
  std::int64_t skips = 0;
  std::int64_t skipped_cycles = 0;
  // Wake-list instrumentation (both steppers fill these; the dense loop has
  // zero horizon queries and zero wakes by construction).
  std::int64_t component_ticks = 0;   // Component::tick calls
  std::int64_t horizon_queries = 0;   // next_event consultations
  std::int64_t wakes = 0;             // wake notifications delivered
  // Calendar walk (zero under dense): armed slots examined, slots armed at
  // now, components settled by sync_all.
  std::int64_t calendar_visits = 0;
  std::int64_t rearms = 0;
  std::int64_t sync_visits = 0;
  // Steady-state replay (zero under dense): jumps and the cycles they
  // cover, and the search's work: boundaries examined and confirmed-period
  // comparisons made there.
  std::int64_t replays = 0;
  std::int64_t replayed_cycles = 0;
  std::int64_t replay_boundaries = 0;
  std::int64_t period_checks = 0;
  // Outcome digest.
  std::int64_t sink_samples = 0;
  std::int64_t source_drops = 0;
  std::int64_t sink_underruns = 0;
  std::int64_t blocks = 0;
  std::int64_t audio_checksum = 0;  // FNV-1a over the quantized DAC output

  [[nodiscard]] bool same_outcome(const SimBenchRun& other) const {
    return cycles == other.cycles && sink_samples == other.sink_samples &&
           source_drops == other.source_drops &&
           sink_underruns == other.sink_underruns && blocks == other.blocks &&
           audio_checksum == other.audio_checksum;
  }
};

/// Run the decoder once under the chosen stepper and measure it. The run's
/// `mode` string names the stepper: "dense" (kDense) or "wake_list"
/// (kWakeList, the shipping default).
[[nodiscard]] SimBenchRun sim_bench_run(const PalSimConfig& pal,
                                        sim::StepperKind kind);

/// Assemble the BENCH_sim.json document:
/// {bench: "sim", workload: {...}, runs: [dense, wake_list], speedup,
/// equivalent}. `speedup` compares the wake-list run against
/// dense and is null when either wall clock rounded to zero. Validated by
/// common/bench_schema.hpp.
[[nodiscard]] json::Value sim_bench_doc(const PalSimConfig& pal,
                                        const SimBenchRun& dense,
                                        const SimBenchRun& wake);

}  // namespace acc::app
