#include "app/sim_bench.hpp"

#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

namespace acc::app {
namespace {

/// Deterministic digest of the decoded audio: FNV-1a over each channel's
/// samples quantized to 16 fractional bits. Exact (not tolerance-based), so
/// digest equality means the two steppers produced bit-identical DAC input.
std::int64_t audio_checksum(const PalSimResult& res) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  const auto mix = [&h](const std::vector<double>& ch) {
    for (double v : ch) {
      const auto q = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(std::llround(v * 65536.0)));
      for (int i = 0; i < 8; ++i) {
        h ^= (q >> (8 * i)) & 0xffULL;
        h *= 1099511628211ULL;  // FNV prime
      }
    }
  };
  mix(res.left);
  mix(res.right);
  return static_cast<std::int64_t>(h);
}

std::int64_t total_blocks(const PalSimResult& res) {
  std::int64_t n = 0;
  for (std::int64_t b : res.blocks_per_stream) n += b;
  return n;
}

json::Object run_to_json(const SimBenchRun& r) {
  json::Object o;
  o["mode"] = r.mode;
  o["wall_ms"] = r.wall_ms;
  o["cycles"] = r.cycles;
  // A --sim-fast run can finish inside the clock's ms resolution; a rate
  // computed from a zero wall time would be infinite (and not valid JSON),
  // so the field goes null instead of lying with 0 or inf.
  if (std::isfinite(r.cycles_per_sec))
    o["cycles_per_sec"] = r.cycles_per_sec;
  else
    o["cycles_per_sec"] = nullptr;
  o["dense_ticks"] = r.dense_ticks;
  o["skips"] = r.skips;
  o["skipped_cycles"] = r.skipped_cycles;
  o["component_ticks"] = r.component_ticks;
  o["horizon_queries"] = r.horizon_queries;
  o["wakes"] = r.wakes;
  o["sink_samples"] = r.sink_samples;
  o["source_drops"] = r.source_drops;
  o["sink_underruns"] = r.sink_underruns;
  o["blocks"] = r.blocks;
  o["audio_checksum"] = r.audio_checksum;
  return o;
}

}  // namespace

PalSimConfig sim_bench_pal_config(bool fast) {
  PalSimConfig cfg;
  // The paper's demonstrator, unmodified — the bench measures the stepper,
  // not a synthetic workload. Fast mode only shortens the input.
  // Fast mode must still push real audio through the chain (the stage-1
  // block is eta ~ 2672 samples), so the outcome digest compares non-empty
  // sample streams, not two empty sinks.
  cfg.input_samples = fast ? (1 << 13) : (1 << 16);
  return cfg;
}

SimBenchRun sim_bench_run(const PalSimConfig& pal, sim::StepperKind kind) {
  PalSimConfig cfg = pal;
  cfg.stepper = kind;

  // The input waveform is a pure function of the scenario, identical under
  // both steppers; synthesizing it is trig-heavy (one sin/cos per
  // front-end sample). Keep it outside the timed region so wall_ms measures
  // the stepper under comparison, not a rendering of the signal. Callers
  // that pre-set prebuilt_input amortize it across both modes.
  std::vector<sim::Flit> input;
  if (cfg.prebuilt_input == nullptr) {
    input = synthesize_pal_input(cfg);
    cfg.prebuilt_input = &input;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const PalSimResult res = run_pal_decoder(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  SimBenchRun r;
  r.mode = kind == sim::StepperKind::kDense ? "dense" : "wake_list";
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.cycles = res.cycles_run;
  // NaN marks "wall clock below resolution" — serialized as null.
  r.cycles_per_sec =
      r.wall_ms > 0.0 ? static_cast<double>(r.cycles) / (r.wall_ms / 1000.0)
                      : std::numeric_limits<double>::quiet_NaN();
  r.dense_ticks = res.stepper.dense_ticks;
  r.skips = res.stepper.skips;
  r.skipped_cycles = res.stepper.skipped_cycles;
  r.component_ticks = res.stepper.component_ticks;
  r.horizon_queries = res.stepper.horizon_queries;
  r.wakes = res.stepper.wakes;
  r.sink_samples = static_cast<std::int64_t>(res.left.size() +
                                             res.right.size());
  r.source_drops = res.source_drops;
  r.sink_underruns = res.sink_underruns;
  r.blocks = total_blocks(res);
  r.audio_checksum = audio_checksum(res);
  return r;
}

json::Value sim_bench_doc(const PalSimConfig& pal, const SimBenchRun& dense,
                          const SimBenchRun& wake) {
  json::Object workload;
  workload["input_samples"] = static_cast<std::int64_t>(pal.input_samples);
  workload["input_period"] = static_cast<std::int64_t>(pal.input_period);
  workload["reconfig"] = static_cast<std::int64_t>(pal.reconfig);

  json::Array runs;
  runs.emplace_back(run_to_json(dense));
  runs.emplace_back(run_to_json(wake));

  json::Object doc;
  doc["bench"] = "sim";
  doc["workload"] = std::move(workload);
  doc["runs"] = std::move(runs);
  // Headline number: the shipping (wake-list) stepper against the dense
  // reference. Null when either wall clock was below resolution.
  if (std::isfinite(dense.cycles_per_sec) && dense.cycles_per_sec > 0.0 &&
      std::isfinite(wake.cycles_per_sec))
    doc["speedup"] = wake.cycles_per_sec / dense.cycles_per_sec;
  else
    doc["speedup"] = nullptr;
  doc["equivalent"] = dense.same_outcome(wake);
  return json::Value(std::move(doc));
}

}  // namespace acc::app
