// The paper's demonstrator (its Fig. 10): real-time PAL stereo audio
// decoding on the simulated MPSoC with ONE shared CORDIC tile and ONE
// shared FIR+down-sampler tile multiplexed over four streams by a single
// entry/exit-gateway pair.
//
//   front-end ==> s0: [CORDIC=mix(-f1)] -> [FIR /8]  ==> mid1
//   front-end ==> s1: [CORDIC=mix(-f2)] -> [FIR /8]  ==> mid2
//   mid1      ==> s2: [CORDIC=fm-demod] -> [FIR /8]  ==> audio1  ((L+R)/2)
//   mid2      ==> s3: [CORDIC=fm-demod] -> [FIR /8]  ==> audio2  (R)
//   audio1+audio2 --(software task: L = 2*ch1 - ch2)--> DAC sinks
//
// Block sizes come from Algorithm 1 (rounded up to the 8:1 decimation so
// each block produces a fixed number of outputs); the real-time verdict is
// "no front-end drops and no DAC underruns".
#pragma once

#include <cstdint>
#include <vector>

#include "lint/linter.hpp"
#include "obs/metrics.hpp"
#include "radio/signal.hpp"
#include "sharing/spec.hpp"
#include "sim/fault.hpp"
#include "sim/gateway.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace acc::app {

using sharing::Time;

struct PalSimConfig {
  // --- signal scenario (scaled-down broadcast; see DESIGN.md) ---
  double sample_rate = 512000.0;  // front-end complex rate, Hz
  double carrier1_hz = 120000.0;
  double carrier2_hz = 180000.0;
  double deviation_hz = 15000.0;
  double tone_left_hz = 400.0;
  double tone_right_hz = 700.0;
  double tone_amplitude = 0.8;
  /// Front-end samples to synthesize (sets the run length).
  std::size_t input_samples = 1 << 16;

  // --- architecture parameters (paper defaults) ---
  Time input_period = 40;  // cycles between front-end samples (sets mu)
  Time epsilon = 15;       // entry-gateway cycles/sample
  Time delta = 1;          // exit-gateway cycles/sample
  Time accel_cycles = 1;   // CORDIC and FIR cycles/sample
  Time reconfig = 4100;    // R_s
  std::int64_t ni_capacity = 2;
  int fir_taps = 33;
  double fir_cutoff = 0.06;
  int decimation = 8;

  /// Block sizes; 0 = solve with Algorithm 1 and round up to `decimation`.
  std::int64_t eta_stage1 = 0;
  std::int64_t eta_stage2 = 0;

  /// C-FIFO capacities as a multiple of the stream's block size.
  std::int64_t fifo_slack = 4;

  // --- robustness (optional; shared-chain decoder only) ---
  /// Fault injection: wires the gateways, the dual ring and the four
  /// gateway-facing C-FIFOs (in/mid). Caller owns the injector.
  sim::FaultInjector* fault = nullptr;
  /// Event trace of the gateways (conformance checking input).
  sim::TraceLog* trace = nullptr;
  /// Opt-in metrics: wires every C-FIFO, tile, gateway, the dual ring and
  /// (when set) the fault injector into the registry. Null (the default)
  /// keeps the hot path metric-free — every handle no-ops. The snapshot is
  /// bit-identical across steppers and any --jobs count; caller owns the
  /// registry. See docs/observability.md.
  obs::MetricsRegistry* metrics = nullptr;
  /// Entry-gateway notification recovery with GatewayRetryPolicy's
  /// default retries and back-off; 0 disables (seed behaviour).
  sim::Cycle notify_timeout = 0;

  /// Stepper selection: kWakeList (default, incremental wake-list
  /// scheduler) or kDense (reference per-cycle loop). Both are cycle-exact
  /// — this switch exists for equivalence tests and the E9 dense-vs-wake-
  /// list benchmark.
  sim::StepperKind stepper = sim::StepperKind::kWakeList;

  /// Run acc-lint over the assembled configuration (resolved block sizes,
  /// C-FIFO capacities, gateway wiring, fault config) before simulating;
  /// error-tier findings abort the run. The examples' --no-lint flag and
  /// tests that deliberately build broken systems turn this off.
  bool lint = true;

  /// Pre-synthesized, quantized front-end input. When non-null the decoder
  /// streams these flits (size must equal input_samples) instead of
  /// synthesizing them — exactly what synthesize_pal_input returns for the
  /// same scenario. Lets callers amortize the trig-heavy synthesis across
  /// runs of one scenario: the stepper bench shares a single waveform so
  /// wall_ms measures the stepper, not repeated identical sin() sweeps.
  const std::vector<sim::Flit>* prebuilt_input = nullptr;
};

struct PalSimResult {
  // Recovered audio (software gain applied), one entry per DAC sample.
  std::vector<double> left;
  std::vector<double> right;
  double audio_rate = 0.0;  // Hz

  // Real-time verdict.
  std::int64_t source_drops = 0;
  std::int64_t sink_underruns = 0;

  // Analysis-side numbers (Algorithm 1 on the configured system).
  std::int64_t eta_stage1 = 0;
  std::int64_t eta_stage2 = 0;
  Time gamma = 0;
  acc::Rational utilization;

  // Measured system behaviour.
  /// Maximum end-to-end latency of an audio sample: DAC consumption time
  /// minus the nominal front-end emission time of its last contributing
  /// input sample (includes DAC prefill buffering). -1 if not measurable.
  sim::Cycle max_audio_latency = -1;
  sim::GatewayStats gateway;
  std::int64_t cordic_samples = 0;
  std::int64_t fir_samples = 0;
  sim::Cycle cordic_busy = 0;
  sim::Cycle fir_busy = 0;
  sim::Cycle cycles_run = 0;
  /// Stepper instrumentation (dense ticks vs skipped cycles).
  sim::StepperStats stepper;
  /// Per-stream block completion counts (round-robin fairness check).
  std::vector<std::int64_t> blocks_per_stream;
};

/// The SharedSystemSpec (Algorithm-1 input) implied by a PalSimConfig.
[[nodiscard]] sharing::SharedSystemSpec make_system_spec(const PalSimConfig& cfg);

/// The full lintable model of the demonstrator: spec, resolved block sizes
/// (when feasible), C-FIFO capacities, the entry/exit gateway pair with its
/// consumer wiring, the fault config and the determinism posture. This is
/// what run_pal_decoder lints before building the system.
[[nodiscard]] lint::LintInput make_lint_input(const PalSimConfig& cfg);

/// Synthesize the broadcast and quantize it to flits — bit-identical to the
/// input run_pal_decoder builds internally when cfg.prebuilt_input is null.
[[nodiscard]] std::vector<sim::Flit> synthesize_pal_input(
    const PalSimConfig& cfg);

/// Build, run and measure the whole demonstrator.
[[nodiscard]] PalSimResult run_pal_decoder(const PalSimConfig& cfg);

/// The paper's implicit baseline: the same application with DEDICATED
/// accelerators — four CORDIC and four FIR tiles, one private chain per
/// stream, no multiplexing (and hence no reconfiguration and no round-robin
/// wait). Fills the same PalSimResult; `cordic_samples`/`fir_samples` and
/// busy cycles aggregate over all four instances of each type, and
/// `eta_*`/`gamma` describe the per-chain transfer granularity (blocks
/// still exist because the exit DMA is armed per block, but they need not
/// amortize any switching cost).
[[nodiscard]] PalSimResult run_pal_decoder_dedicated(const PalSimConfig& cfg);

}  // namespace acc::app
