// The paper's demonstrator end-to-end: decode the stereo audio of a
// synthesized PAL broadcast on the simulated MPSoC, with ONE CORDIC and ONE
// FIR+down-sampler shared by four streams through a gateway pair.
//
// Prints the real-time verdict (source drops / DAC underruns), the decoded
// audio quality, and the gateway/accelerator statistics.
//
// Build & run:  ./build/examples/pal_stereo_decoder
//
// Observability flags (see docs/observability.md):
//   --metrics             print the full metrics snapshot after the run
//   --chrome-trace PATH   write a Perfetto/chrome://tracing JSON trace
//   --report PATH         write the schema-pinned RunReport JSON
#include <fstream>
#include <iostream>
#include <string>

#include "app/pal_report.hpp"
#include "app/pal_system.hpp"
#include "common/bench_schema.hpp"
#include "common/table.hpp"
#include "lint/linter.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "radio/metrics.hpp"
#include "radio/wav.hpp"

int main(int argc, char** argv) {
  using namespace acc;

  app::PalSimConfig cfg;
  cfg.input_samples = 1 << 16;  // ~1k audio samples per channel

  bool want_metrics = false;
  std::string chrome_path;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics") {
      want_metrics = true;
    } else if (arg == "--chrome-trace" && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    }
  }

  // Static admissibility first: the full assembled model (block sizes,
  // C-FIFO capacities, gateway wiring). --no-lint skips the gate.
  if (!lint::startup_gate(argc, argv, app::make_lint_input(cfg), std::cerr))
    return 2;
  cfg.lint = false;  // already linted; don't re-check inside the run

  // Any observability output needs the registry; the trace feeds both the
  // Chrome exporter and the report's observed-vs-bound join.
  obs::MetricsRegistry metrics;
  sim::TraceLog trace;
  const bool observe =
      want_metrics || !chrome_path.empty() || !report_path.empty();
  if (observe) {
    cfg.metrics = &metrics;
    cfg.trace = &trace;
  }

  std::cout << "Synthesizing PAL stereo broadcast: L=" << cfg.tone_left_hz
            << " Hz, R=" << cfg.tone_right_hz << " Hz, carriers at "
            << cfg.carrier1_hz << "/" << cfg.carrier2_hz << " Hz\n";
  std::cout << "Running the shared-accelerator MPSoC simulation...\n\n";
  const app::PalSimResult r = app::run_pal_decoder(cfg);

  Table t({"metric", "value"});
  t.add_row({"block size stage-1 (eta)", std::to_string(r.eta_stage1)});
  t.add_row({"block size stage-2 (eta)", std::to_string(r.eta_stage2)});
  t.add_row({"block ratio", fmt_double(static_cast<double>(r.eta_stage1) /
                                           static_cast<double>(r.eta_stage2),
                                       2) + " : 1"});
  t.add_row({"worst-case round (cycles)", fmt_int(r.gamma)});
  t.add_row({"utilization", fmt_double(r.utilization.to_double(), 3)});
  t.add_row({"cycles simulated", fmt_int(r.cycles_run)});
  t.add_row({"front-end drops", std::to_string(r.source_drops)});
  t.add_row({"DAC underruns", std::to_string(r.sink_underruns)});
  t.add_row({"audio samples (L/R)", std::to_string(r.left.size()) + " / " +
                                        std::to_string(r.right.size())});

  std::vector<double> left = r.left;
  std::vector<double> right = r.right;
  radio::remove_dc(left);
  radio::remove_dc(right);
  const std::size_t skip = 128;
  if (left.size() > skip + 64) {
    t.add_row({"L tone SNR (dB)",
               fmt_double(radio::tone_snr_db(left, r.audio_rate,
                                             cfg.tone_left_hz, skip), 1)});
    t.add_row({"R tone SNR (dB)",
               fmt_double(radio::tone_snr_db(right, r.audio_rate,
                                             cfg.tone_right_hz, skip), 1)});
  }
  t.add_row({"gateway data cycles", fmt_int(r.gateway.data_cycles)});
  t.add_row({"gateway reconfig cycles", fmt_int(r.gateway.reconfig_cycles)});
  t.add_row({"CORDIC samples", fmt_int(r.cordic_samples)});
  t.add_row({"FIR samples", fmt_int(r.fir_samples)});
  std::cout << t.render();

  const bool ok = r.source_drops == 0 && r.sink_underruns == 0;
  std::cout << "\nreal-time constraint " << (ok ? "MET" : "VIOLATED")
            << ": continuous stereo playback "
            << (ok ? "guaranteed" : "fails") << "\n";

  if (want_metrics) {
    std::cout << "\n== metrics snapshot ==\n" << metrics.snapshot_text();
  }
  if (!chrome_path.empty()) {
    std::ofstream out(chrome_path);
    out << obs::chrome_trace_json(trace);
    std::cout << "chrome trace written to " << chrome_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!report_path.empty() &&
      !write_bench_doc(app::pal_run_report(cfg, r, metrics, &trace),
                       validate_run_report, report_path))
    return 1;

  // Write the decoded audio so it can actually be listened to.
  const std::string wav = "pal_stereo_decoded.wav";
  if (radio::write_wav_stereo(wav, r.left, r.right,
                              static_cast<std::uint32_t>(r.audio_rate))) {
    std::cout << "decoded audio written to ./" << wav << " ("
              << r.left.size() << " frames @ " << r.audio_rate << " Hz)\n";
  }
  return ok ? 0 : 1;
}
