// E13 — fault-injection campaign on the PAL stereo decoder.
//
// Runs the deterministic fault campaign (app/fault_campaign.hpp) at the
// default intensity ladder and writes the machine-readable
// BENCH_faults.json (validated against common/bench_schema.hpp before it is
// written). The document carries no wall-clock fields: the same --seed
// produces a bit-identical file for any --jobs.
//
// Flags: --jobs N (default 2), --seed S, --json PATH, --samples N
// (front-end samples per point; larger = longer campaign). Observability
// (docs/observability.md): --metrics prints the metrics snapshot of a
// fault-free reference run of the campaign configuration; --chrome-trace
// PATH and --report PATH write that reference run's Perfetto trace and
// schema-pinned RunReport.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "app/fault_campaign.hpp"
#include "app/pal_report.hpp"
#include "common/bench_schema.hpp"
#include "common/table.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"

int main(int argc, char** argv) {
  using namespace acc;

  app::FaultCampaignConfig cfg;
  cfg.jobs = 2;
  std::string json_path = "BENCH_faults.json";
  bool want_metrics = false;
  std::string chrome_path;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      cfg.jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      cfg.pal.input_samples = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 0));
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      want_metrics = true;
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--jobs N] [--seed S] [--json PATH] [--samples N]"
                   " [--metrics] [--chrome-trace PATH] [--report PATH]\n";
      return 2;
    }
  }

  std::cout << "E13: fault campaign on the PAL decoder (seed 0x" << std::hex
            << cfg.seed << std::dec << ", jobs " << cfg.jobs << ")\n\n";
  const app::FaultCampaignResult res = app::run_fault_campaign(cfg);

  Table t({"level", "intensity", "faults", "drops", "blocks", "violations",
           "covered", "genuine", "recoveries", "underruns"});
  for (const app::FaultPointResult& p : res.points) {
    t.add_row({p.level.label, fmt_double(p.level.intensity),
               std::to_string(p.faults_injected),
               std::to_string(p.notifications_dropped),
               std::to_string(p.blocks_checked), std::to_string(p.violations),
               std::to_string(p.covered_by_slack),
               std::to_string(p.genuine_breaches),
               std::to_string(p.notify_recoveries),
               std::to_string(p.sink_underruns)});
  }
  std::cout << t.render() << "\n";

  if (!write_bench_doc(app::faults_bench_doc(cfg, res), validate_bench_faults,
                       json_path))
    return 1;

  // Observability artifacts come from a fault-free reference run of the
  // campaign's PAL configuration (the baseline every faulted point is
  // judged against).
  if (want_metrics || !chrome_path.empty() || !report_path.empty()) {
    obs::MetricsRegistry metrics;
    sim::TraceLog trace;
    app::PalSimConfig ref = cfg.pal;
    ref.metrics = &metrics;
    ref.trace = &trace;
    const app::PalSimResult r = app::run_pal_decoder(ref);
    if (want_metrics)
      std::cout << "\n== fault-free reference metrics ==\n"
                << metrics.snapshot_text();
    if (!chrome_path.empty()) {
      std::ofstream ct(chrome_path);
      ct << obs::chrome_trace_json(trace);
      std::cout << "chrome trace written to " << chrome_path << "\n";
    }
    if (!report_path.empty() &&
        !write_bench_doc(app::pal_run_report(ref, r, metrics, &trace),
                         validate_run_report, report_path))
      return 1;
  }

  // The campaign's headline claim, also asserted by ctest: delays inside
  // the declared envelope never breach the bounds; dropped notifications
  // (recovered only by timeout) do.
  for (const app::FaultPointResult& p : res.points) {
    if (!p.level.drop_notifications && p.genuine_breaches != 0) {
      std::cerr << "UNEXPECTED: genuine breach at within-envelope level "
                << p.level.label << "\n";
      return 1;
    }
  }
  return 0;
}
