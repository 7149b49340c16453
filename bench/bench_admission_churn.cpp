// E14 — online admission, departure and live mode changes under churn.
//
// Replays the seeded 200-event session trace (ctrl/workload.hpp) against the
// live control plane (src/ctrl/) under both cycle-exact steppers and
// writes the machine-readable BENCH_admission.json (validated against
// common/bench_schema.hpp before it is written). The document carries no
// wall-clock fields: the same --seed produces a bit-identical file for any
// --jobs.
//
// The configuration is linted at startup (lint::startup_gate): the chain and
// every join template pass the static rules — including the control-plane
// rules C02 (mu satisfiable at eta_max) and G03 (declared accelerator kinds)
// — before the first simulated cycle. --no-lint bypasses the gate.
//
// Flags: --jobs N (default 2), --seed S, --events N, --json PATH.
// Observability (docs/observability.md): --metrics prints the wake-list
// run's metrics snapshot; --chrome-trace PATH writes its Perfetto trace
// (one "modechange" duration event per executed transition).
//
// Exit status: 2 on bad usage or lint rejection; 1 if the steppers diverge,
// an admitted stream misses a deadline, the analysis cache hit rate is not
// above 50%, or the document breaks its schema; 0 otherwise.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "app/admission_churn.hpp"
#include "app/pal_report.hpp"
#include "common/bench_schema.hpp"
#include "common/table.hpp"
#include "lint/linter.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

int main(int argc, char** argv) {
  using namespace acc;

  app::ChurnConfig cfg = app::small_churn_config();
  cfg.jobs = 2;
  std::string json_path = "BENCH_admission.json";
  bool want_metrics = false;
  std::string chrome_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      cfg.jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cfg.workload.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      cfg.workload.events = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      want_metrics = true;
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-lint") == 0) {
      // consumed by lint::startup_gate below
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--jobs N] [--seed S] [--events N] [--json PATH]"
                   " [--metrics] [--chrome-trace PATH] [--no-lint]\n";
      return 2;
    }
  }

  if (!lint::startup_gate(argc, argv, app::churn_lint_input(cfg), std::cerr))
    return 2;

  obs::MetricsRegistry metrics;
  sim::TraceLog trace;
  if (want_metrics) cfg.metrics = &metrics;
  if (!chrome_path.empty()) cfg.trace = &trace;

  std::cout << "E14: admission churn on the shared chain (seed 0x" << std::hex
            << cfg.workload.seed << std::dec << ", " << cfg.workload.events
            << " events, jobs " << cfg.jobs << ")\n\n";
  const app::ChurnResult res = app::run_churn_campaign(cfg);

  Table t({"stepper", "cycles", "modechanges", "accepts", "rejects",
           "cache-hits", "misses", "samples", "digest"});
  for (const app::ChurnRunResult& r : res.runs) {
    t.add_row({app::stepper_name(r.stepper), std::to_string(r.cycles_run),
               std::to_string(r.mode_changes), std::to_string(r.accepts),
               std::to_string(r.rejects),
               std::to_string(r.cache_hits) + "/" +
                   std::to_string(r.cache_lookups),
               std::to_string(r.deadline_misses),
               std::to_string(r.samples_delivered),
               std::to_string(r.digest)});
  }
  std::cout << t.render() << "\n";

  const json::Value doc = app::admission_bench_doc(cfg, res);
  const std::vector<std::string> problems = validate_bench_admission(doc);
  if (!problems.empty()) {
    std::cerr << "BENCH_admission.json violates its schema:\n";
    for (const std::string& p : problems) std::cerr << "  " << p << "\n";
    return 1;
  }
  std::ofstream out(json_path);
  out << doc.pretty() << "\n";
  out.flush();
  if (out)
    std::cout << "wrote " << json_path << "\n";
  else
    std::cout << "WARNING: could not write " << json_path << "\n";

  if (want_metrics)
    std::cout << "\n== wake-list run metrics ==\n" << metrics.snapshot_text();
  if (!chrome_path.empty()) {
    std::ofstream ct(chrome_path);
    ct << obs::chrome_trace_json(trace);
    std::cout << "chrome trace written to " << chrome_path << "\n";
  }

  // The campaign's headline claims, also asserted by ctest.
  if (!res.equivalent) {
    std::cerr << "UNEXPECTED: stepper runs diverged\n";
    return 1;
  }
  const app::ChurnRunResult& ref = res.runs.back();
  if (ref.deadline_misses != 0) {
    std::cerr << "UNEXPECTED: " << ref.deadline_misses
              << " deadline misses on admitted streams\n";
    return 1;
  }
  if (ref.cache_lookups == 0 || 2 * ref.cache_hits <= ref.cache_lookups) {
    std::cerr << "UNEXPECTED: analysis cache hit rate " << ref.cache_hits
              << "/" << ref.cache_lookups << " not above 50%\n";
    return 1;
  }
  return 0;
}
