// E9 — the simulator's perf trajectory, BENCH_sim.json.
//
// Not a paper artifact. Runs the PAL stereo decoder (65,536 samples) under
// both steppers, the dense reference loop and the wake-list core, and
// writes their cycles/second, work counters and outcome digest to
// BENCH_sim.json in the working directory (--sim-json PATH elsewhere).
// The per-layer timings of E9 come from perfbench (EXPERIMENTS.md).
//
// Exits 1, writing nothing, when the document breaks its schema, the
// steppers diverge or the wake-list stepper fails to tick fewer cycles than
// dense; exits 1 as well when the file cannot be written. The speedup itself
// is never a gate, so the `sim_perf` ctest cannot flake on machine load.
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "app/sim_bench.hpp"
#include "common/bench_schema.hpp"
#include "common/json.hpp"

namespace {

using namespace acc;

bool emit_sim_json(const std::string& path) {
  app::PalSimConfig pal;
  // One synthesis serves both stepper runs (the waveform is a pure function
  // of the scenario); sim_bench_run keeps it off the wall clock.
  const std::vector<sim::Flit> input = app::synthesize_pal_input(pal);
  pal.prebuilt_input = &input;
  const app::SimBenchRun dense =
      app::sim_bench_run(pal, sim::StepperKind::kDense);
  const app::SimBenchRun wake =
      app::sim_bench_run(pal, sim::StepperKind::kWakeList);
  const json::Value doc = app::sim_bench_doc(pal, dense, wake);

  for (const json::Value& r : doc.at("runs").as_array()) {
    std::cout << "  pal decoder, " << r.at("mode").as_string() << ": "
              << r.at("wall_ms").as_double() << " ms, ";
    if (r.at("cycles_per_sec").is_null())
      std::cout << "n/a cycles/s (";
    else
      std::cout << r.at("cycles_per_sec").as_double() << " cycles/s (";
    std::cout << r.at("dense_ticks").as_int() << " dense ticks, "
              << r.at("skipped_cycles").as_int() << " cycles skipped in "
              << r.at("skips").as_int() << " jumps, "
              << r.at("component_ticks").as_int() << " component ticks, "
              << r.at("horizon_queries").as_int() << " horizon queries, "
              << r.at("wakes").as_int() << " wakes)\n";
  }
  std::cout << "  wake_list/dense speedup: ";
  if (doc.at("speedup").is_null())
    std::cout << "n/a";
  else
    std::cout << doc.at("speedup").as_double();
  std::cout << ", outcome "
            << (doc.at("equivalent").as_bool() ? "identical" : "DIVERGED")
            << "\n";

  // Beyond the schema: the wake-list stepper must actually skip. Like the
  // schema, this does not depend on machine load.
  std::vector<std::string> problems;
  if (wake.dense_ticks >= dense.dense_ticks) {
    problems.push_back("wake_list stepper ticked " +
                       std::to_string(wake.dense_ticks) +
                       " cycles, expected fewer than dense's " +
                       std::to_string(dense.dense_ticks));
  }
  return write_bench_doc(doc, validate_bench_sim, path, std::move(problems));
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sim-json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--sim-json PATH]\n";
      return 2;
    }
  }
  return emit_sim_json(path) ? 0 : 1;
}
