// E9 — performance of the analyses and the simulator (google-benchmark).
//
// Not a paper artifact: establishes that the design-time analyses are
// interactive-speed and reports the simulator's cycles/second.
//
// Observability (docs/observability.md): --metrics prints the metrics
// snapshot of an instrumented reference run of the sim workload (separate
// from the timed runs, so BENCH_sim.json timings stay unperturbed);
// --chrome-trace PATH and --report PATH write that run's Perfetto trace and
// schema-pinned RunReport.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "accel/fir.hpp"
#include "accel/mixer.hpp"
#include "app/pal_report.hpp"
#include "app/sim_bench.hpp"
#include "common/bench_schema.hpp"
#include "common/json.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/hsdf.hpp"
#include "sharing/bench_doc.hpp"
#include "sharing/blocksize.hpp"
#include "sharing/csdf_model.hpp"
#include "sharing/nonmonotone.hpp"
#include "sim/gateway.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"

namespace {

using namespace acc;

sharing::SharedSystemSpec pal_like() {
  sharing::SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1, 1};
  sys.chain.entry_cycles_per_sample = 15;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s0", Rational(28224, 1000000), 4100},
                 {"s1", Rational(28224, 1000000), 4100},
                 {"s2", Rational(3528, 1000000), 4100},
                 {"s3", Rational(3528, 1000000), 4100}};
  return sys;
}

void BM_RepetitionVector(benchmark::State& state) {
  df::Graph g;
  std::vector<df::ActorId> actors;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i)
    actors.push_back(g.add_sdf_actor("a" + std::to_string(i), 1));
  for (int i = 0; i + 1 < n; ++i)
    g.add_sdf_edge(actors[i], actors[i + 1], (i % 3) + 1, ((i + 1) % 3) + 1, 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(df::compute_repetition_vector(g));
}
BENCHMARK(BM_RepetitionVector)->Arg(8)->Arg(64)->Arg(256);

void BM_SelfTimedThroughput(benchmark::State& state) {
  df::Graph g;
  const df::ActorId a = g.add_sdf_actor("A", 2);
  const df::ActorId b = g.add_sdf_actor("B", 3);
  g.add_channel(a, b, {2}, {3}, state.range(0));
  for (auto _ : state) {
    df::SelfTimedExecutor exec(g);
    benchmark::DoNotOptimize(exec.analyze_throughput(a));
  }
}
BENCHMARK(BM_SelfTimedThroughput)->Arg(6)->Arg(64)->Arg(512);

void BM_McrHsdfExpansion(benchmark::State& state) {
  df::Graph g;
  const df::ActorId a = g.add_sdf_actor("A", 2);
  const df::ActorId b = g.add_sdf_actor("B", 3);
  g.add_sdf_edge(a, b, static_cast<std::int64_t>(state.range(0)), 3, 0);
  g.add_sdf_edge(b, a, 3, static_cast<std::int64_t>(state.range(0)), 24);
  for (auto _ : state)
    benchmark::DoNotOptimize(df::sdf_throughput_via_mcm(g, a));
}
BENCHMARK(BM_McrHsdfExpansion)->Arg(2)->Arg(8)->Arg(16);

void BM_BlockSizeIlp(benchmark::State& state) {
  const sharing::SharedSystemSpec sys = pal_like();
  for (auto _ : state)
    benchmark::DoNotOptimize(sharing::solve_block_sizes_ilp(sys));
}
BENCHMARK(BM_BlockSizeIlp);

void BM_BlockSizeFixpoint(benchmark::State& state) {
  const sharing::SharedSystemSpec sys = pal_like();
  for (auto _ : state)
    benchmark::DoNotOptimize(sharing::solve_block_sizes_fixpoint(sys));
}
BENCHMARK(BM_BlockSizeFixpoint);

void BM_BufferSizing(benchmark::State& state) {
  sharing::SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = 2;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, 8), 10}};
  const sharing::BlockSizeResult blocks =
      sharing::solve_block_sizes_fixpoint(sys);
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sharing::min_buffers_for_stream(
        sys, 0, blocks.eta, 8, /*consumer_chunk=*/1, jobs));
  }
}
BENCHMARK(BM_BufferSizing)->Arg(1)->Arg(4);

void BM_CsdfModelExecution(benchmark::State& state) {
  sharing::SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = 15;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, 1000), 4100}};
  sharing::CsdfModelOptions o;
  o.eta = state.range(0);
  o.alpha0 = o.eta;
  o.alpha3 = o.eta;
  o.producer_period = 0;
  o.consumer_period = 0;
  sharing::CsdfStreamModel m = sharing::build_csdf_stream_model(sys, 0, o);
  for (auto _ : state) {
    df::SelfTimedExecutor exec(m.graph);
    benchmark::DoNotOptimize(exec.run_until_firings(m.exit, o.eta));
  }
  state.SetItemsProcessed(state.iterations() * o.eta);
}
BENCHMARK(BM_CsdfModelExecution)->Arg(64)->Arg(1024);

/// Simulator speed: cycles/second on a ring + gateway + accelerator system.
/// Arg = sim::StepperKind (0 dense, 1 wake-list) — the pair shows the
/// quiescent-skip and selective-ticking wins in isolation.
void BM_SimulatorCyclesPerSecond(benchmark::State& state) {
  const auto kind = static_cast<sim::StepperKind>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::System sys(4);
    sim::CFifo& in = sys.add_fifo("in", 256);
    sim::CFifo& out = sys.add_fifo("out", 4096, 0, 0);
    auto& accel = sys.add<sim::AcceleratorTile>("a", sys.ring(), 1, 1, 2);
    class Nop final : public accel::StreamKernel {
     public:
      void push(CQ16 in, std::vector<CQ16>& o) override { o.push_back(in); }
      [[nodiscard]] std::vector<std::int32_t> save_state() const override {
        return {};
      }
      void restore_state(std::span<const std::int32_t>) override {}
      void reset() override {}
      [[nodiscard]] std::size_t state_words() const override { return 0; }
      [[nodiscard]] std::string name() const override { return "nop"; }
      [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override {
        return std::make_unique<Nop>();
      }
    };
    accel.register_context(0, std::make_unique<Nop>());
    accel.set_upstream(0, 1);
    accel.set_downstream(3, 2, 2);
    auto& exit = sys.add<sim::ExitGateway>("x", sys.ring(), 3, 1, 2);
    exit.set_upstream(1, 1);
    auto& entry = sys.add<sim::EntryGateway>("e", sys.ring(), 0, 2, 1, 1, 2);
    entry.set_chain({&accel});
    entry.set_exit(&exit);
    exit.set_entry(&entry);
    entry.add_stream({0, "s", 32, 32, &in, &out, 50});
    std::vector<sim::Flit> payload(4096, 7);
    sys.add<sim::SourceTile>("src", in, payload, 4);
    state.ResumeTiming();
    sys.run_with(kind, 50000);
    benchmark::DoNotOptimize(sys.now());
  }
  state.SetItemsProcessed(state.iterations() * 50000);  // cycles/sec
}
BENCHMARK(BM_SimulatorCyclesPerSecond)->Arg(0)->Arg(1)->ArgName("stepper");

/// Kernel data plane (ISSUE 8): per-sample push() vs the SoA
/// process_block() path on the PAL decoder's three kernels. Arg = block
/// size; items/sec = input samples/sec, so the block/scalar ratio is the
/// batching win of restructuring the maths for autovectorization (the two
/// paths are bit-identical — kernel_block_test.cpp pins that).
void bench_kernel(benchmark::State& state, accel::StreamKernel& k,
                  bool block_path) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<CQ16> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Deterministic full-scale-ish stimulus; any waveform works, the
    // kernels are data-independent in control flow.
    const double t = static_cast<double>(i);
    in[i] = CQ16{Q16::from_double(0.4 * std::sin(0.011 * t)),
                 Q16::from_double(0.4 * std::cos(0.017 * t))};
  }
  std::vector<CQ16> out(n);
  std::vector<std::uint8_t> counts(n);
  std::vector<CQ16> scratch;
  scratch.reserve(n);
  for (auto _ : state) {
    if (block_path) {
      benchmark::DoNotOptimize(k.process_block(in, out, counts.data()));
    } else {
      scratch.clear();
      for (const CQ16 s : in) k.push(s, scratch);
      benchmark::DoNotOptimize(scratch.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_KernelFirScalar(benchmark::State& state) {
  accel::DecimatingFir k(
      accel::quantize_taps(accel::design_lowpass(33, 0.06)), 8);
  bench_kernel(state, k, /*block_path=*/false);
}
void BM_KernelFirBlock(benchmark::State& state) {
  accel::DecimatingFir k(
      accel::quantize_taps(accel::design_lowpass(33, 0.06)), 8);
  bench_kernel(state, k, /*block_path=*/true);
}
void BM_KernelMixerScalar(benchmark::State& state) {
  accel::NcoMixer k(accel::NcoMixer::freq_from_normalized(0.21));
  bench_kernel(state, k, /*block_path=*/false);
}
void BM_KernelMixerBlock(benchmark::State& state) {
  accel::NcoMixer k(accel::NcoMixer::freq_from_normalized(0.21));
  bench_kernel(state, k, /*block_path=*/true);
}
void BM_KernelFmDemodScalar(benchmark::State& state) {
  accel::FmDiscriminator k;
  bench_kernel(state, k, /*block_path=*/false);
}
void BM_KernelFmDemodBlock(benchmark::State& state) {
  accel::FmDiscriminator k;
  bench_kernel(state, k, /*block_path=*/true);
}
BENCHMARK(BM_KernelFirScalar)->Arg(16)->Arg(256)->ArgName("block");
BENCHMARK(BM_KernelFirBlock)->Arg(16)->Arg(256)->ArgName("block");
BENCHMARK(BM_KernelMixerScalar)->Arg(16)->Arg(256)->ArgName("block");
BENCHMARK(BM_KernelMixerBlock)->Arg(16)->Arg(256)->ArgName("block");
BENCHMARK(BM_KernelFmDemodScalar)->Arg(16)->Arg(256)->ArgName("block");
BENCHMARK(BM_KernelFmDemodBlock)->Arg(16)->Arg(256)->ArgName("block");

/// Machine-readable perf trajectory of the DSE engine: BENCH_dse.json with
/// wall time, simulation count, cache hit rate and pruning wins for jobs=1
/// and jobs=N (--jobs, default 4). The workload and document builder live
/// in sharing/bench_doc.hpp so the schema tests cover the shipping code.
void emit_dse_json(int jobs, const std::string& path) {
  const sharing::DseWorkload workload;  // historical bench scale
  json::Array runs;
  runs.push_back(json::Value(sharing::dse_run(workload, 1)));
  if (jobs != 1) runs.push_back(json::Value(sharing::dse_run(workload, jobs)));
  const json::Value doc = sharing::dse_bench_doc(std::move(runs));

  const std::vector<std::string> problems = validate_bench_dse(doc);
  if (!problems.empty()) {
    std::cout << "WARNING: BENCH_dse.json violates its schema:\n";
    for (const std::string& p : problems) std::cout << "  " << p << "\n";
  }

  std::ofstream out(path);
  out << doc.pretty() << "\n";
  out.flush();
  if (out)
    std::cout << "wrote " << path << "\n";
  else
    std::cout << "WARNING: could not write " << path << "\n";
  for (const json::Value& r : doc.at("runs").as_array()) {
    std::cout << "  dse workload, jobs=" << r.at("jobs").as_int() << ": "
              << r.at("wall_ms").as_double() << " ms, "
              << r.at("simulations").as_int() << " simulations, cache hit rate "
              << r.at("cache_hit_rate").as_double() << ", pruned "
              << (r.at("pruned_infeasible").as_int() +
                  r.at("pruned_feasible").as_int())
              << "\n";
  }
}

/// Machine-readable perf trajectory of the SIMULATOR: BENCH_sim.json with
/// cycles/second of both steppers — dense and wake-list — on the full PAL
/// decoder, plus the outcome digest proving they agreed. Returns false on a
/// schema violation, a stepper divergence, a checksum mismatch or a
/// wake-list run that failed to tick fewer cycles than dense — the
/// `sim_perf` ctest entry (label "perf") fails on those, never on the
/// speedup itself, so CI stays free of machine-load flake while still
/// pinning correctness.
bool emit_sim_json(bool fast, const std::string& path) {
  app::PalSimConfig pal = app::sim_bench_pal_config(fast);
  // One synthesis serves both stepper runs (the waveform is a pure function
  // of the scenario); sim_bench_run keeps it off the wall clock.
  const std::vector<sim::Flit> input = app::synthesize_pal_input(pal);
  pal.prebuilt_input = &input;
  const app::SimBenchRun dense =
      app::sim_bench_run(pal, sim::StepperKind::kDense);
  const app::SimBenchRun wake =
      app::sim_bench_run(pal, sim::StepperKind::kWakeList);
  const json::Value doc = app::sim_bench_doc(pal, dense, wake);

  std::vector<std::string> problems = validate_bench_sim(doc);
  // Semantic gates beyond the schema: the wake-list stepper must actually
  // skip (strictly fewer ticked cycles than dense) and the audio must be
  // bit-identical — both machine-load independent, so safe to fail CI on.
  if (wake.dense_ticks >= dense.dense_ticks) {
    problems.push_back("wake_list stepper ticked " +
                       std::to_string(wake.dense_ticks) +
                       " cycles, expected fewer than dense's " +
                       std::to_string(dense.dense_ticks));
  }
  if (wake.audio_checksum != dense.audio_checksum) {
    problems.push_back("audio checksum mismatch: dense " +
                       std::to_string(dense.audio_checksum) + " vs wake_list " +
                       std::to_string(wake.audio_checksum));
  }
  if (!problems.empty()) {
    std::cout << "ERROR: BENCH_sim.json violates its schema:\n";
    for (const std::string& p : problems) std::cout << "  " << p << "\n";
  }

  std::ofstream out(path);
  out << doc.pretty() << "\n";
  out.flush();
  if (out)
    std::cout << "wrote " << path << "\n";
  else
    std::cout << "WARNING: could not write " << path << "\n";
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
  return problems.empty();
}

/// Instrumented reference run of the sim workload under the shipping
/// (wake-list) stepper, kept SEPARATE from the timed emit_sim_json runs so
/// attaching the registry never perturbs the BENCH_sim.json wall clocks.
void emit_observability(bool fast, bool want_metrics,
                        const std::string& chrome_path,
                        const std::string& report_path) {
  obs::MetricsRegistry metrics;
  sim::TraceLog trace;
  app::PalSimConfig ref = app::sim_bench_pal_config(fast);
  ref.stepper = sim::StepperKind::kWakeList;
  ref.metrics = &metrics;
  ref.trace = &trace;
  const app::PalSimResult r = app::run_pal_decoder(ref);
  if (want_metrics)
    std::cout << "\n== sim reference metrics ==\n" << metrics.snapshot_text();
  if (!chrome_path.empty()) {
    std::ofstream ct(chrome_path);
    ct << obs::chrome_trace_json(trace);
    std::cout << "chrome trace written to " << chrome_path << "\n";
  }
  if (!report_path.empty()) {
    std::ofstream rp(report_path);
    rp << app::pal_run_report_json(ref, r, metrics, &trace);
    std::cout << "run report written to " << report_path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags before google-benchmark parses the rest.
  int jobs = 4;
  std::string json_path = "BENCH_dse.json";
  std::string sim_json_path = "BENCH_sim.json";
  bool sim_fast = false;
  bool sim_only = false;
  bool want_metrics = false;
  std::string chrome_path;
  std::string report_path;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--dse-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sim-json") == 0 && i + 1 < argc) {
      sim_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sim-fast") == 0) {
      sim_fast = true;
    } else if (std::strcmp(argv[i], "--sim-only") == 0) {
      sim_only = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      want_metrics = true;
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bool observe =
      want_metrics || !chrome_path.empty() || !report_path.empty();
  if (sim_only) {
    const bool ok = emit_sim_json(sim_fast, sim_json_path);
    if (observe)
      emit_observability(sim_fast, want_metrics, chrome_path, report_path);
    return ok ? 0 : 1;
  }

  emit_dse_json(jobs, json_path);
  if (!emit_sim_json(sim_fast, sim_json_path)) return 1;
  if (observe)
    emit_observability(sim_fast, want_metrics, chrome_path, report_path);

  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
