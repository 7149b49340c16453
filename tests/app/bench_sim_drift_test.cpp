// Drift gate for the committed BENCH_sim.json: rerun the full-size PAL
// decode under both steppers and require every field of the committed
// document that does not depend on the host to match the fresh run. A
// change to the work the simulator does (ticks, wakes, horizon queries,
// skips) or to its outcome must regenerate the document on purpose, from
// the repository root:
//   build/bench/bench_perf_analysis --sim-json BENCH_sim.json
// Wall-clock fields (wall_ms, cycles_per_sec, speedup) are never compared,
// so the gate cannot flake on machine load. The Gate* tests check the
// comparison itself on a small run.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/sim_bench.hpp"
#include "common/bench_schema.hpp"
#include "common/json.hpp"

namespace acc {
namespace {

/// Per-run fields that depend only on the simulation.
constexpr const char* kDeterministicFields[] = {
    "cycles",           "dense_ticks",       "skips",
    "skipped_cycles",   "component_ticks",   "horizon_queries",
    "wakes",            "calendar_visits",   "rearms",
    "sync_visits",      "replays",           "replayed_cycles",
    "replay_boundaries", "period_checks",    "sink_samples",
    "source_drops",     "sink_underruns",    "blocks",
    "audio_checksum"};

constexpr const char* kRegenerate =
    " — if the change is intended, regenerate " ACC_BENCH_SIM_JSON
    " with 'bench_perf_analysis --sim-json BENCH_sim.json'";

const json::Value* row_for_mode(const json::Value& doc,
                                const std::string& mode) {
  for (const json::Value& row : doc.at("runs").as_array())
    if (row.at("mode").as_string() == mode) return &row;
  return nullptr;
}

/// One message per host-independent field in which `committed` differs
/// from `fresh`; empty when the committed document is current.
std::vector<std::string> drift(const json::Value& committed,
                               const json::Value& fresh) {
  std::vector<std::string> out;
  if (committed.at("workload").dump() != fresh.at("workload").dump())
    out.push_back("workload drifted");
  for (const json::Value& row : fresh.at("runs").as_array()) {
    const std::string& mode = row.at("mode").as_string();
    const json::Value* old = row_for_mode(committed, mode);
    if (old == nullptr) {
      out.push_back("no \"" + mode + "\" row");
      continue;
    }
    for (const char* key : kDeterministicFields) {
      const json::Value* was = old->find(key);
      if (was == nullptr || was->dump() != row.at(key).dump())
        out.push_back(mode + "." + key + " drifted");
    }
  }
  return out;
}

json::Value fresh_doc(app::PalSimConfig pal) {
  const std::vector<sim::Flit> input = app::synthesize_pal_input(pal);
  pal.prebuilt_input = &input;
  return app::sim_bench_doc(
      pal, app::sim_bench_run(pal, sim::StepperKind::kDense),
      app::sim_bench_run(pal, sim::StepperKind::kWakeList));
}

json::Value small_doc() {
  app::PalSimConfig pal;
  pal.input_samples = 1 << 10;
  return fresh_doc(pal);
}

json::Object& row_at(json::Value& doc, std::size_t i) {
  return doc.as_object()["runs"].as_array()[i].as_object();
}

TEST(BenchSimDrift, CommittedDocumentMatchesAFreshRun) {
  std::ifstream in(ACC_BENCH_SIM_JSON);
  ASSERT_TRUE(in) << "cannot open " << ACC_BENCH_SIM_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const json::Value committed = json::parse_or_throw(text.str());
  for (const std::string& p : validate_bench_sim(committed))
    ADD_FAILURE() << p << kRegenerate;

  const json::Value fresh = fresh_doc(app::PalSimConfig{});
  for (const std::string& p : drift(committed, fresh))
    ADD_FAILURE() << p << kRegenerate;
}

TEST(BenchSimDrift, GateFlagsEveryFieldButWallClock) {
  // A row 282 behind (a stale wake-list row's lag) in any per-run field
  // but the mode and the wall clock is reported by name and alone.
  const json::Value fresh = small_doc();
  for (std::size_t i = 0; i < 2; ++i) {
    json::Value probe = fresh;
    for (const auto& [key, value] : row_at(probe, i)) {
      if (key == "mode" || key == "wall_ms" || key == "cycles_per_sec")
        continue;
      json::Value stale = fresh;
      row_at(stale, i)[key] = value.as_int() - 282;
      EXPECT_EQ(drift(stale, fresh),
                std::vector<std::string>{row_at(probe, i)["mode"].as_string() +
                                         "." + key + " drifted"});
    }
  }
}

TEST(BenchSimDrift, GateIgnoresWallClockFields) {
  const json::Value fresh = small_doc();
  json::Value other_host = fresh;
  for (std::size_t i = 0; i < 2; ++i) {
    row_at(other_host, i)["wall_ms"] = 1e9;
    row_at(other_host, i)["cycles_per_sec"] = nullptr;
  }
  other_host.as_object()["speedup"] = 0.5;
  EXPECT_TRUE(drift(other_host, fresh).empty());
}

TEST(BenchSimDrift, GateFlagsMissingRowAndField) {
  const json::Value fresh = small_doc();
  json::Value stale = fresh;
  row_at(stale, 1).erase("wakes");
  EXPECT_EQ(drift(stale, fresh),
            std::vector<std::string>{"wake_list.wakes drifted"});
  stale.as_object()["runs"].as_array().pop_back();
  EXPECT_EQ(drift(stale, fresh),
            std::vector<std::string>{"no \"wake_list\" row"});
}

TEST(BenchSimDrift, GateFlagsWorkloadChange) {
  const json::Value fresh = small_doc();
  json::Value resized = fresh;
  resized.as_object()["workload"].as_object()["input_samples"] = 1 << 11;
  EXPECT_EQ(drift(resized, fresh),
            std::vector<std::string>{"workload drifted"});
}

}  // namespace
}  // namespace acc
