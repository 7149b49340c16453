// ISSUE 2 satellite 4: golden-schema tests for the machine-readable bench
// documents. The benches write BENCH_dse.json / BENCH_faults.json; these
// tests pin the exact shape by validating docs produced by the very code
// the benches call, plus negative cases for each failure class the
// validator reports (missing key, wrong type, wrong bench id).
#include "common/bench_schema.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "app/admission_churn.hpp"
#include "app/fault_campaign.hpp"
#include "app/sim_bench.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sharing/bench_doc.hpp"

namespace acc {
namespace {

json::Value small_dse_doc() {
  json::Array runs;
  runs.push_back(
      json::Value(sharing::dse_run(sharing::DseWorkload::small(), 1)));
  return sharing::dse_bench_doc(std::move(runs));
}

json::Value small_faults_doc() {
  app::FaultCampaignConfig cfg;
  cfg.levels = {{"baseline", 0.0, false}};
  const app::FaultCampaignResult res = app::run_fault_campaign(cfg);
  return app::faults_bench_doc(cfg, res);
}

TEST(BenchSchema, DseDocFromBenchCodeValidates) {
  const std::vector<std::string> problems = validate_bench_dse(small_dse_doc());
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(BenchSchema, FaultsDocFromBenchCodeValidates) {
  const std::vector<std::string> problems =
      validate_bench_faults(small_faults_doc());
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(BenchSchema, DetectsMissingKey) {
  json::Value doc = small_dse_doc();
  doc.as_object().erase("hardware_threads");
  const std::vector<std::string> problems = validate_bench_dse(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("hardware_threads"), std::string::npos);
}

TEST(BenchSchema, DetectsWrongType) {
  json::Value doc = small_dse_doc();
  doc.as_object()["runs"].as_array()[0].as_object()["simulations"] = "many";
  EXPECT_FALSE(validate_bench_dse(doc).empty());
}

TEST(BenchSchema, DetectsWrongBenchId) {
  json::Value faults = small_faults_doc();
  // A faults doc is not a DSE doc and vice versa.
  EXPECT_FALSE(validate_bench_dse(faults).empty());
  json::Value dse = small_dse_doc();
  EXPECT_FALSE(validate_bench_faults(dse).empty());
}

TEST(BenchSchema, DetectsMissingPointKeyInFaultsDoc) {
  json::Value doc = small_faults_doc();
  doc.as_object()["points"].as_array()[0].as_object().erase(
      "genuine_breaches");
  const std::vector<std::string> problems = validate_bench_faults(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("genuine_breaches"), std::string::npos);
}

TEST(BenchSchema, DetectsEmptyRuns) {
  json::Value doc = sharing::dse_bench_doc(json::Array{});
  EXPECT_FALSE(validate_bench_dse(doc).empty());
}

// --- BENCH_sim.json (ISSUE 3: simulator perf trajectory) ----------------

json::Value small_sim_doc() {
  app::PalSimConfig pal = app::sim_bench_pal_config(/*fast=*/true);
  pal.input_samples = 1 << 10;  // test-size, even smaller than --sim-fast
  const app::SimBenchRun dense =
      app::sim_bench_run(pal, sim::StepperKind::kDense);
  const app::SimBenchRun wake =
      app::sim_bench_run(pal, sim::StepperKind::kWakeList);
  return app::sim_bench_doc(pal, dense, wake);
}

TEST(BenchSchema, SimDocFromBenchCodeValidates) {
  const std::vector<std::string> problems = validate_bench_sim(small_sim_doc());
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(BenchSchema, SimDocDetectsMissingRunKey) {
  json::Value doc = small_sim_doc();
  doc.as_object()["runs"].as_array()[1].as_object().erase("skipped_cycles");
  const std::vector<std::string> problems = validate_bench_sim(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("skipped_cycles"), std::string::npos);
}

TEST(BenchSchema, SimDocDetectsMissingWakeCounters) {
  // The wake-list instrumentation (ISSUE 6 satellite) is part of the
  // golden schema: dropping any of it is a breach.
  for (const char* key : {"component_ticks", "horizon_queries", "wakes"}) {
    json::Value doc = small_sim_doc();
    doc.as_object()["runs"].as_array()[1].as_object().erase(key);
    const std::vector<std::string> problems = validate_bench_sim(doc);
    ASSERT_FALSE(problems.empty()) << key;
    EXPECT_NE(problems.front().find(key), std::string::npos);
  }
}

TEST(BenchSchema, SimDocDetectsWrongWakeCounterType) {
  json::Value doc = small_sim_doc();
  doc.as_object()["runs"].as_array()[1].as_object()["wakes"] = "lots";
  EXPECT_FALSE(validate_bench_sim(doc).empty());
}

TEST(BenchSchema, SimDocDetectsWrongMode) {
  json::Value doc = small_sim_doc();
  doc.as_object()["runs"].as_array()[0].as_object()["mode"] = "sparse";
  EXPECT_FALSE(validate_bench_sim(doc).empty());
}

TEST(BenchSchema, SimDocDetectsDivergence) {
  // A doc recording a dense/wake-list divergence is malformed by definition:
  // the steppers are contractually cycle-exact.
  json::Value doc = small_sim_doc();
  doc.as_object()["equivalent"] = false;
  const std::vector<std::string> problems = validate_bench_sim(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("equivalent"), std::string::npos);
}

TEST(BenchSchema, SimDocAcceptsNullRates) {
  // A --sim-fast run can complete below the wall clock's resolution; the
  // rate fields are then null rather than 0 or inf (ISSUE 8 satellite).
  json::Value doc = small_sim_doc();
  doc.as_object()["runs"].as_array()[1].as_object()["cycles_per_sec"] =
      nullptr;
  doc.as_object()["speedup"] = nullptr;
  const std::vector<std::string> problems = validate_bench_sim(doc);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(BenchSchema, SimDocRejectsNullOutsideRateFields) {
  // null is only legal where a clock can legitimately round to zero; the
  // raw measurements themselves must stay numbers.
  json::Value doc = small_sim_doc();
  doc.as_object()["runs"].as_array()[0].as_object()["wall_ms"] = nullptr;
  EXPECT_FALSE(validate_bench_sim(doc).empty());
  json::Value doc2 = small_sim_doc();
  doc2.as_object()["runs"].as_array()[1].as_object()["wakes"] = nullptr;
  EXPECT_FALSE(validate_bench_sim(doc2).empty());
}

TEST(BenchSchema, SimDocDetectsWrongRunCount) {
  json::Value doc = small_sim_doc();
  doc.as_object()["runs"].as_array().pop_back();
  EXPECT_FALSE(validate_bench_sim(doc).empty());
}

TEST(BenchSchema, SimDocRejectsRetiredThreeRowShape) {
  // dense / event / wake_list: the retired global-horizon stepper's shape.
  json::Value doc = small_sim_doc();
  json::Array& rows = doc.as_object()["runs"].as_array();
  json::Value event = rows[1];
  event.as_object()["mode"] = "event";
  rows.insert(rows.begin() + 1, std::move(event));
  EXPECT_FALSE(validate_bench_sim(doc).empty());
}

TEST(BenchSchema, SimDocRejectsSwappedRowOrder) {
  json::Value doc = small_sim_doc();
  json::Array& rows = doc.as_object()["runs"].as_array();
  std::swap(rows[0], rows[1]);  // the dense reference row comes first
  EXPECT_EQ(validate_bench_sim(doc).size(), 2u);  // one per misplaced mode
}

TEST(BenchSchema, SimDocDetectsWrongBenchId) {
  json::Value doc = small_sim_doc();
  EXPECT_FALSE(validate_bench_dse(doc).empty());
  EXPECT_FALSE(validate_bench_sim(small_dse_doc()).empty());
}

// --- BENCH_admission.json (ISSUE 10: dynamic control plane) -------------

json::Value small_admission_doc() {
  app::ChurnConfig cfg = app::small_churn_config();
  cfg.workload.events = 24;  // test-size trace, still joins AND leaves
  return app::admission_bench_doc(cfg, app::run_churn_campaign(cfg));
}

TEST(BenchSchema, AdmissionDocFromBenchCodeValidates) {
  const std::vector<std::string> problems =
      validate_bench_admission(small_admission_doc());
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(BenchSchema, AdmissionDocDetectsMissingTopLevelKey) {
  for (const char* key : {"seed", "events", "chain", "templates", "decisions",
                          "steppers", "summary", "equivalent"}) {
    json::Value doc = small_admission_doc();
    doc.as_object().erase(key);
    const std::vector<std::string> problems = validate_bench_admission(doc);
    ASSERT_FALSE(problems.empty()) << key;
    EXPECT_NE(problems.front().find(key), std::string::npos) << key;
  }
}

TEST(BenchSchema, AdmissionDocDetectsMissingDecisionKey) {
  for (const char* key : {"kind", "accepted", "cache_hit", "reason", "eta",
                          "analysis_work", "reconfig_cycles"}) {
    json::Value doc = small_admission_doc();
    doc.as_object()["decisions"].as_array()[0].as_object().erase(key);
    ASSERT_FALSE(validate_bench_admission(doc).empty()) << key;
  }
}

TEST(BenchSchema, AdmissionDocDetectsWrongStepperRows) {
  // Exactly two rows, in dense / wake-list order, with the digest and
  // audio checksum serialized as strings (uint64-safe).
  json::Value doc = small_admission_doc();
  doc.as_object()["steppers"].as_array().pop_back();
  EXPECT_FALSE(validate_bench_admission(doc).empty());

  json::Value doc2 = small_admission_doc();
  doc2.as_object()["steppers"].as_array()[0].as_object()["stepper"] =
      "wake-list";
  EXPECT_FALSE(validate_bench_admission(doc2).empty());

  json::Value doc3 = small_admission_doc();
  doc3.as_object()["steppers"].as_array()[1].as_object()["digest"] = 7;
  EXPECT_FALSE(validate_bench_admission(doc3).empty());
}

TEST(BenchSchema, AdmissionDocRejectsGlobalHorizonRow) {
  json::Value doc = small_admission_doc();
  doc.as_object()["steppers"].as_array()[1].as_object()["stepper"] =
      "global-horizon";
  EXPECT_FALSE(validate_bench_admission(doc).empty());
}

TEST(BenchSchema, AdmissionDocDetectsDivergence) {
  // A doc recording a stepper divergence is malformed by definition, same
  // contract as BENCH_sim.json.
  json::Value doc = small_admission_doc();
  doc.as_object()["equivalent"] = false;
  const std::vector<std::string> problems = validate_bench_admission(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("equivalent"), std::string::npos);
}

TEST(BenchSchema, AdmissionDocDetectsInconsistentSummary) {
  // accepted + rejected must equal joins: every join is decided once.
  json::Value doc = small_admission_doc();
  json::Object& summary = doc.as_object()["summary"].as_object();
  summary["accepted"] = summary["accepted"].as_int() + 1;
  const std::vector<std::string> problems = validate_bench_admission(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("joins"), std::string::npos);
}

TEST(BenchSchema, AdmissionDocDetectsWrongBenchId) {
  EXPECT_FALSE(validate_bench_admission(small_sim_doc()).empty());
  EXPECT_FALSE(validate_bench_sim(small_admission_doc()).empty());
}

// --- RunReport (ISSUE 7: observability) ---------------------------------

json::Value small_run_report() {
  obs::MetricsRegistry metrics;
  metrics.counter("x.total").add(3);
  obs::RunReportInput in;
  in.workload = "unit";
  in.params["input_samples"] = 1024;
  in.verdict["source_drops"] = 0;
  in.cycles_run = 5000;
  in.stepper = "wake-list";
  obs::RunReportStream s;
  s.id = 0;
  s.name = "s0";
  s.eta = 16;
  s.blocks = 4;
  s.service_observed = 120;
  s.service_bound = 200;
  s.spacing_observed = -1;  // exercises the placeholder margin arm
  s.spacing_bound = 300;
  in.streams.push_back(s);
  return obs::run_report_doc(in, metrics, /*trace=*/nullptr);
}

TEST(BenchSchema, RunReportFromBuilderValidates) {
  const std::vector<std::string> problems =
      validate_run_report(small_run_report());
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(BenchSchema, RunReportDetectsMissingTopLevelKey) {
  for (const char* key : {"version", "workload", "streams", "admissions",
                          "metrics", "trace", "verdict", "cycles_run"}) {
    json::Value doc = small_run_report();
    doc.as_object().erase(key);
    const std::vector<std::string> problems = validate_run_report(doc);
    ASSERT_FALSE(problems.empty()) << key;
    EXPECT_NE(problems.front().find(key), std::string::npos) << key;
  }
}

TEST(BenchSchema, RunReportDetectsWrongReportId) {
  json::Value doc = small_run_report();
  doc.as_object()["report"] = "sprint";
  EXPECT_FALSE(validate_run_report(doc).empty());
  // And a bench doc is not a run report at all.
  EXPECT_FALSE(validate_run_report(small_sim_doc()).empty());
}

TEST(BenchSchema, RunReportDetectsUnknownStepper) {
  json::Value doc = small_run_report();
  doc.as_object()["stepper"] = "warp-drive";
  const std::vector<std::string> problems = validate_run_report(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("stepper"), std::string::npos);
}

TEST(BenchSchema, RunReportRejectsGlobalHorizonStepper) {
  json::Value doc = small_run_report();
  doc.as_object()["stepper"] = "global-horizon";
  EXPECT_FALSE(validate_run_report(doc).empty());
  doc.as_object()["stepper"] = "wake-list";
  EXPECT_TRUE(validate_run_report(doc).empty());
}

TEST(BenchSchema, RunReportDetectsEmptyStreams) {
  json::Value doc = small_run_report();
  doc.as_object()["streams"].as_array().clear();
  EXPECT_FALSE(validate_run_report(doc).empty());
}

TEST(BenchSchema, RunReportDetectsMissingStreamKey) {
  for (const char* key : {"id", "stream", "eta", "blocks", "service",
                          "spacing"}) {
    json::Value doc = small_run_report();
    doc.as_object()["streams"].as_array()[0].as_object().erase(key);
    ASSERT_FALSE(validate_run_report(doc).empty()) << key;
  }
}

TEST(BenchSchema, RunReportDetectsBrokenMarginArithmetic) {
  // margin must equal bound - observed (or the full bound when nothing was
  // observed). A drifting producer is a schema breach, not a style issue.
  json::Value doc = small_run_report();
  doc.as_object()["streams"].as_array()[0].as_object()["service"]
      .as_object()["margin"] = 79;  // correct value is 200 - 120 = 80
  const std::vector<std::string> problems = validate_run_report(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("margin"), std::string::npos);

  json::Value doc2 = small_run_report();
  // Placeholder arm: observed = -1 must carry margin == bound.
  doc2.as_object()["streams"].as_array()[0].as_object()["spacing"]
      .as_object()["margin"] = 0;
  EXPECT_FALSE(validate_run_report(doc2).empty());
}

TEST(BenchSchema, RunReportDetectsWrongTraceShape) {
  json::Value doc = small_run_report();
  doc.as_object()["trace"].as_object()["truncated"] = 1;  // bool, not int
  EXPECT_FALSE(validate_run_report(doc).empty());
}

}  // namespace
}  // namespace acc
