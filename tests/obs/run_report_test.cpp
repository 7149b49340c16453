// RunReport content tests: the PAL decoder's report must validate against
// the pinned schema, and — the conformance theorem rendered as data — every
// observed per-stream maximum of a fault-free run must sit within its
// analytic bound (margin >= 0). Also covers sharing::observe_streams, the
// trace walker that extracts the observed maxima.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "app/pal_report.hpp"
#include "app/pal_system.hpp"
#include "common/bench_schema.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sharing/report.hpp"
#include "sim/trace.hpp"

namespace acc {
namespace {

struct PalRun {
  app::PalSimConfig cfg;
  app::PalSimResult res;
  obs::MetricsRegistry metrics;
  sim::TraceLog trace;
};

void run_small_pal(PalRun& r, sim::StepperKind kind,
                   std::size_t input_samples = 1 << 11) {
  r.cfg.input_samples = input_samples;
  r.cfg.stepper = kind;
  r.cfg.metrics = &r.metrics;
  r.cfg.trace = &r.trace;
  r.res = app::run_pal_decoder(r.cfg);
}

TEST(RunReport, PalReportValidatesAgainstSchema) {
  PalRun r;
  run_small_pal(r, sim::StepperKind::kWakeList);
  const json::Value doc = app::pal_run_report(r.cfg, r.res, r.metrics,
                                              &r.trace);
  const std::vector<std::string> problems = validate_run_report(doc);
  EXPECT_TRUE(problems.empty());
  for (const std::string& p : problems) ADD_FAILURE() << p;
}

TEST(RunReport, FaultFreeMarginsAreNonNegative) {
  PalRun r;
  // Long enough that every stream completes several eta~2672-sample stage-1
  // blocks (a 2^11-sample run finishes zero).
  run_small_pal(r, sim::StepperKind::kWakeList, 1 << 13);
  const json::Value doc = app::pal_run_report(r.cfg, r.res, r.metrics,
                                              &r.trace);
  const json::Array& streams = doc.at("streams").as_array();
  ASSERT_EQ(streams.size(), 4u);  // four PAL streams
  for (const json::Value& row : streams) {
    SCOPED_TRACE("stream " + row.at("stream").as_string());
    // The run is long enough that every stream completes blocks — the
    // margin rows must join real observations, not trivial -1 placeholders.
    EXPECT_GT(row.at("blocks").as_int(), 0);
    EXPECT_GE(row.at("service").at("observed").as_int(), 0);
    EXPECT_GE(row.at("service").at("margin").as_int(), 0);
    EXPECT_GE(row.at("spacing").at("margin").as_int(), 0);
  }
}

TEST(RunReport, ByteIdenticalAcrossSteppers) {
  // The report is derived entirely from simulation state, so the rendered
  // bytes are part of the stepper-equivalence contract.
  PalRun dense;
  run_small_pal(dense, sim::StepperKind::kDense);
  PalRun wake;
  run_small_pal(wake, sim::StepperKind::kWakeList);
  const std::string a =
      app::pal_run_report(dense.cfg, dense.res, dense.metrics, &dense.trace)
          .pretty();
  std::string b =
      app::pal_run_report(wake.cfg, wake.res, wake.metrics, &wake.trace)
          .pretty();
  // The stepper field itself legitimately differs; normalize it away.
  const std::string from = "\"stepper\": \"wake-list\"";
  const std::string to = "\"stepper\": \"dense\"";
  const std::size_t at = b.find(from);
  ASSERT_NE(at, std::string::npos);
  b.replace(at, from.size(), to);
  EXPECT_EQ(a, b);
}

TEST(RunReport, NullTraceYieldsPlaceholderRows) {
  PalRun r;
  run_small_pal(r, sim::StepperKind::kWakeList);
  const json::Value doc = app::pal_run_report(r.cfg, r.res, r.metrics,
                                              /*trace=*/nullptr);
  EXPECT_TRUE(validate_run_report(doc).empty());
  EXPECT_EQ(doc.at("trace").at("events").as_int(), 0);
  for (const json::Value& row : doc.at("streams").as_array()) {
    // No trace = nothing observed; margin degrades to the full bound.
    EXPECT_EQ(row.at("service").at("observed").as_int(), -1);
    EXPECT_EQ(row.at("service").at("margin").as_int(),
              row.at("service").at("bound").as_int());
  }
}

TEST(RunReport, ObserveStreamsMatchesHandBuiltTrace) {
  // A hand-built trace with known service times and gaps: stream 0 has two
  // blocks (admit 100 -> done 150, admit 200 -> done 270) so max service is
  // 70 and the done-to-done spacing is 120.
  app::PalSimConfig cfg;
  cfg.input_samples = 1 << 11;
  const sharing::SharedSystemSpec spec = app::make_system_spec(cfg);
  sim::TraceLog trace;
  trace.record(100, "entry", "admit", 0);
  trace.record(150, "entry", "block.done", 0);
  trace.record(200, "entry", "admit", 0);
  trace.record(270, "entry", "block.done", 0);
  const std::vector<std::int64_t> etas = {16, 16, 16, 16};
  const std::vector<sharing::ObservedStream> obs =
      sharing::observe_streams(spec, etas, trace);
  ASSERT_EQ(obs.size(), 4u);
  EXPECT_EQ(obs[0].blocks, 2);
  EXPECT_EQ(obs[0].max_service, 70);
  EXPECT_EQ(obs[0].max_spacing, 120);
  // Streams with no events stay at the -1 sentinels.
  EXPECT_EQ(obs[1].blocks, 0);
  EXPECT_EQ(obs[1].max_service, -1);
  EXPECT_EQ(obs[1].max_spacing, -1);
  // Bounds come from the analysis and are positive for a sane spec.
  for (const sharing::ObservedStream& s : obs) {
    EXPECT_GT(s.service_bound, 0);
    EXPECT_GT(s.spacing_bound, 0);
  }
}

}  // namespace
}  // namespace acc
