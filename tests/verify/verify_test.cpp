// acc-verify model-checker tests: the clean fixture explores clean, every
// seeded mutation fixture (tests/verify/fixtures/V0x_bad.json) raises
// exactly its rule with a deterministically replayable counterexample, the
// exploration is byte-identical across --jobs values, suppression keeps
// V-rule findings visible in the JSON document, and the wake-soundness
// audit (V05) holds over the shared randomized-chain corpus.
#include "verify/verify.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "lint/diagnostics.hpp"
#include "verify/model.hpp"
#include "verify/wake_audit.hpp"

#include "../support/random_chain.hpp"

#ifndef ACC_VERIFY_FIXTURE_DIR
#error "build must define ACC_VERIFY_FIXTURE_DIR"
#endif

namespace acc::verify {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(ACC_VERIFY_FIXTURE_DIR) + "/" + name;
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

VerifyResult verify_fixture(const std::string& name,
                            const VerifyOptions& opts = {},
                            const lint::LintOptions& lint_opts = {}) {
  return verify_config_json(json::parse_or_throw(read_fixture(name)), name,
                            opts, lint_opts);
}

constexpr const char* kVRules[] = {"V01", "V02", "V03", "V04", "V05", "V06"};

TEST(VerifyClean, CleanFixtureExploresCleanToItsBudget) {
  const VerifyResult r = verify_fixture("clean.json");
  EXPECT_TRUE(r.explored);
  EXPECT_TRUE(r.report.clean()) << r.report.to_text();
  for (const char* rule : kVRules) EXPECT_FALSE(r.report.has(rule)) << rule;
  EXPECT_GT(r.states_explored, 0);
  EXPECT_EQ(r.depth_reached, 3);  // the fixture declares depth 3
  EXPECT_TRUE(r.counterexample.empty());
  // The report must satisfy the acc-lint-v1 schema even with zero findings.
  const std::vector<std::string> problems =
      lint::validate_lint_json(r.report.to_json());
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

// The lint gate: a configuration with a lint error is never modelled, so
// the report carries the lint finding and no V rule.
TEST(VerifyLintGate, LintErrorStopsBeforeExploration) {
  std::string text = read_fixture("clean.json");
  const std::string ni = "\"ni_capacity\": 2";
  ASSERT_NE(text.find(ni), std::string::npos);
  text.replace(text.find(ni), ni.size(), "\"ni_capacity\": 1");
  const VerifyResult r =
      verify_config_json(json::parse_or_throw(text), "ni1.json");
  EXPECT_FALSE(r.explored);
  EXPECT_EQ(r.states_explored, 0);
  EXPECT_TRUE(r.report.has("M07")) << r.report.to_text();
  EXPECT_FALSE(r.report.clean());
  for (const char* rule : kVRules) EXPECT_FALSE(r.report.has(rule)) << rule;
  EXPECT_TRUE(r.counterexample.empty());
}

// Each mutation fixture raises its mapped rule and ONLY its mapped rule —
// the 1:1 mapping is what makes the failing fixtures a rule catalog rather
// than a pile of broken configs.
TEST(VerifyMutations, EachFixtureRaisesExactlyItsRule) {
  for (const char* rule : kVRules) {
    SCOPED_TRACE(rule);
    const VerifyResult r =
        verify_fixture(std::string(rule) + "_bad.json");
    EXPECT_TRUE(r.explored);
    EXPECT_TRUE(r.report.has(rule)) << r.report.to_text();
    EXPECT_FALSE(r.report.clean());
    for (const char* other : kVRules) {
      if (other == rule) continue;
      EXPECT_FALSE(r.report.has(other))
          << rule << " fixture also raised " << other << "\n"
          << r.report.to_text();
    }
    const std::vector<std::string> problems =
        lint::validate_lint_json(r.report.to_json());
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
  }
}

// The first violation in (depth, frontier-order, action-order) is pinned:
// these exact counterexamples are also quoted in docs/static_analysis.md.
TEST(VerifyMutations, CounterexamplesAreTheExpectedActionSequences) {
  const Action feed0{Action::Kind::kFeed, 0};
  const Action step{Action::Kind::kStep, -1};
  const Action run{Action::Kind::kRun, -1};

  const VerifyResult v1 = verify_fixture("V01_bad.json");
  EXPECT_EQ(v1.counterexample, (std::vector<Action>{feed0, run}));

  // phantom_credit breaks credit conservation in the INITIAL state.
  const VerifyResult v2 = verify_fixture("V02_bad.json");
  EXPECT_TRUE(v2.counterexample.empty());
  EXPECT_FALSE(v2.report.clean());

  const VerifyResult v3 = verify_fixture("V03_bad.json");
  EXPECT_EQ(v3.counterexample, (std::vector<Action>{feed0, step}));

  const VerifyResult v4 = verify_fixture("V04_bad.json");
  EXPECT_EQ(v4.counterexample, (std::vector<Action>{feed0, run}));

  // V05 comes from the wake audit, not the exploration: no counterexample.
  const VerifyResult v5 = verify_fixture("V05_bad.json");
  EXPECT_TRUE(v5.counterexample.empty());
  EXPECT_TRUE(v5.report.has("V05")) << v5.report.to_text();

  // midround_reconfig fires on the first in-flight block: feed, then step.
  const VerifyResult v6 = verify_fixture("V06_bad.json");
  EXPECT_EQ(v6.counterexample, (std::vector<Action>{feed0, step}));
}

// Exploration must be byte-identical for any worker count: same report
// JSON, same counterexample, same budget accounting.
TEST(VerifyDeterminism, JobsDoNotChangeTheResult) {
  for (const char* fixture : {"clean.json", "V01_bad.json", "V04_bad.json"}) {
    SCOPED_TRACE(fixture);
    VerifyOptions one;
    one.jobs = 1;
    VerifyOptions four;
    four.jobs = 4;
    const VerifyResult a = verify_fixture(fixture, one);
    const VerifyResult b = verify_fixture(fixture, four);
    EXPECT_EQ(a.report.to_json().dump(), b.report.to_json().dump());
    EXPECT_EQ(a.counterexample, b.counterexample);
    EXPECT_EQ(a.states_explored, b.states_explored);
    EXPECT_EQ(a.depth_reached, b.depth_reached);
    EXPECT_EQ(a.truncated, b.truncated);
  }
}

TEST(VerifyRender, CounterexampleReplaysAgainstAFreshModel) {
  const std::string text = read_fixture("V01_bad.json");
  const std::optional<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const VerifyResult r = verify_config_json(*doc, "V01_bad.json");
  const std::string rendered =
      render_counterexample(*doc, "V01_bad.json", r);
  EXPECT_NE(rendered.find("1. feed s0"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("2. run"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("violates V01"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("trace tail:"), std::string::npos) << rendered;
}

TEST(VerifyRender, CleanReportRendersNothing) {
  const std::string text = read_fixture("clean.json");
  const std::optional<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const VerifyResult r = verify_config_json(*doc, "clean.json");
  EXPECT_TRUE(render_counterexample(*doc, "clean.json", r).empty());
}

TEST(VerifyRender, WakeAuditFindingsHaveNoReplay) {
  const std::string text = read_fixture("V05_bad.json");
  const std::optional<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const VerifyResult r = verify_config_json(*doc, "V05_bad.json");
  ASSERT_TRUE(r.report.has("V05"));
  // The exploration found nothing; replaying an empty action sequence
  // reproduces nothing, so no misleading "INITIAL state" banner appears.
  EXPECT_TRUE(render_counterexample(*doc, "V05_bad.json", r).empty());
}

// Suppressing a fired V rule (by ID or catalog name) un-gates the run but
// keeps the finding in the machine-readable document, marked suppressed —
// same contract as lint-rule suppression.
TEST(VerifySuppression, SuppressedVRuleStaysVisibleInJson) {
  for (const char* key : {"V01", "verify-deadlock"}) {
    SCOPED_TRACE(key);
    lint::LintOptions lint_opts;
    lint_opts.suppress = {key};
    const VerifyResult r = verify_fixture("V01_bad.json", {}, lint_opts);
    EXPECT_TRUE(r.report.clean()) << r.report.to_text();
    EXPECT_TRUE(r.report.has("V01"));
    const json::Value doc = r.report.to_json();
    const json::Value* diags = doc.find("diagnostics");
    ASSERT_NE(diags, nullptr);
    bool found = false;
    for (const json::Value& d : diags->as_array()) {
      if (d.find("rule")->as_string() != "V01") continue;
      found = true;
      const json::Value* sup = d.find("suppressed");
      ASSERT_NE(sup, nullptr);
      EXPECT_TRUE(sup->is_bool() && sup->as_bool());
    }
    EXPECT_TRUE(found);
  }
}

// V05 over the shared randomized-chain corpus: the production components'
// next_event horizons must be honest under every shape the differential
// stepper suites already stress — fault-free and fault-injected alike.
TEST(WakeAuditCorpus, RandomChainsAuditCleanly) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const bool with_fault = trial % 2 == 1;
    const sim::testsupport::Params p =
        sim::testsupport::random_params(rng, with_fault);
    SCOPED_TRACE("trial " + std::to_string(trial) +
                 (with_fault ? " (faulted)" : " (fault-free)"));
    sim::testsupport::Scenario s(p);
    WakeAudit audit(s.sys);
    (void)audit.run_until([] { return false; }, 6000);
    EXPECT_TRUE(audit.violations().empty())
        << audit.violations().size() << " missed-wake hazards, first at slot "
        << audit.violations().front().slot << " cycle "
        << audit.violations().front().at;
  }
}

// ...and the audit is not vacuous: planting the canonical lying component
// into one of those same scenarios is caught within a handful of cycles.
TEST(WakeAuditCorpus, AuditCatchesAPlantedLyingHorizon) {
  sim::testsupport::Params p;
  sim::testsupport::Scenario s(p);
  s.sys.add<LyingClock>();
  const std::size_t liar = s.sys.num_components() - 1;
  WakeAudit audit(s.sys);
  (void)audit.run_until([] { return false; }, 50);
  ASSERT_FALSE(audit.violations().empty());
  EXPECT_EQ(audit.violations().front().slot, liar);
}

}  // namespace
}  // namespace acc::verify
