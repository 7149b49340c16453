// acc-lint rule-catalog tests: every rule has a passing and a failing
// fixture (tests/lint/fixtures/<RULE>_{ok,bad}.json), the failing one must
// raise exactly that rule, and the acc-lint-v1 JSON document must satisfy
// its golden schema (plus negatives for every schema clause).
#include "lint/linter.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/fault.hpp"

#ifndef ACC_LINT_FIXTURE_DIR
#error "build must define ACC_LINT_FIXTURE_DIR"
#endif

namespace acc::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(ACC_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// Lint a configuration document given as JSON text.
LintReport lint_text(const std::string& text, const std::string& name,
                     const LintOptions& opts = {}) {
  return lint_config_json(json::parse_or_throw(text), name, opts);
}

LintReport lint_fixture(const std::string& name) {
  return lint_text(read_fixture(name), name);
}

sharing::SharedSystemSpec small_spec() {
  sharing::SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample = {1, 1};
  spec.chain.entry_cycles_per_sample = 15;
  spec.chain.exit_cycles_per_sample = 1;
  spec.streams = {{"a", Rational(1, 50), 4100}, {"b", Rational(1, 80), 4100}};
  return spec;
}

// Every catalog rule has a seeded-bad fixture that raises exactly it, and a
// passing sibling that does not. Error-tier rules must also flip clean().
TEST(LintFixtures, EveryRuleHasBehavingOkAndBadFixtures) {
  for (const RuleInfo& r : kRules) {
    SCOPED_TRACE(r.id);
    // V* rules are emitted by the acc-verify model checker, not the static
    // linter; their mutation fixtures live in tests/verify/fixtures and are
    // exercised by test_verify + the verify_cli_rejects_* ctest cases.
    if (r.id[0] == 'V') continue;
    const LintReport ok = lint_fixture(std::string(r.id) + "_ok.json");
    EXPECT_FALSE(ok.has(r.id)) << ok.to_text();
    EXPECT_TRUE(ok.clean()) << ok.to_text();

    const LintReport bad = lint_fixture(std::string(r.id) + "_bad.json");
    EXPECT_TRUE(bad.has(r.id)) << bad.to_text();
    if (r.severity == Severity::kError) {
      EXPECT_FALSE(bad.clean()) << bad.to_text();
    } else {
      // Warning/note tier never gates deployment.
      EXPECT_TRUE(bad.clean()) << bad.to_text();
    }
  }
}

// The acceptance scenarios from the issue, by expected rule ID.
TEST(LintFixtures, SeededBadConfigsRaiseTheExpectedRule) {
  EXPECT_TRUE(lint_fixture("M01_bad.json").has("graph-inconsistent"));
  EXPECT_TRUE(lint_fixture("M03_bad.json").has("channel-undersized"));
  EXPECT_TRUE(lint_fixture("M10_bad.json").has("fifo-undersized"));
  EXPECT_TRUE(lint_fixture("G01_bad.json").has("gateway-unpaired"));
  EXPECT_TRUE(lint_fixture("M04_bad.json").has("eta-positive"));
  EXPECT_TRUE(lint_fixture("F02_bad.json").has("fault-unseeded"));
  EXPECT_TRUE(lint_fixture("C02_bad.json").has("ctrl-mu-unsatisfiable"));
  EXPECT_TRUE(lint_fixture("G03_bad.json").has("ctrl-kind-undeclared"));
}

TEST(LintRules, FindRuleByIdAndName) {
  ASSERT_NE(find_rule("M04"), nullptr);
  EXPECT_STREQ(find_rule("M04")->name, "eta-positive");
  EXPECT_EQ(find_rule("eta-positive"), find_rule("M04"));
  EXPECT_EQ(find_rule("Z99"), nullptr);
  EXPECT_EQ(find_rule(""), nullptr);
}

TEST(LintRules, CatalogIdsAreUnique) {
  for (int i = 0; i < kNumRules; ++i) {
    for (int j = i + 1; j < kNumRules; ++j) {
      EXPECT_STRNE(kRules[i].id, kRules[j].id);
      EXPECT_STRNE(kRules[i].name, kRules[j].name);
    }
  }
}

TEST(LintReportTest, TextRenderingCarriesRuleLocationAndHint) {
  LintReport rep("cfg");
  rep.add("M04", "$.etas[1]", "eta is 0", "use Algorithm 1");
  const std::string text = rep.to_text();
  EXPECT_NE(text.find("cfg:$.etas[1]: error [M04 eta-positive] eta is 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hint: use Algorithm 1"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 0 warning(s), 0 note(s)"),
            std::string::npos);
}

TEST(LintReportTest, SuppressMarksByIdAndByName) {
  LintReport rep("cfg");
  rep.add("M04", "$", "x");
  rep.add("M07", "$", "y");
  rep.add("D01", "$", "z");
  rep.suppress({"M04", "rng-unseeded"});
  // Suppressed diagnostics stay present (has() = presence, not gating)...
  EXPECT_TRUE(rep.has("M04"));
  EXPECT_TRUE(rep.has("D01"));
  EXPECT_TRUE(rep.has("M07"));
  // ...but leave the counts, the text rendering, and gate only via M07.
  EXPECT_EQ(rep.errors(), 1);
  EXPECT_EQ(rep.warnings(), 0);
  EXPECT_EQ(rep.to_text().find("M04"), std::string::npos);
  ASSERT_EQ(rep.diagnostics().size(), 3u);
  EXPECT_TRUE(rep.diagnostics()[0].suppressed);
  EXPECT_FALSE(rep.diagnostics()[1].suppressed);
  EXPECT_TRUE(rep.diagnostics()[2].suppressed);
}

TEST(LintReportTest, SuppressedDiagnosticsStayInJsonFlagged) {
  LintReport rep("cfg");
  rep.add("M04", "$", "x");
  rep.suppress({"M04"});
  const json::Value doc = rep.to_json();
  ASSERT_EQ(validate_lint_json(doc), std::vector<std::string>{});
  const json::Value& d = doc.at("diagnostics").as_array().at(0);
  EXPECT_EQ(d.at("rule").as_string(), "M04");
  EXPECT_TRUE(d.at("suppressed").as_bool());
  EXPECT_EQ(doc.at("summary").at("errors").as_int(), 0);
}

TEST(LintReportTest, UnknownCliAllowIsAConfigError) {
  LintOptions opts;
  opts.suppress = {"Z99"};
  const LintReport rep = lint_text("{}", "cfg", opts);
  EXPECT_TRUE(rep.has("C01"));
  EXPECT_FALSE(rep.clean());
  bool found = false;
  for (const Diagnostic& d : rep.diagnostics()) {
    if (d.rule == "C01" && d.location == "$.options.allow") found = true;
  }
  EXPECT_TRUE(found) << rep.to_text();
}

TEST(LintReportTest, JsonCarriesToolAndSchemaVersion) {
  const json::Value doc = LintReport("cfg").to_json();
  EXPECT_EQ(doc.at("tool_version").as_string(), kToolVersion);
  EXPECT_EQ(doc.at("schema_version").as_int(), kSchemaVersion);
}

TEST(LintReportTest, ConfigSuppressSectionAndCliAllowBothApply) {
  // The M07 fixture problem (ni_capacity = 1) suppressed from the config...
  std::string text = read_fixture("M07_bad.json");
  text.insert(text.rfind('}'), ", \"suppress\": [\"M07\"]");
  EXPECT_TRUE(lint_text(text, "cfg").clean());
  // ...and equivalently from the CLI options (--allow).
  LintOptions opts;
  opts.suppress = {"ni-capacity"};
  EXPECT_TRUE(lint_text(read_fixture("M07_bad.json"), "cfg", opts)
                  .clean());
}

TEST(LintReportTest, UnknownSuppressEntryIsAConfigError) {
  std::string text = read_fixture("C01_ok.json");
  text.insert(text.rfind('}'), ", \"suppress\": [\"Z99\"]");
  const LintReport rep = lint_text(text, "cfg");
  EXPECT_TRUE(rep.has("C01"));
  EXPECT_FALSE(rep.clean());
}

TEST(LintConfig, NonObjectDocumentYieldsSingleC01) {
  for (const char* text : {"[1, 2]", "42", "\"chain\"", "null"}) {
    const LintReport rep = lint_text(text, "cfg");
    ASSERT_EQ(rep.diagnostics().size(), 1u) << text;
    EXPECT_EQ(rep.diagnostics()[0].rule, "C01") << text;
    EXPECT_EQ(rep.diagnostics()[0].location, "$") << text;
    EXPECT_FALSE(rep.clean()) << text;
  }
}

TEST(LintSpecApi, CleanSpecPassesBrokenSpecFails) {
  const auto lint_spec = [](const sharing::SharedSystemSpec& spec,
                            const std::vector<std::int64_t>& etas) {
    LintInput in;
    in.name = "s";
    in.spec = spec;
    in.etas = etas;
    return lint_input(in);
  };
  EXPECT_TRUE(lint_spec(small_spec(), {}).clean());
  sharing::SharedSystemSpec bad = small_spec();
  bad.chain.ni_capacity = 1;
  const LintReport rep = lint_spec(bad, {});
  EXPECT_TRUE(rep.has("M07"));
  EXPECT_FALSE(rep.clean());
  // Block sizes below 1 through the same entry point.
  EXPECT_TRUE(lint_spec(small_spec(), {0, 10}).has("M04"));
}

TEST(LintGate, NoLintFlagBypassesAndCleanInputPasses) {
  const char* argv_skip[] = {"prog", "--no-lint"};
  const char* argv_run[] = {"prog"};
  LintInput broken;
  broken.name = "broken";
  broken.spec = small_spec();
  broken.spec->chain.ni_capacity = 0;

  std::ostringstream err;
  EXPECT_TRUE(startup_gate(2, const_cast<char**>(argv_skip), broken, err));
  EXPECT_TRUE(err.str().empty());

  EXPECT_FALSE(startup_gate(1, const_cast<char**>(argv_run), broken, err));
  EXPECT_NE(err.str().find("M07"), std::string::npos);

  LintInput fine;
  fine.name = "fine";
  fine.spec = small_spec();
  std::ostringstream err2;
  EXPECT_TRUE(startup_gate(1, const_cast<char**>(argv_run), fine, err2));
}

TEST(LintGate, FaultsFromInjectorMirrorsActiveSites) {
  sim::FaultInjector inj(0xBEEF);
  sim::FaultSpec ring;
  ring.probability = 0.1;
  ring.max_delay = 4;
  inj.configure(sim::FaultSite::kRingLink, ring);
  const FaultsDecl fd = faults_from_injector(inj);
  EXPECT_TRUE(fd.seeded);
  EXPECT_EQ(fd.seed, 0xBEEFu);
  ASSERT_EQ(fd.sites.size(), 1u);  // inactive sites are not mirrored
  EXPECT_EQ(fd.sites[0].site, "ring_link");
  EXPECT_EQ(fd.sites[0].window_until, -1);  // open-ended window

  LintInput in;
  in.name = "inj";
  in.faults = fd;
  EXPECT_TRUE(lint_input(in).clean());

  // The same declaration shape with an out-of-range law (which the live
  // FaultInjector would refuse to even construct) is caught by F03.
  FaultsDecl handmade = fd;
  handmade.sites[0].max_delay = 0;  // delay law without a bound
  LintInput in2;
  in2.faults = handmade;
  EXPECT_TRUE(lint_input(in2).has("F03"));
}

// ---------------------------------------------------------------------------
// acc-lint-v1 JSON golden schema.
// ---------------------------------------------------------------------------

json::Value sample_doc() {
  LintReport rep("cfg");
  rep.add("M07", "$.chain.ni_capacity", "capacity 1 < 2", "use >= 2");
  rep.add("D01", "$.determinism", "rng unseeded");
  return rep.to_json();
}

TEST(LintJsonSchema, ProducedDocumentValidates) {
  EXPECT_TRUE(validate_lint_json(sample_doc()).empty());
  // Empty report validates too.
  EXPECT_TRUE(validate_lint_json(LintReport("cfg").to_json()).empty());
}

TEST(LintJsonSchema, NegativeWrongSchemaString) {
  json::Value doc = sample_doc();
  doc.as_object()["schema"] = "acc-lint-v2";
  EXPECT_FALSE(validate_lint_json(doc).empty());
}

TEST(LintJsonSchema, NegativeMissingDiagnosticKey) {
  json::Value doc = sample_doc();
  doc.as_object()["diagnostics"].as_array()[0].as_object().erase("message");
  EXPECT_FALSE(validate_lint_json(doc).empty());
}

TEST(LintJsonSchema, NegativeUnknownRuleId) {
  json::Value doc = sample_doc();
  doc.as_object()["diagnostics"].as_array()[0].as_object()["rule"] = "Z99";
  EXPECT_FALSE(validate_lint_json(doc).empty());
}

TEST(LintJsonSchema, NegativeSeverityVocabularyAndCatalogMismatch) {
  json::Value doc = sample_doc();
  doc.as_object()["diagnostics"].as_array()[0].as_object()["severity"] =
      "fatal";
  EXPECT_FALSE(validate_lint_json(doc).empty());
  // A legal severity word that contradicts the rule's catalog tier is still
  // a breach (producers must not downgrade errors).
  json::Value doc2 = sample_doc();
  doc2.as_object()["diagnostics"].as_array()[0].as_object()["severity"] =
      "note";
  doc2.as_object()["summary"].as_object()["errors"] = 0;
  doc2.as_object()["summary"].as_object()["notes"] = 1;
  EXPECT_FALSE(validate_lint_json(doc2).empty());
}

TEST(LintJsonSchema, NegativeSummaryCountMismatch) {
  json::Value doc = sample_doc();
  doc.as_object()["summary"].as_object()["errors"] = 7;
  EXPECT_FALSE(validate_lint_json(doc).empty());
}

TEST(LintJsonSchema, NegativeToolVersionMissingOrEmpty) {
  json::Value doc = sample_doc();
  doc.as_object().erase("tool_version");
  EXPECT_FALSE(validate_lint_json(doc).empty());
  json::Value doc2 = sample_doc();
  doc2.as_object()["tool_version"] = "";
  EXPECT_FALSE(validate_lint_json(doc2).empty());
}

TEST(LintJsonSchema, NegativeSchemaVersionMissingOrWrong) {
  json::Value doc = sample_doc();
  doc.as_object().erase("schema_version");
  EXPECT_FALSE(validate_lint_json(doc).empty());
  json::Value doc2 = sample_doc();
  doc2.as_object()["schema_version"] = kSchemaVersion + 1;
  EXPECT_FALSE(validate_lint_json(doc2).empty());
  json::Value doc3 = sample_doc();
  doc3.as_object()["schema_version"] = "1";  // wrong kind
  EXPECT_FALSE(validate_lint_json(doc3).empty());
}

TEST(LintJsonSchema, NegativeSuppressedMissingOrWrongKind) {
  json::Value doc = sample_doc();
  doc.as_object()["diagnostics"].as_array()[0].as_object().erase("suppressed");
  EXPECT_FALSE(validate_lint_json(doc).empty());
  json::Value doc2 = sample_doc();
  doc2.as_object()["diagnostics"].as_array()[0].as_object()["suppressed"] =
      "no";
  EXPECT_FALSE(validate_lint_json(doc2).empty());
}

TEST(LintJsonSchema, SuppressedDiagnosticsLeaveSummaryTallies) {
  // A suppressed error in the array with summary.errors = 0 is VALID...
  LintReport rep("cfg");
  rep.add("M07", "$", "x");
  rep.suppress({"M07"});
  EXPECT_TRUE(validate_lint_json(rep.to_json()).empty());
  // ...and counting it anyway is a breach.
  json::Value doc = rep.to_json();
  doc.as_object()["summary"].as_object()["errors"] = 1;
  EXPECT_FALSE(validate_lint_json(doc).empty());
}

TEST(LintJsonSchema, NegativeDiagnosticsNotArray) {
  json::Value doc = sample_doc();
  doc.as_object()["diagnostics"] = "none";
  EXPECT_FALSE(validate_lint_json(doc).empty());
}

// The golden PAL document shipped in tests/lint/golden must itself satisfy
// the schema (the byte-level diff against acc-lint --json runs in ctest).
TEST(LintJsonSchema, CommittedPalGoldenValidates) {
  const std::string text =
      read_fixture("../golden/pal_decoder.lint.json");
  const std::optional<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const std::vector<std::string> problems = validate_lint_json(*doc);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
  // And it must be a CLEAN verdict: the shipped PAL config has no errors.
  EXPECT_EQ(doc->at("summary").at("errors").as_int(), 0);
}

}  // namespace
}  // namespace acc::lint
