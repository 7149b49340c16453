// Golden schema for the acc-lint-v1 JSON document that acc-lint and
// acc-verify emit (LintReport::to_json): key presence and kinds, the
// severity and rule-ID vocabulary, and the semantic invariant that the
// summary counters match the diagnostics array. One problem string per
// breach; empty = valid.
//
// Test-only oracle (tests/lint/lint_test.cpp, tests/verify/verify_test.cpp):
// production code only writes the document.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "lint/diagnostics.hpp"
#include "lint/rules.hpp"

namespace acc::lint {

namespace detail {

inline void require(std::vector<std::string>& problems, bool ok,
                    const std::string& msg) {
  if (!ok) problems.push_back(msg);
}

}  // namespace detail

inline std::vector<std::string> validate_lint_json(const json::Value& doc) {
  using detail::require;
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.emplace_back("$: document must be an object");
    return problems;
  }
  const json::Value* schema = doc.find("schema");
  require(problems, schema != nullptr && schema->is_string() &&
                        schema->as_string() == "acc-lint-v1",
          "$.schema: must be the string \"acc-lint-v1\"");
  const json::Value* schema_version = doc.find("schema_version");
  require(problems,
          schema_version != nullptr && schema_version->is_int() &&
              schema_version->as_int() == kSchemaVersion,
          "$.schema_version: must be the integer " +
              std::to_string(kSchemaVersion));
  const json::Value* tool_version = doc.find("tool_version");
  require(problems,
          tool_version != nullptr && tool_version->is_string() &&
              !tool_version->as_string().empty(),
          "$.tool_version: must be a non-empty string");
  const json::Value* config = doc.find("config");
  require(problems, config != nullptr && config->is_string(),
          "$.config: must be a string");

  int errors = 0;
  int warnings = 0;
  int notes = 0;
  const json::Value* diags = doc.find("diagnostics");
  if (diags == nullptr || !diags->is_array()) {
    problems.emplace_back("$.diagnostics: must be an array");
  } else {
    for (std::size_t i = 0; i < diags->as_array().size(); ++i) {
      const std::string at = "$.diagnostics[" + std::to_string(i) + "]";
      const json::Value& d = diags->as_array()[i];
      if (!d.is_object()) {
        problems.push_back(at + ": must be an object");
        continue;
      }
      for (const char* key : {"rule", "name", "severity", "location",
                              "message", "hint"}) {
        const json::Value* v = d.find(key);
        require(problems, v != nullptr && v->is_string(),
                at + "." + key + ": must be a string");
      }
      const json::Value* suppressed = d.find("suppressed");
      require(problems, suppressed != nullptr && suppressed->is_bool(),
              at + ".suppressed: must be a boolean");
      const bool is_suppressed = suppressed != nullptr &&
                                 suppressed->is_bool() &&
                                 suppressed->as_bool();
      const json::Value* rule = d.find("rule");
      const RuleInfo* info =
          rule != nullptr && rule->is_string() ? find_rule(rule->as_string())
                                               : nullptr;
      require(problems, info != nullptr,
              at + ".rule: not a catalog rule ID");
      const json::Value* sev = d.find("severity");
      if (sev != nullptr && sev->is_string()) {
        const std::string& s = sev->as_string();
        // Suppressed diagnostics stay in the array but leave the summary
        // tallies (the semantic the producer's counts implement).
        if (s == "error") {
          errors += is_suppressed ? 0 : 1;
        } else if (s == "warning") {
          warnings += is_suppressed ? 0 : 1;
        } else if (s == "note") {
          notes += is_suppressed ? 0 : 1;
        } else {
          problems.push_back(at + ".severity: must be error|warning|note");
        }
        // The document must carry the catalog severity for the rule — a
        // producer downgrading an error to a note is a schema breach.
        if (info != nullptr) {
          require(problems, s == severity_name(info->severity),
                  at + ".severity: does not match catalog severity of " +
                      info->id);
        }
      }
    }
  }

  const json::Value* summary = doc.find("summary");
  if (summary == nullptr || !summary->is_object()) {
    problems.emplace_back("$.summary: must be an object");
  } else {
    for (const char* key : {"errors", "warnings", "notes"}) {
      const json::Value* v = summary->find(key);
      require(problems, v != nullptr && v->is_int(),
              std::string("$.summary.") + key + ": must be an integer");
    }
    if (problems.empty()) {
      require(problems, summary->at("errors").as_int() == errors,
              "$.summary.errors: does not match diagnostics[]");
      require(problems, summary->at("warnings").as_int() == warnings,
              "$.summary.warnings: does not match diagnostics[]");
      require(problems, summary->at("notes").as_int() == notes,
              "$.summary.notes: does not match diagnostics[]");
    }
  }
  return problems;
}

}  // namespace acc::lint
