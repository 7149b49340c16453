// Diagnostics produced by the model linter: rule-tagged, located findings
// with fix-it hints, renderable as human text or as the machine-readable
// acc-lint-v1 JSON document (schema pinned by the tests' validate_lint_json,
// in the same golden-schema style as common/bench_schema.hpp).
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "lint/rules.hpp"

namespace acc::lint {

/// Version stamp carried by every emitted JSON document (shared by acc-lint
/// and acc-verify — they produce the same document shape). The schema
/// version only moves on a breaking document-shape change.
inline constexpr const char* kToolVersion = "accshare 0.9.0";
inline constexpr int kSchemaVersion = 1;

/// One finding. `location` is a JSON-path-like pointer into the
/// configuration ("$.streams[2].reconfig"); for in-memory inputs the same
/// paths are synthesized so tooling sees one address space.
struct Diagnostic {
  std::string rule;      // stable ID from the catalog, e.g. "M04"
  std::string name;      // catalog mnemonic, e.g. "eta-positive"
  Severity severity = Severity::kError;
  std::string location;  // "$.etas[1]"; empty = whole config
  std::string message;   // what is wrong, with the offending values
  std::string hint;      // fix-it suggestion; may be empty
  /// Suppressed via config `suppress` / CLI `--allow`: excluded from the
  /// summary counts and the text rendering, but still present in the JSON
  /// document (auditability — a reader can see what was waived).
  bool suppressed = false;
};

class LintReport {
 public:
  explicit LintReport(std::string config_name)
      : config_(std::move(config_name)) {}

  /// Append a diagnostic for `rule` (catalog ID or name — must exist).
  void add(std::string_view rule, std::string location, std::string message,
           std::string hint = {});

  [[nodiscard]] const std::string& config() const { return config_; }
  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diags_;
  }
  /// Counts exclude suppressed diagnostics (a waived finding must not gate).
  [[nodiscard]] int errors() const { return count(Severity::kError); }
  [[nodiscard]] int warnings() const { return count(Severity::kWarning); }
  [[nodiscard]] int notes() const { return count(Severity::kNote); }
  /// Clean = deployable: no error-tier findings (warnings/notes allowed).
  [[nodiscard]] bool clean() const { return errors() == 0; }

  /// Does any diagnostic carry this rule (by ID or name)? Matches
  /// suppressed diagnostics too — presence, not gating.
  [[nodiscard]] bool has(std::string_view rule) const;

  /// Mark diagnostics whose rule ID or name appears in `rules` as
  /// suppressed. They stay in the report (and in the JSON document, flagged
  /// "suppressed": true) but leave the summary counts and text rendering.
  void suppress(const std::vector<std::string>& rules);

  /// Human-readable rendering, one "config:location: severity [ID] msg"
  /// line per non-suppressed diagnostic plus a summary line.
  [[nodiscard]] std::string to_text() const;

  /// The acc-lint-v1 JSON document (docs/static_analysis.md).
  [[nodiscard]] json::Value to_json() const;

 private:
  [[nodiscard]] int count(Severity s) const;

  std::string config_;
  std::vector<Diagnostic> diags_;
};

}  // namespace acc::lint
