#include "lint/diagnostics.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace acc::lint {

void LintReport::add(std::string_view rule, std::string location,
                     std::string message, std::string hint) {
  const RuleInfo* info = find_rule(rule);
  ACC_EXPECTS_MSG(info != nullptr,
                  "unknown lint rule '" + std::string(rule) + "'");
  diags_.push_back(Diagnostic{info->id, info->name, info->severity,
                              std::move(location), std::move(message),
                              std::move(hint)});
}

bool LintReport::has(std::string_view rule) const {
  return std::any_of(diags_.begin(), diags_.end(), [&](const Diagnostic& d) {
    return d.rule == rule || d.name == rule;
  });
}

void LintReport::suppress(const std::vector<std::string>& rules) {
  if (rules.empty()) return;
  for (Diagnostic& d : diags_) {
    if (std::find(rules.begin(), rules.end(), d.rule) != rules.end() ||
        std::find(rules.begin(), rules.end(), d.name) != rules.end()) {
      d.suppressed = true;
    }
  }
}

int LintReport::count(Severity s) const {
  return static_cast<int>(std::count_if(
      diags_.begin(), diags_.end(), [s](const Diagnostic& d) {
        return d.severity == s && !d.suppressed;
      }));
}

std::string LintReport::to_text() const {
  std::ostringstream os;
  for (const Diagnostic& d : diags_) {
    if (d.suppressed) continue;
    os << config_;
    if (!d.location.empty()) os << ':' << d.location;
    os << ": " << severity_name(d.severity) << " [" << d.rule << " "
       << d.name << "] " << d.message << '\n';
    if (!d.hint.empty()) os << "    hint: " << d.hint << '\n';
  }
  os << config_ << ": " << errors() << " error(s), " << warnings()
     << " warning(s), " << notes() << " note(s)\n";
  return os.str();
}

json::Value LintReport::to_json() const {
  json::Array diags;
  for (const Diagnostic& d : diags_) {
    json::Object o;
    o["rule"] = d.rule;
    o["name"] = d.name;
    o["severity"] = severity_name(d.severity);
    o["location"] = d.location;
    o["message"] = d.message;
    o["hint"] = d.hint;
    o["suppressed"] = d.suppressed;
    diags.emplace_back(std::move(o));
  }
  json::Object summary;
  summary["errors"] = errors();
  summary["warnings"] = warnings();
  summary["notes"] = notes();
  json::Object root;
  root["schema"] = "acc-lint-v1";
  root["schema_version"] = kSchemaVersion;
  root["tool_version"] = kToolVersion;
  root["config"] = config_;
  root["summary"] = std::move(summary);
  root["diagnostics"] = std::move(diags);
  return root;
}

}  // namespace acc::lint
