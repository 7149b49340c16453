#include "common/bench_schema.hpp"

#include <fstream>
#include <iostream>

namespace acc {

namespace {

enum class Kind {
  kInt,
  kNumber,
  kNumberOrNull,  // measured rate that may be null (clock below resolution)
  kString,
  kBool,
  kArray,
  kObject,
};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kInt: return "integer";
    case Kind::kNumber: return "number";
    case Kind::kNumberOrNull: return "number or null";
    case Kind::kString: return "string";
    case Kind::kBool: return "bool";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

bool is_kind(const json::Value& v, Kind k) {
  switch (k) {
    case Kind::kInt: return v.is_int();
    case Kind::kNumber: return v.is_number();
    case Kind::kNumberOrNull: return v.is_number() || v.is_null();
    case Kind::kString: return v.is_string();
    case Kind::kBool: return v.is_bool();
    case Kind::kArray: return v.is_array();
    case Kind::kObject: return v.is_object();
  }
  return false;
}

/// Appends a problem (and returns nullptr) unless `obj` has member `key`
/// of kind `kind`.
const json::Value* require(const json::Value& obj, const std::string& path,
                           const std::string& key, Kind kind,
                           std::vector<std::string>* problems) {
  if (!obj.is_object()) {
    problems->push_back(path + ": expected an object");
    return nullptr;
  }
  const json::Value* v = obj.find(key);
  if (v == nullptr) {
    problems->push_back(path + ": missing required key \"" + key + "\"");
    return nullptr;
  }
  if (!is_kind(*v, kind)) {
    problems->push_back(path + "." + key + ": expected " + kind_name(kind));
    return nullptr;
  }
  return v;
}

void require_all(const json::Value& obj, const std::string& path,
                 const std::vector<std::pair<const char*, Kind>>& keys,
                 std::vector<std::string>* problems) {
  for (const auto& [key, kind] : keys)
    (void)require(obj, path, key, kind, problems);
}

}  // namespace

std::vector<std::string> validate_bench_faults(const json::Value& doc) {
  std::vector<std::string> problems;
  const json::Value* bench =
      require(doc, "$", "bench", Kind::kString, &problems);
  if (bench != nullptr && bench->as_string() != "faults")
    problems.push_back("$.bench: expected \"faults\"");
  (void)require(doc, "$", "seed", Kind::kInt, &problems);
  (void)require(doc, "$", "conformance_slack", Kind::kInt, &problems);
  const json::Value* pal =
      require(doc, "$", "pal", Kind::kObject, &problems);
  if (pal != nullptr) {
    require_all(*pal, "$.pal",
                {{"input_samples", Kind::kInt},
                 {"input_period", Kind::kInt},
                 {"reconfig", Kind::kInt},
                 {"notify_timeout", Kind::kInt}},
                &problems);
  }
  const json::Value* points =
      require(doc, "$", "points", Kind::kArray, &problems);
  if (points != nullptr) {
    if (points->as_array().empty())
      problems.push_back("$.points: expected at least one point");
    for (std::size_t i = 0; i < points->as_array().size(); ++i) {
      const std::string path = "$.points[" + std::to_string(i) + "]";
      require_all(points->as_array()[i], path,
                  {{"label", Kind::kString},
                   {"intensity", Kind::kNumber},
                   {"drop_notifications", Kind::kBool},
                   {"seed", Kind::kInt},
                   {"faults_injected", Kind::kInt},
                   {"notifications_dropped", Kind::kInt},
                   {"fault_delay_cycles", Kind::kInt},
                   {"fault_slack", Kind::kInt},
                   {"blocks_checked", Kind::kInt},
                   {"violations", Kind::kInt},
                   {"covered_by_slack", Kind::kInt},
                   {"genuine_breaches", Kind::kInt},
                   {"max_service_observed", Kind::kInt},
                   {"max_excess", Kind::kInt},
                   {"notify_timeouts", Kind::kInt},
                   {"notify_recoveries", Kind::kInt},
                   {"credit_stalls", Kind::kInt},
                   {"source_drops", Kind::kInt},
                   {"sink_underruns", Kind::kInt},
                   {"trace_truncated", Kind::kBool}},
                  &problems);
    }
  }
  const json::Value* summary =
      require(doc, "$", "summary", Kind::kObject, &problems);
  if (summary != nullptr) {
    require_all(*summary, "$.summary",
                {{"faults_injected", Kind::kInt},
                 {"covered_by_slack", Kind::kInt},
                 {"genuine_breaches", Kind::kInt}},
                &problems);
  }
  return problems;
}

std::vector<std::string> validate_bench_sim(const json::Value& doc) {
  std::vector<std::string> problems;
  const json::Value* bench =
      require(doc, "$", "bench", Kind::kString, &problems);
  if (bench != nullptr && bench->as_string() != "sim")
    problems.push_back("$.bench: expected \"sim\"");
  const json::Value* workload =
      require(doc, "$", "workload", Kind::kObject, &problems);
  if (workload != nullptr) {
    require_all(*workload, "$.workload",
                {{"input_samples", Kind::kInt},
                 {"input_period", Kind::kInt},
                 {"reconfig", Kind::kInt}},
                &problems);
  }
  const json::Value* runs =
      require(doc, "$", "runs", Kind::kArray, &problems);
  if (runs != nullptr) {
    // One row per stepper, in the fixed order the doc builder emits.
    static const char* kModes[] = {"dense", "wake_list"};
    if (runs->as_array().size() != 2)
      problems.push_back(
          "$.runs: expected exactly two runs (dense, wake_list)");
    for (std::size_t i = 0; i < runs->as_array().size(); ++i) {
      const std::string path = "$.runs[" + std::to_string(i) + "]";
      const json::Value& run = runs->as_array()[i];
      const json::Value* mode =
          require(run, path, "mode", Kind::kString, &problems);
      if (mode != nullptr && i < 2 && mode->as_string() != kModes[i])
        problems.push_back(path + ".mode: expected \"" +
                           std::string(kModes[i]) + "\"");
      require_all(run, path,
                  {{"wall_ms", Kind::kNumber},
                   {"cycles", Kind::kInt},
                   {"cycles_per_sec", Kind::kNumberOrNull},
                   {"dense_ticks", Kind::kInt},
                   {"skips", Kind::kInt},
                   {"skipped_cycles", Kind::kInt},
                   {"component_ticks", Kind::kInt},
                   {"horizon_queries", Kind::kInt},
                   {"wakes", Kind::kInt},
                   {"calendar_visits", Kind::kInt},
                   {"rearms", Kind::kInt},
                   {"sync_visits", Kind::kInt},
                   {"replays", Kind::kInt},
                   {"replayed_cycles", Kind::kInt},
                   {"replay_boundaries", Kind::kInt},
                   {"period_checks", Kind::kInt},
                   {"sink_samples", Kind::kInt},
                   {"source_drops", Kind::kInt},
                   {"sink_underruns", Kind::kInt},
                   {"blocks", Kind::kInt},
                   {"audio_checksum", Kind::kInt}},
                  &problems);
    }
  }
  (void)require(doc, "$", "speedup", Kind::kNumberOrNull, &problems);
  const json::Value* equivalent =
      require(doc, "$", "equivalent", Kind::kBool, &problems);
  if (equivalent != nullptr && !equivalent->as_bool())
    problems.push_back(
        "$.equivalent: the stepper runs diverged (steppers must be "
        "cycle-exact)");
  return problems;
}

std::vector<std::string> validate_bench_admission(const json::Value& doc) {
  std::vector<std::string> problems;
  const json::Value* bench =
      require(doc, "$", "bench", Kind::kString, &problems);
  if (bench != nullptr && bench->as_string() != "admission_churn")
    problems.push_back("$.bench: expected \"admission_churn\"");
  (void)require(doc, "$", "seed", Kind::kInt, &problems);
  (void)require(doc, "$", "events", Kind::kInt, &problems);
  (void)require(doc, "$", "max_concurrent", Kind::kInt, &problems);
  (void)require(doc, "$", "event_gap", Kind::kInt, &problems);
  (void)require(doc, "$", "eta_max", Kind::kInt, &problems);
  (void)require(doc, "$", "eta_align", Kind::kInt, &problems);
  (void)require(doc, "$", "blocks_per_session", Kind::kInt, &problems);
  const json::Value* chain =
      require(doc, "$", "chain", Kind::kObject, &problems);
  if (chain != nullptr) {
    require_all(*chain, "$.chain",
                {{"accelerators", Kind::kArray},
                 {"entry", Kind::kInt},
                 {"exit", Kind::kInt},
                 {"ni_capacity", Kind::kInt}},
                &problems);
  }
  const json::Value* templates =
      require(doc, "$", "templates", Kind::kArray, &problems);
  if (templates != nullptr) {
    if (templates->as_array().empty())
      problems.push_back("$.templates: expected at least one template");
    for (std::size_t i = 0; i < templates->as_array().size(); ++i) {
      const std::string path = "$.templates[" + std::to_string(i) + "]";
      require_all(templates->as_array()[i], path,
                  {{"name", Kind::kString},
                   {"period", Kind::kInt},
                   {"decimation", Kind::kInt},
                   {"reconfig", Kind::kInt}},
                  &problems);
    }
  }
  const json::Value* decisions =
      require(doc, "$", "decisions", Kind::kArray, &problems);
  if (decisions != nullptr) {
    if (decisions->as_array().empty())
      problems.push_back("$.decisions: expected at least one decision");
    for (std::size_t i = 0; i < decisions->as_array().size(); ++i) {
      const std::string path = "$.decisions[" + std::to_string(i) + "]";
      require_all(decisions->as_array()[i], path,
                  {{"i", Kind::kInt},
                   {"kind", Kind::kString},
                   {"session", Kind::kInt},
                   {"template", Kind::kInt},
                   {"accepted", Kind::kBool},
                   {"cache_hit", Kind::kBool},
                   {"reason", Kind::kString},
                   {"eta", Kind::kInt},
                   {"gamma", Kind::kInt},
                   {"analysis_work", Kind::kInt},
                   {"reconfig_cycles", Kind::kInt}},
                  &problems);
    }
  }
  const json::Value* steppers =
      require(doc, "$", "steppers", Kind::kArray, &problems);
  if (steppers != nullptr) {
    // One row per stepper, in the fixed order the doc builder emits.
    static const char* kSteppers[] = {"dense", "wake-list"};
    if (steppers->as_array().size() != 2)
      problems.push_back(
          "$.steppers: expected exactly two runs (dense, wake-list)");
    for (std::size_t i = 0; i < steppers->as_array().size(); ++i) {
      const std::string path = "$.steppers[" + std::to_string(i) + "]";
      const json::Value& run = steppers->as_array()[i];
      const json::Value* mode =
          require(run, path, "stepper", Kind::kString, &problems);
      if (mode != nullptr && i < 2 && mode->as_string() != kSteppers[i])
        problems.push_back(path + ".stepper: expected \"" +
                           std::string(kSteppers[i]) + "\"");
      require_all(run, path,
                  {{"cycles_run", Kind::kInt},
                   {"digest", Kind::kString},
                   {"audio_checksum", Kind::kString},
                   {"deadline_misses", Kind::kInt}},
                  &problems);
    }
  }
  const json::Value* summary =
      require(doc, "$", "summary", Kind::kObject, &problems);
  if (summary != nullptr) {
    require_all(*summary, "$.summary",
                {{"joins", Kind::kInt},
                 {"accepted", Kind::kInt},
                 {"rejected", Kind::kInt},
                 {"leaves", Kind::kInt},
                 {"leaves_skipped", Kind::kInt},
                 {"cache_lookups", Kind::kInt},
                 {"cache_hits", Kind::kInt},
                 {"analysis_work", Kind::kInt},
                 {"mode_changes", Kind::kInt},
                 {"reconfig_cycles", Kind::kInt},
                 {"samples_delivered", Kind::kInt},
                 {"source_drops", Kind::kInt},
                 {"sink_underruns", Kind::kInt},
                 {"deadline_misses", Kind::kInt},
                 {"audio_checksum", Kind::kString},
                 {"cycles_run", Kind::kInt}},
                &problems);
    const json::Value* joins = summary->find("joins");
    const json::Value* accepted = summary->find("accepted");
    const json::Value* rejected = summary->find("rejected");
    if (joins != nullptr && joins->is_int() && accepted != nullptr &&
        accepted->is_int() && rejected != nullptr && rejected->is_int() &&
        accepted->as_int() + rejected->as_int() != joins->as_int()) {
      problems.push_back(
          "$.summary: accepted + rejected must equal joins (every join is "
          "decided exactly once)");
    }
  }
  const json::Value* equivalent =
      require(doc, "$", "equivalent", Kind::kBool, &problems);
  if (equivalent != nullptr && !equivalent->as_bool())
    problems.push_back(
        "$.equivalent: the stepper runs diverged (steppers must be "
        "cycle-exact)");
  return problems;
}

namespace {

/// One {observed, bound, margin} cell of a stream row: the margin must be
/// the bound join the producer claims it is.
void check_margin_cell(const json::Value& row, const std::string& path,
                       const char* key, std::vector<std::string>* problems) {
  const json::Value* cell = require(row, path, key, Kind::kObject, problems);
  if (cell == nullptr) return;
  const std::string cpath = path + "." + key;
  const json::Value* observed =
      require(*cell, cpath, "observed", Kind::kInt, problems);
  const json::Value* bound =
      require(*cell, cpath, "bound", Kind::kInt, problems);
  const json::Value* margin =
      require(*cell, cpath, "margin", Kind::kInt, problems);
  if (observed == nullptr || bound == nullptr || margin == nullptr) return;
  const std::int64_t expect = observed->as_int() < 0
                                  ? bound->as_int()
                                  : bound->as_int() - observed->as_int();
  if (margin->as_int() != expect)
    problems->push_back(cpath + ".margin: expected bound - observed = " +
                        std::to_string(expect));
}

}  // namespace

std::vector<std::string> validate_run_report(const json::Value& doc) {
  std::vector<std::string> problems;
  const json::Value* report =
      require(doc, "$", "report", Kind::kString, &problems);
  if (report != nullptr && report->as_string() != "run")
    problems.push_back("$.report: expected \"run\"");
  (void)require(doc, "$", "version", Kind::kInt, &problems);
  (void)require(doc, "$", "workload", Kind::kString, &problems);
  (void)require(doc, "$", "params", Kind::kObject, &problems);
  (void)require(doc, "$", "cycles_run", Kind::kInt, &problems);
  const json::Value* stepper =
      require(doc, "$", "stepper", Kind::kString, &problems);
  if (stepper != nullptr && stepper->as_string() != "dense" &&
      stepper->as_string() != "wake-list")
    problems.push_back("$.stepper: expected \"dense\" or \"wake-list\"");
  (void)require(doc, "$", "verdict", Kind::kObject, &problems);

  const json::Value* streams =
      require(doc, "$", "streams", Kind::kArray, &problems);
  if (streams != nullptr) {
    if (streams->as_array().empty())
      problems.push_back("$.streams: expected at least one stream row");
    for (std::size_t i = 0; i < streams->as_array().size(); ++i) {
      const std::string path = "$.streams[" + std::to_string(i) + "]";
      const json::Value& row = streams->as_array()[i];
      require_all(row, path,
                  {{"id", Kind::kInt},
                   {"stream", Kind::kString},
                   {"eta", Kind::kInt},
                   {"blocks", Kind::kInt}},
                  &problems);
      check_margin_cell(row, path, "service", &problems);
      check_margin_cell(row, path, "spacing", &problems);
    }
  }

  const json::Value* adm =
      require(doc, "$", "admissions", Kind::kObject, &problems);
  if (adm != nullptr) {
    require_all(*adm, "$.admissions",
                {{"accepts", Kind::kInt},
                 {"rejects", Kind::kInt},
                 {"cache_lookups", Kind::kInt},
                 {"cache_hits", Kind::kInt},
                 {"mode_changes", Kind::kInt},
                 {"reconfig_cycles", Kind::kInt}},
                &problems);
  }

  (void)require(doc, "$", "metrics", Kind::kObject, &problems);
  const json::Value* trace =
      require(doc, "$", "trace", Kind::kObject, &problems);
  if (trace != nullptr) {
    require_all(*trace, "$.trace",
                {{"events", Kind::kInt},
                 {"dropped", Kind::kInt},
                 {"truncated", Kind::kBool}},
                &problems);
  }
  return problems;
}

bool write_bench_doc(const json::Value& doc, BenchValidator validate,
                     const std::string& path,
                     std::vector<std::string> problems) {
  const std::vector<std::string> schema = validate(doc);
  problems.insert(problems.begin(), schema.begin(), schema.end());
  if (!problems.empty()) {
    std::cerr << "not writing " << path << ", the document is invalid:\n";
    for (const std::string& p : problems) std::cerr << "  " << p << "\n";
    return false;
  }
  std::ofstream out(path);
  out << doc.pretty() << "\n";
  out.flush();
  if (!out) {
    std::cerr << "could not write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace acc
