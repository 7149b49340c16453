#include "obs/run_report.hpp"

namespace acc::obs {

namespace {

json::Object margin_cell(std::int64_t observed, std::int64_t bound) {
  json::Object cell;
  cell["observed"] = observed;
  cell["bound"] = bound;
  // Nothing observed (-1) trivially respects the bound: report the full
  // bound as margin so the "every margin >= 0" invariant reads uniformly.
  cell["margin"] = observed < 0 ? bound : bound - observed;
  return cell;
}

}  // namespace

json::Value run_report_doc(const RunReportInput& in,
                           const MetricsRegistry& metrics,
                           const sim::TraceLog* trace) {
  json::Object doc;
  doc["report"] = "run";
  doc["version"] = 1;
  doc["workload"] = in.workload;
  doc["params"] = in.params;
  doc["cycles_run"] = in.cycles_run;
  doc["stepper"] = in.stepper;
  doc["verdict"] = in.verdict;

  json::Array streams;
  for (const RunReportStream& s : in.streams) {
    json::Object row;
    row["id"] = s.id;
    row["stream"] = s.name;
    row["eta"] = s.eta;
    row["blocks"] = s.blocks;
    row["service"] = margin_cell(s.service_observed, s.service_bound);
    row["spacing"] = margin_cell(s.spacing_observed, s.spacing_bound);
    streams.emplace_back(std::move(row));
  }
  doc["streams"] = std::move(streams);

  json::Object adm;
  adm["accepts"] = in.admissions.accepts;
  adm["rejects"] = in.admissions.rejects;
  adm["cache_lookups"] = in.admissions.cache_lookups;
  adm["cache_hits"] = in.admissions.cache_hits;
  adm["mode_changes"] = in.admissions.mode_changes;
  adm["reconfig_cycles"] = in.admissions.reconfig_cycles;
  doc["admissions"] = std::move(adm);

  doc["metrics"] = metrics.snapshot_json();

  json::Object tr;
  if (trace != nullptr) {
    tr["events"] = static_cast<std::int64_t>(trace->events().size());
    tr["dropped"] = static_cast<std::int64_t>(trace->dropped());
    tr["truncated"] = trace->truncated();
  } else {
    tr["events"] = 0;
    tr["dropped"] = 0;
    tr["truncated"] = false;
  }
  doc["trace"] = std::move(tr);
  return doc;
}

}  // namespace acc::obs
