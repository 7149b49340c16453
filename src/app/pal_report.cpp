#include "app/pal_report.hpp"

#include "obs/run_report.hpp"
#include "sharing/report.hpp"

namespace acc::app {

const char* stepper_name(sim::StepperKind kind) {
  switch (kind) {
    case sim::StepperKind::kDense: return "dense";
    case sim::StepperKind::kWakeList: return "wake-list";
  }
  return "unknown";
}

json::Value pal_run_report(const PalSimConfig& cfg, const PalSimResult& res,
                           const obs::MetricsRegistry& registry,
                           const sim::TraceLog* trace) {
  const sharing::SharedSystemSpec spec = make_system_spec(cfg);
  const std::vector<std::int64_t> etas = {res.eta_stage1, res.eta_stage1,
                                          res.eta_stage2, res.eta_stage2};

  // With no trace there is nothing to join; an empty log yields the bounds
  // with observed = -1, which the schema renders as margin = bound.
  const sim::TraceLog empty{1};
  const std::vector<sharing::ObservedStream> observed =
      sharing::observe_streams(spec, etas, trace != nullptr ? *trace : empty);

  obs::RunReportInput in;
  in.workload = "pal-decoder";
  in.cycles_run = res.cycles_run;
  in.stepper = stepper_name(cfg.stepper);
  in.params["input_samples"] =
      json::Value(static_cast<std::int64_t>(cfg.input_samples));
  in.params["input_period"] = json::Value(cfg.input_period);
  in.params["epsilon"] = json::Value(cfg.epsilon);
  in.params["delta"] = json::Value(cfg.delta);
  in.params["reconfig"] = json::Value(cfg.reconfig);
  in.params["eta_stage1"] = json::Value(res.eta_stage1);
  in.params["eta_stage2"] = json::Value(res.eta_stage2);
  in.params["gamma"] = json::Value(res.gamma);
  in.verdict["source_drops"] = json::Value(res.source_drops);
  in.verdict["sink_underruns"] = json::Value(res.sink_underruns);
  in.verdict["realtime_met"] =
      json::Value(res.source_drops == 0 && res.sink_underruns == 0);

  for (std::size_t s = 0; s < spec.num_streams(); ++s) {
    obs::RunReportStream row;
    row.id = static_cast<std::int64_t>(s);
    row.name = spec.streams[s].name;
    row.eta = etas[s];
    row.blocks = observed[s].blocks;
    row.service_observed = observed[s].max_service;
    row.service_bound = observed[s].service_bound;
    row.spacing_observed = observed[s].max_spacing;
    row.spacing_bound = observed[s].spacing_bound;
    in.streams.push_back(std::move(row));
  }
  return obs::run_report_doc(in, registry, trace);
}

}  // namespace acc::app
