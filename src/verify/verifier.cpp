#include "verify/verify.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "lint/rules.hpp"
#include "sim/flit.hpp"
#include "verify/explorer.hpp"
#include "verify/model.hpp"
#include "verify/wake_audit.hpp"

namespace acc::verify {

namespace {

sim::Flit stream_flit(std::int32_t s) {
  return sim::pack_sample(CQ16{Q16::from_raw(s + 1), Q16::from_raw(0)});
}

/// Re-apply every VALID suppression to a report that gained diagnostics
/// after the initial lint pass (the V* findings must honour the same
/// "suppress" section and --allow flags as lint rules). Invalid entries
/// were already turned into C01 diagnostics by the linter — passing them
/// again would be harmless, but filtering keeps the call minimal.
void apply_suppressions(lint::LintReport& rep,
                        const std::vector<std::string>& config_suppress,
                        const lint::LintOptions& lint_opts) {
  std::vector<std::string> valid;
  for (const std::string& s : config_suppress)
    if (lint::find_rule(s) != nullptr) valid.push_back(s);
  for (const std::string& s : lint_opts.suppress)
    if (lint::find_rule(s) != nullptr) valid.push_back(s);
  if (!valid.empty()) rep.suppress(valid);
}

void apply_cli_overrides(const VerifyOptions& opts, ModelSpec& ms) {
  if (opts.depth > 0) ms.depth = opts.depth;
  if (opts.states > 0) ms.states = opts.states;
  if (opts.max_advance > 0) ms.max_advance = opts.max_advance;
}

/// Wake-soundness audit (V05): drive a fresh model DENSELY through two
/// feed -> run-to-rest rounds with the audit installed as every
/// component's wake hub. Two rounds cover both the cold-start admission
/// path and re-admission out of the drained state. Only run when the
/// exploration was clean — an exploration violation means the model
/// misbehaves, and auditing wake plumbing on a broken protocol would
/// produce noise, not signal.
void run_wake_audit(const ModelSpec& ms, lint::LintReport& rep) {
  Model m(ms);
  WakeAudit audit(m.sys);
  const auto resting = [&] {
    for (const sim::CFifo* in : m.inputs)
      if (in->true_fill() > 0) return false;
    if (!m.chain.entry->is_idle() || !m.chain.exit->idle()) return false;
    for (const sim::AcceleratorTile* a : m.chain.accels)
      if (!a->drained()) return false;
    return m.sys.ring().data().idle() && m.sys.ring().credit().idle();
  };
  for (int round = 0; round < 2; ++round) {
    const sim::Cycle now = m.sys.now();
    for (std::size_t s = 0; s < m.inputs.size(); ++s) {
      for (std::int64_t i = 0; i < ms.etas[s]; ++i)
        m.inputs[s]->push(now, stream_flit(static_cast<std::int32_t>(s)));
    }
    (void)audit.run_until(resting, ms.max_advance);
    const sim::Cycle drain_now = m.sys.now();
    for (sim::CFifo* out : m.outputs)
      while (out->can_pop(drain_now)) (void)out->pop(drain_now);
  }
  // One diagnostic per offending component slot (a lying horizon would
  // otherwise fire every cycle).
  std::set<std::size_t> reported;
  std::int64_t extra = 0;
  for (const WakeViolation& v : audit.violations()) {
    if (!reported.insert(v.slot).second) {
      ++extra;
      continue;
    }
    rep.add("V05", "$.verify",
            "component slot " + std::to_string(v.slot) +
                " declared next_event = " +
                (v.declared == sim::kNeverCycle
                     ? std::string("never")
                     : std::to_string(v.declared)) +
                " at cycle " + std::to_string(v.armed_at) +
                " but its frozen state changed at cycle " +
                std::to_string(v.at) + " without a wake",
            "its next_event() overpromises quiescence, or an interaction "
            "point fails to route a wake (see sim/wake.hpp) — the wake-list "
            "stepper would diverge from dense semantics here");
  }
  if (extra > 0) {
    rep.add("V05", "$.verify",
            std::to_string(extra) +
                " further frozen-state changes inside declared quiescent "
                "windows were elided (same components)",
            "fix the first finding per component and re-run");
  }
}

}  // namespace

std::string action_name(const Action& a) {
  switch (a.kind) {
    case Action::Kind::kFeed:
      return "feed s" + std::to_string(a.stream);
    case Action::Kind::kDrain:
      return "drain s" + std::to_string(a.stream);
    case Action::Kind::kStep:
      return "step";
    case Action::Kind::kRun:
      return "run";
  }
  return "?";
}

VerifyResult verify_config_json(const json::Value& doc,
                                const std::string& name,
                                const VerifyOptions& opts,
                                const lint::LintOptions& lint_opts) {
  VerifyResult r{lint::lint_config_json(doc, name, lint_opts)};
  if (!r.report.clean()) return r;  // lint gate: model nothing unsound

  // Re-parse for the model inputs; the scratch report stays clean because
  // the gate above already passed the same parse.
  lint::LintReport scratch(name);
  const lint::LintInput in = lint::parse_config(doc, name, scratch);

  ModelSpec ms;
  if (!build_model_spec(doc, in, ms, r.report)) {
    apply_suppressions(r.report, in.suppress, lint_opts);
    return r;
  }
  apply_cli_overrides(opts, ms);

  const ExploreResult ex = explore(ms, opts.jobs);
  r.explored = true;
  r.states_explored = ex.stats.states;
  r.depth_reached = ex.stats.depth;
  r.truncated = ex.stats.truncated;
  r.counterexample = ex.counterexample;
  for (const Violation& v : ex.violations)
    r.report.add(v.rule, "$.verify", v.message, v.hint);

  if (ex.violations.empty()) run_wake_audit(ms, r.report);

  apply_suppressions(r.report, in.suppress, lint_opts);
  return r;
}

std::string render_counterexample(const json::Value& doc,
                                  const std::string& name,
                                  const VerifyResult& r,
                                  const VerifyOptions& opts) {
  if (r.report.clean() || !r.explored) return {};

  // Deterministic replay against a fresh model: same spec, same actions,
  // same trajectory — the trace tail is the failing interleaving. When the
  // replay reproduces nothing (the findings came from the wake audit, not
  // the exploration), there is no counterexample to render.
  lint::LintReport scratch(name);
  const lint::LintInput in = lint::parse_config(doc, name, scratch);
  ModelSpec ms;
  if (!build_model_spec(doc, in, ms, scratch)) return {};
  apply_cli_overrides(opts, ms);

  Runner runner(ms);
  for (const Action& a : r.counterexample) runner.apply(a);
  if (runner.violations().empty()) return {};

  std::string out;
  out += "counterexample (" + name + "):\n";
  if (r.counterexample.empty()) {
    out += "  the INITIAL state violates the property — no actions needed\n";
  } else {
    for (std::size_t i = 0; i < r.counterexample.size(); ++i) {
      out += "  " + std::to_string(i + 1) + ". " +
             action_name(r.counterexample[i]) + "\n";
    }
  }
  for (const Violation& v : runner.violations())
    out += "  violates " + v.rule + ": " + v.message + "\n";

  const auto& events = runner.model().trace.events();
  if (!events.empty()) {
    out += "  trace tail:\n";
    const std::size_t first = events.size() > 12 ? events.size() - 12 : 0;
    for (std::size_t i = first; i < events.size(); ++i) {
      out += "    cycle " + std::to_string(events[i].cycle) + "  " +
             events[i].source + "  " + events[i].event + "  " +
             std::to_string(events[i].value) + "\n";
    }
  }
  return out;
}

}  // namespace acc::verify
