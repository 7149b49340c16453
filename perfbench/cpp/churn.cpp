// Workload `churn_sessions`: app::run_admission_churn(cfg, kWakeList) on
// seeded join/leave traces, each cut right after its 320th admitted
// session (about 900 events). Departed sessions' tiles stay registered, so
// every active cycle walks hundreds of parked slots — the stepper is used
// very differently from the PAL decode. The same traces also drive online
// admission and live mode changes.
//
// A run replays two traces, the seed's own and one derived from it: the
// host cost of a 320-session replay still depends on its session mix by
// about 6 %, and two independent mixes halve what one mix can do to a run.
//
// decide_p50_us / decide_tail_us come from admission-only replays of the
// same traces (one fresh AdmissionController per replay, so every replay
// sees the cold cache the full run saw): only AdmissionController::admit is
// timed, and the replay's join decisions must equal the full run's.
//
// Output gate: decisions, state digest, audio checksum, cycle count and
// deadline misses of every timed replay equal the kDense reference replay
// of the same trace.
#include <cstdio>

#include "app/admission_churn.hpp"
#include "bench.hpp"
#include "ctrl/admission.hpp"
#include "ctrl/workload.hpp"
#include "lint/linter.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using namespace acc;

constexpr int kTraces = 2;

app::ChurnConfig churn_config(const Options& opt, int trace) {
  app::ChurnConfig cfg;
  cfg.workload.seed = trace == 0 ? opt.seed : opt.seed ^ 0x9e3779b97f4a7c15ULL;
  return cfg;
}

app::ChurnRunResult replay(const app::ChurnConfig& cfg,
                           sim::StepperKind stepper) {
  Scope scope("app.run_admission_churn");
  return app::run_admission_churn(cfg, stepper);
}

struct Join {
  bool accepted = false;
  bool cache_hit = false;
  std::int64_t eta = 0;
  ctrl::Time gamma = 0;
  std::int64_t work = 0;
  bool operator==(const Join&) const = default;
};

std::vector<Join> joins_of(const app::ChurnRunResult& r) {
  std::vector<Join> out;
  for (const app::ChurnDecision& d : r.decisions) {
    if (d.kind == "join") {
      out.push_back({d.accepted, d.cache_hit, d.eta, d.gamma, d.analysis_work});
    }
  }
  return out;
}

struct AdmitReplay {
  std::vector<Join> joins;
  std::vector<double> latency_us;  // one per admit() call
};

/// The control-plane half of run_admission_churn: the same requests, the
/// same active sets, no simulator. Only admit() is inside the clock.
AdmitReplay admission_replay(const app::ChurnConfig& cfg,
                             const std::vector<ctrl::SessionEvent>& events) {
  ctrl::AdmissionConfig ac;
  ac.chain.accel_cycles_per_sample.assign(cfg.accel_cycles.begin(),
                                          cfg.accel_cycles.end());
  ac.chain.entry_cycles_per_sample = cfg.epsilon;
  ac.chain.exit_cycles_per_sample = cfg.delta;
  ac.chain.ni_capacity = cfg.ni_capacity;
  ac.eta_max = cfg.eta_max;
  ac.eta_align = cfg.eta_align;
  ctrl::AdmissionController admission(ac);

  struct Session {
    bool live = false;
    ctrl::StreamRequest request;
  };
  std::vector<Session> sessions;
  std::vector<ctrl::StreamRequest> active;
  AdmitReplay out;
  for (const ctrl::SessionEvent& e : events) {
    if (e.kind == ctrl::SessionEvent::Kind::kLeave) {
      sessions[static_cast<std::size_t>(e.session)].live = false;
      continue;
    }
    const app::ChurnTemplate& t =
        cfg.templates[static_cast<std::size_t>(e.template_id)];
    Session s;
    s.request.name = t.name + "#" + std::to_string(e.session);
    s.request.mu = Rational(1, t.period);
    s.request.reconfig = t.reconfig;
    s.request.decimation = t.decimation;
    active.clear();
    for (const Session& o : sessions) {
      if (o.live) active.push_back(o.request);
    }
    const auto t0 = Clock::now();
    const ctrl::AdmissionDecision d = admission.admit(active, s.request);
    out.latency_us.push_back(1e6 * seconds_since(t0));
    out.joins.push_back(
        {d.accepted, d.cache_hit, d.eta, d.gamma, d.analysis_work});
    s.live = d.accepted;
    s.request.eta = d.eta;
    sessions.push_back(std::move(s));
  }
  return out;
}

/// Admitted sessions per replay. The trace is cut right after the join
/// that admits the last of them, so every seed replays the same number of
/// sessions (and hence parks the same number of slots): the seed moves the
/// session mix and timing, not the amount of work. ~1,000 events.
std::int64_t admitted_target(const Options& opt) { return opt.smoke ? 50 : 320; }

/// One trace of a run: its configuration (cut) and its events.
struct Trace {
  app::ChurnConfig cfg;
  std::vector<ctrl::SessionEvent> events;
};

/// Set-up of trace `trace`: the seeded events, cut at the target admission
/// count by an admission-only replay, and the static lint gate over the
/// configuration.
bool churn_setup(const Options& opt, int trace, Trace* t) {
  Scope scope("churn.setup");
  t->cfg = churn_config(opt, trace);
  t->cfg.workload.events = opt.smoke ? 400 : 2000;
  {
    Scope sc("ctrl.generate_session_trace");
    t->events = ctrl::generate_session_trace(t->cfg.workload);
  }
  const AdmitReplay a = admission_replay(t->cfg, t->events);
  std::int64_t accepted = 0;
  std::size_t join = 0;
  for (std::size_t i = 0; i < t->events.size(); ++i) {
    if (t->events[i].kind != ctrl::SessionEvent::Kind::kJoin) continue;
    if (a.joins[join++].accepted && ++accepted == admitted_target(opt)) {
      // generate_session_trace draws events in order, so a shorter trace
      // of the same seed is exactly this prefix.
      t->cfg.workload.events = static_cast<std::int32_t>(i + 1);
      t->events.resize(i + 1);
      break;
    }
  }
  Scope sc("lint.lint_input");
  return accepted == admitted_target(opt) &&
         lint::lint_input(app::churn_lint_input(t->cfg)).clean();
}

struct Digest {
  std::vector<Join> joins;
  sim::Cycle cycles = 0;
  std::uint64_t state = 0;
  std::uint64_t audio = 0;
  std::int64_t misses = 0;
  bool operator==(const Digest&) const = default;
};

Digest digest_of(const app::ChurnRunResult& r) {
  return {joins_of(r), r.cycles_run, r.digest, r.audio_checksum,
          r.deadline_misses};
}

}  // namespace

Result run_churn(const Options& opt) {
  Result res;
  // Set-up of both traces takes about two milliseconds; it is repeated once
  // per iteration below and setup_s is the median over the whole run.
  std::vector<double> setups;
  bool setup_ok = true;
  const auto timed_setup = [&](std::vector<Trace>& into) {
    const auto t0 = Clock::now();
    for (int k = 0; k < kTraces; ++k) {
      setup_ok = churn_setup(opt, k, &into[static_cast<std::size_t>(k)]) &&
                 setup_ok;
    }
    setups.push_back(seconds_since(t0));
  };
  std::vector<Trace> traces(kTraces);
  timed_setup(traces);

  std::vector<Digest> expect;
  std::int64_t samples = 0;
  std::int64_t misses = 0;
  for (const Trace& t : traces) {
    const app::ChurnRunResult warm = replay(t.cfg, sim::StepperKind::kWakeList);
    expect.push_back(digest_of(warm));
    samples += warm.samples_delivered;
    misses += warm.deadline_misses;
  }

  // Closed loop: both traces replayed, then admission-only replays of both
  // and one repeated set-up, so host-noise phases hit every measurement
  // alike.
  std::vector<std::vector<double>> walls(kTraces);
  DecisionMinima admits;
  std::int64_t mismatches = 0;
  std::int64_t admit_mismatches = 0;
  std::int64_t reps = 0;
  const auto start = Clock::now();
  const std::int64_t min_reps = opt.smoke ? 2 : 8;
  while (reps < min_reps || seconds_since(start) < opt.seconds) {
    for (std::size_t k = 0; k < traces.size(); ++k) {
      const auto t0 = Clock::now();
      const app::ChurnRunResult r =
          replay(traces[k].cfg, sim::StepperKind::kWakeList);
      walls[k].push_back(seconds_since(t0));
      if (!(digest_of(r) == expect[k])) ++mismatches;
    }
    for (int j = 0; j < 8; ++j) {
      std::vector<double> us;
      for (std::size_t k = 0; k < traces.size(); ++k) {
        const AdmitReplay a = admission_replay(traces[k].cfg, traces[k].events);
        if (a.joins != expect[k].joins) ++admit_mismatches;
        us.insert(us.end(), a.latency_us.begin(), a.latency_us.end());
      }
      admits.add(us);
    }
    std::vector<Trace> again(kTraces);
    timed_setup(again);
    for (std::size_t k = 0; k < traces.size(); ++k) {
      if (again[k].events.size() != traces[k].events.size()) setup_ok = false;
    }
    ++reps;
  }
  if (!setup_ok) res.mismatch("churn: trace cut or lint gate failed");
  if (mismatches > 0) res.mismatch("churn: timed replays disagree");
  if (admit_mismatches > 0) {
    res.mismatch("churn: admission-only replay decisions differ");
  }
  for (std::size_t k = 0; k < traces.size(); ++k) {
    if (!(digest_of(replay(traces[k].cfg, sim::StepperKind::kDense)) ==
          expect[k])) {
      res.mismatch("churn: wake-list replay differs from the kDense reference");
    }
  }

  res.attempted = reps * samples;
  res.failed = reps * misses;
  if (!res.correct && res.failed == 0) res.failed = samples;

  double wall = 0.0;
  for (const std::vector<double>& w : walls) wall += fastest(w);
  res.add("setup_s", median(setups), "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MiB");
  // Work = session samples streamed end to end. Of the candidate work
  // units it tracks the replay cost best across seeds: at a fixed 320
  // admitted sessions, samples per host second spread 5 % over ten seeds in
  // one process, admitted sessions per second 7 % and simulated cycles per
  // second 10 % (interquartile range over median).
  res.add("work_per_s", static_cast<double>(samples) / wall, "1/s");
  admits.report(res, "one AdmissionController::admit call");

  char line[320];
  for (std::size_t k = 0; k < traces.size(); ++k) {
    std::snprintf(line, sizeof line,
                  "churn_sessions: trace %zu: %lld replays of %d events "
                  "(%lld sessions admitted), wall min %.1f / median %.1f ms, "
                  "%lld cycles",
                  k, static_cast<long long>(reps),
                  traces[k].cfg.workload.events,
                  static_cast<long long>(admitted_target(opt)),
                  1e3 * fastest(walls[k]), 1e3 * median(walls[k]),
                  static_cast<long long>(expect[k].cycles));
    res.note(line);
  }
  return res;
}

void trace_churn(const Options& opt, Result& res, bool selected) {
  // The per-layer counters and the attribution use the seed's own trace.
  Trace t;
  if (!churn_setup(opt, 0, &t)) {
    res.mismatch("churn: trace cut or lint gate failed");
  }
  const app::ChurnConfig& plain = t.cfg;
  const std::vector<ctrl::SessionEvent>& events = t.events;
  obs::MetricsRegistry reg;
  app::ChurnConfig cfg = plain;
  cfg.metrics = &reg;
  const auto t0 = Clock::now();
  const app::ChurnRunResult r = replay(cfg, sim::StepperKind::kWakeList);
  const double traced_one = seconds_since(t0);

  res.add("ctrl.cache_hit_ratio",
          r.cache_lookups > 0 ? static_cast<double>(r.cache_hits) /
                                    static_cast<double>(r.cache_lookups)
                              : 0.0,
          "ratio");
  res.add("ctrl.analysis_work", static_cast<double>(r.analysis_work),
          "work_units");
  res.add("ctrl.accepts", static_cast<double>(r.accepts), "count");
  res.add("ctrl.rejects", static_cast<double>(r.rejects), "count");
  res.add("ctrl.mode_changes", static_cast<double>(r.mode_changes), "count");
  res.add("ctrl.reconfig_cycles", static_cast<double>(r.reconfig_cycles),
          "cycles");
  char line[200];
  std::snprintf(line, sizeof line,
                "ctrl: %lld of %lld admission lookups hit the cache",
                static_cast<long long>(r.cache_hits),
                static_cast<long long>(r.cache_lookups));
  res.note(line);
  if (!selected) return;

  std::vector<double> walls;
  std::vector<double> traced{traced_one};
  for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
    Tracer::get().set_run(i + 1);
    auto t = Clock::now();
    (void)replay(plain, sim::StepperKind::kWakeList);
    walls.push_back(seconds_since(t));
    obs::MetricsRegistry again;
    app::ChurnConfig with = plain;
    with.metrics = &again;
    t = Clock::now();
    (void)replay(with, sim::StepperKind::kWakeList);
    traced.push_back(seconds_since(t));
  }
  const double wall = fastest(walls);
  res.add("obs.trace_overhead_ratio", fastest(traced) / wall, "ratio");

  // Attribution. C-FIFO tokens are derived from the decisions (each
  // accepted session pushes blocks_per_session * eta samples into its
  // input FIFO and its delivered samples into its output FIFO; session
  // FIFOs carry no registry wiring in run_admission_churn).
  std::int64_t in_tokens = 0;
  for (const app::ChurnDecision& d : r.decisions) {
    if (d.kind == "join" && d.accepted) {
      in_tokens += plain.blocks_per_session * d.eta;
    }
  }
  const AdmitReplay a = admission_replay(plain, events);
  double admit_s = 0.0;
  for (const double us : a.latency_us) admit_s += us * 1e-6;
  Attribution attr("churn_sessions", wall);
  attr.term("admission decisions", static_cast<double>(a.latency_us.size()),
            1e9 * admit_s / static_cast<double>(a.latency_us.size()));
  attr.term("C-FIFO push+pop",
            static_cast<double>(in_tokens + r.samples_delivered),
            res.value("sim.cfifo_push_pop_ns"));
  attr.term("ring flit trip", registry_sum(reg, "ring.", ".delivered", "value"),
            res.value("sim.ring_flit_ns"));
  attr.print(res);

  // Parked-slot growth: host ns per simulated cycle as the same seeded
  // trace grows (departed sessions stay registered, so later cycles walk
  // more parked slots).
  res.note("  host ns per simulated cycle as the trace grows:");
  const std::int32_t cut = plain.workload.events;
  for (const std::int32_t n : {cut / 4, cut / 2, cut, 2 * cut}) {
    app::ChurnConfig part = plain;
    part.workload.events = n;
    const auto t = Clock::now();
    const app::ChurnRunResult pr = replay(part, sim::StepperKind::kWakeList);
    const double s = seconds_since(t);
    std::snprintf(line, sizeof line,
                  "    %5d events: %4lld sessions admitted, %9lld cycles, "
                  "%6.1f ns/cycle",
                  n, static_cast<long long>(pr.accepts),
                  static_cast<long long>(pr.cycles_run),
                  1e9 * s / static_cast<double>(pr.cycles_run));
    res.note(line);
  }
}

}  // namespace perfbench
