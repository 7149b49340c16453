#include "app/admission_churn.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "app/pal_report.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/parallel_for.hpp"
#include "ctrl/mode_change.hpp"
#include "sim/chain_builder.hpp"
#include "sim/proc_tile.hpp"

namespace acc::app {

namespace {

/// Session-completion polling chunk and per-session wait budget (cycles).
constexpr sim::Cycle kCompletionChunk = 256;
constexpr sim::Cycle kMaxSessionWait = 1 << 22;

// Functional kernels for the two templates. Pass models a unit-rate stage
// (filtering that keeps the sample rate); Decimate models the template's
// down-sampler, whose phase counter is exactly the per-context state the
// configuration bus moves on every context switch.
class Pass final : public accel::StreamKernel {
 public:
  void push(CQ16 in, std::vector<CQ16>& out) override { out.push_back(in); }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {};
  }
  void restore_state(std::span<const std::int32_t> state) override {
    ACC_EXPECTS(state.empty());
  }
  void reset() override {}
  [[nodiscard]] std::size_t state_words() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "churn.pass"; }
  [[nodiscard]] std::unique_ptr<accel::StreamKernel> clone_fresh()
      const override {
    return std::make_unique<Pass>();
  }
};

class Decimate final : public accel::StreamKernel {
 public:
  explicit Decimate(std::int64_t k) : k_(k) { ACC_EXPECTS(k >= 1); }
  void push(CQ16 in, std::vector<CQ16>& out) override {
    if (++n_ == k_) {
      n_ = 0;
      out.push_back(in);
    }
  }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {static_cast<std::int32_t>(n_)};
  }
  void restore_state(std::span<const std::int32_t> state) override {
    ACC_EXPECTS(state.size() == 1);
    n_ = state[0];
  }
  void reset() override { n_ = 0; }
  [[nodiscard]] std::size_t state_words() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "churn.decim"; }
  [[nodiscard]] std::unique_ptr<accel::StreamKernel> clone_fresh()
      const override {
    return std::make_unique<Decimate>(k_);
  }

 private:
  std::int64_t k_;
  std::int64_t n_ = 0;
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

constexpr std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

/// Session-scoped DAC model: consumes `expected` output samples on a fixed
/// grid (one per `period` after `prefill` samples are visible), counts one
/// underrun per missed grid slot, folds every delivered sample into an FNV
/// checksum, and PARKS once the session's output is fully delivered — a
/// departed session must not keep "underrunning" while it waits for its
/// leave event. Unlike sim::SinkTile, the deadline window is exactly the
/// session lifetime.
class SessionSink final : public sim::Component {
 public:
  SessionSink(std::string name, sim::CFifo& in, sim::Cycle period,
              std::int64_t expected, std::int64_t prefill)
      : name_(std::move(name)),
        in_(in),
        period_(period),
        expected_(expected),
        prefill_(std::min(prefill, expected)) {
    ACC_EXPECTS(period >= 1);
    ACC_EXPECTS(expected >= 1);
    ACC_EXPECTS(prefill >= 1);
    in_.add_push_watcher(this);
  }

  void tick(sim::Cycle now) override {
    if (done()) return;
    if (!started_) {
      if (in_.when_fill_visible(prefill_, now) <= now) {
        started_ = true;
        next_due_ = now;
      } else {
        return;
      }
    }
    if (now < next_due_) return;
    if (in_.can_pop(now)) {
      checksum_ = fnv_mix(checksum_, in_.pop(now));
      ++received_;
    } else {
      ++underruns_;  // DAC starved inside the session window
    }
    next_due_ += period_;
  }

  [[nodiscard]] sim::Cycle next_event(sim::Cycle now) const override {
    if (done()) return sim::kNeverCycle;
    if (!started_) {
      const sim::Cycle h = in_.when_fill_visible(prefill_, now);
      return h == sim::kNeverCycle ? sim::kNeverCycle : std::max(h, now + 1);
    }
    return std::max(next_due_, now + 1);
  }

  /// started_/next_due_/received_ drive every future action (received_
  /// gates done()); underruns_ and the checksum are lifetime data.
  void snapshot_state(sim::StateHasher& h) const override {
    h.mix(started_);
    h.mix_cycle(next_due_);
    h.mix(received_);
  }

  [[nodiscard]] bool done() const { return received_ >= expected_; }
  [[nodiscard]] std::int64_t received() const { return received_; }
  [[nodiscard]] std::int64_t underruns() const { return underruns_; }
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  std::string name_;
  sim::CFifo& in_;
  sim::Cycle period_;
  std::int64_t expected_;
  std::int64_t prefill_;
  bool started_ = false;
  sim::Cycle next_due_ = 0;
  std::int64_t received_ = 0;
  std::int64_t underruns_ = 0;
  std::uint64_t checksum_ = kFnvOffset;
};

struct Session {
  std::int32_t id = 0;
  std::int32_t template_id = 0;
  bool accepted = false;
  bool departed = false;
  ctrl::StreamRequest request;  // carries the deployed eta once admitted
  sim::SourceTile* source = nullptr;
  SessionSink* sink = nullptr;
};

/// Per-session input: derived from (workload seed, session id) only, so
/// both stepper runs feed bit-identical samples.
std::vector<sim::Flit> session_samples(std::uint64_t seed, std::int32_t id,
                                       std::int64_t count) {
  SplitMix64 rng(seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id) + 1)));
  std::vector<sim::Flit> out(static_cast<std::size_t>(count));
  for (sim::Flit& f : out) f = rng.next();
  return out;
}

ctrl::StreamRequest template_request(const ChurnTemplate& t,
                                     std::int32_t session) {
  ctrl::StreamRequest r;
  r.name = t.name + "#" + std::to_string(session);
  r.mu = Rational(1, t.period);
  r.reconfig = t.reconfig;
  r.decimation = t.decimation;
  return r;
}

void validate_config(const ChurnConfig& cfg) {
  ACC_EXPECTS_MSG(static_cast<std::int32_t>(cfg.templates.size()) >=
                      cfg.workload.num_templates,
                  "fewer templates than the workload draws from");
  ACC_EXPECTS(!cfg.accel_cycles.empty());
  ACC_EXPECTS(cfg.blocks_per_session >= 1 && cfg.prefill_blocks >= 1);
  ACC_EXPECTS(cfg.fifo_slack >= 1);
  ACC_EXPECTS(cfg.event_gap >= 1);
  for (const ChurnTemplate& t : cfg.templates) {
    ACC_EXPECTS(t.period >= 1 && t.decimation >= 1 && t.reconfig >= 0);
  }
}

}  // namespace

ChurnConfig small_churn_config() { return ChurnConfig{}; }

ChurnRunResult run_admission_churn(const ChurnConfig& cfg,
                                   sim::StepperKind stepper) {
  validate_config(cfg);
  const bool observed = stepper == sim::StepperKind::kWakeList;
  obs::MetricsRegistry* metrics = observed ? cfg.metrics : nullptr;
  sim::TraceLog* trace = observed ? cfg.trace : nullptr;

  const auto n_accels = static_cast<std::int32_t>(cfg.accel_cycles.size());
  sim::System sys(n_accels + 2);
  sim::ChainConfig cc;
  cc.name = "churn";
  cc.base_node = 0;
  cc.accel_cycles = cfg.accel_cycles;
  cc.epsilon = cfg.epsilon;
  cc.delta = cfg.delta;
  cc.ni_capacity = cfg.ni_capacity;
  cc.exit_notify_lag = cfg.exit_notify_lag;
  cc.trace = trace;
  cc.metrics = metrics;
  sim::GatewayChain chain = sim::build_gateway_chain(sys, cc);

  ctrl::AdmissionConfig ac;
  ac.chain.accel_cycles_per_sample.assign(cfg.accel_cycles.begin(),
                                          cfg.accel_cycles.end());
  ac.chain.entry_cycles_per_sample = cfg.epsilon;
  ac.chain.exit_cycles_per_sample = cfg.delta;
  ac.chain.ni_capacity = cfg.ni_capacity;
  ac.eta_max = cfg.eta_max;
  ac.eta_align = cfg.eta_align;
  ctrl::AdmissionController admission(ac);
  admission.set_metrics(metrics);

  ctrl::ModeChangeConfig mc;
  mc.sys = &sys;
  mc.entry = chain.entry;
  mc.accels = chain.accels;
  mc.stepper = stepper;
  mc.trace = trace;
  mc.metrics = metrics;
  ctrl::ModeChangeProtocol protocol(mc);

  ChurnRunResult res;
  res.kind = stepper;

  std::vector<Session> sessions;  // indexed by session id (join order)

  const auto active_requests = [&sessions] {
    std::vector<ctrl::StreamRequest> active;
    for (const Session& s : sessions) {
      if (s.accepted && !s.departed) active.push_back(s.request);
    }
    return active;
  };

  const auto wait_for_completion = [&](Session& s) {
    const sim::Cycle start = sys.now();
    while (!(s.source->exhausted() && s.sink->done())) {
      ACC_CHECK_MSG(sys.now() - start <= kMaxSessionWait,
                    "session failed to complete within its wait budget");
      sys.run_with(stepper, kCompletionChunk);
    }
  };

  const auto depart = [&](Session& s, ChurnDecision& rec) {
    // A departure is graceful: the session finishes its scripted content,
    // then the mode-change protocol unplugs it at a round boundary.
    wait_for_completion(s);
    rec.reconfig_cycles = protocol.leave(s.id);
    s.departed = true;
    ++res.mode_changes;
    res.reconfig_cycles += rec.reconfig_cycles;
  };

  const std::vector<ctrl::SessionEvent> events =
      ctrl::generate_session_trace(cfg.workload);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ctrl::SessionEvent& e = events[i];
    ChurnDecision rec;
    rec.event_index = static_cast<std::int32_t>(i);
    rec.session = e.session;
    if (e.kind == ctrl::SessionEvent::Kind::kJoin) {
      ACC_CHECK(e.session == static_cast<std::int32_t>(sessions.size()));
      const ChurnTemplate& t =
          cfg.templates[static_cast<std::size_t>(e.template_id)];
      rec.kind = "join";
      rec.template_id = e.template_id;
      Session s;
      s.id = e.session;
      s.template_id = e.template_id;
      s.request = template_request(t, e.session);

      const ctrl::AdmissionDecision d =
          admission.admit(active_requests(), s.request);
      rec.accepted = d.accepted;
      rec.cache_hit = d.cache_hit;
      rec.reason = d.reason;
      rec.eta = d.eta;
      rec.gamma = d.gamma;
      rec.analysis_work = d.analysis_work;

      if (d.accepted) {
        s.accepted = true;
        s.request.eta = d.eta;
        const std::int64_t opb = d.eta / t.decimation;
        const std::string base = "s" + std::to_string(e.session);
        sim::CFifo& in =
            sys.add_fifo(base + ".in", d.eta * cfg.fifo_slack);
        sim::CFifo& out =
            sys.add_fifo(base + ".out", opb * cfg.fifo_slack);
        sim::StreamRoute route;
        route.id = e.session;
        route.name = s.request.name;
        route.eta = d.eta;
        route.out_per_block = opb;
        route.input = &in;
        route.output = &out;
        route.reconfig = t.reconfig;
        std::vector<std::unique_ptr<accel::StreamKernel>> kernels;
        for (std::size_t k = 0; k < chain.accels.size(); ++k) {
          if (k + 1 == chain.accels.size() && t.decimation > 1) {
            kernels.push_back(std::make_unique<Decimate>(t.decimation));
          } else {
            kernels.push_back(std::make_unique<Pass>());
          }
        }
        rec.reconfig_cycles = protocol.join(route, std::move(kernels));
        ++res.mode_changes;
        res.reconfig_cycles += rec.reconfig_cycles;
        // The session's tiles start AFTER the transition: the front end
        // begins sampling once its stream is programmed.
        const std::int64_t total = cfg.blocks_per_session * d.eta;
        s.source = &sys.add<sim::SourceTile>(
            base + ".src", in,
            session_samples(cfg.workload.seed, e.session, total), t.period,
            sys.now() + t.period);
        s.sink = &sys.add<SessionSink>(base + ".snk", out,
                                       t.period * t.decimation,
                                       cfg.blocks_per_session * opb,
                                       cfg.prefill_blocks * opb);
      }
      sessions.push_back(std::move(s));
    } else {
      Session& s = sessions[static_cast<std::size_t>(e.session)];
      rec.template_id = s.template_id;
      if (!s.accepted) {
        rec.kind = "leave_skipped";  // the join was rejected; nothing runs
      } else {
        rec.kind = "leave";
        depart(s, rec);
      }
    }
    res.decisions.push_back(std::move(rec));
    sys.run_with(stepper, cfg.event_gap);
  }

  // End of trace: every still-active session completes and departs, so the
  // final digest compares a fully quiesced system across steppers.
  for (Session& s : sessions) {
    if (!s.accepted || s.departed) continue;
    ChurnDecision rec;
    rec.event_index = static_cast<std::int32_t>(events.size());
    rec.kind = "leave";
    rec.session = s.id;
    rec.template_id = s.template_id;
    depart(s, rec);
    res.decisions.push_back(std::move(rec));
  }
  protocol.quiesce();

  res.cycles_run = sys.now();
  res.digest = sys.state_digest();
  res.stepper = sys.stepper_stats();
  res.cache_lookups = admission.cache_lookups();
  res.cache_hits = admission.cache_hits();
  res.accepts = admission.accepts();
  res.rejects = admission.rejects();
  std::uint64_t audio = kFnvOffset;
  for (const Session& s : sessions) {
    if (!s.accepted) continue;
    audio = fnv_mix(audio, static_cast<std::uint64_t>(s.id));
    audio = fnv_mix(audio, s.sink->checksum());
    res.samples_delivered += s.sink->received();
    res.source_drops += s.source->dropped();
    res.sink_underruns += s.sink->underruns();
  }
  res.audio_checksum = audio;
  res.deadline_misses = res.source_drops + res.sink_underruns;
  for (const ChurnDecision& d : res.decisions)
    res.analysis_work += d.analysis_work;
  return res;
}

ChurnResult run_churn_campaign(const ChurnConfig& cfg) {
  const sim::StepperKind kinds[] = {sim::StepperKind::kDense,
                                    sim::StepperKind::kWakeList};
  ChurnResult res;
  res.runs.resize(std::size(kinds));
  const auto run_one = [&](std::size_t i) {
    res.runs[i] = run_admission_churn(cfg, kinds[i]);
  };
  parallel_for(cfg.jobs, res.runs.size(), run_one);

  res.equivalent = true;
  const ChurnRunResult& ref = res.runs.back();  // wake-list
  for (const ChurnRunResult& r : res.runs) {
    res.equivalent = res.equivalent && r.cycles_run == ref.cycles_run &&
                     r.digest == ref.digest &&
                     r.audio_checksum == ref.audio_checksum &&
                     r.deadline_misses == ref.deadline_misses &&
                     r.decisions.size() == ref.decisions.size();
    if (r.decisions.size() == ref.decisions.size()) {
      for (std::size_t i = 0; i < r.decisions.size(); ++i) {
        const ChurnDecision& a = r.decisions[i];
        const ChurnDecision& b = ref.decisions[i];
        res.equivalent = res.equivalent && a.kind == b.kind &&
                         a.session == b.session && a.accepted == b.accepted &&
                         a.cache_hit == b.cache_hit && a.eta == b.eta &&
                         a.gamma == b.gamma &&
                         a.analysis_work == b.analysis_work &&
                         a.reconfig_cycles == b.reconfig_cycles;
      }
    }
  }
  return res;
}

lint::LintInput churn_lint_input(const ChurnConfig& cfg) {
  lint::LintInput li;
  li.name = "admission-churn";
  sharing::SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample.assign(cfg.accel_cycles.begin(),
                                            cfg.accel_cycles.end());
  spec.chain.entry_cycles_per_sample = cfg.epsilon;
  spec.chain.exit_cycles_per_sample = cfg.delta;
  spec.chain.ni_capacity = cfg.ni_capacity;
  // The templates stand in as the declared stream set: the static gate
  // checks the shapes sessions will instantiate, not one concrete mix.
  for (const ChurnTemplate& t : cfg.templates) {
    spec.streams.push_back({t.name, Rational(1, t.period), t.reconfig});
  }
  li.spec = std::move(spec);

  lint::CtrlDecl ctrl;
  ctrl.eta_max = cfg.eta_max;
  for (std::size_t i = 0; i < cfg.accel_cycles.size(); ++i) {
    // Kind vocabulary: the last chain stage doubles as the decimator.
    ctrl.accel_kinds.push_back(
        i + 1 == cfg.accel_cycles.size() ? "decim" : "pass");
  }
  for (const ChurnTemplate& t : cfg.templates) {
    lint::CtrlJoinDecl j;
    j.name = t.name;
    j.mu = Rational(1, t.period);
    j.reconfig = t.reconfig;
    j.decimation = t.decimation;
    for (std::size_t i = 0; i < cfg.accel_cycles.size(); ++i) {
      j.accel_kinds.push_back(
          i + 1 == cfg.accel_cycles.size() && t.decimation > 1 ? "decim"
                                                               : "pass");
    }
    ctrl.joins.push_back(std::move(j));
  }
  li.ctrl = std::move(ctrl);
  return li;
}

json::Value admission_bench_doc(const ChurnConfig& cfg,
                                const ChurnResult& res) {
  ACC_EXPECTS(res.runs.size() == 2);
  json::Object doc;
  doc["bench"] = "admission_churn";
  doc["seed"] = static_cast<std::int64_t>(cfg.workload.seed);
  doc["events"] = static_cast<std::int64_t>(cfg.workload.events);
  doc["max_concurrent"] =
      static_cast<std::int64_t>(cfg.workload.max_concurrent);
  doc["event_gap"] = cfg.event_gap;
  doc["eta_max"] = cfg.eta_max;
  doc["eta_align"] = cfg.eta_align;
  doc["blocks_per_session"] = cfg.blocks_per_session;

  json::Object chain;
  json::Array accels;
  for (const sim::Cycle c : cfg.accel_cycles) accels.emplace_back(c);
  chain["accelerators"] = std::move(accels);
  chain["entry"] = cfg.epsilon;
  chain["exit"] = cfg.delta;
  chain["ni_capacity"] = cfg.ni_capacity;
  doc["chain"] = std::move(chain);

  json::Array templates;
  for (const ChurnTemplate& t : cfg.templates) {
    json::Object tv;
    tv["name"] = t.name;
    tv["period"] = t.period;
    tv["decimation"] = t.decimation;
    tv["reconfig"] = t.reconfig;
    templates.emplace_back(std::move(tv));
  }
  doc["templates"] = std::move(templates);

  const ChurnRunResult& ref = res.runs.back();  // wake-list run
  json::Array decisions;
  for (const ChurnDecision& d : ref.decisions) {
    json::Object dv;
    dv["i"] = d.event_index;
    dv["kind"] = d.kind;
    dv["session"] = d.session;
    dv["template"] = d.template_id;
    dv["accepted"] = d.accepted;
    dv["cache_hit"] = d.cache_hit;
    dv["reason"] = d.reason;
    dv["eta"] = d.eta;
    dv["gamma"] = d.gamma;
    dv["analysis_work"] = d.analysis_work;
    dv["reconfig_cycles"] = d.reconfig_cycles;
    decisions.emplace_back(std::move(dv));
  }
  doc["decisions"] = std::move(decisions);

  json::Array steppers;
  for (const ChurnRunResult& r : res.runs) {
    json::Object rv;
    rv["stepper"] = stepper_name(r.kind);
    rv["cycles_run"] = r.cycles_run;
    rv["digest"] = std::to_string(r.digest);  // uint64: keep as string
    rv["audio_checksum"] = std::to_string(r.audio_checksum);
    rv["deadline_misses"] = r.deadline_misses;
    steppers.emplace_back(std::move(rv));
  }
  doc["steppers"] = std::move(steppers);

  std::int64_t joins = 0;
  std::int64_t leaves = 0;
  std::int64_t skipped = 0;
  for (const ChurnDecision& d : ref.decisions) {
    if (d.kind == "join") ++joins;
    if (d.kind == "leave") ++leaves;
    if (d.kind == "leave_skipped") ++skipped;
  }
  json::Object summary;
  summary["joins"] = joins;
  summary["accepted"] = ref.accepts;
  summary["rejected"] = ref.rejects;
  summary["leaves"] = leaves;
  summary["leaves_skipped"] = skipped;
  summary["cache_lookups"] = ref.cache_lookups;
  summary["cache_hits"] = ref.cache_hits;
  summary["analysis_work"] = ref.analysis_work;
  summary["mode_changes"] = ref.mode_changes;
  summary["reconfig_cycles"] = ref.reconfig_cycles;
  summary["samples_delivered"] = ref.samples_delivered;
  summary["source_drops"] = ref.source_drops;
  summary["sink_underruns"] = ref.sink_underruns;
  summary["deadline_misses"] = ref.deadline_misses;
  summary["audio_checksum"] = std::to_string(ref.audio_checksum);
  summary["cycles_run"] = ref.cycles_run;
  doc["summary"] = std::move(summary);
  doc["equivalent"] = res.equivalent;
  return json::Value(std::move(doc));
}

}  // namespace acc::app
