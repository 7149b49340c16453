#include "lint/linter.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <ostream>
#include <set>

#include "common/checked.hpp"
#include "dataflow/mcr.hpp"
#include "dataflow/repetition.hpp"
#include "dataflow/serialize.hpp"
#include "sharing/analysis.hpp"
#include "sharing/blocksize.hpp"
#include "sim/fault.hpp"

namespace acc::lint {

namespace {

std::string idx(const std::string& base, std::size_t i) {
  return base + "[" + std::to_string(i) + "]";
}

// ---------------------------------------------------------------------------
// Model rules (M**): Eq. 2-4 preconditions, feasibility, overflow safety.
// ---------------------------------------------------------------------------

/// Spec-level sanity. Returns true when the numbers are usable for the
/// arithmetic rules (a negative R_s or zero-cost stage would only cascade).
bool check_spec(const sharing::SharedSystemSpec& spec, LintReport& rep) {
  bool arith_ok = true;
  if (spec.streams.empty()) {
    rep.add("M06", "$.streams", "system has no streams",
            "declare at least one stream sharing the chain");
    arith_ok = false;
  }
  if (spec.chain.accel_cycles_per_sample.empty()) {
    rep.add("M06", "$.chain.accelerators", "chain has no accelerators",
            "a gateway pair must enclose at least one accelerator");
    arith_ok = false;
  }
  for (std::size_t i = 0; i < spec.chain.accel_cycles_per_sample.size(); ++i) {
    const sharing::Time rho = spec.chain.accel_cycles_per_sample[i];
    if (rho < 1) {
      rep.add("M06", idx("$.chain.accelerators", i),
              "accelerator cost rho_A = " + std::to_string(rho) +
                  " cycles/sample; max(epsilon, rho_A, delta) needs every "
                  "stage >= 1",
              "model a free stage as 1 cycle/sample");
      arith_ok = false;
    }
  }
  if (spec.chain.entry_cycles_per_sample < 1) {
    rep.add("M06", "$.chain.entry",
            "entry-gateway cost epsilon = " +
                std::to_string(spec.chain.entry_cycles_per_sample) + " < 1");
    arith_ok = false;
  }
  if (spec.chain.exit_cycles_per_sample < 1) {
    rep.add("M06", "$.chain.exit",
            "exit-gateway cost delta = " +
                std::to_string(spec.chain.exit_cycles_per_sample) + " < 1");
    arith_ok = false;
  }
  if (spec.chain.ni_capacity < 2) {
    rep.add("M07", "$.chain.ni_capacity",
            "NI FIFO capacity " + std::to_string(spec.chain.ni_capacity) +
                " < 2: the blocked pipeline can run slower than its "
                "bottleneck stage and tau_hat (Eq. 2) stops being "
                "conservative",
            "the paper's hardware double-buffers its NI FIFOs; use >= 2");
    arith_ok = false;
  }
  for (std::size_t s = 0; s < spec.streams.size(); ++s) {
    const sharing::StreamSpec& st = spec.streams[s];
    if (st.reconfig < 0) {
      rep.add("M05", idx("$.streams", s) + ".reconfig",
              "stream '" + st.name + "' has R_s = " +
                  std::to_string(st.reconfig) + " < 0 (Eq. 2 precondition)",
              "context save/restore cannot take negative time; use 0 for a "
              "free switch");
      arith_ok = false;
    }
    if (!(st.mu > Rational(0))) {
      rep.add("C01", idx("$.streams", s) + ".mu_num",
              "stream '" + st.name + "' declares non-positive throughput " +
                  st.mu.str());
      arith_ok = false;
    }
  }
  return arith_ok;
}

/// Utilization feasibility (the real relaxation of Algorithm 1).
void check_utilization(const sharing::SharedSystemSpec& spec,
                       LintReport& rep) {
  Rational util;
  try {
    util = sharing::utilization(spec);
  } catch (const std::overflow_error& e) {
    rep.add("M08", "$.streams",
            std::string("utilization sum overflows: ") + e.what(),
            "the stream load is astronomically mis-scaled; check mu_num/"
            "mu_den");
    return;
  }
  if (util >= Rational(1)) {
    rep.add("M09", "$.streams",
            "utilization c0*sum(mu_s) = " + util.str() +
                " >= 1: no block sizes can satisfy Eq. 5",
            "lower the per-sample bottleneck cost or the stream load");
  } else if (util >= Rational(95, 100)) {
    rep.add("M11", "$.streams",
            "utilization " + util.str() +
                " leaves under 5% headroom: any parameter drift breaks "
                "schedulability");
  }
}

void check_etas(const LintInput& in, const sharing::SharedSystemSpec& spec,
                LintReport& rep) {
  if (in.etas.empty()) return;
  if (in.etas.size() != spec.streams.size()) {
    rep.add("C01", "$.etas",
            "etas has " + std::to_string(in.etas.size()) + " entries for " +
                std::to_string(spec.streams.size()) + " streams");
    return;
  }
  bool positive = true;
  for (std::size_t s = 0; s < in.etas.size(); ++s) {
    if (in.etas[s] < 1) {
      rep.add("M04", idx("$.etas", s),
              "stream '" + spec.streams[s].name + "' has eta = " +
                  std::to_string(in.etas[s]) +
                  "; Eq. 2 requires blocks of at least one sample",
              "Algorithm 1 yields the minimal admissible block sizes");
      positive = false;
    }
  }
  if (!positive) return;

  // M13 (ISSUE 8): a rate-converting kernel fires once per input sample and
  // emits on a fixed decimation grid, so a block of eta_s inputs yields
  // eta_s / d outputs only when d = eta_s / block_out is an integer. A
  // block size that is not an integer multiple of its per-block output
  // quantum leaves a fractional firing at the block boundary: burst and
  // FIFO sizing computed in output samples truncate, and the batched block
  // path cannot tile the block with whole firings.
  for (std::size_t s = 0; s < in.etas.size() && s < in.block_out.size();
       ++s) {
    const std::int64_t out = in.block_out[s];
    if (out <= 0 || in.etas[s] % out == 0) continue;
    rep.add("M13", idx("$.etas", s),
            "stream '" + spec.streams[s].name + "': block size " +
                std::to_string(in.etas[s]) +
                " is not an integer multiple of its per-block output "
                "quantum " +
                std::to_string(out) +
                " (fractional kernel firings per block)",
            "round the block size up to a multiple of the output quantum, "
            "as Algorithm 1's decimation alignment does");
  }

  sharing::Time gamma = 0;
  try {
    gamma = sharing::gamma_hat(spec, in.etas);
    bool missed = false;
    for (std::size_t s = 0; s < in.etas.size(); ++s) {
      // Eq. 5 per stream: eta_s / gamma_hat >= mu_s.
      if (Rational(in.etas[s]) < spec.streams[s].mu * Rational(gamma)) {
        rep.add("M09", idx("$.etas", s),
                "stream '" + spec.streams[s].name + "': eta_s/gamma_hat = " +
                    std::to_string(in.etas[s]) + "/" + std::to_string(gamma) +
                    " < mu_s = " + spec.streams[s].mu.str() +
                    " (Eq. 5 violated)",
                "raise this stream's block size or rerun Algorithm 1");
        missed = true;
      }
    }
    if (!missed) {
      // Informational: how far above the Algorithm-1 minimum the
      // configuration sits (extra buffering latency, usually deliberate —
      // e.g. decimation alignment).
      const sharing::BlockSizeResult min =
          sharing::solve_block_sizes_fixpoint(spec);
      if (min.feasible) {
        std::string above;
        for (std::size_t s = 0; s < in.etas.size(); ++s) {
          if (in.etas[s] > min.eta[s]) {
            if (!above.empty()) above += ", ";
            above += spec.streams[s].name + " " +
                     std::to_string(in.etas[s]) + " > " +
                     std::to_string(min.eta[s]);
          }
        }
        if (!above.empty()) {
          rep.add("M12", "$.etas",
                  "block sizes exceed the Algorithm-1 minimum (" + above +
                      "): each extra sample adds one sample period of "
                      "blocking latency");
        }
      }
    }
  } catch (const std::overflow_error& e) {
    rep.add("M08", "$.etas",
            std::string("gamma_hat (Eq. 4) accumulation overflows 64-bit "
                        "cycle arithmetic: ") +
                e.what(),
            "these parameters describe rounds longer than 2^63 cycles; the "
            "configuration is mis-scaled");
  }
}

// ---------------------------------------------------------------------------
// Architecture rules (G**, M10): gateway pairing and space-check wiring.
// ---------------------------------------------------------------------------

void check_architecture(const LintInput& in,
                        const sharing::SharedSystemSpec* spec,
                        LintReport& rep) {
  std::set<std::string> fifo_names;
  for (std::size_t i = 0; i < in.fifos.size(); ++i) {
    const FifoDecl& f = in.fifos[i];
    if (f.capacity < 1) {
      rep.add("C01", idx("$.fifos", i) + ".capacity",
              "C-FIFO '" + f.name + "' declares capacity " +
                  std::to_string(f.capacity));
    }
    if (!fifo_names.insert(f.name).second) {
      rep.add("C01", idx("$.fifos", i) + ".name",
              "duplicate C-FIFO name '" + f.name + "'");
    }
  }
  const auto fifo_capacity = [&](const std::string& name) -> std::int64_t {
    for (const FifoDecl& f : in.fifos)
      if (f.name == name) return f.capacity;
    return -1;
  };
  const auto eta_of = [&](std::size_t s) -> std::int64_t {
    return s < in.etas.size() ? in.etas[s] : 0;
  };
  const auto block_out_of = [&](std::size_t s) -> std::int64_t {
    const std::int64_t out =
        s < in.block_out.size() && in.block_out[s] > 0 ? in.block_out[s]
                                                       : eta_of(s);
    return out;
  };

  // Per-stream input C-FIFOs: a block of eta samples must be able to fill.
  if (spec != nullptr && !in.stream_fifos.empty()) {
    if (in.stream_fifos.size() != spec->streams.size()) {
      rep.add("C01", "$.streams",
              "per-stream fifo list has " +
                  std::to_string(in.stream_fifos.size()) + " entries for " +
                  std::to_string(spec->streams.size()) + " streams");
    } else {
      for (std::size_t s = 0; s < in.stream_fifos.size(); ++s) {
        const std::string& name = in.stream_fifos[s];
        if (name.empty()) continue;
        const std::int64_t cap = fifo_capacity(name);
        if (cap < 0) {
          rep.add("C01", idx("$.streams", s) + ".fifo",
                  "stream '" + spec->streams[s].name +
                      "' references undeclared C-FIFO '" + name + "'");
        } else if (eta_of(s) > 0 && cap < eta_of(s)) {
          rep.add("M10", idx("$.streams", s) + ".fifo",
                  "input C-FIFO '" + name + "' (capacity " +
                      std::to_string(cap) + ") can never hold one block of " +
                      std::to_string(eta_of(s)) + " samples of stream '" +
                      spec->streams[s].name +
                      "': the entry gateway will wait forever",
                  "size the C-FIFO to at least eta (a small multiple keeps "
                  "the pipeline busy)");
        }
      }
    }
  }

  // Gateway pairing: every chain needs exactly one entry and one exit.
  std::set<std::string> chains;
  for (const GatewayDecl& g : in.gateways) chains.insert(g.chain);
  for (const std::string& chain : chains) {
    int entries = 0;
    int exits = 0;
    for (const GatewayDecl& g : in.gateways) {
      if (g.chain != chain) continue;
      (g.is_entry ? entries : exits) += 1;
    }
    if (entries != 1 || exits != 1) {
      rep.add("G01", "$.gateways",
              "chain '" + chain + "' has " + std::to_string(entries) +
                  " entry and " + std::to_string(exits) +
                  " exit gateway(s); the sharing protocol needs exactly one "
                  "of each",
              "an entry gateway without its exit never sees pipeline-idle "
              "notifications; blocks would be admitted forever");
    }
  }

  // Entry gateways: admission space check must watch a real consumer C-FIFO.
  for (std::size_t gi = 0; gi < in.gateways.size(); ++gi) {
    const GatewayDecl& g = in.gateways[gi];
    if (!g.is_entry) continue;
    for (std::size_t k = 0; k < g.streams.size(); ++k) {
      const std::size_t s = g.streams[k];
      if (spec != nullptr && s >= spec->streams.size()) {
        rep.add("C01", idx(idx("$.gateways", gi) + ".streams", k),
                "gateway '" + g.name + "' serves stream index " +
                    std::to_string(s) + " but the system has " +
                    std::to_string(spec->streams.size()) + " streams");
        continue;
      }
      if (k >= g.consumer_fifos.size() || g.consumer_fifos[k].empty()) {
        rep.add("G02", idx(idx("$.gateways", gi) + ".consumer_fifos", k),
                "entry gateway '" + g.name + "' stream " + std::to_string(s) +
                    " has no consumer C-FIFO wired to its admission space "
                    "check: a block could be admitted with nowhere to land",
                "name the C-FIFO the chain's output DMA writes for this "
                "stream");
        continue;
      }
      const std::string& name = g.consumer_fifos[k];
      const std::int64_t cap = fifo_capacity(name);
      if (cap < 0) {
        rep.add("G02", idx(idx("$.gateways", gi) + ".consumer_fifos", k),
                "entry gateway '" + g.name +
                    "' wires its space check to undeclared C-FIFO '" + name +
                    "'",
                "declare the FIFO under $.fifos with its capacity");
      } else if (block_out_of(s) > 0 && cap < block_out_of(s)) {
        rep.add("M10", idx(idx("$.gateways", gi) + ".consumer_fifos", k),
                "consumer C-FIFO '" + name + "' (capacity " +
                    std::to_string(cap) +
                    ") can never accept one block's output of " +
                    std::to_string(block_out_of(s)) + " samples (stream " +
                    std::to_string(s) + ")",
                "size the consumer C-FIFO to at least the per-block output "
                "count");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dataflow-graph rules (M01-M03): consistency and static deadlock-freedom.
// ---------------------------------------------------------------------------

void check_graphs(const LintInput& in, LintReport& rep) {
  for (std::size_t i = 0; i < in.graphs.size(); ++i) {
    const df::Graph& g = in.graphs[i].graph;
    const std::string at = idx("$.graphs", i);
    const df::RepetitionVector rv = df::compute_repetition_vector(g);
    if (!rv.consistent) {
      rep.add("M01", at,
              "graph '" + in.graphs[i].name +
                  "' is inconsistent: the balance equations have no positive "
                  "solution, so no periodic schedule returns the buffers to "
                  "their initial state",
              "make r[src]*prod == r[dst]*cons hold on every edge");
      continue;  // deadlock analysis of an inconsistent graph is moot
    }
    // Static deadlock-freedom: a cycle carrying zero initial tokens can
    // never fire its first actor (dataflow/mcr reports exactly that).
    std::vector<df::RatioEdge> edges;
    edges.reserve(g.num_edges());
    for (const df::Edge& e : g.edges()) {
      df::Time w = 0;
      for (df::Time d : g.actor(e.src).phase_durations) w += d;
      edges.push_back(df::RatioEdge{e.src, e.dst, w, e.initial_tokens});
    }
    const df::McrResult mcr = df::max_cycle_ratio(
        static_cast<std::int32_t>(g.num_actors()), edges);
    if (mcr.zero_token_cycle) {
      rep.add("M02", at,
              "graph '" + in.graphs[i].name +
                  "' deadlocks: a dependency cycle carries zero initial "
                  "tokens, so none of its actors can ever fire",
              "place initial tokens on the cycle or enlarge the "
              "back-pressure channel that closes it");
    }
    // Bounded channels (edge + reverse space edge): the total capacity must
    // admit at least one firing of each endpoint.
    for (std::size_t a = 0; a < g.edges().size(); ++a) {
      for (std::size_t b = a + 1; b < g.edges().size(); ++b) {
        const df::Edge& fwd = g.edges()[a];
        const df::Edge& bwd = g.edges()[b];
        if (fwd.src != bwd.dst || fwd.dst != bwd.src) continue;
        const std::int64_t cap = fwd.initial_tokens + bwd.initial_tokens;
        std::int64_t need = 0;
        for (std::int64_t q : fwd.prod) need = std::max(need, q);
        for (std::int64_t q : fwd.cons) need = std::max(need, q);
        for (std::int64_t q : bwd.prod) need = std::max(need, q);
        for (std::int64_t q : bwd.cons) need = std::max(need, q);
        if (cap < need) {
          rep.add("M03", at + idx(".edges", a),
                  "channel '" + (fwd.name.empty() ? in.graphs[i].name : fwd.name) +
                      "' has capacity " + std::to_string(cap) +
                      " but a single firing moves " + std::to_string(need) +
                      " tokens: the endpoint can never fire",
                  "raise the channel capacity to at least the largest "
                  "per-firing quantum");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fault-config rules (F**) and determinism hazards (D**).
// ---------------------------------------------------------------------------

void check_faults(const FaultsDecl& faults, LintReport& rep) {
  bool any_active = false;
  for (std::size_t i = 0; i < faults.sites.size(); ++i) {
    const FaultSiteDecl& s = faults.sites[i];
    const std::string at = idx("$.faults.sites", i);
    bool known = false;
    for (int k = 0; k < sim::kNumFaultSites; ++k) {
      if (s.site == sim::fault_site_name(static_cast<sim::FaultSite>(k))) {
        known = true;
        break;
      }
    }
    if (!known) {
      rep.add("F01", at + ".site",
              "unknown fault site '" + s.site + "'",
              "valid sites: ring_link, config_bus, exit_notify, "
              "credit_withhold");
      continue;
    }
    if (s.probability < 0.0 || s.probability > 1.0) {
      rep.add("F03", at + ".probability",
              "probability " + std::to_string(s.probability) +
                  " outside [0, 1]");
    }
    if (s.drop_probability < 0.0 || s.drop_probability > 1.0) {
      rep.add("F03", at + ".drop_probability",
              "drop_probability " + std::to_string(s.drop_probability) +
                  " outside [0, 1]");
    }
    if (s.drop_probability > 0.0 &&
        s.site != sim::fault_site_name(sim::FaultSite::kExitNotify)) {
      rep.add("F03", at + ".drop_probability",
              "site '" + s.site +
                  "' cannot drop events; only exit_notify models lost "
                  "notifications",
              "use a delay law (probability/max_delay) for this site");
    }
    if (s.probability > 0.0 && s.max_delay < 1) {
      rep.add("F03", at + ".max_delay",
              "a delay law with probability > 0 needs max_delay >= 1 "
              "(delays are uniform in [1, max_delay])");
    }
    if (s.min_spacing < 0) {
      rep.add("F03", at + ".min_spacing",
              "min_spacing " + std::to_string(s.min_spacing) + " < 0");
    }
    if (s.window_until >= 0 && s.window_until <= s.window_from) {
      rep.add("F03", at + ".window_until",
              "fault window [" + std::to_string(s.window_from) + ", " +
                  std::to_string(s.window_until) + ") is empty");
    }
    any_active |= s.probability > 0.0 || s.drop_probability > 0.0;
  }
  if (any_active && !faults.seeded) {
    rep.add("F02", "$.faults.seed",
            "fault sites are active but no seed is set: the fault pattern "
            "would be unreproducible and conformance verdicts meaningless",
            "set an explicit 64-bit seed; every run then produces a "
            "bit-identical fault pattern");
  }
}

void check_determinism(const DeterminismDecl& det, LintReport& rep) {
  if (!det.rng_seeded) {
    rep.add("D01", "$.determinism.rng_seeded",
            "workload RNG is not explicitly seeded: reruns of this "
            "configuration diverge",
            "derive all randomness from one explicit SplitMix64 seed");
  }
  if (det.event_stepper) {
    for (std::size_t i = 0; i < det.tasks_without_next_ready.size(); ++i) {
      rep.add("D02", idx("$.determinism.tasks_without_next_ready", i),
              "task '" + det.tasks_without_next_ready[i] +
                  "' reports no next_ready horizon: the event-horizon "
                  "stepper must tick every cycle while it is runnable",
              "add Task::next_ready so system quiescence can be certified "
              "(see docs/performance.md)");
    }
  }
}

// ---------------------------------------------------------------------------
// Control-plane rules (C02, G03): static admissibility of join templates.
// ---------------------------------------------------------------------------

void check_ctrl(const LintInput& in, LintReport& rep) {
  const CtrlDecl& ctrl = *in.ctrl;
  if (ctrl.eta_max < 1) {
    rep.add("C01", "$.ctrl.eta_max",
            "eta_max " + std::to_string(ctrl.eta_max) + " < 1");
    return;
  }
  for (std::size_t j = 0; j < ctrl.joins.size(); ++j) {
    const CtrlJoinDecl& join = ctrl.joins[j];
    const std::string at = idx("$.ctrl.joins", j);
    if (!(join.mu > Rational(0))) {
      rep.add("C01", at + ".mu_num",
              "join template '" + join.name +
                  "' declares non-positive throughput " + join.mu.str());
      continue;
    }
    if (join.decimation < 1) {
      rep.add("C01", at + ".decimation",
              "join template '" + join.name + "' declares decimation " +
                  std::to_string(join.decimation) + " < 1");
      continue;
    }
    // G03: a template may only program accelerator kinds the chain has.
    for (std::size_t k = 0; k < join.accel_kinds.size(); ++k) {
      const std::string& kind = join.accel_kinds[k];
      if (std::find(ctrl.accel_kinds.begin(), ctrl.accel_kinds.end(), kind) ==
          ctrl.accel_kinds.end()) {
        rep.add("G03", idx(at + ".accel_kinds", k),
                "join template '" + join.name +
                    "' references accelerator kind '" + kind +
                    "' which the chain does not declare",
                "declare the kind in $.ctrl.accel_kinds or fix the template");
      }
    }
    // C02: the template must be admissible at least when it runs ALONE at
    // the largest deployable block size; if Eq. 5 fails even there, every
    // runtime admission of this template would be rejected.
    if (!in.spec.has_value()) continue;
    sharing::SharedSystemSpec solo;
    solo.chain = in.spec->chain;
    solo.streams.push_back({join.name, join.mu, join.reconfig});
    const std::vector<std::int64_t> etas{ctrl.eta_max};
    bool satisfiable = false;
    std::string detail;
    try {
      if (sharing::utilization(solo) < Rational(1)) {
        satisfiable = Rational(ctrl.eta_max) >=
                      join.mu * Rational(sharing::gamma_hat(solo, etas));
        if (!satisfiable) detail = " (eta_max < mu * gamma_hat)";
      } else {
        detail = " (solo utilization >= 1)";
      }
    } catch (const std::overflow_error&) {
      detail = " (cycle arithmetic overflows at eta_max)";
    }
    if (!satisfiable) {
      rep.add("C02", at + ".mu_num",
              "join template '" + join.name + "' declares mu = " +
                  join.mu.str() + " that Eq. 5 cannot satisfy even alone at "
                  "eta = eta_max = " + std::to_string(ctrl.eta_max) + detail,
              "lower the template's throughput, raise eta_max, or cheapen "
              "the bottleneck stage");
    }
  }
}

void run_rules(const LintInput& in, LintReport& rep) {
  if (in.spec.has_value()) {
    const bool arith_ok = check_spec(*in.spec, rep);
    if (arith_ok) {
      check_utilization(*in.spec, rep);
      check_etas(in, *in.spec, rep);
    }
  }
  check_architecture(in, in.spec.has_value() ? &*in.spec : nullptr, rep);
  check_graphs(in, rep);
  if (in.faults.has_value()) check_faults(*in.faults, rep);
  if (in.determinism.has_value()) check_determinism(*in.determinism, rep);
  if (in.ctrl.has_value()) check_ctrl(in, rep);
}

// ---------------------------------------------------------------------------
// JSON configuration parsing. Structural problems become C01 diagnostics so
// one run reports everything it can still see.
// ---------------------------------------------------------------------------

const json::Value* want(const json::Value& obj, const char* key,
                        const std::string& at, bool required,
                        LintReport& rep) {
  const json::Value* v = obj.find(key);
  if (v == nullptr && required) {
    rep.add("C01", at, std::string("missing required key '") + key + "'");
  }
  return v;
}

bool as_i64(const json::Value* v, const std::string& at, LintReport& rep,
            std::int64_t* out) {
  if (v == nullptr) return false;
  if (!v->is_int()) {
    rep.add("C01", at, "expected an integer");
    return false;
  }
  *out = v->as_int();
  return true;
}

bool as_f64(const json::Value* v, const std::string& at, LintReport& rep,
            double* out) {
  if (v == nullptr) return false;
  if (!v->is_number()) {
    rep.add("C01", at, "expected a number");
    return false;
  }
  *out = v->as_double();
  return true;
}

bool as_str(const json::Value* v, const std::string& at, LintReport& rep,
            std::string* out) {
  if (v == nullptr) return false;
  if (!v->is_string()) {
    rep.add("C01", at, "expected a string");
    return false;
  }
  *out = v->as_string();
  return true;
}

void parse_spec(const json::Value& doc, LintInput& in, LintReport& rep) {
  const json::Value* chain = doc.find("chain");
  const json::Value* streams = doc.find("streams");
  // Section-only configs (graphs, faults, determinism...) carry no spec at
  // all; that is fine. A spec with only one half is not.
  if (chain == nullptr && streams == nullptr) return;
  if (chain == nullptr || streams == nullptr) {
    rep.add("C01", "$",
            std::string("missing required key '") +
                (chain == nullptr ? "chain" : "streams") +
                "' (a system spec needs both halves)");
    return;
  }
  if (!chain->is_object() || !streams->is_array()) {
    if (!chain->is_object()) rep.add("C01", "$.chain", "expected an object");
    if (!streams->is_array())
      rep.add("C01", "$.streams", "expected an array");
    return;
  }
  sharing::SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample.clear();
  const json::Value* accels =
      want(*chain, "accelerators", "$.chain", true, rep);
  if (accels != nullptr) {
    if (!accels->is_array()) {
      rep.add("C01", "$.chain.accelerators", "expected an array of integers");
    } else {
      for (std::size_t i = 0; i < accels->as_array().size(); ++i) {
        std::int64_t rho = 0;
        if (as_i64(&accels->as_array()[i], idx("$.chain.accelerators", i),
                   rep, &rho)) {
          spec.chain.accel_cycles_per_sample.push_back(rho);
        }
      }
    }
  }
  std::int64_t v = 0;
  if (as_i64(want(*chain, "entry", "$.chain", true, rep), "$.chain.entry",
             rep, &v))
    spec.chain.entry_cycles_per_sample = v;
  if (as_i64(want(*chain, "exit", "$.chain", true, rep), "$.chain.exit", rep,
             &v))
    spec.chain.exit_cycles_per_sample = v;
  if (as_i64(want(*chain, "ni_capacity", "$.chain", false, rep),
             "$.chain.ni_capacity", rep, &v))
    spec.chain.ni_capacity = v;

  for (std::size_t s = 0; s < streams->as_array().size(); ++s) {
    const json::Value& sv = streams->as_array()[s];
    const std::string at = idx("$.streams", s);
    if (!sv.is_object()) {
      rep.add("C01", at, "expected an object");
      continue;
    }
    sharing::StreamSpec st;
    as_str(want(sv, "name", at, true, rep), at + ".name", rep, &st.name);
    std::int64_t num = 0;
    std::int64_t den = 1;
    const bool has_num =
        as_i64(want(sv, "mu_num", at, true, rep), at + ".mu_num", rep, &num);
    const bool has_den =
        as_i64(want(sv, "mu_den", at, true, rep), at + ".mu_den", rep, &den);
    if (has_num && has_den) {
      if (den <= 0) {
        rep.add("C01", at + ".mu_den",
                "throughput denominator must be positive, got " +
                    std::to_string(den));
      } else {
        st.mu = Rational(num, den);
      }
    }
    if (as_i64(want(sv, "reconfig", at, true, rep), at + ".reconfig", rep,
               &v))
      st.reconfig = v;
    std::string fifo;
    if (as_str(sv.find("fifo"), at + ".fifo", rep, &fifo)) {
      in.stream_fifos.resize(streams->as_array().size());
      in.stream_fifos[s] = fifo;
    }
    if (as_i64(sv.find("block_out"), at + ".block_out", rep, &v)) {
      in.block_out.resize(streams->as_array().size(), 0);
      in.block_out[s] = v;
    }
    spec.streams.push_back(std::move(st));
  }
  in.spec = std::move(spec);
}

void parse_sections(const json::Value& doc, LintInput& in, LintReport& rep) {
  if (const json::Value* etas = doc.find("etas")) {
    if (!etas->is_array()) {
      rep.add("C01", "$.etas", "expected an array of integers");
    } else {
      for (std::size_t i = 0; i < etas->as_array().size(); ++i) {
        std::int64_t e = 0;
        if (as_i64(&etas->as_array()[i], idx("$.etas", i), rep, &e))
          in.etas.push_back(e);
      }
    }
  }
  if (const json::Value* fifos = doc.find("fifos")) {
    if (!fifos->is_array()) {
      rep.add("C01", "$.fifos", "expected an array");
    } else {
      for (std::size_t i = 0; i < fifos->as_array().size(); ++i) {
        const json::Value& fv = fifos->as_array()[i];
        const std::string at = idx("$.fifos", i);
        FifoDecl f;
        if (!fv.is_object()) {
          rep.add("C01", at, "expected an object");
          continue;
        }
        as_str(want(fv, "name", at, true, rep), at + ".name", rep, &f.name);
        as_i64(want(fv, "capacity", at, true, rep), at + ".capacity", rep,
               &f.capacity);
        in.fifos.push_back(std::move(f));
      }
    }
  }
  if (const json::Value* gws = doc.find("gateways")) {
    if (!gws->is_array()) {
      rep.add("C01", "$.gateways", "expected an array");
    } else {
      for (std::size_t i = 0; i < gws->as_array().size(); ++i) {
        const json::Value& gv = gws->as_array()[i];
        const std::string at = idx("$.gateways", i);
        if (!gv.is_object()) {
          rep.add("C01", at, "expected an object");
          continue;
        }
        GatewayDecl g;
        as_str(want(gv, "name", at, true, rep), at + ".name", rep, &g.name);
        std::string kind;
        if (as_str(want(gv, "kind", at, true, rep), at + ".kind", rep,
                   &kind)) {
          if (kind == "entry") {
            g.is_entry = true;
          } else if (kind == "exit") {
            g.is_entry = false;
          } else {
            rep.add("C01", at + ".kind",
                    "gateway kind must be \"entry\" or \"exit\", got \"" +
                        kind + "\"");
            continue;
          }
        }
        as_str(gv.find("chain"), at + ".chain", rep, &g.chain);
        if (const json::Value* ss = gv.find("streams")) {
          if (!ss->is_array()) {
            rep.add("C01", at + ".streams", "expected an array of indices");
          } else {
            for (std::size_t k = 0; k < ss->as_array().size(); ++k) {
              std::int64_t s = 0;
              if (as_i64(&ss->as_array()[k], idx(at + ".streams", k), rep,
                         &s)) {
                if (s < 0) {
                  rep.add("C01", idx(at + ".streams", k),
                          "stream index must be >= 0");
                } else {
                  g.streams.push_back(static_cast<std::size_t>(s));
                }
              }
            }
          }
        }
        if (const json::Value* cf = gv.find("consumer_fifos")) {
          if (!cf->is_array()) {
            rep.add("C01", at + ".consumer_fifos",
                    "expected an array of C-FIFO names");
          } else {
            for (std::size_t k = 0; k < cf->as_array().size(); ++k) {
              std::string name;
              as_str(&cf->as_array()[k], idx(at + ".consumer_fifos", k), rep,
                     &name);
              g.consumer_fifos.push_back(std::move(name));
            }
          }
        }
        in.gateways.push_back(std::move(g));
      }
    }
  }
  if (const json::Value* graphs = doc.find("graphs")) {
    if (!graphs->is_array()) {
      rep.add("C01", "$.graphs", "expected an array");
    } else {
      for (std::size_t i = 0; i < graphs->as_array().size(); ++i) {
        const json::Value& gv = graphs->as_array()[i];
        const std::string at = idx("$.graphs", i);
        NamedGraph ng;
        ng.name = "graph" + std::to_string(i);
        if (gv.is_object() && gv.find("name") != nullptr)
          as_str(gv.find("name"), at + ".name", rep, &ng.name);
        try {
          ng.graph = df::graph_from_json(gv);
          in.graphs.push_back(std::move(ng));
        } catch (const std::exception& e) {
          rep.add("C01", at, std::string("malformed graph: ") + e.what());
        }
      }
    }
  }
  if (const json::Value* faults = doc.find("faults")) {
    if (!faults->is_object()) {
      rep.add("C01", "$.faults", "expected an object");
    } else {
      FaultsDecl fd;
      if (const json::Value* seed = faults->find("seed")) {
        std::int64_t s = 0;
        if (as_i64(seed, "$.faults.seed", rep, &s)) {
          fd.seeded = true;
          fd.seed = static_cast<std::uint64_t>(s);
        }
      }
      if (const json::Value* sites = faults->find("sites")) {
        if (!sites->is_array()) {
          rep.add("C01", "$.faults.sites", "expected an array");
        } else {
          for (std::size_t i = 0; i < sites->as_array().size(); ++i) {
            const json::Value& sv = sites->as_array()[i];
            const std::string at = idx("$.faults.sites", i);
            if (!sv.is_object()) {
              rep.add("C01", at, "expected an object");
              continue;
            }
            FaultSiteDecl s;
            as_str(want(sv, "site", at, true, rep), at + ".site", rep,
                   &s.site);
            as_f64(sv.find("probability"), at + ".probability", rep,
                   &s.probability);
            as_f64(sv.find("drop_probability"), at + ".drop_probability", rep,
                   &s.drop_probability);
            as_i64(sv.find("max_delay"), at + ".max_delay", rep, &s.max_delay);
            as_i64(sv.find("min_spacing"), at + ".min_spacing", rep,
                   &s.min_spacing);
            as_i64(sv.find("window_from"), at + ".window_from", rep,
                   &s.window_from);
            as_i64(sv.find("window_until"), at + ".window_until", rep,
                   &s.window_until);
            fd.sites.push_back(std::move(s));
          }
        }
      }
      in.faults = std::move(fd);
    }
  }
  if (const json::Value* det = doc.find("determinism")) {
    if (!det->is_object()) {
      rep.add("C01", "$.determinism", "expected an object");
    } else {
      DeterminismDecl dd;
      if (const json::Value* es = det->find("event_stepper")) {
        if (es->is_bool()) {
          dd.event_stepper = es->as_bool();
        } else {
          rep.add("C01", "$.determinism.event_stepper", "expected a boolean");
        }
      }
      if (const json::Value* rs = det->find("rng_seeded")) {
        if (rs->is_bool()) {
          dd.rng_seeded = rs->as_bool();
        } else {
          rep.add("C01", "$.determinism.rng_seeded", "expected a boolean");
        }
      }
      if (const json::Value* tasks = det->find("tasks_without_next_ready")) {
        if (!tasks->is_array()) {
          rep.add("C01", "$.determinism.tasks_without_next_ready",
                  "expected an array of task names");
        } else {
          for (std::size_t i = 0; i < tasks->as_array().size(); ++i) {
            std::string t;
            if (as_str(&tasks->as_array()[i],
                       idx("$.determinism.tasks_without_next_ready", i), rep,
                       &t)) {
              dd.tasks_without_next_ready.push_back(std::move(t));
            }
          }
        }
      }
      in.determinism = std::move(dd);
    }
  }
  if (const json::Value* ctrl = doc.find("ctrl")) {
    if (!ctrl->is_object()) {
      rep.add("C01", "$.ctrl", "expected an object");
    } else {
      CtrlDecl cd;
      std::int64_t v = 0;
      if (as_i64(ctrl->find("eta_max"), "$.ctrl.eta_max", rep, &v))
        cd.eta_max = v;
      if (const json::Value* kinds = ctrl->find("accel_kinds")) {
        if (!kinds->is_array()) {
          rep.add("C01", "$.ctrl.accel_kinds", "expected an array of strings");
        } else {
          for (std::size_t i = 0; i < kinds->as_array().size(); ++i) {
            std::string kind;
            if (as_str(&kinds->as_array()[i], idx("$.ctrl.accel_kinds", i),
                       rep, &kind)) {
              cd.accel_kinds.push_back(std::move(kind));
            }
          }
        }
      }
      if (const json::Value* joins = ctrl->find("joins")) {
        if (!joins->is_array()) {
          rep.add("C01", "$.ctrl.joins", "expected an array");
        } else {
          for (std::size_t i = 0; i < joins->as_array().size(); ++i) {
            const json::Value& jv = joins->as_array()[i];
            const std::string at = idx("$.ctrl.joins", i);
            if (!jv.is_object()) {
              rep.add("C01", at, "expected an object");
              continue;
            }
            CtrlJoinDecl j;
            as_str(want(jv, "name", at, true, rep), at + ".name", rep,
                   &j.name);
            std::int64_t num = 0;
            std::int64_t den = 1;
            const bool has_num = as_i64(want(jv, "mu_num", at, true, rep),
                                        at + ".mu_num", rep, &num);
            const bool has_den = as_i64(want(jv, "mu_den", at, true, rep),
                                        at + ".mu_den", rep, &den);
            if (has_num && has_den) {
              if (den <= 0) {
                rep.add("C01", at + ".mu_den",
                        "throughput denominator must be positive, got " +
                            std::to_string(den));
              } else {
                j.mu = Rational(num, den);
              }
            }
            as_i64(jv.find("reconfig"), at + ".reconfig", rep, &j.reconfig);
            as_i64(jv.find("decimation"), at + ".decimation", rep,
                   &j.decimation);
            if (const json::Value* kinds = jv.find("accel_kinds")) {
              if (!kinds->is_array()) {
                rep.add("C01", at + ".accel_kinds",
                        "expected an array of strings");
              } else {
                for (std::size_t k = 0; k < kinds->as_array().size(); ++k) {
                  std::string kind;
                  if (as_str(&kinds->as_array()[k],
                             idx(at + ".accel_kinds", k), rep, &kind)) {
                    j.accel_kinds.push_back(std::move(kind));
                  }
                }
              }
            }
            cd.joins.push_back(std::move(j));
          }
        }
      }
      in.ctrl = std::move(cd);
    }
  }
  if (const json::Value* sup = doc.find("suppress")) {
    if (!sup->is_array()) {
      rep.add("C01", "$.suppress", "expected an array of rule IDs");
    } else {
      for (std::size_t i = 0; i < sup->as_array().size(); ++i) {
        std::string rule;
        if (as_str(&sup->as_array()[i], idx("$.suppress", i), rep, &rule)) {
          if (find_rule(rule) == nullptr) {
            rep.add("C01", idx("$.suppress", i),
                    "'" + rule + "' is not a catalog rule ID or name");
          } else {
            in.suppress.push_back(std::move(rule));
          }
        }
      }
    }
  }
}

void finish(LintReport& rep, const LintInput& in, const LintOptions& opts) {
  std::vector<std::string> sup = in.suppress;
  // Config-side `suppress` entries were validated at parse time; CLI-side
  // --allow entries are validated here so a typo'd waiver is an error, not
  // a silently inert flag.
  for (const std::string& rule : opts.suppress) {
    if (find_rule(rule) == nullptr) {
      rep.add("C01", "$.options.allow",
              "'" + rule + "' is not a catalog rule ID or name",
              "see --rules for the catalog");
    } else {
      sup.push_back(rule);
    }
  }
  rep.suppress(sup);
}

}  // namespace

LintInput parse_config(const json::Value& doc, const std::string& name,
                       LintReport& rep) {
  LintInput in;
  in.name = name;
  if (!doc.is_object()) {
    rep.add("C01", "$", "configuration document must be a JSON object");
    return in;
  }
  parse_spec(doc, in, rep);
  parse_sections(doc, in, rep);
  return in;
}

LintReport lint_input(const LintInput& in, const LintOptions& opts) {
  LintReport rep(in.name);
  run_rules(in, rep);
  finish(rep, in, opts);
  return rep;
}

LintReport lint_config_json(const json::Value& doc, const std::string& name,
                            const LintOptions& opts) {
  LintReport rep(name);
  const LintInput in = parse_config(doc, name, rep);
  if (doc.is_object()) run_rules(in, rep);
  finish(rep, in, opts);
  return rep;
}

FaultsDecl faults_from_injector(const sim::FaultInjector& inj) {
  FaultsDecl fd;
  fd.seeded = true;  // the injector cannot be constructed without a seed
  fd.seed = inj.seed();
  for (int k = 0; k < sim::kNumFaultSites; ++k) {
    const auto site = static_cast<sim::FaultSite>(k);
    const sim::FaultSpec& s = inj.spec(site);
    if (!s.active()) continue;
    FaultSiteDecl d;
    d.site = sim::fault_site_name(site);
    d.probability = s.probability;
    d.drop_probability = s.drop_probability;
    d.max_delay = s.max_delay;
    d.min_spacing = s.min_spacing;
    d.window_from = s.window_from;
    d.window_until = s.window_until == std::numeric_limits<sim::Cycle>::max()
                         ? -1
                         : s.window_until;
    fd.sites.push_back(std::move(d));
  }
  return fd;
}

bool no_lint_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-lint") == 0) return true;
  }
  return false;
}

bool startup_gate(int argc, char** argv, const LintInput& input,
                  std::ostream& err) {
  if (no_lint_requested(argc, argv)) return true;
  const LintReport rep = lint_input(input);
  if (!rep.diagnostics().empty()) err << rep.to_text();
  if (!rep.clean()) {
    err << "configuration rejected by acc-lint (use --no-lint to bypass)\n";
    return false;
  }
  return true;
}

}  // namespace acc::lint
