// acc-verify: exhaustive bounded model checking of the sharing protocol.
//
// Where acc-lint (src/lint/) checks a configuration STATICALLY, this layer
// builds a small cycle-exact instance of the gateway-managed accelerator
// chain the configuration describes and exhaustively explores every
// reachable state under all interleavings of the environment's actions
// (producers feeding blocks, consumers draining output, time advancing),
// bounded by a depth and state budget. Along every explored path it checks
// the temporal-safety rules V01-V06 of the shared lint catalog:
//
//   V01 verify-deadlock            no reachable stable-but-unfinished state
//   V02 verify-credit-conservation credits + in-flight + buffered == NI cap
//   V03 verify-gateway-protocol    admission/NI/notification protocol safety
//   V04 verify-bound-soundness     block service time <= Eq. 2 tau_hat
//   V05 verify-wake-soundness      no frozen-state change inside a declared
//                                  quiescent window (wake-list audit)
//   V06 verify-quiesce-before-reconfig  no context switch while the chain
//                                  still holds an in-flight block
//
// Findings are reported through the same LintReport / acc-lint-v1 JSON
// document as acc-lint, so one schema and one suppression mechanism cover
// both tools. Exploration is DETERMINISTIC: the first violation in
// (depth, frontier-order, action-order) is reported with a replayable
// counterexample, byte-identical for any --jobs value.
//
// The verification model is built FAULT-FREE (a config's "faults" section
// is ignored here — fault robustness is the simulator's job, see
// docs/robustness.md); seeded defects are injected via the "verify"
// section's "mutations" list instead, which is how the rule catalog's
// failing fixtures are produced. See docs/static_analysis.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "lint/linter.hpp"
#include "sim/ring.hpp"

namespace acc::verify {

/// CLI-level overrides for the exploration budgets. Values <= 0 defer to
/// the config's "verify" section (and its defaults: depth 4, states 256,
/// max_advance 200000).
struct VerifyOptions {
  std::int64_t depth = -1;        ///< max environment actions along a path
  std::int64_t states = -1;       ///< max distinct canonical states
  std::int64_t max_advance = -1;  ///< cycles one "run" action may consume
  int jobs = 1;                   ///< frontier-expansion workers
};

/// One environment action of the explored transition system. kFeed pushes
/// one full block (eta_s samples) into stream s's input C-FIFO; kDrain pops
/// every reader-visible sample from stream s's output C-FIFO; kStep
/// advances the model a fixed small quantum (interleaves the environment
/// with a block mid-flight); kRun advances until the model is stable (no
/// component will ever act again without environment input) or the
/// max_advance budget is spent.
struct Action {
  enum class Kind : std::uint8_t { kFeed, kDrain, kStep, kRun };
  Kind kind = Kind::kRun;
  std::int32_t stream = -1;  // kFeed / kDrain only

  friend bool operator==(const Action& a, const Action& b) {
    return a.kind == b.kind && a.stream == b.stream;
  }
};

/// Human-readable action ("feed s0", "drain s1", "step", "run").
[[nodiscard]] std::string action_name(const Action& a);

struct VerifyResult {
  lint::LintReport report;
  /// Environment-action sequence reaching the first violating state (empty
  /// when the violation is in the initial state, or when clean).
  std::vector<Action> counterexample{};
  std::int64_t states_explored = 0;
  std::int64_t depth_reached = 0;
  /// A budget (states or max_advance) clipped the search: "clean" means
  /// "clean within the declared budgets", which is always the claim.
  bool truncated = false;
  /// False when the lint gate failed or no model could be built — the
  /// report then carries only lint/C01 diagnostics.
  bool explored = false;
};

/// Lint the configuration (the full acc-lint rule set), and when it is
/// clean, build the verification model and run the bounded exploration plus
/// the wake-soundness audit. V* findings are appended to the same report;
/// suppressions (config "suppress" section and `lint_opts.suppress`) apply
/// to them exactly as to lint rules.
[[nodiscard]] VerifyResult verify_config_json(
    const json::Value& doc, const std::string& name,
    const VerifyOptions& opts = {}, const lint::LintOptions& lint_opts = {});

/// Deterministically replay a counterexample against a fresh model built
/// from the same configuration, rendering the action sequence and the tail
/// of the replayed TraceLog — the failing interleaving, as evidence. An
/// empty counterexample with a violating report means the INITIAL state
/// violates (construction-seeded defects), which is rendered as such.
/// Empty string when the report is clean or nothing was explored.
[[nodiscard]] std::string render_counterexample(const json::Value& doc,
                                                const std::string& name,
                                                const VerifyResult& r,
                                                const VerifyOptions& opts = {});

}  // namespace acc::verify
