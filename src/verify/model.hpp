// The bounded model checker's verification model: a small, cycle-exact
// instance of one gateway-managed accelerator chain, built from the same
// configuration grammar acc-lint parses (lint::parse_config), plus the
// "verify" section's budgets and seeded mutations.
//
// Modelling decisions (see docs/static_analysis.md):
//  - The model is FAULT-FREE: the config's "faults" section is ignored, so
//    every explored behavior is a protocol behavior, not a fault response.
//    The one exception is the kDropNotify mutation, which wires a
//    deterministic notification-drop fault directly into the exit gateway.
//  - Kernels are Pass/Decimate stubs chosen to realize each stream's
//    eta -> block_out rate; DSP contents are irrelevant to protocol safety,
//    and AcceleratorTile::snapshot_state hashes kernel state via
//    save_state(), so even the decimation counter is part of the canonical
//    state digest.
//  - The context-switch cost R_s has no Component of its own, so there is
//    no state to snapshot: it is charged inside the entry gateway's
//    reconfiguration phase, which IS explored.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "accel/kernel.hpp"
#include "lint/linter.hpp"
#include "sharing/spec.hpp"
#include "sim/chain_builder.hpp"
#include "sim/fault.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace acc::verify {

/// Seeded defects for the V-rule failing fixtures. Each mutation produces
/// exactly one rule's counterexample on an otherwise clean model:
///   kPhantomCredit  -> V02 (one extra hardware credit on the first link)
///   kAdmitOversized -> V03 (block declared smaller than it really is)
///   kDropNotify     -> V01 (every pipeline-idle notification dropped, no
///                           retry policy: the entry drains forever)
///   kSlowAccel      -> V04 (accelerators 4x slower than the analysis rho)
///   kLyingHorizon   -> V05 (a component whose next_event overpromises)
///   kMidRoundReconfig -> V06 (a context switch fired mid-round, without
///                             the mode-change protocol's quiesce step)
enum class Mutation {
  kPhantomCredit,
  kAdmitOversized,
  kDropNotify,
  kSlowAccel,
  kLyingHorizon,
  kMidRoundReconfig,
};

[[nodiscard]] std::optional<Mutation> mutation_from_string(std::string_view s);

/// Everything needed to (re)build a verification model deterministically.
/// Construction from a ModelSpec is a pure function — the explorer's
/// replay-based search and its --jobs workers each build private instances
/// that are bit-identical until stepped.
struct ModelSpec {
  sharing::SharedSystemSpec spec;
  std::vector<std::int64_t> etas;       // model block sizes, per stream
  std::vector<std::int64_t> block_out;  // output samples per block (>= 1)
  std::vector<Mutation> mutations;
  std::int64_t depth = 4;
  std::int64_t states = 256;
  std::int64_t max_advance = 200000;

  [[nodiscard]] bool has(Mutation m) const;
};

/// Parse the "verify" section (budgets, model etas, mutations) on top of an
/// already-linted LintInput. Structural problems become C01 diagnostics in
/// `rep`; returns false when no model can be built.
[[nodiscard]] bool build_model_spec(const json::Value& doc,
                                    const lint::LintInput& in, ModelSpec& out,
                                    lint::LintReport& rep);

/// V05 fixture component: declares a far-future event horizon while
/// mutating frozen-channel state every cycle — the canonical missed-wake
/// hazard the wake-soundness audit exists to catch.
class LyingClock final : public sim::Component {
 public:
  void tick(sim::Cycle now) override {
    (void)now;
    ++pulse_;
  }
  [[nodiscard]] sim::Cycle next_event(sim::Cycle now) const override {
    return now + 1000;  // a lie: tick() mutates frozen state every cycle
  }
  void snapshot_state(sim::StateHasher& h) const override { h.mix(pulse_); }

 private:
  std::int64_t pulse_ = 0;
};

/// V06 fixture component: a rogue control-plane agent that fires a context
/// switch the moment its accelerator holds an in-flight block — exactly the
/// mid-round reconfiguration the ModeChangeProtocol's quiesce step (see
/// src/ctrl/mode_change.hpp) exists to rule out. The tile's drained()
/// precondition converts the attempt into a precondition_error the explorer
/// reports as V06.
class MidRoundSwapper final : public sim::Component {
 public:
  MidRoundSwapper(sim::AcceleratorTile* accel, sim::StreamId victim)
      : accel_(accel), victim_(victim) {}
  void tick(sim::Cycle now) override {
    if (fired_ || accel_->drained()) return;
    fired_ = true;
    accel_->swap_context(victim_, now);  // throws: tile is not drained
  }
  [[nodiscard]] sim::Cycle next_event(sim::Cycle now) const override {
    return fired_ ? sim::kNeverCycle : now + 1;
  }
  void snapshot_state(sim::StateHasher& h) const override {
    h.mix(fired_ ? 1 : 0);
  }

 private:
  sim::AcceleratorTile* accel_;
  sim::StreamId victim_;
  bool fired_ = false;
};

/// One built model instance.
class Model {
 public:
  explicit Model(const ModelSpec& ms);
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  const ModelSpec& ms;
  sim::System sys;
  sim::TraceLog trace;
  sim::FaultInjector fault;  // wired only under kDropNotify
  sim::GatewayChain chain;
  std::vector<sim::CFifo*> inputs;   // per stream
  std::vector<sim::CFifo*> outputs;  // per stream
};

}  // namespace acc::verify
