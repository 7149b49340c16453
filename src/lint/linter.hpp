// The acc-lint model linter: static admissibility checking of a shared-
// accelerator configuration WITHOUT running the simulator.
//
// The paper's temporal guarantees (Eq. 2-5) only hold under preconditions —
// consistent dataflow models, deadlock-free buffer capacities, sane Eq. 2-4
// parameters, well-formed gateway chains, reproducible fault configs. The
// linter front-loads all of them into a millisecond-scale check, in the
// spirit of UltraShare's admissibility gate (arXiv:1910.00197), so a bad
// configuration is rejected before a multi-second cycle-exact run (or a
// production deployment) ever starts.
//
// Inputs come either as an in-memory LintInput (the examples and pal_system
// lint themselves at startup) or as a JSON configuration document — the
// sharing/serialize.hpp spec format extended with optional "etas",
// "fifos", "gateways", "graphs", "faults", "determinism" and "suppress"
// sections (see docs/static_analysis.md for the format and rule catalog).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/graph.hpp"
#include "lint/diagnostics.hpp"
#include "sharing/spec.hpp"

namespace acc::sim {
class FaultInjector;
}  // namespace acc::sim

namespace acc::lint {

struct NamedGraph {
  std::string name;
  df::Graph graph;
};

struct FifoDecl {
  std::string name;
  std::int64_t capacity = 0;
};

/// One gateway of the architecture. Pairing is by `chain` name: every chain
/// must end up with exactly one entry and one exit gateway (rule G01), and
/// every entry-gateway stream must name the consumer C-FIFO its admission
/// space check watches (rule G02).
struct GatewayDecl {
  std::string name;
  bool is_entry = true;
  std::string chain = "chain";
  /// Entry gateways: indices into the spec's streams served by this chain.
  std::vector<std::size_t> streams;
  /// Entry gateways: consumer C-FIFO per served stream (parallel to
  /// `streams`).
  std::vector<std::string> consumer_fifos;
};

struct FaultSiteDecl {
  std::string site;  // fault_site_name() vocabulary, e.g. "config_bus"
  double probability = 0.0;
  double drop_probability = 0.0;
  std::int64_t max_delay = 0;
  std::int64_t min_spacing = 0;
  std::int64_t window_from = 0;
  std::int64_t window_until = -1;  // -1 = open-ended
};

struct FaultsDecl {
  bool seeded = false;
  std::uint64_t seed = 0;
  std::vector<FaultSiteDecl> sites;
};

struct DeterminismDecl {
  bool event_stepper = true;
  bool rng_seeded = true;
  std::vector<std::string> tasks_without_next_ready;
};

/// One join template of a dynamic control-plane workload (src/ctrl/): the
/// stream parameters a session may instantiate at runtime, plus the
/// accelerator kinds its kernel chain programs (in chain order).
struct CtrlJoinDecl {
  std::string name;
  Rational mu;
  std::int64_t reconfig = 0;
  std::int64_t decimation = 1;
  std::vector<std::string> accel_kinds;
};

/// Control-plane declaration ("ctrl" config section). Rule C02 checks that
/// every join template is admissible AT LEAST when it runs alone at
/// eta = eta_max (otherwise the admission controller would reject every
/// single instance); rule G03 checks that templates only reference
/// accelerator kinds the chain declares.
struct CtrlDecl {
  std::int64_t eta_max = 1 << 16;
  /// Accelerator kinds the chain provides, in chain order.
  std::vector<std::string> accel_kinds;
  std::vector<CtrlJoinDecl> joins;
};

struct LintInput {
  std::string name = "<config>";
  std::optional<sharing::SharedSystemSpec> spec;
  /// Block sizes under lint; empty = solve Algorithm 1 internally.
  std::vector<std::int64_t> etas;
  /// Input C-FIFO per stream (parallel to spec->streams; "" = undeclared).
  std::vector<std::string> stream_fifos;
  /// Samples each block of stream s leaves in its consumer C-FIFO
  /// (parallel to spec->streams; 0 = eta_s, i.e. no rate change).
  std::vector<std::int64_t> block_out;
  std::vector<FifoDecl> fifos;
  std::vector<GatewayDecl> gateways;
  std::vector<NamedGraph> graphs;
  std::optional<FaultsDecl> faults;
  std::optional<DeterminismDecl> determinism;
  std::optional<CtrlDecl> ctrl;
  /// Rule IDs/names dropped from the report (config "suppress" section).
  std::vector<std::string> suppress;
};

struct LintOptions {
  /// Additional suppressions (CLI --allow), merged with the config's.
  std::vector<std::string> suppress;
};

/// Run every applicable rule over an in-memory input.
[[nodiscard]] LintReport lint_input(const LintInput& input,
                                    const LintOptions& opts = {});

/// Parse the extended configuration document into a LintInput; structural
/// problems become C01 diagnostics in `rep` rather than exceptions. The
/// bounded model checker (src/verify/) reuses this so acc-lint and
/// acc-verify agree on a single config grammar.
[[nodiscard]] LintInput parse_config(const json::Value& doc,
                                     const std::string& name, LintReport& rep);

/// Parse an extended configuration document and lint it. Structural
/// problems (missing keys, wrong types, out-of-range values) become C01
/// diagnostics rather than exceptions, so one run reports everything.
[[nodiscard]] LintReport lint_config_json(const json::Value& doc,
                                          const std::string& name,
                                          const LintOptions& opts = {});

/// Mirror a live FaultInjector's configuration into a lintable declaration
/// (sites carry their fault_site_name; the injector's seed marks it seeded).
[[nodiscard]] FaultsDecl faults_from_injector(const sim::FaultInjector& inj);

/// True iff argv contains `--no-lint` (the examples' escape hatch).
[[nodiscard]] bool no_lint_requested(int argc, char** argv);

/// Startup gate for example binaries: honours --no-lint, otherwise lints
/// `input`, printing any findings to `err`. Returns false when error-tier
/// diagnostics remain — the caller should exit non-zero instead of running.
[[nodiscard]] bool startup_gate(int argc, char** argv, const LintInput& input,
                                std::ostream& err);

}  // namespace acc::lint
