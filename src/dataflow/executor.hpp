// Self-timed execution of (C)SDF graphs with exact integer timestamps.
//
// Self-timed execution (every actor fires as soon as it is enabled) yields
// the best-case schedule of a dataflow graph; for strongly-connected,
// consistent graphs its steady state is periodic and its rate equals the
// graph's maximum achievable throughput. The paper's analyses reduce to
// questions this executor answers exactly:
//   - minimum throughput of the per-stream CSDF model (paper Fig. 5),
//   - throughput of the single-actor SDF abstraction (paper Fig. 7),
//   - minimum buffer capacities for a target throughput (paper Fig. 8),
//   - token production times for the-earlier-the-better refinement checks.
//
// Operational semantics: tokens are consumed at firing start and produced at
// firing end; serialized actors (the CSDF default) have at most one firing in
// flight; phases advance cyclically in firing-start order.
//
// Throughput analysis detects the periodic regime by state recurrence at
// iteration boundaries. While a buffer fills, boundaries instead repeat their
// *shape* (next phases and pending completions) with token counts moved by a
// fixed drift per window of iterations. The executor confirms such a drift
// over one more window, bounds how many further windows keep every enabling
// decision, and jumps them at once (drift replay, docs/analysis.md §2). The
// firing loop reads flat per-actor port tables built at construction instead
// of going through the Graph.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rational.hpp"
#include "dataflow/graph.hpp"
#include "dataflow/repetition.hpp"

namespace acc::df {

/// Observation hooks. `on_firing` is invoked when a firing starts (its end
/// time is already known); `on_produce` once per edge per completed firing
/// that produced a positive number of tokens.
struct ExecObservers {
  std::function<void(ActorId actor, std::int32_t phase, Time start, Time end)>
      on_firing;
  std::function<void(EdgeId edge, std::int64_t count, Time when)> on_produce;
};

/// Post-mortem of a deadlocked execution: which actors starved and what
/// each one was waiting for.
struct DeadlockReport {
  bool deadlocked = false;
  /// Time at which nothing could fire any more.
  Time at = 0;
  /// For every actor that can never fire again: (actor, blocking edge with
  /// too few tokens for its next phase).
  struct Starved {
    ActorId actor = kInvalidActor;
    EdgeId blocking_edge = -1;
    std::int64_t tokens_present = 0;
    std::int64_t tokens_needed = 0;
  };
  std::vector<Starved> starved;
};

/// Run the graph to quiescence and report why it stopped. A live graph
/// (runs past `horizon` without quiescing) reports deadlocked = false.
[[nodiscard]] DeadlockReport diagnose_deadlock(const Graph& g,
                                               Time horizon = 1 << 20);

/// Human-readable rendering of a deadlock report.
[[nodiscard]] std::string describe(const DeadlockReport& r, const Graph& g);

/// Result of steady-state (throughput) analysis.
struct ThroughputResult {
  /// True if execution reached a state where nothing can ever fire again.
  bool deadlocked = false;
  /// Completions of the reference actor per unit time in steady state
  /// (0 if deadlocked).
  Rational throughput;
  /// Length of the detected periodic phase in time units.
  Time period = 0;
  /// Reference-actor completions within one period.
  std::int64_t firings_in_period = 0;
  /// Number of graph iterations before the periodic state recurred, the
  /// jumped ones included.
  std::int64_t transient_iterations = 0;
  /// Iterations the drift replay jumped instead of simulating.
  std::int64_t replayed_iterations = 0;
};

/// Tag for the validation-skipping constructor: the caller vouches that the
/// graph has already passed Graph::validate(). Used by the DSE engine, which
/// validates each worker's graph clone once and keeps one executor on it.
struct assume_validated_t {
  explicit assume_validated_t() = default;
};
inline constexpr assume_validated_t assume_validated{};

class SelfTimedExecutor {
 public:
  /// The graph must outlive the executor and must validate(). Only its
  /// initial tokens (capacities) and actor durations (set_actor_duration)
  /// may change while the executor exists.
  explicit SelfTimedExecutor(const Graph& g);
  /// Skip structural validation: the caller guarantees g.validate() passed
  /// (capacity changes via set_channel_capacity never invalidate a graph).
  SelfTimedExecutor(const Graph& g, assume_validated_t);
  /// Guard against dangling references: a temporary graph cannot outlive
  /// the executor.
  explicit SelfTimedExecutor(Graph&&) = delete;
  SelfTimedExecutor(Graph&&, assume_validated_t) = delete;

  /// Restore all token counts and clocks to the initial state, read from
  /// the graph's current initial tokens.
  void reset();

  void set_observers(ExecObservers obs) { observers_ = std::move(obs); }

  /// Run until `actor` has completed `count` firings in total (since reset).
  /// Returns the completion time of the count-th firing, or nullopt if the
  /// graph deadlocks first.
  std::optional<Time> run_until_firings(ActorId actor, std::int64_t count);

  /// Run until the clock passes `horizon` (events at exactly `horizon` are
  /// processed). Returns false if the graph deadlocked before the horizon.
  bool run_for(Time horizon);

  /// Detect the periodic steady state by state recurrence at iteration
  /// boundaries of `reference` and return the exact throughput. Requires a
  /// consistent graph. `max_iterations` bounds the search. Resets first, so
  /// one executor answers repeated calls after set_channel_capacity or
  /// set_actor_duration; the repetition vector is computed on the first
  /// call and kept (neither changes it). Jumps confirmed drift windows
  /// unless an observer is installed; the result equals that of a run
  /// without jumps, which builds without NDEBUG re-run to check.
  ThroughputResult analyze_throughput(ActorId reference,
                                      std::int64_t max_iterations = 100000);

  /// Completion times of the first `count` firings of `actor` (runs the
  /// graph; call on a freshly reset executor for absolute times). Empty
  /// result slots are absent if the graph deadlocks early.
  std::vector<Time> completion_times(ActorId actor, std::int64_t count);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::int64_t tokens(EdgeId e) const { return tokens_[e]; }
  [[nodiscard]] std::int64_t completed_firings(ActorId a) const {
    return completed_[a];
  }
  /// Highest token count ever observed on an edge (buffer occupancy probe).
  [[nodiscard]] std::int64_t max_tokens_seen(EdgeId e) const {
    return max_tokens_[e];
  }

 private:
  struct Event {
    Time when;
    std::int64_t seq;  // tie-break for determinism
    ActorId actor;
    std::int32_t phase;
    friend bool operator>(const Event& a, const Event& b) {
      return std::tie(a.when, a.seq) > std::tie(b.when, b.seq);
    }
  };

  /// An input or output edge of an actor with its per-phase quanta
  /// (consumption for an input, production for an output).
  struct Port {
    EdgeId edge;
    const std::int64_t* quanta;
  };
  /// An actor's flat view of the graph: its inputs are ports_[in, out), its
  /// outputs ports_[out, end).
  struct ActorPorts {
    const Time* durations;
    std::int32_t phases;
    bool auto_concurrent;
    std::int32_t in, out, end;
  };

  /// An iteration boundary kept for the drift search. The shape is the
  /// recurrence key without token counts: the reference's overshoot past the
  /// boundary, the next phases, and (when - now, actor, phase) of every
  /// pending completion in (when, seq) order.
  struct Boundary {
    std::int64_t iter = 0;
    Time now = 0;
    std::uint64_t shape_hash = 0;
    std::vector<std::int64_t> shape;
    std::vector<std::int64_t> tokens;
    std::vector<std::int64_t> completed;
  };
  /// Boundaries kept since the last jump, the current one included.
  static constexpr std::size_t kRing = 64;

  /// Start every enabled firing at the current time, in one pass in actor
  /// order: a start only consumes tokens from the actor's own input edges
  /// (each edge has one consumer) and produces nothing until it completes
  /// in step(), so it never enables another actor.
  void start_enabled();
  /// While a drift window is open, also lowers margin_ to the windows this
  /// check keeps its outcome for.
  [[nodiscard]] bool enabled(ActorId a);
  void start_firing(ActorId a);
  void complete(const Event& ev);
  /// Advance to the next event time and process all completions there.
  /// Returns false if no events remain.
  bool step();

  /// analyze_throughput with the drift replay on or off.
  ThroughputResult analyze(ActorId reference, std::int64_t max_iterations,
                           bool replay);
  /// Record the boundary just reached in the ring's next slot.
  const Boundary& record_boundary(std::int64_t iter, std::int64_t overshoot);
  /// At boundary `b`: close the drift window ending here, jumping if it
  /// confirmed, or open one against the nearest kept boundary of b's shape.
  /// Returns the iterations jumped.
  std::int64_t drift(const Boundary& b, std::int64_t max_iterations);
  /// Close the open drift window after jumping k windows of it.
  void close_window(std::int64_t k);

  /// Expose the heap's underlying storage so record_boundary() can enumerate
  /// pending events without the O(n log n) pop-everything copy.
  class EventQueue
      : public std::priority_queue<Event, std::vector<Event>, std::greater<>> {
   public:
    [[nodiscard]] const std::vector<Event>& container() const { return c; }
    /// Move every pending event by dt; the heap order is unchanged.
    void shift(Time dt) {
      for (Event& ev : c) ev.when += dt;
    }
  };

  const Graph& g_;
  std::vector<ActorPorts> actor_ports_;
  std::vector<Port> ports_;
  Time now_ = 0;
  std::int64_t seq_ = 0;
  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> max_tokens_;
  std::vector<std::int32_t> next_phase_;
  std::vector<std::int32_t> in_flight_;
  std::vector<std::int64_t> completed_;
  EventQueue pending_;
  std::vector<Event> scratch_;  // record_boundary() working storage
  /// Repetition-vector firings, computed by the first analyze_throughput.
  std::vector<std::int64_t> rv_firings_;
  ExecObservers observers_;

  // Drift replay. The ring's slots and their vectors are reused by every
  // analysis. An open window started at ring slot window_slot_ and closes
  // at iteration window_end_; drift_ is its per-edge token drift, margin_
  // the further windows every check made in it keeps its outcome for, and
  // max_before_ max_tokens_ when it opened (max_tokens_ then tracks the
  // window's maximum).
  std::vector<Boundary> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_len_ = 0;
  bool confirming_ = false;
  std::size_t window_slot_ = 0;
  std::int64_t window_end_ = 0;
  std::int64_t margin_ = 0;
  std::vector<std::int64_t> drift_;
  std::vector<std::int64_t> max_before_;
};

}  // namespace acc::df
