// Design-space exploration engine for buffer-capacity searches.
//
// The paper's central observation (its Fig. 8) is that minimum buffer
// capacities are NON-MONOTONE in the block size, which forces exhaustive
// exploration: every (block size, capacity vector) candidate is scored by an
// exact self-timed simulation. This engine makes that exploration fast
// without changing any answer:
//
//  - a memo cache keyed by the capacity vector makes repeated probes free —
//    the staircase search, the per-channel binary searches and the
//    saturation probes overlap a lot;
//  - monotone feasibility pruning: throughput is monotone non-decreasing in
//    every capacity, so `throughput >= target` is a monotone predicate — an
//    infeasible vector kills every component-wise-smaller candidate and a
//    feasible vector answers every component-wise-larger one, turning the
//    budget staircase into a frontier search;
//  - simulations skip Graph::validate() (the engine validates its snapshot
//    once) and run on one SelfTimedExecutor bound to the snapshot, which
//    keeps its repetition vector from one simulation to the next and
//    hashes states without allocating. The executor jumps the windows in
//    which a buffer fills at a steady drift (DseStats::replayed_iterations
//    counts them) and answers exactly as a run without jumps;
//  - re-timing: `retime` changes one actor's firing duration in the
//    snapshot, for a search over that duration (the shared actor of the
//    paper's Fig. 7 model runs for gamma_hat, which varies with the
//    block-size vector). Self-timed execution is monotone in every firing
//    duration (the earlier-the-better order the paper's refinement rests
//    on), so throughput can only fall as the duration grows. Each frontier
//    point therefore carries the timed actor's duration, negated, as one
//    more coordinate: feasible at (c, d) implies feasible at every
//    c' >= c, d' <= d, infeasible implies infeasible the other way, and
//    the dominance tests are unchanged. The frontier survives a re-time;
//    the memo, which holds throughputs of one timing, is cleared. Minimum
//    buffers are non-monotone in the block size (Fig. 8), not in the
//    duration, so the extra coordinate prunes exactly. Builds without
//    NDEBUG re-simulate every verdict implied by a point decided at
//    another duration and check that the two agree.
//
// Every search picks its winner by candidate enumeration order, so the
// memo and the frontier change how many simulations run, never an answer.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rational.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/graph.hpp"

namespace acc::df {

class DseEngine {
 public:
  /// Snapshots `g` (the engine never mutates the caller's graph) and
  /// validates the snapshot once; all simulations skip re-validation.
  DseEngine(const Graph& g, std::vector<Channel> channels, ActorId reference,
            BufferSizingOptions opt = {});
  /// The executor is bound to the engine's own snapshot.
  DseEngine(const DseEngine&) = delete;
  DseEngine& operator=(const DseEngine&) = delete;

  [[nodiscard]] std::size_t num_channels() const { return channels_.size(); }
  /// Capacities of the managed channels in the snapshot.
  [[nodiscard]] std::vector<std::int64_t> snapshot_capacities() const;

  /// Exact throughput of the reference actor with the managed channels at
  /// `caps` (memoized; deadlock reports as 0).
  [[nodiscard]] Rational throughput(const std::vector<std::int64_t>& caps);

  /// Memoized + pruned `throughput(caps) >= target`. The pruning frontier is
  /// per-target and resets automatically when the target changes.
  [[nodiscard]] bool feasible(const std::vector<std::int64_t>& caps,
                              const Rational& target);

  /// Saturating-doubling estimate of the supremum throughput over the
  /// managed channels (equivalent to the classic unbounded-channel probe),
  /// with max_capacity probed last.
  [[nodiscard]] Rational max_throughput_unbounded();

  /// Exact minimum capacity of channel `idx` reaching `target` with the
  /// other channels fixed at `caps` (exponential probe clamped to
  /// max_capacity + binary search). Throws invariant_error if no capacity up
  /// to max_capacity reaches the target.
  [[nodiscard]] std::int64_t min_capacity_for(std::size_t idx,
                                              std::vector<std::int64_t> caps,
                                              const Rational& target);

  /// Full capacity/throughput staircase of channel `idx`, other channels at
  /// their snapshot capacities, scanned in capacity order.
  [[nodiscard]] std::vector<ParetoPoint> pareto_sweep(std::size_t idx);

  /// Exact minimum-total capacity assignment meeting `target` — the
  /// memoized, pruned replacement of the budget-staircase DFS (exponential
  /// in the channel count: meant for the paper's small analysis graphs).
  /// Throws invariant_error if the target is unreachable within
  /// max_capacity.
  [[nodiscard]] MultiBufferResult minimize_total(const Rational& target);

  /// Set the firing duration of the single-phase actor `actor` to
  /// `duration` in the snapshot. Keeps the monotone frontier (see the file
  /// comment) and clears the memo. An engine re-times one actor only; call
  /// between searches, never from inside one.
  void retime(ActorId actor, Time duration);

  [[nodiscard]] const DseStats& stats() const { return stats_; }

 private:
  using CapVec = std::vector<std::int64_t>;

  struct CapVecHash {
    std::size_t operator()(const CapVec& v) const;
  };

  /// A verdict the frontier implies, with the duration at which the
  /// frontier point that decided it was simulated.
  struct Implied {
    bool feasible = false;
    Time decided_at = 0;
  };

  /// Analyze `caps` on the snapshot, outside the memo and the counters.
  [[nodiscard]] ThroughputResult run(const CapVec& caps);
  /// The throughput of run(), counted as a simulation.
  [[nodiscard]] Rational simulate(const CapVec& caps);

  /// `caps` extended by the frontier's duration coordinate.
  [[nodiscard]] CapVec frontier_point(const CapVec& caps) const;
  /// Frontier lookup: nullopt if the point's feasibility is not implied.
  [[nodiscard]] std::optional<Implied> frontier_implies(
      const CapVec& point) const;
  /// The frontier's verdict on `caps` at the current duration, counted as
  /// a pruning win. Builds without NDEBUG re-simulate a verdict decided at
  /// another duration and check it.
  [[nodiscard]] std::optional<bool> pruned_verdict(const CapVec& caps,
                                                   const Rational& target);
  /// Record a decided point into the frontier (dominance-filtered).
  void frontier_note(const CapVec& point, bool ok);
  /// Reset the frontier when the feasibility target changes.
  void set_target(const Rational& target);

  std::vector<Channel> channels_;
  ActorId reference_;
  BufferSizingOptions opt_;
  /// The validated snapshot every simulation sets capacities on, and the
  /// executor bound to it, reused by every simulation.
  Graph graph_;
  SelfTimedExecutor exec_;

  std::unordered_map<CapVec, Rational, CapVecHash> memo_;
  Rational target_;
  bool has_target_ = false;
  /// The actor retime() varies (none before its first call) and the
  /// duration every frontier point of this timing ends with, negated.
  ActorId timed_ = kInvalidActor;
  Time duration_ = 0;
  std::vector<CapVec> feasible_min_;    // minimal known-feasible points
  std::vector<CapVec> infeasible_max_;  // maximal known-infeasible points
  DseStats stats_;
};

}  // namespace acc::df
