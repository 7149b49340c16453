// Design-space exploration engine for buffer-capacity searches.
//
// The paper's central observation (its Fig. 8) is that minimum buffer
// capacities are NON-MONOTONE in the block size, which forces exhaustive
// exploration: every (block size, capacity vector) candidate is scored by an
// exact self-timed simulation. This engine makes that exploration fast
// without changing any answer:
//
//  - a fixed-size thread pool evaluates independent capacity vectors
//    concurrently, each worker owning a private Graph clone so capacity
//    mutation never races;
//  - a memo cache keyed by the capacity vector makes repeated probes free —
//    the staircase search, the per-channel binary searches and the
//    saturation probes overlap a lot;
//  - monotone feasibility pruning: throughput is monotone non-decreasing in
//    every capacity, so `throughput >= target` is a monotone predicate — an
//    infeasible vector kills every component-wise-smaller candidate and a
//    feasible vector answers every component-wise-larger one, turning the
//    budget staircase into a frontier search;
//  - simulations skip Graph::validate() (the engine validates its clones
//    once) and run on one SelfTimedExecutor per worker clone, which keeps
//    its repetition vector from one simulation to the next and hashes
//    states without allocating. The executor jumps the windows in which a
//    buffer fills at a steady drift (DseStats::replayed_iterations counts
//    them) and answers exactly as a run without jumps;
//  - re-timing: `retime` changes one actor's firing duration on every
//    clone, for a search over that duration (the shared actor of the
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
// Results are bit-identical across thread counts: feasibility of a vector is
// a pure function of the vector, and every search picks winners by candidate
// enumeration order, never by completion order.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rational.hpp"
#include "common/thread_pool.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/graph.hpp"

namespace acc::df {

class DseEngine {
 public:
  /// Snapshots `g` (the engine never mutates the caller's graph) and
  /// validates the clone once; all simulations skip re-validation.
  DseEngine(const Graph& g, std::vector<Channel> channels, ActorId reference,
            BufferSizingOptions opt = {});

  [[nodiscard]] std::size_t num_channels() const { return channels_.size(); }
  /// Threads actually used (opt.jobs resolved; 0 means hardware threads).
  [[nodiscard]] std::size_t jobs() const { return pool_.size(); }
  /// Capacities of the managed channels in the snapshot.
  [[nodiscard]] std::vector<std::int64_t> snapshot_capacities() const;

  /// Exact throughput of the reference actor with the managed channels at
  /// `caps` (memoized; thread-safe; deadlock reports as 0).
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
  /// their snapshot capacities. With jobs > 1 the sweep evaluates capacities
  /// speculatively in waves; the returned staircase is identical either way.
  [[nodiscard]] std::vector<ParetoPoint> pareto_sweep(std::size_t idx);

  /// Exact minimum-total capacity assignment meeting `target` — the parallel,
  /// memoized, pruned replacement of the serial budget-staircase DFS
  /// (exponential in the channel count: meant for the paper's small
  /// analysis graphs). The result (vector and total) is independent of the
  /// thread count. Throws invariant_error if the target is unreachable
  /// within max_capacity.
  [[nodiscard]] MultiBufferResult minimize_total(const Rational& target);

  /// Set the firing duration of the single-phase actor `actor` to
  /// `duration` on every worker clone. Keeps the monotone frontier (see the
  /// file comment) and clears the memo. An engine re-times one actor only;
  /// call between searches, never from inside one.
  void retime(ActorId actor, Time duration);

  /// Snapshot of the counters (thread-safe).
  [[nodiscard]] DseStats stats() const;

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

  /// Analyze `caps` on the given worker's private graph clone, outside the
  /// memo and the counters.
  [[nodiscard]] ThroughputResult run(std::size_t worker, const CapVec& caps);
  /// The throughput of run(), counted as a simulation.
  [[nodiscard]] Rational simulate(std::size_t worker, const CapVec& caps);
  /// Memoized throughput usable from pool tasks.
  [[nodiscard]] Rational throughput_on(std::size_t worker, const CapVec& caps);
  /// Memoized + pruned feasibility usable from pool tasks.
  [[nodiscard]] bool feasible_on(std::size_t worker, const CapVec& caps,
                                 const Rational& target);

  /// `caps` extended by the frontier's duration coordinate.
  [[nodiscard]] CapVec frontier_point(const CapVec& caps) const;
  /// Frontier lookup: nullopt if the point's feasibility is not implied.
  /// Must be called with mu_ held.
  [[nodiscard]] std::optional<Implied> frontier_implies(
      const CapVec& point) const;
  /// The frontier's verdict on `caps` at the current duration, counted as
  /// a pruning win. Builds without NDEBUG re-simulate a verdict decided at
  /// another duration on `worker` and check it. Must be called with mu_
  /// held.
  [[nodiscard]] std::optional<bool> pruned_verdict(std::size_t worker,
                                                   const CapVec& caps,
                                                   const Rational& target);
  /// Record a decided point into the frontier (dominance-filtered).
  /// Must be called with mu_ held.
  void frontier_note(const CapVec& point, bool ok);
  /// Reset the frontier when the feasibility target changes. Locks mu_.
  void set_target(const Rational& target);

  std::vector<Channel> channels_;
  ActorId reference_;
  BufferSizingOptions opt_;
  ThreadPool pool_;
  /// One private clone per worker (index = worker id); clone 0 doubles as
  /// the driver-thread graph for serial phases.
  std::vector<Graph> worker_graphs_;
  /// One executor per clone, reused by every simulation on that worker.
  std::vector<SelfTimedExecutor> worker_execs_;

  mutable std::mutex mu_;
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
