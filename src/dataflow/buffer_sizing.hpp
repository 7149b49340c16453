// Minimum buffer-capacity computation for (C)SDF graphs.
//
// The paper relies on "an existing SDF technique [Geilen/Basten/Stuijk,
// DAC'05]" to compute minimum buffer capacities for a given throughput and
// demonstrates (its Fig. 8) that those minimum capacities are NON-MONOTONE
// in the block size eta. This module provides the capacity computations:
//
//  - throughput is monotonically non-decreasing in every channel capacity
//    (adding space tokens can only enable firings earlier), so a per-channel
//    binary search is exact when one capacity varies;
//  - for several channels, an exhaustive staircase search over total
//    capacity finds the exact minimum-total assignment for small graphs
//    (the sizes the paper's models have): DseEngine::minimize_total in
//    dataflow/dse.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rational.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/graph.hpp"

namespace acc::df {

/// Counters of the design-space exploration engine (dataflow/dse.hpp).
/// Exposed so tests can assert cache behaviour and benches can report a
/// perf trajectory.
struct DseStats {
  /// Self-timed simulations actually executed.
  std::int64_t simulations = 0;
  /// Throughput probes answered from the memo cache.
  std::int64_t cache_hits = 0;
  /// Throughput probes that had to simulate (== simulations, kept separate
  /// so the hit rate reads naturally).
  std::int64_t cache_misses = 0;
  /// Candidates killed because a component-wise-larger vector was already
  /// known infeasible (monotone pruning, lower side).
  std::int64_t pruned_infeasible = 0;
  /// Candidates answered because a component-wise-smaller vector was already
  /// known feasible (monotone pruning, upper side).
  std::int64_t pruned_feasible = 0;
  /// Iterations the simulations' drift replay jumped instead of simulating
  /// (ThroughputResult::replayed_iterations, summed).
  std::int64_t replayed_iterations = 0;

  [[nodiscard]] std::int64_t pruned() const {
    return pruned_infeasible + pruned_feasible;
  }
  [[nodiscard]] double cache_hit_rate() const {
    const std::int64_t probes = cache_hits + cache_misses;
    return probes == 0 ? 0.0
                       : static_cast<double>(cache_hits) /
                             static_cast<double>(probes);
  }
  DseStats& operator+=(const DseStats& o) {
    simulations += o.simulations;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    pruned_infeasible += o.pruned_infeasible;
    pruned_feasible += o.pruned_feasible;
    replayed_iterations += o.replayed_iterations;
    return *this;
  }
};

struct BufferSizingOptions {
  /// Hard upper bound on every capacity the searches probe: a capacity
  /// search throws when no capacity up to it meets its target, and the
  /// unbounded-channel probe stops at it. The executor jumps the iterations
  /// in which queues fill at a steady drift, but each change of drift is
  /// still simulated, so huge caps can make exact analysis slow.
  std::int64_t max_capacity = 4096;
  /// Iteration budget for each underlying throughput analysis.
  std::int64_t max_iterations = 200000;
  /// When set, engine counters are accumulated here when a search returns
  /// or throws.
  DseStats* stats = nullptr;
};

/// Smallest capacity a channel must have for its endpoints to fire at all:
/// the largest single-phase production and consumption must fit.
[[nodiscard]] std::int64_t channel_capacity_lower_bound(const Graph& g,
                                                        const Channel& ch);

/// Exact minimum capacity of a single channel such that throughput of
/// `reference` is >= target, all other buffers untouched. Restores the
/// original capacity on return. Throws invariant_error if no capacity up to
/// max_capacity reaches the target.
[[nodiscard]] std::int64_t min_channel_capacity_for_throughput(
    Graph& g, const Channel& ch, ActorId reference, const Rational& target,
    const BufferSizingOptions& opt = {});

struct MultiBufferResult {
  std::vector<std::int64_t> capacities;  // parallel to input channels
  std::int64_t total = 0;
};

/// One breakpoint of the capacity/throughput trade-off staircase.
struct ParetoPoint {
  std::int64_t capacity = 0;   // smallest capacity achieving `throughput`
  Rational throughput;
};

/// The full Pareto staircase of one channel: every (capacity, throughput)
/// breakpoint from the structural minimum up to saturation. Throughput is
/// monotone in capacity, so the staircase is complete and exact. Restores
/// the original capacity on return.
[[nodiscard]] std::vector<ParetoPoint> pareto_buffer_sweep(
    Graph& g, const Channel& ch, ActorId reference,
    const BufferSizingOptions& opt = {});

}  // namespace acc::df
