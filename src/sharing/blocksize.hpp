// Minimum block-size computation (paper Algorithm 1) and buffer-optimal
// block-size search (the branch-and-bound the paper sketches in §V-F).
//
// Given per-stream throughput requirements mu_s, find the smallest block
// sizes eta_s such that every stream still meets its throughput when all
// streams share the chain round-robin:
//
//   minimize   sum_s eta_s
//   subject to eta_s - c0 * mu_s * sum_i (eta_i + T) >= mu_s * sum_i R_i
//              eta_s >= 1, integer                     (Eq. 6-9)
//
// with c0 = max(epsilon, rho_A, delta) and T the pipeline tail. Two
// independent solvers are provided — the ILP of the paper (via our simplex +
// branch-and-bound) and an exact-rational least-fixed-point iteration — and
// must agree; the constraint system is monotone, so the least fixed point is
// component-wise minimal and hence also sum-minimal.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rational.hpp"
#include "sharing/spec.hpp"

namespace acc::df {
struct DseStats;  // dataflow/buffer_sizing.hpp
}

namespace acc::sharing {

struct BlockSizeResult {
  bool feasible = false;
  /// Minimum block sizes, one per stream.
  std::vector<std::int64_t> eta;
  std::int64_t total_eta = 0;
  /// Worst-case round duration gamma_hat at the solution.
  Time gamma = 0;
};

/// Solve Algorithm 1 with the MILP solver (paper's formulation).
[[nodiscard]] BlockSizeResult solve_block_sizes_ilp(const SharedSystemSpec& sys);

/// Solve the same system by Kleene iteration of
///   eta_s <- max(1, ceil(mu_s * (sum_i R_i + c0 * sum_i (eta_i + T))))
/// from eta = 1. Exact rational arithmetic; converges to the least fixed
/// point (the component-wise minimal feasible block sizes) whenever
/// utilization < 1.
[[nodiscard]] BlockSizeResult solve_block_sizes_fixpoint(
    const SharedSystemSpec& sys, std::int64_t max_iterations = 100000);

/// Real (LP) relaxation in closed form: eta_s = mu_s * X with
/// X = (sum R + c0*T*|S|) / (1 - c0*sum mu). Lower-bounds both solvers.
/// Returns empty when infeasible (utilization >= 1).
[[nodiscard]] std::vector<Rational> block_size_real_relaxation(
    const SharedSystemSpec& sys);

struct StreamBufferResult {
  bool feasible = false;
  std::int64_t alpha0 = 0;
  std::int64_t alpha3 = 0;
  [[nodiscard]] std::int64_t total() const { return alpha0 + alpha3; }
};

/// Minimum alpha0/alpha3 capacities (via the single-actor SDF abstraction of
/// paper Fig. 7) such that stream s sustains its sample rate, with the
/// producer emitting one sample per `sample_period` cycles, the shared actor
/// firing for gamma_hat cycles per eta-sample block, and the consumer
/// claiming `consumer_chunk` samples atomically per firing (1 = plain
/// sample-rate consumer; >1 = a downstream block consumer such as the next
/// gateway stream or a down-sampler — the Fig. 8 non-monotone case).
/// `jobs` is the DSE worker-thread count (results identical for any value);
/// `stats` optionally accumulates the engine counters.
[[nodiscard]] StreamBufferResult min_buffers_for_stream(
    const SharedSystemSpec& sys, std::size_t stream,
    const std::vector<std::int64_t>& etas, Time sample_period,
    std::int64_t consumer_chunk = 1, int jobs = 1,
    df::DseStats* stats = nullptr);

struct OptimalBlockResult {
  bool feasible = false;
  std::vector<std::int64_t> eta;
  std::vector<StreamBufferResult> buffers;  // per stream
  std::int64_t total_buffer = 0;
};

/// Exhaustive branch-and-bound over block-size vectors (from the Algorithm-1
/// minimum up to `eta_slack` extra samples per stream) minimizing the TOTAL
/// buffer capacity across streams. This implements the search the paper
/// describes as "a computationally intensive branch-and-bound algorithm";
/// the non-monotonicity of buffer sizes in eta (paper Fig. 8) is exactly why
/// minimal blocks need not give minimal buffers. `consumer_chunks` (empty =
/// all 1) gives each stream's downstream claim granularity. Each (stream,
/// eta_s) is sized on one DSE engine re-timed across its gamma_hat values
/// (docs/analysis.md §5); the answer, ties included, is that of calling
/// min_buffers_for_stream for every stream of every vector.
[[nodiscard]] OptimalBlockResult optimal_blocks_for_buffers(
    const SharedSystemSpec& sys, const std::vector<Time>& sample_periods,
    std::int64_t eta_slack,
    const std::vector<std::int64_t>& consumer_chunks = {}, int jobs = 1,
    df::DseStats* stats = nullptr);

}  // namespace acc::sharing
