// Non-monotone behaviour of minimum buffer capacities in the block size
// (paper §V-E, Fig. 8).
//
// The paper demonstrates with a two-actor model that the minimum buffer
// capacity needed to reach maximum throughput is NOT monotone in the block
// size eta: a larger block can need a *smaller* buffer, because the maximum
// achievable throughput itself changes with eta. This module provides the
// sweep machinery for both
//   (a) the paper's stand-alone two-actor model (our reconstruction of
//       Fig. 8a — the original's exact quanta are not recoverable from the
//       published figure), and
//   (b) the real gateway system: minimum alpha0/alpha3 as a function of eta
//       via the Fig. 7 abstraction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rational.hpp"
#include "sharing/spec.hpp"

namespace acc::df {
struct DseStats;  // dataflow/buffer_sizing.hpp
}

namespace acc::sharing {

/// One row of a Fig. 8(b)-style table.
struct BufferSweepPoint {
  std::int64_t eta = 0;
  /// Maximum achievable consumer throughput at this eta (samples/cycle).
  Rational max_throughput;
  /// Minimum channel capacity that reaches max_throughput.
  std::int64_t min_capacity = 0;
};

/// Two-actor model: vA (duration `producer_duration`) produces one token per
/// firing into a bounded channel; vB (duration `consumer_duration`) consumes
/// eta tokens per firing. For each eta in [eta_lo, eta_hi], compute the
/// maximum throughput and the minimal capacity achieving it. All sweeps in
/// this module take a DSE worker-thread count `jobs` (results identical for
/// any value) and an optional `stats` accumulator for the engine counters.
[[nodiscard]] std::vector<BufferSweepPoint> two_actor_buffer_sweep(
    Time producer_duration, Time consumer_duration, std::int64_t eta_lo,
    std::int64_t eta_hi, int jobs = 1, df::DseStats* stats = nullptr);

/// The non-monotone case (our Fig. 8 reproduction): the shared actor
/// (duration reconfig + per_sample*eta, paper Eq. 2) delivers blocks of eta
/// samples into a buffer drained by a DOWN-SAMPLING consumer that consumes
/// `chunk` samples per firing (duration chunk * sample_period) — the shape
/// of the paper's chain-end streams feeding the 8:1 LPF+down-sampler. When
/// eta is not aligned with `chunk`, block remainders linger in the buffer,
/// so a *smaller* block size can require a *larger* minimum buffer. The
/// sweep sizes the buffer for the fixed target rate 1/sample_period.
[[nodiscard]] std::vector<BufferSweepPoint> chunked_consumer_buffer_sweep(
    Time reconfig, Time per_sample, Time sample_period, std::int64_t chunk,
    std::int64_t eta_lo, std::int64_t eta_hi, int jobs = 1,
    df::DseStats* stats = nullptr);

/// One row of the gateway-system sweep: minimum alpha0+alpha3 for stream
/// `stream` when its block size is forced to eta (other streams at their
/// Algorithm-1 minima).
struct GatewayBufferPoint {
  std::int64_t eta = 0;
  bool feasible = false;
  std::int64_t alpha0 = 0;
  std::int64_t alpha3 = 0;
  [[nodiscard]] std::int64_t total() const { return alpha0 + alpha3; }
};

[[nodiscard]] std::vector<GatewayBufferPoint> gateway_buffer_sweep(
    const SharedSystemSpec& sys, std::size_t stream, Time sample_period,
    std::int64_t eta_lo, std::int64_t eta_hi, int jobs = 1,
    df::DseStats* stats = nullptr);

/// True iff the min_capacity sequence both rises and falls somewhere —
/// the paper's headline observation.
[[nodiscard]] bool is_non_monotone(const std::vector<std::int64_t>& values);

}  // namespace acc::sharing
