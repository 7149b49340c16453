// Worst-case timing analysis of gateway-multiplexed accelerator chains:
// Equations 1-5 of the paper and the parameterized schedule of its Fig. 6.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rational.hpp"
#include "sharing/spec.hpp"

namespace acc::sharing {

/// c0 = max(epsilon, rho_A, delta): the slowest stage of the pipeline
/// determines the per-sample cost (Eq. 2 / "Given that" in Algorithm 1).
[[nodiscard]] Time bottleneck_cycles_per_sample(const ChainSpec& chain);

/// Pipeline tail: how many extra sample-slots beyond the block itself are
/// needed to flush the chain. The paper's single-accelerator Fig. 6 yields
/// (eta + 2)*c0 — one slot for the accelerator plus one for the
/// exit-gateway; a chain of k accelerators generalizes to eta + k + 1.
[[nodiscard]] std::int64_t pipeline_tail(const ChainSpec& chain);

/// tau_hat_s (Eq. 2): worst-case time to process one block of eta samples of
/// stream s once the gateway turns to it: reconfiguration plus a pipelined
/// pass over the block plus the flush tail.
[[nodiscard]] Time tau_hat(const SharedSystemSpec& sys, std::size_t stream,
                           std::int64_t eta);

/// s_hat_s (Eq. 3): worst-case wait before stream s's turn under round-robin
/// — every other stream processes one full block first.
[[nodiscard]] Time s_hat(const SharedSystemSpec& sys, std::size_t stream,
                         const std::vector<std::int64_t>& etas);

/// gamma_hat_s (Eq. 4): worst-case round duration = sum of all streams'
/// tau_hat. With identical round-robin service this is stream-independent.
[[nodiscard]] Time gamma_hat(const SharedSystemSpec& sys,
                             const std::vector<std::int64_t>& etas);

/// Eq. 5: does every stream meet its throughput constraint
/// eta_s / gamma_hat >= mu_s with the given block sizes?
[[nodiscard]] bool throughput_met(const SharedSystemSpec& sys,
                                  const std::vector<std::int64_t>& etas);

/// Fraction of the bottleneck budget consumed: c0 * sum(mu_s). The
/// block-size problem is feasible iff this is < 1 (the real relaxation of
/// Algorithm 1 has a finite solution exactly then).
[[nodiscard]] Rational utilization(const SharedSystemSpec& sys);

/// One bar of the Fig. 6 Gantt chart.
struct ScheduleEntry {
  std::string actor;   // "G0", "A0", "A1", ..., "G1"
  std::int64_t index;  // sample index within the block
  Time start = 0;
  Time end = 0;
};

struct BlockSchedule {
  std::vector<ScheduleEntry> entries;
  /// Completion time of the block (exit-gateway finishes the last sample):
  /// the exact tau_s of the paper's Fig. 6 (assuming an idle pipeline).
  Time completion = 0;
};

/// Construct the exact self-timed schedule of one block of stream s through
/// the chain (paper Fig. 6), parameterized in eta. Assumes the pipeline was
/// idle (s_s = 0) and all eta input samples plus output space are available,
/// which is precisely what the entry-gateway admission check guarantees.
[[nodiscard]] BlockSchedule block_schedule(const SharedSystemSpec& sys,
                                           std::size_t stream,
                                           std::int64_t eta);

/// Render a BlockSchedule as an ASCII Gantt chart (one row per stage,
/// `width` characters across the full span) — the printable form of the
/// paper's Fig. 6.
[[nodiscard]] std::string render_gantt(const BlockSchedule& schedule,
                                       int width = 72);

}  // namespace acc::sharing
