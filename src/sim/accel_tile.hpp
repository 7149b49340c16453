// Accelerator tile: a context-switchable stream accelerator behind a
// network interface with credit-based flow control (paper Fig. 3b).
//
// The tile consumes data flits from its upstream producer (entry-gateway or
// a previous accelerator), runs its currently-selected per-stream kernel at
// `cycles_per_sample`, and forwards results downstream when it holds
// credits for the consumer's NI buffer. Credits are returned to the
// upstream over the credit ring whenever the tile pops a flit out of its
// input FIFO. Context switches (selecting another stream's kernel state)
// are performed by the entry-gateway via swap_context(); the accelerator
// itself "has no notion of other aspects of the system".
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/kernel.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"
#include "sim/ring.hpp"
#include "sim/trace.hpp"

namespace acc::sim {

using StreamId = std::int32_t;

class AcceleratorTile final : public Component {
 public:
  AcceleratorTile(std::string name, DualRing& ring, std::int32_t node,
                  Cycle cycles_per_sample, std::int64_t ni_capacity = 2);

  /// Register stream `id`'s virtual accelerator (kernel type + power-on
  /// state). The entry-gateway's configuration memory holds one context per
  /// multiplexed stream.
  void register_context(StreamId id, std::unique_ptr<accel::StreamKernel> k);

  /// Drop stream `id`'s virtual accelerator (control-plane departure).
  /// Requires a drained tile — the mode-change protocol quiesces the chain
  /// before reclaiming configuration memory. If the departing context was
  /// active, deterministically falls back to the lowest remaining id (or
  /// none): the next admission's swap_context reloads whatever it needs.
  void unregister_context(StreamId id);

  /// Gateway-side context switch at cycle `now`: requires the pipeline to
  /// be drained. Instantaneous here — the R_s switching time is charged by
  /// the gateway, which stalls the whole chain while the configuration bus
  /// runs (the caller's clock also timestamps the trace event, so a tile
  /// frozen by the wake-list stepper needs no resynchronization to switch).
  void swap_context(StreamId id, Cycle now);

  /// Expected upstream producer (for credit returns).
  void set_upstream(std::int32_t node, std::uint32_t tag);
  /// Downstream consumer NI: node, message tag and its buffer depth
  /// (initial credits).
  void set_downstream(std::int32_t node, std::uint32_t tag,
                      std::int64_t credits);

  void tick(Cycle now) override;
  /// Event horizon: core completion, a startable sample, or pending
  /// forwards/credit returns that must retry against ring backpressure.
  [[nodiscard]] Cycle next_event(Cycle now) const override;
  /// Replays the per-cycle busy accounting over a skipped quiescent range.
  void skip_to(Cycle from, Cycle to) override;
  /// Data and credits for this tile arrive at its ring node; the wake-list
  /// scheduler routes deliveries there back to us.
  [[nodiscard]] std::int32_t ring_node() const override { return node_; }
  /// Canonical state snapshot (see sim/state_hash.hpp). Frozen channel: the
  /// NI/core/credit state plus every registered kernel context's
  /// save_state() words — kernel-internal state (delay lines, decimation
  /// counters) determines future outputs, so equal digests must imply equal
  /// kernel futures too. processed_ is a lifetime counter (excluded);
  /// busy_cycles_ is skip-replayed accounting.
  void snapshot_state(StateHasher& h) const override;

  void set_trace(TraceLog* trace) { trace_ = trace; }
  /// Opt-in metrics: tile.<name>.{samples,busy_cycles,ctx_switches}.
  /// busy_cycles accrues cycles_per_sample at each completion EVENT (not
  /// per tick), so the total equals the dense busy accounting for every
  /// finished sample and is bit-identical across steppers.
  void set_metrics(obs::MetricsRegistry* registry);

  [[nodiscard]] std::int32_t node() const { return node_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool drained() const {
    return input_.empty() && pending_out_.empty() && !core_busy_;
  }
  [[nodiscard]] std::int64_t samples_processed() const { return processed_; }
  [[nodiscard]] std::int64_t busy_cycles() const { return busy_cycles_; }
  /// Credit-conservation oracles (V02): credits held toward the downstream
  /// NI, tokens buffered in our own NI input queue, and credit returns
  /// accepted but not yet injected. The in-core sample is not part of
  /// input_fill() — popping it already moved its slot's credit into
  /// pending_returns().
  [[nodiscard]] std::int64_t credits() const { return credits_; }
  [[nodiscard]] std::int64_t input_fill() const {
    return static_cast<std::int64_t>(input_.size());
  }
  [[nodiscard]] std::int64_t pending_returns() const {
    return pending_credit_returns_;
  }

 private:
  void drain_network(Cycle now);

  std::string name_;
  DualRing& ring_;
  std::int32_t node_;
  Cycle cycles_per_sample_;
  std::int64_t ni_capacity_;

  std::int32_t upstream_node_ = -1;
  std::uint32_t upstream_tag_ = 0;
  std::int32_t downstream_node_ = -1;
  std::uint32_t downstream_tag_ = 0;
  std::int64_t credits_ = 0;

  std::map<StreamId, std::unique_ptr<accel::StreamKernel>> contexts_;
  StreamId active_ = -1;
  accel::StreamKernel* active_kernel_ = nullptr;  // contexts_[active_]

  std::deque<Flit> input_;
  std::vector<RingMsg> rx_;  // reusable drain buffer (hot path, no allocs)
  std::deque<Flit> pending_out_;
  std::vector<CQ16> scratch_out_;
  bool core_busy_ = false;
  Cycle core_done_at_ = 0;
  std::int64_t pending_credit_returns_ = 0;

  // Kernel precompute cache (ISSUE 8): when a sample start finds several
  // inputs queued, the whole queue runs through process_block at once and
  // each later start consumes its input's cached outputs. The trigger
  // depends only on the tile's own state at a start event — start events
  // happen at identical cycles with identical queue contents under every
  // stepper — so the cache (and its metrics) is stepper-exact. The kernel's
  // mutable state advances at precompute time, which is unobservable: the
  // only external reader is swap_context, which requires a drained tile,
  // and a drained tile has an empty cache (asserted there).
  std::deque<std::uint8_t> pre_counts_;  // outputs per still-queued input
  std::deque<CQ16> pre_samples_;         // the cached outputs, in order
  std::vector<CQ16> block_in_;           // process_block scratch
  std::vector<CQ16> block_out_;
  std::vector<std::uint8_t> block_counts_;

  std::int64_t processed_ = 0;
  std::int64_t busy_cycles_ = 0;
  TraceLog* trace_ = nullptr;
  obs::Counter m_samples_;
  obs::Counter m_busy_;
  obs::Counter m_ctx_switches_;
  obs::Counter m_batch_blocks_;
  obs::Counter m_batch_samples_;
};

}  // namespace acc::sim
