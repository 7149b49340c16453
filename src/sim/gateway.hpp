// Entry- and exit-gateway pair: the paper's core architectural contribution
// (its Fig. 4), responsible for multiplexing data streams over a chain of
// shared accelerator tiles under real-time constraints.
//
// The ENTRY-gateway admits one block of eta_s samples of stream s only when
//   1. the exit-gateway has signalled that the previous block fully left
//      the pipeline (context switches on a busy pipeline would corrupt
//      accelerator state),
//   2. at least eta_s samples are available in stream s's input C-FIFO, and
//   3. the consumer's output buffer has space for the whole block's output
//      (without this check no conservative CSDF model exists — paper §V-G).
// It then drives the configuration bus to save/restore accelerator contexts
// (R_s cycles) and DMAs the block into the chain at epsilon cycles/sample
// under hardware credit flow control.
//
// The EXIT-gateway converts the chain's output back to software flow
// control: it writes each sample into the stream's output C-FIFO (delta
// cycles/sample), and notifies the entry-gateway when the block's last
// sample has passed — the "pipeline idle" token of the CSDF model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/accel_tile.hpp"
#include "sim/cfifo.hpp"
#include "sim/component.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"

namespace acc::sim {

class ExitGateway;

/// Static per-stream multiplexing configuration.
struct StreamRoute {
  StreamId id = 0;
  std::string name;
  /// Block size (input samples per turn).
  std::int64_t eta = 1;
  /// Output samples the chain produces per block (eta / total decimation;
  /// eta must be chosen so this is exact — enforced at registration).
  std::int64_t out_per_block = 1;
  /// Input C-FIFO (filled by the producer tile) — owned elsewhere.
  CFifo* input = nullptr;
  /// Output C-FIFO (drained by the consumer tile) — owned elsewhere.
  CFifo* output = nullptr;
  /// Context-switch cost for this stream (R_s cycles).
  Cycle reconfig = 4100;
};

struct GatewayStats {
  std::int64_t blocks = 0;
  std::int64_t samples_forwarded = 0;
  Cycle data_cycles = 0;      // cycles spent DMAing samples
  Cycle reconfig_cycles = 0;  // cycles spent on the configuration bus
  Cycle wait_cycles = 0;      // admissible-but-draining or starved cycles
  // Robustness counters (see GatewayRetryPolicy and docs/robustness.md).
  std::int64_t notify_timeouts = 0;    // drain windows that hit the timeout
  std::int64_t notify_retries = 0;     // recovery polls issued
  std::int64_t notify_recoveries = 0;  // lost/late notifications reclaimed
  std::int64_t credit_stalls = 0;      // credit-starvation episodes traced
  Cycle credit_stall_cycles = 0;       // cycles stalled on hardware credits
};

/// Graceful degradation against lost or late pipeline-idle notifications:
/// if the entry-gateway drains for `notify_timeout` cycles without hearing
/// from the exit-gateway, it polls the exit directly and reclaims the
/// notification if the block has in fact fully left the pipeline. Polls
/// back off exponentially; after `max_retries` doublings the interval stays
/// at its cap, so a chain under BOUNDED faults recovers and never
/// deadlocks. notify_timeout = 0 disables recovery (seed behaviour).
struct GatewayRetryPolicy {
  Cycle notify_timeout = 0;
  int max_retries = 8;
  /// First retry interval; 0 = reuse notify_timeout.
  Cycle backoff = 0;
};

class EntryGateway final : public Component {
 public:
  /// `epsilon`: per-sample forwarding cost. The gateway injects into the
  /// chain's first accelerator at `first_node` using `first_tag` and that
  /// NI's depth as its initial credit budget.
  EntryGateway(std::string name, DualRing& ring, std::int32_t node,
               Cycle epsilon, std::int32_t first_node, std::uint32_t first_tag,
               std::int64_t first_credits);

  /// The accelerator chain this gateway manages (context-switch targets),
  /// in chain order.
  void set_chain(std::vector<AcceleratorTile*> chain);
  void set_exit(ExitGateway* exit_gw) { exit_ = exit_gw; }

  /// Register a multiplexed stream (round-robin order = registration
  /// order). Each accelerator in the chain must already hold a context for
  /// route.id.
  void add_stream(const StreamRoute& route);

  /// Deregister stream `id` (control-plane departure). Requires the quiesced
  /// resting state (kIdle with the pipeline drained): the mode-change
  /// protocol drains to a round boundary before unplugging anything. Any
  /// in-flight samples of the stream must already have left the chain; its
  /// C-FIFO watchers stay registered (stale watchers only cause harmless
  /// extra wakes — there is deliberately no watcher-removal API).
  void remove_stream(StreamId id);

  /// Freeze admission (the mode-change protocol's config-bus window): the
  /// FSM stays in kIdle and admits nothing until resume(). Requires the
  /// quiesced resting state, so pausing never strands a half-admitted
  /// block. Wait accounting keeps accruing while streams are registered —
  /// identical dense/skip behaviour keeps the steppers bit-exact.
  void pause();
  /// Lift a pause() freeze and reschedule the admission scan.
  void resume();
  [[nodiscard]] bool paused() const { return paused_; }

  void tick(Cycle now) override;
  /// Event horizon of the admission/reconfig/streaming/drain FSM: context
  /// switch completion, DMA completion, C-FIFO visibility deadlines, the
  /// credit-stall trace threshold and the drain recovery poll. kNeverCycle
  /// whenever only another component (producer push, consumer pop, credit
  /// return, exit notification) can unblock the FSM.
  [[nodiscard]] Cycle next_event(Cycle now) const override;
  /// Replays the per-cycle wait/reconfig/data/credit-stall accounting the
  /// dense loop would have performed over a quiescent range.
  void skip_to(Cycle from, Cycle to) override;
  /// Returned credits arrive over the credit ring at this node.
  [[nodiscard]] std::int32_t ring_node() const override { return node_; }
  /// Canonical state snapshot (see sim/state_hash.hpp). Frozen channel: the
  /// FSM and everything its admission/drain decisions read. Accounting
  /// channel: the counters skip_to replays. completions_ and the stats_
  /// block/sample totals are lifetime data (excluded by contract).
  void snapshot_state(StateHasher& h) const override;

  /// Steady-state replay: a streaming, fault-free gateway takes the
  /// period's pops of its active input and runs them through the chain's
  /// kernels (replay_output hands the results to the exit-gateway).
  bool replay(Replay& r) override;
  void replay_consume(const CFifo& f, Flit v) override;
  /// The active stream, while streaming a block whose samples can leave
  /// the chain before the next one enters (epsilon above sample_latency()).
  /// Otherwise consecutive samples overlap in the chain, a payload-free
  /// boundary is rare, and System::run does not look for periods.
  [[nodiscard]] std::optional<std::int64_t> streaming() const override {
    if (state_ != State::kStreaming || epsilon_ <= sample_latency())
      return std::nullopt;
    return streams_[active_].id;
  }
  /// Lower bound on the cycles a sample that reaches the exit spends in the
  /// chain: every tile's processing time plus the exit's DMA.
  [[nodiscard]] Cycle sample_latency() const;
  /// Every tile of the chain and the exit-gateway are payload-free.
  [[nodiscard]] bool payload_free() const override;
  /// Next chain output of a jump, in order.
  [[nodiscard]] Flit replay_output();

  /// Opt-in event tracing (admissions, reconfigurations, completions).
  void set_trace(TraceLog* trace) { trace_ = trace; }
  /// Opt-in metrics: gateway.<name>.* admission/reconfig/retry counters and
  /// the admission-wait histogram (idle -> admit cycles). Every update fires
  /// at an FSM transition — a cycle all steppers tick densely — so the
  /// snapshot is stepper-exact (see docs/observability.md).
  void set_metrics(obs::MetricsRegistry* registry);
  /// Opt-in fault injection: config-bus contention on context switches.
  void set_fault(FaultInjector* injector) { fault_ = injector; }
  /// Enable notification-timeout recovery (see GatewayRetryPolicy).
  void set_retry_policy(const GatewayRetryPolicy& policy);

  /// Called by the exit-gateway (via its notification latency) when the
  /// last output sample of the active block has been delivered.
  void on_pipeline_idle();

  [[nodiscard]] const GatewayStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<StreamRoute>& streams() const {
    return streams_;
  }
  /// Hardware credits currently held toward the chain's first NI (the V02
  /// credit-conservation oracle reads this).
  [[nodiscard]] std::int64_t credits() const { return credits_; }
  /// True when the FSM sits in kIdle with the pipeline drained — the only
  /// legitimate resting state for the V01 deadlock rule.
  [[nodiscard]] bool is_idle() const {
    return state_ == State::kIdle && pipeline_idle_;
  }
  /// Completion cycle of the most recent block per stream (empty until the
  /// first block finishes). For latency/throughput measurements.
  [[nodiscard]] const std::vector<Cycle>& block_completions(StreamId id) const;

  void record_block_completion(StreamId id, Cycle when);

 private:
  enum class State { kIdle, kReconfig, kStreaming, kDraining };

  /// Consecutive credit-starved cycles before a "stall.credit" trace event.
  static constexpr Cycle kCreditStallThreshold = 32;

  [[nodiscard]] bool admissible(const StreamRoute& r, Cycle now) const;
  void start_draining(Cycle now);
  void note_credit_stall(Cycle now);
  void note_credit_resume(Cycle now);
  void enter_streaming();
  /// Run the jump's pending chain inputs through every kernel.
  void run_replay_chain();

  std::string name_;
  DualRing& ring_;
  std::int32_t node_;
  Cycle epsilon_;
  std::int32_t first_node_;
  std::uint32_t first_tag_;
  std::int64_t credits_;

  std::vector<AcceleratorTile*> chain_;
  ExitGateway* exit_ = nullptr;
  std::vector<StreamRoute> streams_;
  std::vector<std::vector<Cycle>> completions_;

  State state_ = State::kIdle;
  std::size_t rr_next_ = 0;       // next stream to consider
  std::size_t active_ = 0;        // index into streams_ while not idle
  std::optional<StreamId> loaded_context_;  // context currently in the accels
  Cycle busy_until_ = 0;
  std::int64_t remaining_ = 0;    // samples left to forward in this block
  bool sample_in_flight_ = false; // DMA busy on one sample
  bool pipeline_idle_ = true;
  bool paused_ = false;           // admission frozen by the control plane
  TraceLog* trace_ = nullptr;
  FaultInjector* fault_ = nullptr;

  GatewayRetryPolicy retry_;
  Cycle drain_deadline_ = 0;      // next recovery poll while draining
  int retries_ = 0;               // polls issued for the current block
  Cycle credit_stall_since_ = -1; // -1 = not currently starved
  bool credit_stall_traced_ = false;
  Cycle idle_since_ = 0;          // cycle the FSM last entered kIdle

  // Steady-state replay data plane: popped samples not yet run through the
  // chain, and chain outputs not yet handed to the exit-gateway.
  std::vector<CQ16> replay_in_;
  std::vector<CQ16> replay_out_;
  std::size_t replay_out_pos_ = 0;

  GatewayStats stats_;
  obs::Counter m_admissions_;
  obs::Histogram m_admission_wait_;
  obs::Counter m_blocks_;
  obs::Counter m_samples_;
  obs::Counter m_reconfigs_;
  obs::Counter m_reconfig_cost_;
  obs::Counter m_bus_faults_;
  obs::Counter m_bus_fault_cycles_;
  obs::Counter m_notify_timeouts_;
  obs::Counter m_notify_retries_;
  obs::Counter m_notify_recoveries_;
  obs::Counter m_credit_stalls_;
};

class ExitGateway final : public Component {
 public:
  /// `delta`: per-sample cost of the hardware DMA converting the stream
  /// back to software flow control. `notify_lag`: cycles for the
  /// pipeline-idle notification to reach the entry-gateway.
  ExitGateway(std::string name, DualRing& ring, std::int32_t node, Cycle delta,
              std::int64_t ni_capacity = 2, Cycle notify_lag = 4);

  void set_entry(EntryGateway* entry) { entry_ = entry; }
  void set_trace(TraceLog* trace) { trace_ = trace; }
  /// Opt-in metrics: gateway.<name>.{delivered,notify_drops,notify_reclaims}.
  void set_metrics(obs::MetricsRegistry* registry);
  /// Opt-in fault injection: pipeline-idle notifications may be delayed or
  /// dropped (kExitNotify) — the entry-gateway's retry policy recovers.
  void set_fault(FaultInjector* injector) { fault_ = injector; }
  /// Upstream producer (last accelerator of the chain) for credit returns.
  void set_upstream(std::int32_t node, std::uint32_t tag);

  /// Entry-gateway arms the exit for the active block: stream and expected
  /// output count.
  void arm(StreamId stream, CFifo* output, std::int64_t expected);

  void tick(Cycle now) override;
  /// Event horizon: pending notification delivery, per-sample DMA
  /// completion, or retries of a backed-up credit return. The exit-gateway
  /// keeps no per-cycle counters, so the default (no-op) skip_to is exact.
  [[nodiscard]] Cycle next_event(Cycle now) const override;
  /// The chain's output flits arrive over the data ring at this node.
  [[nodiscard]] std::int32_t ring_node() const override { return node_; }
  /// Canonical state snapshot (see sim/state_hash.hpp). Frozen channel:
  /// queue/DMA/notification state. delivered_ and notify_drops_ are
  /// lifetime counters (excluded); the exit keeps no per-cycle accounting.
  void snapshot_state(StateHasher& h) const override;

  /// Steady-state replay: a payload-free, fault-free exit pushes the
  /// chain's outputs into the armed output C-FIFO.
  bool replay(Replay& r) override;
  Flit replay_produce(const CFifo& f) override;
  /// Nothing in the NI queue or the DMA engine.
  [[nodiscard]] bool payload_free() const override {
    return input_.empty() && !busy_;
  }

  /// Entry-gateway recovery poll: if the active block has fully left the
  /// pipeline but its notification is still pending or was lost, deliver
  /// the completion right now and return true.
  bool reclaim_notification(Cycle now);

  [[nodiscard]] std::int32_t node() const { return node_; }
  [[nodiscard]] Cycle delta() const { return delta_; }
  [[nodiscard]] std::int64_t ni_capacity() const { return ni_capacity_; }
  [[nodiscard]] std::int64_t samples_delivered() const { return delivered_; }
  [[nodiscard]] bool idle() const { return expected_ == 0; }
  /// Samples held in the NI input queue (the V02 credit-conservation oracle
  /// counts them as buffered tokens). The sample in the DMA engine is NOT
  /// included: popping it already moved its slot's credit into
  /// pending_returns().
  [[nodiscard]] std::int64_t input_fill() const {
    return static_cast<std::int64_t>(input_.size());
  }
  /// Credit returns accepted but not yet injected into the credit ring.
  [[nodiscard]] std::int64_t pending_returns() const {
    return pending_credit_returns_;
  }
  /// Notifications lost to fault injection (recovered ones included).
  [[nodiscard]] std::int64_t notifications_dropped() const {
    return notify_drops_;
  }
  /// Output samples still owed for the active block (0 when disarmed). The
  /// V03 gateway-protocol oracle checks the armed output FIFO can take
  /// every one of them.
  [[nodiscard]] std::int64_t expected_outputs() const { return expected_; }
  /// The armed block's output C-FIFO (null when disarmed).
  [[nodiscard]] const CFifo* armed_output() const { return output_; }

 private:
  std::string name_;
  DualRing& ring_;
  std::int32_t node_;
  Cycle delta_;
  std::int64_t ni_capacity_;
  Cycle notify_lag_;

  EntryGateway* entry_ = nullptr;
  std::int32_t upstream_node_ = -1;
  std::uint32_t upstream_tag_ = 0;

  std::deque<Flit> input_;
  std::vector<RingMsg> rx_;  // reusable drain buffer (hot path, no allocs)
  std::int64_t pending_credit_returns_ = 0;
  bool busy_ = false;
  Cycle busy_until_ = 0;
  Flit current_ = 0;

  StreamId stream_ = -1;
  TraceLog* trace_ = nullptr;
  FaultInjector* fault_ = nullptr;
  CFifo* output_ = nullptr;
  std::int64_t expected_ = 0;
  std::int64_t delivered_ = 0;
  std::optional<Cycle> notify_at_;
  bool notify_lost_ = false;  // fault swallowed the notification
  std::int64_t notify_drops_ = 0;
  obs::Counter m_delivered_;
  obs::Counter m_notify_drops_;
  obs::Counter m_notify_reclaims_;
};

}  // namespace acc::sim
