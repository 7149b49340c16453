// Processor, source and sink tiles.
//
// ProcessorTile models a MicroBlaze-style core running tasks under the
// real-time budget scheduler of the paper (ref [18]): each task owns a
// budget of cycles per replenishment period; the scheduler serves ready
// tasks round-robin while they hold budget. Tasks are C++ callables over
// C-FIFOs, costed in cycles per invocation.
//
// SourceTile models the radio front-end (the paper's Epiq FMC-1RX): a
// hard real-time producer emitting one prepared sample every `period`
// cycles into a C-FIFO. If the FIFO has no visible space the sample is
// LOST and counted — the real-time verdict of the whole system is
// "zero drops at the source and no starvation at the sink".
//
// SinkTile models a hard real-time consumer (audio DAC): from the first
// sample onward it pops one sample every `period` cycles; a miss counts as
// an underrun.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/cfifo.hpp"
#include "sim/component.hpp"

namespace acc::sim {

/// One schedulable task on a processor tile.
struct Task {
  std::string name;
  /// Attempt one invocation at `now`; return the cycle cost consumed, or 0
  /// if the task had no work (blocked on data/space).
  std::function<Cycle(Cycle now)> invoke;
  /// Budget (cycles) granted every replenishment period.
  Cycle budget = 100;
  /// Optional event-horizon hint: earliest cycle >= now at which `invoke`
  /// could return non-zero, assuming nobody touches its C-FIFOs in the
  /// meantime (CFifo::when_fill_visible / when_space_visible compose well
  /// here); kNeverCycle when only another component can unblock it. Leave
  /// unset to keep the tile dense (exact but slow). When set, `invoke`
  /// must be side-effect free whenever it returns 0 — blocked attempts are
  /// elided, not replayed, while cycles are skipped.
  std::function<Cycle(Cycle now)> next_ready{};
  /// Wake-list contract companions to next_ready: EVERY C-FIFO whose fill
  /// the hint reads goes in wake_on_push, every C-FIFO whose space it
  /// reads goes in wake_on_pop (the tile registers as watcher on all of
  /// them). ProcessorTile::add_task rejects a hinted task that lists
  /// neither: no push or pop would wake its tile, so the hint could go
  /// stale.
  std::vector<CFifo*> wake_on_push{};
  std::vector<CFifo*> wake_on_pop{};
};

class ProcessorTile final : public Component {
 public:
  ProcessorTile(std::string name, Cycle replenish_period);

  void add_task(Task t);
  void tick(Cycle now) override;
  /// Event horizon: running-task completion, budget replenishment of a
  /// suspended task, or the earliest Task::next_ready hint. Tasks without
  /// a hint pin the tile to dense stepping (exact legacy behavior).
  [[nodiscard]] Cycle next_event(Cycle now) const override;
  /// Replays the replenishment grid (refills keep their dense-mode phase)
  /// and the running task's busy accounting over a skipped range.
  void skip_to(Cycle from, Cycle to) override;
  /// The replenishment grid (budget_left_, next_replenish_) is frozen-
  /// channel state that skip_to replays across a parked window: exempt
  /// from the V05 digest-stability audit (see Component::frozen_skip_replay).
  [[nodiscard]] bool frozen_skip_replay() const override { return true; }
  /// Canonical state snapshot (see sim/state_hash.hpp). Frozen channel:
  /// scheduler state (budgets, running task, deadlines); invocations_ is a
  /// lifetime counter (excluded); busy_cycles_ is skip-replayed accounting.
  void snapshot_state(StateHasher& h) const override {
    for (const Cycle b : budget_left_) h.mix(b);
    h.mix(static_cast<std::int64_t>(current_));
    h.mix_cycle(busy_until_);
    h.mix_cycle(next_replenish_);
    h.accounting(busy_cycles_);
  }

  [[nodiscard]] Cycle busy_cycles() const { return busy_cycles_; }
  [[nodiscard]] std::int64_t invocations(std::size_t task) const;

  /// Opt-in metrics: proc.<name>.{invocations,busy_cycles}. busy_cycles
  /// accrues the invocation's full cost at the invocation EVENT, so the
  /// metric is stepper-exact (the per-tick busy_cycles() accessor is not a
  /// metric source for this reason).
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  std::string name_;
  Cycle period_;
  std::vector<Task> tasks_;
  std::vector<Cycle> budget_left_;
  std::vector<std::int64_t> invocations_;
  std::size_t current_ = 0;
  Cycle busy_until_ = 0;
  Cycle next_replenish_ = 0;
  Cycle busy_cycles_ = 0;
  obs::Counter m_invocations_;
  obs::Counter m_busy_;
};

class SourceTile final : public Component {
 public:
  /// Emits samples[i] at cycle start_at + i*period into `out`.
  SourceTile(std::string name, CFifo& out, std::vector<Flit> samples,
             Cycle period, Cycle start_at = 0);

  /// Bounded release jitter: sample i is emitted at its nominal time plus a
  /// deterministic pseudo-random delay in [0, max_jitter]. Models a front
  /// end whose DMA batches irregularly while the long-run rate stays 1 per
  /// `period` (delays never accumulate).
  void set_jitter(Cycle max_jitter, std::uint64_t seed = 1);

  void tick(Cycle now) override;
  /// Event horizon: the (jittered) release time of the next sample, or
  /// kNeverCycle once the sample list is exhausted. No per-cycle counters,
  /// so the default no-op skip_to is exact.
  [[nodiscard]] Cycle next_event(Cycle now) const override;
  /// Canonical state snapshot: emission cursor, release deadline, and the
  /// jitter RNG state (a consumed draw is externally visible determinism
  /// state). emitted_/dropped_ are lifetime counters (excluded).
  void snapshot_state(StateHasher& h) const override {
    h.mix_cycle(next_emit_);
    h.mix_progress(static_cast<std::int64_t>(next_));
    h.mix(jitter_state_);
  }
  /// Steady-state replay: a jitter-free source emits a fixed number of
  /// samples per period, whose values replay_produce reads ahead from the
  /// sample list; the jump stops short of the list's end.
  bool replay(Replay& r) override;
  Flit replay_produce(const CFifo& f) override;

  /// Opt-in metrics: source.<name>.{emitted,dropped}.
  void set_metrics(obs::MetricsRegistry* registry);

  [[nodiscard]] std::int64_t emitted() const { return emitted_; }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }
  [[nodiscard]] bool exhausted() const {
    return next_ >= samples_.size();
  }
  /// Nominal (jitter-free) emission time of sample i.
  [[nodiscard]] Cycle nominal_emit_time(std::size_t i) const {
    return start_at_ + static_cast<Cycle>(i) * period_;
  }

 private:
  std::string name_;
  CFifo& out_;
  std::vector<Flit> samples_;
  Cycle period_;
  Cycle start_at_;
  Cycle next_emit_;
  std::size_t next_ = 0;
  std::int64_t emitted_ = 0;
  std::int64_t dropped_ = 0;
  Cycle max_jitter_ = 0;
  std::uint64_t jitter_state_ = 0;
  std::size_t replay_ahead_ = 0;  // samples a jump has pushed past next_
  obs::Counter m_emitted_;
  obs::Counter m_dropped_;
};

class SinkTile final : public Component {
 public:
  /// Pops one sample per `period` cycles once the first sample shows up;
  /// `prefill` samples must be visible before consumption starts (DAC
  /// start-of-stream buffering).
  SinkTile(std::string name, CFifo& in, Cycle period, std::int64_t prefill = 1);

  void tick(Cycle now) override;
  /// Event horizon: the prefill visibility deadline before start, the next
  /// DAC due time after. No per-cycle counters; default skip_to is exact.
  [[nodiscard]] Cycle next_event(Cycle now) const override;
  /// Canonical state snapshot: start latch + DAC due time. The received
  /// log and underrun count are lifetime data (excluded).
  void snapshot_state(StateHasher& h) const override {
    h.mix(started_);
    h.mix_cycle(next_due_);
  }

  /// Opt-in metrics: sink.<name>.{received,underruns}. The underruns
  /// counter covers the WHOLE run, including any post-feed drain phase the
  /// harness runs after the broadcast ends — unlike a verdict that
  /// snapshots underruns() at end-of-feed, so the two can legitimately
  /// differ on a run that drains past its input.
  void set_metrics(obs::MetricsRegistry* registry);

  [[nodiscard]] const std::vector<Flit>& received() const { return received_; }
  [[nodiscard]] const std::vector<Cycle>& timestamps() const {
    return timestamps_;
  }
  [[nodiscard]] std::int64_t underruns() const { return underruns_; }
  [[nodiscard]] bool started() const { return started_; }

 private:
  std::string name_;
  CFifo& in_;
  Cycle period_;
  std::int64_t prefill_;
  bool started_ = false;
  Cycle next_due_ = 0;
  std::vector<Flit> received_;
  std::vector<Cycle> timestamps_;
  std::int64_t underruns_ = 0;
  obs::Counter m_received_;
  obs::Counter m_underruns_;
};

}  // namespace acc::sim
