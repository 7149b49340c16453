#include "sim/gateway.hpp"

#include <algorithm>

namespace acc::sim {

EntryGateway::EntryGateway(std::string name, DualRing& ring, std::int32_t node,
                           Cycle epsilon, std::int32_t first_node,
                           std::uint32_t first_tag, std::int64_t first_credits)
    : name_(std::move(name)),
      ring_(ring),
      node_(node),
      epsilon_(epsilon),
      first_node_(first_node),
      first_tag_(first_tag),
      credits_(first_credits) {
  ACC_EXPECTS(epsilon >= 1);
  ACC_EXPECTS(first_credits >= 1);
}

void EntryGateway::set_chain(std::vector<AcceleratorTile*> chain) {
  ACC_EXPECTS(!chain.empty());
  chain_ = std::move(chain);
}

void EntryGateway::add_stream(const StreamRoute& route) {
  ACC_EXPECTS(route.input != nullptr && route.output != nullptr);
  ACC_EXPECTS(route.eta >= 1 && route.out_per_block >= 1);
  ACC_EXPECTS(route.reconfig >= 0);
  ACC_EXPECTS_MSG(route.input->capacity() >= route.eta,
                  "input C-FIFO cannot hold one block (alpha0 >= eta)");
  ACC_EXPECTS_MSG(route.output->capacity() >= route.out_per_block,
                  "output C-FIFO cannot hold one block of output");
  streams_.push_back(route);
  completions_.emplace_back();
  // Admission (and mid-block streaming) horizons hang off these FIFOs'
  // visibility deadlines: a producer push or consumer pop must wake us.
  route.input->add_push_watcher(this);
  route.output->add_pop_watcher(this);
  // A parked gateway (no streams yet) may find a block already waiting in
  // the new stream's input FIFO; no push will announce it.
  request_wake();
}

void EntryGateway::remove_stream(StreamId id) {
  ACC_EXPECTS_MSG(state_ == State::kIdle && pipeline_idle_,
                  "stream removal on a non-quiesced gateway");
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].id != id) continue;
    streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(i));
    completions_.erase(completions_.begin() + static_cast<std::ptrdiff_t>(i));
    // Indices into streams_ shifted: restart the round-robin scan at the
    // front (deterministic, and fairness re-establishes within one round).
    if (rr_next_ >= streams_.size()) rr_next_ = 0;
    active_ = 0;
    if (loaded_context_ && *loaded_context_ == id) loaded_context_.reset();
    // The removal mutates frozen admission state from outside our own tick
    // while we may be parked; reschedule so cached horizons never go stale.
    request_wake();
    return;
  }
  throw precondition_error("unknown stream id");
}

void EntryGateway::pause() {
  ACC_EXPECTS_MSG(state_ == State::kIdle && pipeline_idle_,
                  "pause on a non-quiesced gateway");
  paused_ = true;
  request_wake();
}

void EntryGateway::resume() {
  paused_ = false;
  request_wake();
}

const std::vector<Cycle>& EntryGateway::block_completions(StreamId id) const {
  for (std::size_t i = 0; i < streams_.size(); ++i)
    if (streams_[i].id == id) return completions_[i];
  throw precondition_error("unknown stream id");
}

void EntryGateway::record_block_completion(StreamId id, Cycle when) {
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].id == id) {
      completions_[i].push_back(when);
      return;
    }
  }
  throw precondition_error("unknown stream id");
}

void EntryGateway::on_pipeline_idle() {
  pipeline_idle_ = true;
  // The kIdle/kDraining horizons park on kNeverCycle while waiting for
  // this notification; reschedule ourselves.
  request_wake();
}

void EntryGateway::set_retry_policy(const GatewayRetryPolicy& policy) {
  ACC_EXPECTS(policy.notify_timeout >= 0 && policy.backoff >= 0);
  ACC_EXPECTS(policy.max_retries >= 0);
  retry_ = policy;
  // A drain parked on the exit-gateway alone now has a recovery poll.
  request_wake();
}

void EntryGateway::set_metrics(obs::MetricsRegistry* registry) {
  const std::string p = "gateway." + name_;
  m_admissions_ = obs::make_counter(registry, p + ".admissions");
  m_admission_wait_ = obs::make_histogram(registry, p + ".admission_wait",
                                          obs::pow2_bounds(16, 8));
  m_blocks_ = obs::make_counter(registry, p + ".blocks");
  m_samples_ = obs::make_counter(registry, p + ".samples");
  m_reconfigs_ = obs::make_counter(registry, p + ".reconfigs");
  m_reconfig_cost_ = obs::make_counter(registry, p + ".reconfig_cost");
  m_bus_faults_ = obs::make_counter(registry, p + ".config_bus_faults");
  m_bus_fault_cycles_ =
      obs::make_counter(registry, p + ".config_bus_fault_cycles");
  m_notify_timeouts_ = obs::make_counter(registry, p + ".notify_timeouts");
  m_notify_retries_ = obs::make_counter(registry, p + ".notify_retries");
  m_notify_recoveries_ = obs::make_counter(registry, p + ".notify_recoveries");
  m_credit_stalls_ = obs::make_counter(registry, p + ".credit_stalls");
}

void EntryGateway::enter_streaming() {
  state_ = State::kStreaming;
  if (hub_ == nullptr) return;
  if (const auto stream = streaming()) hub_->streaming(*this, stream);
}

Cycle EntryGateway::sample_latency() const {
  Cycle latency = exit_ != nullptr ? exit_->delta() : 0;
  for (const AcceleratorTile* a : chain_) latency += a->cycles_per_sample();
  return latency;
}

void EntryGateway::start_draining(Cycle now) {
  state_ = State::kDraining;
  if (hub_ != nullptr) hub_->streaming(*this, std::nullopt);
  retries_ = 0;
  drain_deadline_ =
      retry_.notify_timeout > 0 ? now + retry_.notify_timeout : 0;
}

void EntryGateway::note_credit_stall(Cycle now) {
  if (credit_stall_since_ < 0) {
    credit_stall_since_ = now;
    credit_stall_traced_ = false;
  }
  ++stats_.credit_stall_cycles;
  if (!credit_stall_traced_ &&
      now - credit_stall_since_ >= kCreditStallThreshold) {
    ++stats_.credit_stalls;
    m_credit_stalls_.add();
    credit_stall_traced_ = true;
    if (trace_ != nullptr)
      trace_->record(now, name_, "stall.credit", now - credit_stall_since_);
  }
}

void EntryGateway::note_credit_resume(Cycle) { credit_stall_since_ = -1; }

bool EntryGateway::admissible(const StreamRoute& r, Cycle now) const {
  // when_*_visible(n, now) <= now is the O(1) form of fill/space >= n (the
  // deadlines are monotone, so only the n-th entry's deadline matters).
  return r.input->when_fill_visible(r.eta, now) <= now &&
         r.output->when_space_visible(r.out_per_block, now) <= now;
}

void EntryGateway::tick(Cycle now) {
  // Collect credits returned by the first accelerator's NI (inline O(1)
  // emptiness check first: most ticks deliver nothing).
  if (ring_.credit().has_ejected(node_))
    credits_ += ring_.credit().drain_count(node_);

  switch (state_) {
    case State::kIdle: {
      if (paused_) {
        // Control-plane freeze: accrue wait like any other idle cycle so
        // dense and skipping steppers account identically (see skip_to).
        if (!streams_.empty()) ++stats_.wait_cycles;
        return;
      }
      if (streams_.empty()) return;
      if (!pipeline_idle_) {
        ++stats_.wait_cycles;
        return;
      }
      // Round-robin scan: take the first admissible stream, starting at
      // rr_next_. RR lets unrelated applications share the chain fairly.
      bool found = false;
      for (std::size_t k = 0; k < streams_.size(); ++k) {
        const std::size_t idx = (rr_next_ + k) % streams_.size();
        if (admissible(streams_[idx], now)) {
          active_ = idx;
          rr_next_ = (idx + 1) % streams_.size();
          found = true;
          break;
        }
      }
      if (!found) {
        ++stats_.wait_cycles;
        return;
      }
      const StreamRoute& r = streams_[active_];
      // Context switch unless this stream's contexts are already loaded
      // (the paper's R_s is charged per switch; re-admitting the same
      // stream back-to-back skips the bus transfer).
      if (trace_ != nullptr) trace_->record(now, name_, "admit", r.id);
      m_admissions_.add();
      // Both endpoints of the wait are FSM-transition cycles (block.done /
      // construction and this admit), so the measured wait is stepper-exact.
      m_admission_wait_.observe(now - idle_since_);
      if (loaded_context_ && *loaded_context_ == r.id) {
        enter_streaming();
        remaining_ = r.eta;
        exit_->arm(r.id, r.output, r.out_per_block);
        pipeline_idle_ = false;
      } else {
        state_ = State::kReconfig;
        Cycle cost = r.reconfig;
        if (fault_ != nullptr) {
          // Config-bus contention: the save/restore transfer is delayed.
          const Cycle extra = fault_->delay(FaultSite::kConfigBus, now);
          if (extra > 0) {
            cost += extra;
            m_bus_faults_.add();
            m_bus_fault_cycles_.add(extra);
            if (trace_ != nullptr)
              trace_->record(now, name_, "fault.config_bus", extra);
          }
        }
        busy_until_ = now + cost;
        m_reconfigs_.add();
        m_reconfig_cost_.add(cost);
        ++stats_.reconfig_cycles;  // this cycle counts as reconfig work
        if (trace_ != nullptr)
          trace_->record(now, name_, "reconfig.start", r.id);
      }
      return;
    }
    case State::kReconfig: {
      if (now < busy_until_) {
        ++stats_.reconfig_cycles;
        return;
      }
      // Bus transfer done: swap every accelerator to the new stream.
      const StreamRoute& r = streams_[active_];
      for (AcceleratorTile* a : chain_) a->swap_context(r.id, now);
      loaded_context_ = r.id;
      if (trace_ != nullptr) trace_->record(now, name_, "reconfig.done", r.id);
      enter_streaming();
      remaining_ = r.eta;
      exit_->arm(r.id, r.output, r.out_per_block);
      pipeline_idle_ = false;
      return;
    }
    case State::kStreaming: {
      const StreamRoute& r = streams_[active_];
      if (sample_in_flight_) {
        ++stats_.data_cycles;
        if (now < busy_until_) return;
        // DMA cycle done; hand the flit to the network (needs a credit).
        if (credits_ <= 0) {  // stall on flow control
          note_credit_stall(now);
          return;
        }
        note_credit_resume(now);
        RingMsg m;
        m.dst = first_node_;
        m.tag = first_tag_;
        m.payload = r.input->front(now);
        if (!ring_.data().try_inject(node_, m)) return;
        (void)r.input->pop(now);
        --credits_;
        sample_in_flight_ = false;
        ++stats_.samples_forwarded;
        m_samples_.add();
        if (--remaining_ == 0) {
          start_draining(now);
          return;
        }
      }
      if (!sample_in_flight_ && remaining_ > 0) {
        // Admission guaranteed a full block, but the C-FIFO's read view may
        // trail by the network lag; wait for visibility.
        if (!r.input->can_pop(now)) {
          ++stats_.wait_cycles;
          return;
        }
        sample_in_flight_ = true;
        busy_until_ = now + epsilon_;
        ++stats_.data_cycles;
      }
      return;
    }
    case State::kDraining: {
      // Waiting for the exit-gateway's pipeline-idle notification.
      ++stats_.wait_cycles;
      if (!pipeline_idle_ && retry_.notify_timeout > 0 &&
          now >= drain_deadline_) {
        // Notification overdue: poll the exit-gateway directly. Bounded
        // retry with exponential backoff; the interval caps at
        // 2^max_retries so recovery polls continue (bounded faults must
        // never deadlock the chain), just ever more lazily.
        if (retries_ == 0) {
          ++stats_.notify_timeouts;
          m_notify_timeouts_.add();
          if (trace_ != nullptr)
            trace_->record(now, name_, "notify.timeout", streams_[active_].id);
        }
        ++stats_.notify_retries;
        m_notify_retries_.add();
        ++retries_;
        if (exit_->reclaim_notification(now)) {
          ++stats_.notify_recoveries;
          m_notify_recoveries_.add();
          if (trace_ != nullptr)
            trace_->record(now, name_, "notify.recovered",
                           streams_[active_].id);
        } else {
          const Cycle base =
              retry_.backoff > 0 ? retry_.backoff : retry_.notify_timeout;
          const int exponent =
              std::min({retries_, retry_.max_retries, 20});
          drain_deadline_ = now + (base << exponent);
          if (trace_ != nullptr)
            trace_->record(now, name_, "notify.retry", retries_);
        }
      }
      if (pipeline_idle_) {
        ++stats_.blocks;
        m_blocks_.add();
        state_ = State::kIdle;
        idle_since_ = now;
        if (trace_ != nullptr)
          trace_->record(now, name_, "block.done", streams_[active_].id);
      }
      return;
    }
  }
}

Cycle EntryGateway::next_event(Cycle now) const {
  // Credits ejected at our node await pickup: tick next cycle, in every
  // FSM state (the drain happens unconditionally at the top of tick()).
  // See AcceleratorTile::next_event for why this pin must exist.
  if (ring_.credit().has_ejected(node_)) return now + 1;
  switch (state_) {
    case State::kIdle: {
      // Frozen by the control plane: only resume() can unblock the FSM
      // (it routes a wake), so parking is exact.
      if (paused_) return kNeverCycle;
      if (streams_.empty()) return kNeverCycle;
      // Not yet notified: the exit-gateway's own horizon (notify_at_) or a
      // ring delivery bounds the wake-up; nothing here can act earlier.
      if (!pipeline_idle_) return kNeverCycle;
      // Earliest admission over all streams, from the C-FIFOs' exact
      // visibility deadlines. If every stream needs the other side to act
      // first, the producer/consumer horizons bound the system instead.
      Cycle h = kNeverCycle;
      for (const StreamRoute& r : streams_) {
        const Cycle fill = r.input->when_fill_visible(r.eta, now);
        const Cycle space = r.output->when_space_visible(r.out_per_block, now);
        h = std::min(h, std::max(fill, space));
      }
      return h == kNeverCycle ? kNeverCycle : std::max(h, now + 1);
    }
    case State::kReconfig:
      // Frozen until the context-switch bus transfer completes.
      return std::max(busy_until_, now + 1);
    case State::kStreaming: {
      const StreamRoute& r = streams_[active_];
      if (sample_in_flight_) {
        if (now < busy_until_) return busy_until_;  // DMA cycle in progress
        if (credits_ > 0) return now + 1;  // injection queue was full: retry
        // Credit-starved: the only self-generated event left is the
        // stall.credit trace emission when the starvation crosses the
        // threshold; past that, only a credit return can wake us.
        if (credit_stall_since_ < 0) return now + 1;
        if (!credit_stall_traced_)
          return std::max(credit_stall_since_ + kCreditStallThreshold,
                          now + 1);
        return kNeverCycle;
      }
      // Between samples: waiting for the next sample's read visibility.
      const Cycle fill = r.input->when_fill_visible(1, now);
      return fill == kNeverCycle ? kNeverCycle : std::max(fill, now + 1);
    }
    case State::kDraining:
      // Still waiting for pipeline-idle. With recovery enabled the next
      // self-generated event is the recovery poll; otherwise only the
      // exit-gateway can end the drain.
      if (retry_.notify_timeout > 0)
        return std::max(drain_deadline_, now + 1);
      return kNeverCycle;
  }
  return now + 1;
}

void EntryGateway::skip_to(Cycle from, Cycle to) {
  const Cycle n = to - from;
  switch (state_) {
    case State::kIdle:
      if (!streams_.empty()) stats_.wait_cycles += n;
      return;
    case State::kReconfig:
      stats_.reconfig_cycles += n;
      return;
    case State::kStreaming:
      if (sample_in_flight_) {
        stats_.data_cycles += n;
        // A skipped starved range also accrues credit-stall accounting
        // (the threshold-crossing trace cycle itself is always ticked
        // densely — next_event pins it).
        if (from >= busy_until_ && credits_ <= 0 && credit_stall_since_ >= 0)
          stats_.credit_stall_cycles += n;
      } else {
        stats_.wait_cycles += n;
      }
      return;
    case State::kDraining:
      stats_.wait_cycles += n;
      return;
  }
}

void EntryGateway::snapshot_state(StateHasher& h) const {
  h.mix(static_cast<std::int64_t>(state_));
  h.mix(static_cast<std::int64_t>(rr_next_));
  h.mix(static_cast<std::int64_t>(active_));
  h.mix(loaded_context_.has_value());
  if (loaded_context_) h.mix(static_cast<std::int64_t>(*loaded_context_));
  h.mix_cycle(busy_until_);
  h.mix_progress(remaining_);
  h.mix(sample_in_flight_);
  h.mix(pipeline_idle_);
  h.mix(paused_);
  h.mix(credits_);
  h.mix_cycle(drain_deadline_);
  h.mix(static_cast<std::int64_t>(retries_));
  // Credit-stall episode state: what tick() actually compares against now
  // is the trace-threshold deadline, so canonicalize that (a bare
  // mix_cycle(credit_stall_since_) would conflate "starved since X" with
  // "not starved" once X expires).
  h.mix(credit_stall_since_ >= 0);
  if (credit_stall_since_ >= 0)
    h.mix_cycle(credit_stall_since_ + kCreditStallThreshold);
  h.mix(credit_stall_traced_);
  // Always in the past, so the explorer's now-based canonicalization folds
  // it to the expired sentinel (it never influences future behaviour beyond
  // the wait metric) while the audit's base-0 hash still pins it exactly.
  h.mix_cycle(idle_since_);
  h.accounting(stats_.wait_cycles);
  h.accounting(stats_.reconfig_cycles);
  h.accounting(stats_.data_cycles);
  h.accounting(stats_.credit_stall_cycles);
}

bool EntryGateway::payload_free() const {
  for (const AcceleratorTile* a : chain_)
    if (!a->payload_free()) return false;
  return exit_ == nullptr || exit_->payload_free();
}

bool EntryGateway::replay(Replay& r) {
  if (state_ != State::kStreaming || fault_ != nullptr) return false;
  r.consumes(*streams_[active_].input, *this);
  r.counter(stats_.samples_forwarded);
  r.counter(stats_.data_cycles);
  r.counter(stats_.wait_cycles);
  r.counter(stats_.credit_stall_cycles);
  r.quiet(stats_.credit_stalls);
  r.quiet(stats_.blocks);
  r.progress(remaining_, 0);
  r.deadline(busy_until_);
  r.deadline(credit_stall_since_);
  r.counter(m_samples_);
  r.quiet(m_credit_stalls_);
  if (r.applying()) {
    // Samples popped after the window's last output: the kernels absorb
    // them (a decimator between outputs), so nothing may come out.
    ACC_CHECK_MSG(replay_out_pos_ == replay_out_.size(),
                  name_ + ": replay left chain outputs unconsumed");
    run_replay_chain();
    ACC_CHECK_MSG(replay_out_.empty(),
                  name_ + ": replay produced outputs no period pushed");
  }
  return true;
}

void EntryGateway::replay_consume(const CFifo&, Flit v) {
  replay_in_.push_back(unpack_sample(v));
}

Flit EntryGateway::replay_output() {
  if (replay_out_pos_ == replay_out_.size()) run_replay_chain();
  ACC_CHECK_MSG(replay_out_pos_ < replay_out_.size(),
                name_ + ": replay ran out of chain outputs");
  return pack_sample(replay_out_[replay_out_pos_++]);
}

void EntryGateway::run_replay_chain() {
  for (AcceleratorTile* a : chain_) {
    a->replay_kernel(replay_in_, replay_out_);
    std::swap(replay_in_, replay_out_);
  }
  std::swap(replay_in_, replay_out_);
  replay_in_.clear();
  replay_out_pos_ = 0;
}

ExitGateway::ExitGateway(std::string name, DualRing& ring, std::int32_t node,
                         Cycle delta, std::int64_t ni_capacity,
                         Cycle notify_lag)
    : name_(std::move(name)),
      ring_(ring),
      node_(node),
      delta_(delta),
      ni_capacity_(ni_capacity),
      notify_lag_(notify_lag) {
  ACC_EXPECTS(delta >= 1);
  ACC_EXPECTS(ni_capacity >= 1);
  ACC_EXPECTS(notify_lag >= 0);
}

void ExitGateway::set_metrics(obs::MetricsRegistry* registry) {
  const std::string p = "gateway." + name_;
  m_delivered_ = obs::make_counter(registry, p + ".delivered");
  m_notify_drops_ = obs::make_counter(registry, p + ".notify_drops");
  m_notify_reclaims_ = obs::make_counter(registry, p + ".notify_reclaims");
}

void ExitGateway::set_upstream(std::int32_t node, std::uint32_t tag) {
  upstream_node_ = node;
  upstream_tag_ = tag;
}

void ExitGateway::arm(StreamId stream, CFifo* output, std::int64_t expected) {
  ACC_EXPECTS_MSG(expected_ == 0, "exit-gateway armed while a block is active");
  ACC_EXPECTS(output != nullptr && expected >= 1);
  stream_ = stream;
  output_ = output;
  expected_ = expected;
  // Arming mutates our frozen state from the entry-gateway's tick. Our own
  // horizon is unchanged by it (expected_ only gates delivery bookkeeping,
  // which a data-flit ejection wakes anyway), but waking early is always
  // exact — and it keeps the arm visible to the wake-soundness audit (V05).
  request_wake();
}

void ExitGateway::tick(Cycle now) {
  // Inline O(1) emptiness check first: most ticks deliver nothing.
  if (ring_.data().has_ejected(node_)) {
    ring_.data().drain_into(node_, rx_);
    for (const RingMsg& m : rx_) {
      ACC_CHECK_MSG(static_cast<std::int64_t>(input_.size()) < ni_capacity_,
                    name_ + ": NI input overflow (credit protocol violated)");
      input_.push_back(m.payload);
    }
  }
  while (pending_credit_returns_ > 0 && upstream_node_ >= 0) {
    RingMsg credit;
    credit.dst = upstream_node_;
    credit.tag = upstream_tag_;
    if (!ring_.credit().try_inject(node_, credit)) break;
    --pending_credit_returns_;
  }

  // Deliver the delayed pipeline-idle notification.
  if (notify_at_ && now >= *notify_at_) {
    notify_at_.reset();
    ACC_CHECK(entry_ != nullptr);
    entry_->record_block_completion(stream_, now);
    entry_->on_pipeline_idle();
  }

  if (busy_ && now >= busy_until_) {
    busy_ = false;
    // Write completes into the consumer's C-FIFO (space was reserved at
    // admission, so this cannot overflow).
    ACC_CHECK_MSG(output_ != nullptr && output_->true_fill() <
                      output_->capacity(),
                  name_ + ": output C-FIFO overflow despite reservation");
    output_->push(now, current_);
    ++delivered_;
    m_delivered_.add();
    ACC_CHECK_MSG(expected_ > 0, name_ + ": sample arrived while disarmed");
    if (--expected_ == 0) {
      Cycle lag = notify_lag_;
      bool lost = false;
      if (fault_ != nullptr) {
        if (fault_->drop(FaultSite::kExitNotify, now)) {
          lost = true;
        } else {
          lag += fault_->delay(FaultSite::kExitNotify, now);
        }
      }
      if (lost) {
        // The notification is swallowed: only the entry-gateway's retry
        // policy can reclaim this block's completion.
        notify_lost_ = true;
        ++notify_drops_;
        m_notify_drops_.add();
        if (trace_ != nullptr)
          trace_->record(now, name_, "fault.notify_drop", stream_);
      } else {
        notify_at_ = now + lag;
      }
      if (trace_ != nullptr)
        trace_->record(now, name_, "block.delivered", stream_);
    }
  }

  if (!busy_ && !input_.empty()) {
    current_ = input_.front();
    input_.pop_front();
    ++pending_credit_returns_;
    busy_ = true;
    busy_until_ = now + delta_;
  }
}

Cycle ExitGateway::next_event(Cycle now) const {
  // Data flits ejected at our node await pickup: tick next cycle (see
  // AcceleratorTile::next_event).
  if (ring_.data().has_ejected(node_)) return now + 1;
  Cycle h = kNeverCycle;
  if (notify_at_) h = std::min(h, *notify_at_);
  if (busy_) {
    h = std::min(h, busy_until_);
  } else if (!input_.empty()) {
    h = now + 1;  // next sample's DMA starts immediately
  }
  if (pending_credit_returns_ > 0) h = now + 1;  // credit injection retry
  return h == kNeverCycle ? kNeverCycle : std::max(h, now + 1);
}

void ExitGateway::snapshot_state(StateHasher& h) const {
  h.mix(static_cast<std::int64_t>(input_.size()));
  for (const Flit f : input_) h.mix_payload(f);
  h.mix(pending_credit_returns_);
  h.mix(busy_);
  if (busy_) {
    h.mix_cycle(busy_until_);
    h.mix_payload(current_);
  }
  h.mix(static_cast<std::int64_t>(stream_));
  h.mix_progress(expected_);
  h.mix(notify_at_.has_value());
  if (notify_at_) h.mix_cycle(*notify_at_);
  h.mix(notify_lost_);
}

bool ExitGateway::replay(Replay& r) {
  if (fault_ != nullptr || !payload_free() || entry_ == nullptr) return false;
  if (output_ != nullptr) r.produces(*output_, *this, /*derived=*/true);
  r.progress(expected_, 0);
  r.counter(delivered_);
  r.deadline(busy_until_);
  if (notify_at_) r.deadline(*notify_at_);
  r.counter(m_delivered_);
  r.quiet(notify_drops_);
  return true;
}

Flit ExitGateway::replay_produce(const CFifo&) {
  current_ = entry_->replay_output();
  return current_;
}

bool ExitGateway::reclaim_notification(Cycle now) {
  if (expected_ != 0) return false;            // block still in the pipeline
  if (!notify_at_ && !notify_lost_) return false;  // already delivered
  notify_at_.reset();
  notify_lost_ = false;
  // The reclaim mutates our frozen state from the entry-gateway's tick,
  // same as arm(): route a wake so a cached horizon can never go stale on
  // this path (waking early is always exact, and it keeps the reclaim
  // visible to the wake-soundness audit, V05).
  request_wake();
  m_notify_reclaims_.add();
  ACC_CHECK(entry_ != nullptr);
  if (trace_ != nullptr)
    trace_->record(now, name_, "notify.reclaimed", stream_);
  entry_->record_block_completion(stream_, now);
  entry_->on_pipeline_idle();
  return true;
}

}  // namespace acc::sim
