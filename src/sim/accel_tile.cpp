#include "sim/accel_tile.hpp"

namespace acc::sim {

AcceleratorTile::AcceleratorTile(std::string name, DualRing& ring,
                                 std::int32_t node, Cycle cycles_per_sample,
                                 std::int64_t ni_capacity)
    : name_(std::move(name)),
      ring_(ring),
      node_(node),
      cycles_per_sample_(cycles_per_sample),
      ni_capacity_(ni_capacity) {
  ACC_EXPECTS(cycles_per_sample >= 1);
  ACC_EXPECTS(ni_capacity >= 1);
}

void AcceleratorTile::register_context(StreamId id,
                                       std::unique_ptr<accel::StreamKernel> k) {
  ACC_EXPECTS(k != nullptr);
  ACC_EXPECTS_MSG(contexts_.find(id) == contexts_.end(),
                  "duplicate context for stream");
  contexts_[id] = std::move(k);
  if (active_ < 0) {
    active_ = id;
    active_kernel_ = contexts_[id].get();
  }
}

void AcceleratorTile::unregister_context(StreamId id) {
  ACC_EXPECTS_MSG(contexts_.count(id) == 1, "unknown stream context");
  ACC_EXPECTS_MSG(drained(), "context removal on a non-drained accelerator");
  contexts_.erase(id);
  if (active_ == id) {
    if (contexts_.empty()) {
      active_ = -1;
      active_kernel_ = nullptr;
    } else {
      active_ = contexts_.begin()->first;
      active_kernel_ = contexts_.begin()->second.get();
    }
  }
  // Frozen state (the contexts_ snapshot) changed from outside our own
  // tick; wake so cached horizons and the V05 audit observe the mutation.
  request_wake();
}

void AcceleratorTile::swap_context(StreamId id, Cycle now) {
  ACC_EXPECTS_MSG(contexts_.count(id) == 1, "unknown stream context");
  ACC_EXPECTS_MSG(drained(), "context switch on a non-drained accelerator");
  // A drained tile has consumed every queued input, and the precompute
  // cache drains in lockstep with the input queue — so the kernel's
  // mutable state is exactly the per-sample state here.
  ACC_CHECK_MSG(pre_counts_.empty() && pre_samples_.empty(),
                name_ + ": precompute cache survived a drain");
  active_ = id;
  active_kernel_ = contexts_.at(id).get();
  m_ctx_switches_.add();
  if (trace_ != nullptr) trace_->record(now, name_, "ctx.switch", id);
  // The switch mutates our frozen state from the entry-gateway's tick while
  // we may be parked on kNeverCycle. Our horizon is genuinely unchanged (a
  // drained tile stays parked until data arrives, which routes its own
  // wake), but waking early is always exact — and it keeps the mutation
  // visible to the wake-soundness audit (V05).
  request_wake();
}

void AcceleratorTile::set_metrics(obs::MetricsRegistry* registry) {
  const std::string prefix = "tile." + name_;
  m_samples_ = obs::make_counter(registry, prefix + ".samples");
  m_busy_ = obs::make_counter(registry, prefix + ".busy_cycles");
  m_ctx_switches_ = obs::make_counter(registry, prefix + ".ctx_switches");
  m_batch_blocks_ = obs::make_counter(registry, prefix + ".batch_blocks");
  m_batch_samples_ = obs::make_counter(registry, prefix + ".batch_samples");
}

void AcceleratorTile::set_upstream(std::int32_t node, std::uint32_t tag) {
  upstream_node_ = node;
  upstream_tag_ = tag;
}

void AcceleratorTile::set_downstream(std::int32_t node, std::uint32_t tag,
                                     std::int64_t credits) {
  downstream_node_ = node;
  downstream_tag_ = tag;
  credits_ = credits;
}

void AcceleratorTile::drain_network(Cycle) {
  // has_ejected is an inline O(1) emptiness check; most ticks of a
  // streaming phase deliver nothing, so skipping the drains outright keeps
  // the two ring consultations off the per-tick hot path.
  if (ring_.data().has_ejected(node_)) {
    ring_.data().drain_into(node_, rx_);
    for (const RingMsg& m : rx_) {
      ACC_CHECK_MSG(static_cast<std::int64_t>(input_.size()) < ni_capacity_,
                    name_ + ": NI input overflow (credit protocol violated)");
      input_.push_back(m.payload);
    }
  }
  if (ring_.credit().has_ejected(node_))
    credits_ += ring_.credit().drain_count(node_);
}

void AcceleratorTile::tick(Cycle now) {
  drain_network(now);

  // Return credits owed to the upstream producer (retry on ring pressure).
  while (pending_credit_returns_ > 0 && upstream_node_ >= 0) {
    RingMsg credit;
    credit.dst = upstream_node_;
    credit.tag = upstream_tag_;
    if (!ring_.credit().try_inject(node_, credit)) break;
    --pending_credit_returns_;
  }

  // Core pipeline: finish the in-flight sample.
  if (core_busy_ && now >= core_done_at_) {
    core_busy_ = false;
    for (const CQ16& s : scratch_out_) pending_out_.push_back(pack_sample(s));
    scratch_out_.clear();
    ++processed_;
    m_samples_.add();
    m_busy_.add(cycles_per_sample_);
  }

  // Start the next sample: needs input and room for the worst-case output
  // burst (kernels emit at most one sample per input here).
  if (!core_busy_ && !input_.empty() &&
      static_cast<std::int64_t>(pending_out_.size()) < ni_capacity_) {
    ACC_CHECK_MSG(active_ >= 0, name_ + ": no active context");
    // Several inputs queued with no cache: run the whole queue through the
    // kernel's SoA block path now and serve later starts from the cache
    // (see the cache invariant notes in accel_tile.hpp).
    if (pre_counts_.empty() && input_.size() > 1) {
      const std::size_t m = input_.size();
      block_in_.clear();
      for (const Flit q : input_) block_in_.push_back(unpack_sample(q));
      block_out_.resize(m);
      block_counts_.resize(m);
      const std::size_t produced = active_kernel_->process_block(
          block_in_, block_out_, block_counts_.data());
      for (std::size_t i = 0; i < m; ++i)
        pre_counts_.push_back(block_counts_[i]);
      for (std::size_t i = 0; i < produced; ++i)
        pre_samples_.push_back(block_out_[i]);
      m_batch_blocks_.add();
      m_batch_samples_.add(static_cast<std::int64_t>(m));
    }
    const Flit f = input_.front();
    input_.pop_front();
    ++pending_credit_returns_;  // slot freed: credit goes back upstream
    if (!pre_counts_.empty()) {
      std::uint8_t c = pre_counts_.front();
      pre_counts_.pop_front();
      while (c-- > 0) {
        scratch_out_.push_back(pre_samples_.front());
        pre_samples_.pop_front();
      }
    } else {
      active_kernel_->push(unpack_sample(f), scratch_out_);
    }
    core_busy_ = true;
    core_done_at_ = now + cycles_per_sample_;
  }
  if (core_busy_) ++busy_cycles_;

  // Forward finished samples downstream, consuming credits.
  while (!pending_out_.empty() && credits_ > 0 && downstream_node_ >= 0) {
    RingMsg m;
    m.dst = downstream_node_;
    m.tag = downstream_tag_;
    m.payload = pending_out_.front();
    if (!ring_.data().try_inject(node_, m)) break;
    pending_out_.pop_front();
    --credits_;
  }
}

Cycle AcceleratorTile::next_event(Cycle now) const {
  // Ejected ring messages await our drain: tick next cycle to pick them
  // up. This pin is what lets an otherwise-idle Ring fast-forward across
  // in-flight hop cycles without stranding a delivered message (the ring's
  // own next_event no longer covers the pickup).
  if (ring_.data().has_ejected(node_) || ring_.credit().has_ejected(node_))
    return now + 1;
  Cycle h = kNeverCycle;
  if (core_busy_) {
    h = std::min(h, core_done_at_);
  } else if (!input_.empty() &&
             static_cast<std::int64_t>(pending_out_.size()) < ni_capacity_) {
    h = now + 1;  // next sample starts on the next tick
  }
  if (!pending_out_.empty() && credits_ > 0 && downstream_node_ >= 0)
    h = now + 1;  // forward blocked only on injection backpressure: retry
  if (pending_credit_returns_ > 0 && upstream_node_ >= 0)
    h = now + 1;  // credit return blocked on injection backpressure: retry
  return h == kNeverCycle ? kNeverCycle : std::max(h, now + 1);
}

void AcceleratorTile::skip_to(Cycle from, Cycle to) {
  if (core_busy_) busy_cycles_ += to - from;
}

void AcceleratorTile::snapshot_state(StateHasher& h) const {
  h.mix(static_cast<std::int64_t>(active_));
  h.mix(credits_);
  h.mix(static_cast<std::int64_t>(input_.size()));
  for (const Flit f : input_) h.mix(f);
  h.mix(static_cast<std::int64_t>(pending_out_.size()));
  for (const Flit f : pending_out_) h.mix(f);
  h.mix(core_busy_);
  if (core_busy_) h.mix_cycle(core_done_at_);
  h.mix(static_cast<std::int64_t>(scratch_out_.size()));
  for (const CQ16& s : scratch_out_) {
    h.mix(static_cast<std::int64_t>(s.re.raw()));
    h.mix(static_cast<std::int64_t>(s.im.raw()));
  }
  h.mix(pending_credit_returns_);
  // Kernel contexts: a stateful kernel's mutable words (delay lines,
  // decimation counters) determine future outputs, so they are frozen
  // state. std::map iterates in StreamId order — deterministic.
  h.mix(static_cast<std::int64_t>(contexts_.size()));
  for (const auto& [id, kernel] : contexts_) {
    h.mix(static_cast<std::int64_t>(id));
    const std::vector<std::int32_t> words = kernel->save_state();
    h.mix(static_cast<std::int64_t>(words.size()));
    for (const std::int32_t w : words) h.mix(static_cast<std::int64_t>(w));
  }
  h.mix(static_cast<std::int64_t>(pre_counts_.size()));
  for (const std::uint8_t c : pre_counts_) h.mix(static_cast<std::int64_t>(c));
  h.mix(static_cast<std::int64_t>(pre_samples_.size()));
  for (const CQ16& s : pre_samples_) {
    h.mix(static_cast<std::int64_t>(s.re.raw()));
    h.mix(static_cast<std::int64_t>(s.im.raw()));
  }
  h.accounting(busy_cycles_);
}

}  // namespace acc::sim
