#include "sim/proc_tile.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace acc::sim {

ProcessorTile::ProcessorTile(std::string name, Cycle replenish_period,
                             SchedulerPolicy policy)
    : name_(std::move(name)), period_(replenish_period), policy_(policy) {
  ACC_EXPECTS(replenish_period >= 1);
}

void ProcessorTile::add_task(Task t) {
  ACC_EXPECTS(t.invoke != nullptr);
  ACC_EXPECTS(t.budget >= 1);
  ACC_EXPECTS_MSG(!t.next_ready || !t.wake_on_push.empty() ||
                      !t.wake_on_pop.empty(),
                  "task '" + t.name +
                      "' has a next_ready hint but no wake_on_push or "
                      "wake_on_pop C-FIFO");
  budget_left_.push_back(t.budget);
  invocations_.push_back(0);
  // Wake-list contract: the hint's C-FIFO dependencies wake this tile.
  for (CFifo* f : t.wake_on_push) f->add_push_watcher(this);
  for (CFifo* f : t.wake_on_pop) f->add_pop_watcher(this);
  tasks_.push_back(std::move(t));
  request_wake();  // the new task may be ready at once
}

std::int64_t ProcessorTile::invocations(std::size_t task) const {
  ACC_EXPECTS(task < invocations_.size());
  return invocations_[task];
}

void ProcessorTile::set_metrics(obs::MetricsRegistry* registry) {
  const std::string p = "proc." + name_;
  m_invocations_ = obs::make_counter(registry, p + ".invocations");
  m_busy_ = obs::make_counter(registry, p + ".busy_cycles");
}

void ProcessorTile::tick(Cycle now) {
  if (tasks_.empty()) return;
  if (now >= next_replenish_) {
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      budget_left_[i] = tasks_[i].budget;
    next_replenish_ = now + period_;
  }
  if (now < busy_until_) {
    ++busy_cycles_;
    return;
  }
  // Candidate order: round-robin rotation, or strict priority (stable by
  // registration order within a priority level). Only tasks still holding
  // budget are eligible — budget exhaustion suspends a task until the next
  // replenishment, giving the temporal isolation the dataflow analysis of
  // software tasks relies on (ref [18]).
  order_.clear();
  if (policy_ == SchedulerPolicy::kPriorityBudget) {
    for (std::size_t k = 0; k < tasks_.size(); ++k) order_.push_back(k);
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return tasks_[a].priority > tasks_[b].priority;
                     });
  } else {
    for (std::size_t k = 0; k < tasks_.size(); ++k)
      order_.push_back((current_ + k) % tasks_.size());
  }
  for (const std::size_t idx : order_) {
    if (budget_left_[idx] <= 0) continue;
    const Cycle cost = tasks_[idx].invoke(now);
    if (cost > 0) {
      budget_left_[idx] -= cost;
      busy_until_ = now + cost;
      ++busy_cycles_;
      ++invocations_[idx];
      m_invocations_.add();
      m_busy_.add(cost);
      current_ = (idx + 1) % tasks_.size();
      return;
    }
  }
}

Cycle ProcessorTile::next_event(Cycle now) const {
  if (tasks_.empty()) return kNeverCycle;
  if (now < busy_until_) return busy_until_;  // invocation in progress
  Cycle h = kNeverCycle;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    // Earliest cycle task i could run: its data/space readiness hint,
    // further deferred to the next replenishment while its budget is spent.
    Cycle t = tasks_[i].next_ready
                  ? std::max(tasks_[i].next_ready(now), now + 1)
                  : now + 1;
    if (budget_left_[i] <= 0) t = std::max(t, next_replenish_);
    h = std::min(h, t);
  }
  return h;
}

void ProcessorTile::skip_to(Cycle from, Cycle to) {
  if (tasks_.empty()) return;
  // Replay the replenishment grid: dense ticking refills at exactly
  // next_replenish_, next_replenish_ + period, ... — preserve that phase.
  while (next_replenish_ < to) {
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      budget_left_[i] = tasks_[i].budget;
    next_replenish_ += period_;
  }
  const Cycle busy_end = std::min(to, busy_until_);
  if (busy_end > from) busy_cycles_ += busy_end - from;
}

SourceTile::SourceTile(std::string name, CFifo& out, std::vector<Flit> samples,
                       Cycle period, Cycle start_at)
    : name_(std::move(name)),
      out_(out),
      samples_(std::move(samples)),
      period_(period),
      start_at_(start_at),
      next_emit_(start_at) {
  ACC_EXPECTS(period >= 1);
}

void SourceTile::set_jitter(Cycle max_jitter, std::uint64_t seed) {
  ACC_EXPECTS(max_jitter >= 0);
  max_jitter_ = max_jitter;
  jitter_state_ = seed;
  // Re-derive the first emission time under jitter.
  if (next_ == 0) {
    acc::SplitMix64 rng(jitter_state_);
    next_emit_ = start_at_ + rng.uniform(0, max_jitter_);
    jitter_state_ = rng.next();
  }
}

void SourceTile::tick(Cycle now) {
  if (next_ >= samples_.size() || now < next_emit_) return;
  // Hard real-time: the sample leaves the antenna now; it either fits in
  // the FIFO or it is gone.
  if (out_.can_push(now)) {
    out_.push(now, samples_[next_]);
    ++emitted_;
    m_emitted_.add();
  } else {
    ++dropped_;
    m_dropped_.add();
  }
  ++next_;
  // Next release: nominal grid plus bounded jitter (never cumulative).
  next_emit_ = nominal_emit_time(next_);
  if (max_jitter_ > 0) {
    acc::SplitMix64 rng(jitter_state_);
    next_emit_ += rng.uniform(0, max_jitter_);
    jitter_state_ = rng.next();
  }
}

void SourceTile::set_metrics(obs::MetricsRegistry* registry) {
  const std::string p = "source." + name_;
  m_emitted_ = obs::make_counter(registry, p + ".emitted");
  m_dropped_ = obs::make_counter(registry, p + ".dropped");
}

bool SourceTile::replay(Replay& r) {
  if (max_jitter_ > 0) return false;
  r.produces(out_, *this);
  auto next = static_cast<std::int64_t>(next_);
  r.progress(next, static_cast<std::int64_t>(samples_.size()));
  if (r.applying()) {
    ACC_CHECK_MSG(static_cast<std::size_t>(next) - next_ == replay_ahead_,
                  name_ + ": replayed pushes disagree with the period");
    replay_ahead_ = 0;
  }
  next_ = static_cast<std::size_t>(next);
  r.counter(emitted_);
  r.quiet(dropped_);
  r.deadline(next_emit_);
  r.counter(m_emitted_);
  r.quiet(m_dropped_);
  return true;
}

Flit SourceTile::replay_produce(const CFifo&) {
  return samples_[next_ + replay_ahead_++];
}

Cycle SourceTile::next_event(Cycle now) const {
  if (next_ >= samples_.size()) return kNeverCycle;
  return std::max(next_emit_, now + 1);
}

SinkTile::SinkTile(std::string name, CFifo& in, Cycle period,
                   std::int64_t prefill)
    : name_(std::move(name)), in_(in), period_(period), prefill_(prefill) {
  ACC_EXPECTS(period >= 1);
  ACC_EXPECTS(prefill >= 1);
  // Pre-start the horizon is the prefill visibility deadline: each push
  // must wake us. After start the DAC grid self-schedules.
  in_.add_push_watcher(this);
}

void SinkTile::tick(Cycle now) {
  if (!started_) {
    if (in_.when_fill_visible(prefill_, now) <= now) {
      started_ = true;
      next_due_ = now;
      // From here on the DAC grid alone schedules us: a push no longer can
      // move our horizon, and a period of the chain feeding us must not
      // count our idle ticks as its own.
      in_.remove_push_watcher(this);
    } else {
      return;
    }
  }
  if (now < next_due_) return;
  if (in_.can_pop(now)) {
    received_.push_back(in_.pop(now));
    timestamps_.push_back(now);
    m_received_.add();
  } else {
    ++underruns_;  // DAC starved: audible glitch
    m_underruns_.add();
  }
  next_due_ += period_;
}

void SinkTile::set_metrics(obs::MetricsRegistry* registry) {
  const std::string p = "sink." + name_;
  m_received_ = obs::make_counter(registry, p + ".received");
  m_underruns_ = obs::make_counter(registry, p + ".underruns");
}

Cycle SinkTile::next_event(Cycle now) const {
  if (!started_) {
    const Cycle h = in_.when_fill_visible(prefill_, now);
    return h == kNeverCycle ? kNeverCycle : std::max(h, now + 1);
  }
  return std::max(next_due_, now + 1);
}

}  // namespace acc::sim
