// Steady-state replay for the wake-list stepper (see the header of
// sim/system.hpp and docs/performance.md).
#include "sim/system.hpp"

namespace acc::sim {

void System::begin_replay_watch() {
  // Between runs anything may have changed: forget every period. Each
  // route's back-off carries over (a workload of many short runs would
  // otherwise never back off).
  forget_marks();
  for (Route& r : routes_) r.period.reset();
  ++memo_stamp_;
}

void System::enter_route() {
  forget_marks();
  route_ = nullptr;
  if (streaming_.empty()) return;
  // Least recently entered first: a route entered again moves to the back,
  // so only routes entered less recently than kRoutes others are evicted.
  const auto it =
      std::find_if(routes_.begin(), routes_.end(), [this](const Route& r) {
        return r.streamers == streaming_;
      });
  if (it != routes_.end()) {
    std::rotate(it, it + 1, routes_.end());
  } else {
    if (routes_.size() == kRoutes) routes_.erase(routes_.begin());
    routes_.push_back(Route{});
    routes_.back().streamers = streaming_;
  }
  route_ = &routes_.back();
}

Cycle System::replay_boundary(Cycle due, Cycle end) {
  const auto mark = [this](std::size_t i) -> Mark& {
    return marks_[(mark_head_ + i) % kMarks];
  };
  const Cycle b = now_;
  if (mark_count_ > 0 && mark(mark_count_ - 1).at == b) return due;
  // Sized here, not per run(): a system with no chain the replay watches
  // (E14's) allocates nothing. Stale last_touch_ entries predate every
  // future mark, so they may stay.
  const std::size_t units = slots_.size() + fifos_.size();
  if (memo_.size() != units) {
    last_touch_.resize(fifos_.size(), -1);
    marks_.resize(kMarks);
    memo_.assign(units, 0);
    memo_stamps_.assign(units, 0);
    member_.assign(units, 0);
  }
  ++memo_stamp_;  // a new cycle: every unit hashes afresh
  for (const Streamer& s : streaming_)
    if (!components_[s.slot]->payload_free()) return due;

  // A state equal to the route's confirmed period's end replays at once.
  // Every boundary that does not jump counts as a miss.
  Route& route = *route_;
  ++stats_.replay_boundaries;
  ++route.misses;
  if (route.period) {
    ++stats_.period_checks;
    if (period_now(*route.period)) {
      const Cycle next = jump(*route.period, end);
      return next >= 0 ? next : due;
    }
  }
  // Look for a new period only while the confirmed one has not recurred
  // for a while, and not while backed off.
  if (b < route.watch_from ||
      (pending_.period == 0 && route.period &&
       route.misses <= static_cast<std::int64_t>(kMarks)))
    return due;

  const auto op_end =
      journal_base_ + static_cast<std::int64_t>(journal_.ops.size());
  const std::int64_t from =
      mark_count_ > 0 ? mark(mark_count_ - 1).op : journal_base_;
  for (std::int64_t i = from; i < op_end; ++i)
    last_touch_[journal_.ops[static_cast<std::size_t>(i - journal_base_)]
                    .fifo] = i;
  if (mark_count_ > 0)
    hash_units(mark(0).at, mark(0).op, row_);
  else
    hash_units(b - 1, op_end, row_);

  if (pending_.period > 0 && b >= pending_.start + pending_.period) {
    if (b == pending_.start + pending_.period && confirm(row_)) {
      const Cycle next = jump(*route.period, end);
      if (next >= 0) return next;
    }
    pending_.period = 0;
  }
  if (pending_.period == 0) {
    // The shortest period whose units all hash as they did at its start.
    for (std::size_t i = mark_count_; i-- > 0;) {
      if (period_matches(mark(i), row_)) {
        begin_pending(mark(i), row_);
        break;
      }
    }
  }
  if (route.misses > kMissLimit) {
    route.misses = 0;
    forget_marks();
    route.watch_from = b + route.backoff;
    route.backoff = std::min(2 * route.backoff, kMaxBackoff);
    return due;
  }

  const std::size_t slot = (mark_head_ + mark_count_) % kMarks;
  if (mark_count_ == kMarks)
    mark_head_ = (mark_head_ + 1) % kMarks;
  else
    ++mark_count_;
  marks_[slot].at = b;
  marks_[slot].op = op_end;
  std::swap(marks_[slot].row, row_);
  journal_.on = true;  // the marks need every operation from here on

  // Keep the journal from the oldest op a mark or the pending period needs.
  std::int64_t keep = mark(0).op;
  if (pending_.period > 0) keep = std::min(keep, pending_.op);
  if (keep - journal_base_ > 1024) {
    const auto n = static_cast<std::ptrdiff_t>(keep - journal_base_);
    journal_.ops.erase(journal_.ops.begin(), journal_.ops.begin() + n);
    journal_base_ = keep;
  }
  return due;
}

std::uint64_t System::unit_hash(std::uint32_t u) {
  if (memo_stamps_[u] == memo_stamp_) return memo_[u];
  StateHasher h = StateHasher::control(now_);
  if (u < components_.size()) {
    components_[u]->snapshot_state(h);
  } else if (u < slots_.size()) {
    (u == data_slot() ? ring_.data() : ring_.credit()).snapshot_state(h);
  } else {
    fifos_[u - slots_.size()]->snapshot_state(h);
  }
  if (u < slots_.size()) h.mix_cycle(slots_[u].at);
  memo_stamps_[u] = memo_stamp_;
  memo_[u] = h.frozen();
  return memo_[u];
}

bool System::period_now(const Period& per) {
  for (const auto& [u, hash] : per.row)
    if (unit_hash(u) != hash) return false;
  return true;
}

void System::hash_units(Cycle since, std::int64_t since_op, Row& row) {
  row.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].ran < since) continue;
    const auto u = static_cast<std::uint32_t>(i);
    row.emplace_back(u, unit_hash(u));
  }
  for (std::size_t f = 0; f < fifos_.size(); ++f) {
    if (last_touch_[f] < since_op) continue;
    const auto u = static_cast<std::uint32_t>(slots_.size() + f);
    row.emplace_back(u, unit_hash(u));
  }
}

bool System::in_period(std::uint32_t u, Cycle at, std::int64_t op) const {
  return u < slots_.size() ? slots_[u].ran >= at
                           : last_touch_[u - slots_.size()] >= op;
}

bool System::period_matches(const Mark& old, const Row& row) const {
  // Every unit that ran in [old.at, now_) must hash as it did at old.at;
  // `row` holds them all (it covers everything since the oldest mark).
  std::size_t j = 0;
  bool any = false;
  for (const auto& [u, hash] : row) {
    if (!in_period(u, old.at, old.op)) continue;
    while (j < old.row.size() && old.row[j].first < u) ++j;
    if (j == old.row.size() || old.row[j].first != u ||
        old.row[j].second != hash)
      return false;
    any = true;
  }
  return any;
}

void System::begin_pending(const Mark& old, const Row& row) {
  pending_.start = now_;
  pending_.period = now_ - old.at;
  pending_.op = journal_base_ + static_cast<std::int64_t>(journal_.ops.size());
  pending_.row.clear();
  pending_.fill.clear();
  pending_.space.clear();
  for (const auto& e : row) {
    if (!in_period(e.first, old.at, old.op)) continue;
    pending_.row.push_back(e);
    std::int64_t fill = 0;
    std::int64_t space = 0;
    if (e.first < slots_.size()) {
      settle(e.first, now_);
    } else {
      const CFifo& f = *fifos_[e.first - slots_.size()];
      fill = f.fill_visible(now_);
      space = f.space_visible(now_);
    }
    pending_.fill.push_back(fill);
    pending_.space.push_back(space);
  }
  pending_replay_.begin(Replay::Mode::kFirst);
  if (!replay_units(pending_replay_, pending_.row)) pending_.period = 0;
}

bool System::confirm(const Row& row) {
  // The confirming period ran exactly the pending units, each hashing as it
  // did at the period's start.
  std::size_t n = 0;
  for (const auto& [u, hash] : row) {
    if (!in_period(u, pending_.start, pending_.op)) continue;
    if (n == pending_.row.size() || pending_.row[n].first != u ||
        pending_.row[n].second != hash)
      return false;
    ++n;
  }
  if (n != pending_.row.size()) return false;
  for (const auto& e : pending_.row)
    if (e.first < slots_.size()) settle(e.first, now_);
  Replay& r = pending_replay_;
  r.begin(Replay::Mode::kSecond, now_);
  if (!replay_units(r, pending_.row) || !r.complete()) return false;

  // Every C-FIFO operation needs the actor that supplies its value (a push)
  // or takes it (a pop).
  Period p;
  p.length = pending_.period;
  p.row = pending_.row;
  const auto first = static_cast<std::size_t>(pending_.op - journal_base_);
  for (std::size_t i = first; i < journal_.ops.size(); ++i) {
    FifoJournal::Op op = journal_.ops[i];
    const CFifo* f = fifos_[op.fifo].get();
    if (f->faulty()) return false;
    const Replay::Role* role = nullptr;
    for (const Replay::Role& r :
         op.push ? r.producers_ : r.consumers_)
      if (r.fifo == f) role = &r;
    if (role == nullptr) return false;
    op.at -= pending_.start;
    p.ops.push_back(op);
    p.actors.push_back(role->actor);
    p.derived.push_back(role->derived ? 1 : 0);
  }
  for (std::size_t e = 0; e < p.row.size(); ++e) {
    if (p.row[e].first < slots_.size()) continue;
    const auto fifo =
        p.row[e].first - static_cast<std::uint32_t>(slots_.size());
    std::int64_t pushes = 0;
    std::int64_t pops = 0;
    bool derived = false;
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
      if (p.ops[i].fifo != fifo) continue;
      ++(p.ops[i].push ? pushes : pops);
      derived = derived || p.derived[i] != 0;
    }
    // The period itself must not have met a full or empty view (see jump).
    if ((pops > 0 && pending_.fill[e] <= pops) ||
        (pushes > 0 && pending_.space[e] <= pushes))
      return false;
    // A chain's output popped inside the period (a second chain reading
    // it) would need the data plane in operation order: not replayed.
    if (derived && pops > 0) return false;
  }
  p.replay = std::move(r);
  route_->period = std::move(p);
  return true;
}

Cycle System::jump(Period& per, Cycle end) {
  const Cycle b = now_;
  const Cycle p = per.length;
  Replay& r = per.replay;
  for (const auto& e : per.row)
    if (e.first < slots_.size()) settle(e.first, b);
  r.begin(Replay::Mode::kCheck);
  if (!replay_units(r, per.row) || !r.complete()) return -1;

  // k stops short of every threshold the period did not meet. Pops never
  // outrun the reader's view, and pushes never meet a full one, while each
  // period starts with one more visible sample (slot) than it pops
  // (pushes): no poll then depends on how many there are.
  std::int64_t k = std::min(r.k_max_, (end - b) / p);
  for (const auto& e : per.row) {
    if (e.first < slots_.size()) continue;
    const auto fifo = e.first - static_cast<std::uint32_t>(slots_.size());
    std::int64_t pushes = 0;
    std::int64_t pops = 0;
    for (const FifoJournal::Op& op : per.ops)
      if (op.fifo == fifo) ++(op.push ? pushes : pops);
    const CFifo& f = *fifos_[fifo];
    const std::int64_t d = pushes - pops;
    if (pops > 0) {
      const std::int64_t fill = f.fill_visible(b);
      if (fill <= pops) return -1;
      if (d < 0) k = std::min(k, 1 + (fill - pops - 1) / -d);
    }
    if (pushes > 0) {
      const std::int64_t space = f.space_visible(b);
      if (space <= pushes) return -1;
      if (d > 0) k = std::min(k, 1 + (space - pushes - 1) / d);
    }
  }
  // Slots outside the period must not come due inside the jump.
  for (const auto& e : per.row) member_[e.first] = 1;
  for (std::size_t w = 0; w < armed_.size(); ++w) {
    for (std::uint64_t bits = armed_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t idx =
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
      if (member_[idx] == 0) k = std::min(k, (slots_[idx].at - b) / p);
    }
  }
  for (const auto& e : per.row) member_[e.first] = 0;
  if (k < 1) return -1;

  // Data plane: the period's C-FIFO operations at their own cycles, k
  // times, C-FIFO by C-FIFO and chain outputs last, so each kernel sees the
  // whole window in one process_block call. No C-FIFO is both a chain's
  // output and popped in the period (confirm), so no pop waits on a push
  // the chain has not made yet.
  journal_.on = false;
  replaying_ = true;
  const std::size_t n = per.ops.size();
  for (const char derived : {0, 1}) {
    for (const auto& e : per.row) {
      if (e.first < slots_.size()) continue;
      const auto fifo = e.first - static_cast<std::uint32_t>(slots_.size());
      for (std::int64_t j = 0; j < k; ++j)
        for (std::size_t i = 0; i < n; ++i)
          if (per.ops[i].fifo == fifo && per.derived[i] == derived)
            replay_op(per.ops[i], per.actors[i], b + j * p);
    }
  }
  replaying_ = false;

  const Cycle shift = k * p;
  r.k_ = k;
  r.begin(Replay::Mode::kApply, b + shift);
  (void)replay_units(r, per.row);
  for (const auto& e : per.row) {
    if (e.first >= slots_.size()) continue;
    Slot& s = slots_[e.first];
    if (s.at != kNeverCycle) s.at += shift;
    s.synced += shift;
    s.ran += shift;
  }
  now_ += shift;
  ++stats_.replays;
  stats_.replayed_cycles += shift;

  // The marks describe the past before the jump: start afresh.
  forget_marks();
  route_->misses = 0;
  route_->backoff = kBackoff;
  return next_due();
}

void System::forget_marks() {
  journal_base_ += static_cast<std::int64_t>(journal_.ops.size());
  journal_.ops.clear();
  journal_.on = false;
  mark_count_ = 0;
  pending_.period = 0;
}

void System::replay_op(const FifoJournal::Op& op, Component* actor,
                       Cycle base) {
  CFifo& f = *fifos_[op.fifo];
  const Cycle t = base + op.at;
  if (op.push)
    f.push(t, actor->replay_produce(f));
  else
    actor->replay_consume(f, f.pop(t));
}

bool System::replay_units(Replay& r, const Row& units) {
  for (const auto& e : units) {
    const std::size_t u = e.first;
    if (u >= slots_.size()) continue;
    const bool ok =
        u < components_.size()
            ? components_[u]->replay(r)
            : (u == data_slot() ? ring_.data() : ring_.credit()).replay(r);
    if (!ok) return false;
  }
  return !r.vetoed_;
}

void System::settle(std::size_t idx, Cycle b) {
  if (idx < components_.size()) {
    Slot& s = slots_[idx];
    if (s.synced < b - 1) {
      components_[idx]->skip_to(s.synced + 1, b);
      s.synced = b - 1;
    }
    return;
  }
  Ring& r = idx == data_slot() ? ring_.data() : ring_.credit();
  if (r.cycle() < b) r.skip_to(b);
}

}  // namespace acc::sim
