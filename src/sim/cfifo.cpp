#include "sim/cfifo.hpp"

#include <algorithm>

#include "sim/component.hpp"
#include "sim/fault.hpp"

namespace acc::sim {

CFifo::CFifo(std::string name, std::int64_t capacity,
             Cycle read_visibility_lag, Cycle write_visibility_lag)
    : name_(std::move(name)),
      capacity_(capacity),
      rlag_(read_visibility_lag),
      wlag_(write_visibility_lag) {
  ACC_EXPECTS(capacity >= 1);
  ACC_EXPECTS(read_visibility_lag >= 0 && write_visibility_lag >= 0);
}

std::int64_t CFifo::visible_data_prefix(Cycle now) const {
  std::size_t lo = 0;
  std::size_t hi = data_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (data_[mid].visible_at <= now) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<std::int64_t>(lo);
}

std::int64_t CFifo::space_visible(Cycle now) const {
  last_now_ = std::max(last_now_, now);
  // Writer sees: capacity - (its own pushes) + (reads whose counter update
  // has arrived back). freed_ deadlines are monotone, so the visible prefix
  // ends at a binary-searchable boundary (this is a per-tick hot path).
  std::size_t lo = 0;
  std::size_t hi = freed_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (freed_[mid] <= now) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const auto freed_visible = static_cast<std::int64_t>(lo);
  const std::int64_t outstanding =
      static_cast<std::int64_t>(data_.size()) +
      (static_cast<std::int64_t>(freed_.size()) - freed_visible);
  return capacity_ - outstanding;
}

bool CFifo::can_push(Cycle now) const {
  // Equivalent to space_visible(now) > 0 without counting the whole visible
  // prefix: space exists iff at least data + freed - capacity + 1 of the
  // pending credit returns are visible, and deadlines are monotone, so one
  // indexed compare answers it (push/pop guards sit on every tick).
  last_now_ = std::max(last_now_, now);
  const std::int64_t tight = static_cast<std::int64_t>(data_.size()) +
                             static_cast<std::int64_t>(freed_.size()) -
                             capacity_;
  if (tight < 0) return true;
  if (tight >= static_cast<std::int64_t>(freed_.size())) return false;
  return freed_[static_cast<std::size_t>(tight)] <= now;
}

void CFifo::push(Cycle now, Flit f) {
  ACC_EXPECTS_MSG(can_push(now), "CFifo '" + name_ + "' push without space");
  // Retire freed-space entries the writer has already observed; they are
  // folded into the capacity from now on.
  while (!freed_.empty() && freed_.front() <= now) freed_.pop_front();
  Cycle visible_at = now + rlag_;
  if (fault_ != nullptr)
    visible_at += fault_->delay(FaultSite::kCreditWithhold, now);
  // The write counter is a single index: withholding one update withholds
  // everything behind it, so visibility times stay monotone.
  if (!data_.empty()) visible_at = std::max(visible_at, data_.back().visible_at);
  data_.push_back(Entry{visible_at, f});
  ++pushed_;
  peak_ = std::max(peak_, static_cast<std::int64_t>(data_.size()));
  m_pushed_.add();
  m_occupancy_.set(static_cast<std::int64_t>(data_.size()));
  m_occupancy_hist_.observe(static_cast<std::int64_t>(data_.size()));
  if (journal_ != nullptr && journal_->on)
    journal_->ops.push_back({now, journal_id_, true});
  for (Component* w : push_watchers_) w->request_wake();
}

std::int64_t CFifo::fill_visible(Cycle now) const {
  // Arrival times are monotone; the visible prefix usually spans most of a
  // deep FIFO, so counting it linearly made this the simulator's hottest
  // function. Binary-search the boundary instead.
  return visible_data_prefix(now);
}

Cycle CFifo::when_fill_visible(std::int64_t n, Cycle now) const {
  if (n <= 0) return now;
  if (static_cast<std::int64_t>(data_.size()) < n) return kNeverCycle;
  // Visibility deadlines are monotone: the n-th sample is visible exactly
  // when its own deadline passes.
  return std::max(now, data_[static_cast<std::size_t>(n - 1)].visible_at);
}

Cycle CFifo::when_space_visible(std::int64_t n, Cycle now) const {
  const std::int64_t limit =
      capacity_ - static_cast<std::int64_t>(data_.size());
  if (limit < n) return kNeverCycle;  // a pop must land first
  const std::int64_t allowed = limit - n;  // in-flight credits we tolerate
  const std::int64_t pending = static_cast<std::int64_t>(freed_.size());
  if (pending <= allowed) return now;
  // freed_ deadlines are monotone: space reaches n once all but `allowed`
  // of the pending credit returns have become visible to the writer.
  return std::max(now, freed_[static_cast<std::size_t>(pending - allowed - 1)]);
}

Flit CFifo::front(Cycle now) const {
  ACC_EXPECTS_MSG(can_pop(now), "CFifo '" + name_ + "' front on empty view");
  return data_.front().flit;
}

Flit CFifo::pop(Cycle now) {
  ACC_EXPECTS_MSG(can_pop(now), "CFifo '" + name_ + "' pop on empty view");
  const Flit f = data_.front().flit;
  data_.pop_front();
  Cycle freed_at = now + wlag_;
  if (fault_ != nullptr)
    freed_at += fault_->delay(FaultSite::kCreditWithhold, now);
  if (!freed_.empty()) freed_at = std::max(freed_at, freed_.back());
  freed_.push_back(freed_at);
  ++popped_;
  m_popped_.add();
  m_occupancy_.set(static_cast<std::int64_t>(data_.size()));
  if (journal_ != nullptr && journal_->on)
    journal_->ops.push_back({now, journal_id_, false});
  for (Component* w : pop_watchers_) w->request_wake();
  return f;
}

void CFifo::set_capacity(std::int64_t capacity) {
  ACC_EXPECTS(capacity >= 1);
  ACC_EXPECTS_MSG(capacity >= static_cast<std::int64_t>(data_.size()) +
                                  static_cast<std::int64_t>(freed_.size()),
                  "CFifo '" + name_ +
                      "' cannot shrink below outstanding tokens");
  if (capacity == capacity_) return;
  capacity_ = capacity;
  // A writer parked on when_space_visible may become unblocked right now.
  for (Component* w : pop_watchers_) w->request_wake();
}

void CFifo::set_metrics(obs::MetricsRegistry* registry) {
  const std::string prefix = "cfifo." + name_;
  m_pushed_ = obs::make_counter(registry, prefix + ".pushed");
  m_popped_ = obs::make_counter(registry, prefix + ".popped");
  m_occupancy_ = obs::make_gauge(registry, prefix + ".occupancy");
  m_occupancy_hist_ = obs::make_histogram(registry, prefix + ".occupancy_hist",
                                          obs::occupancy_bounds(capacity_));
}

void CFifo::add_push_watcher(Component* c) {
  ACC_EXPECTS(c != nullptr);
  if (std::find(push_watchers_.begin(), push_watchers_.end(), c) ==
      push_watchers_.end())
    push_watchers_.push_back(c);
}

void CFifo::add_pop_watcher(Component* c) {
  ACC_EXPECTS(c != nullptr);
  if (std::find(pop_watchers_.begin(), pop_watchers_.end(), c) ==
      pop_watchers_.end())
    pop_watchers_.push_back(c);
}

}  // namespace acc::sim
