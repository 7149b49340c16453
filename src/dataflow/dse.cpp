#include "dataflow/dse.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

namespace acc::df {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  return h * kFnvPrime;
}

/// Throughput of an analysis, deadlock reporting as 0.
Rational throughput_of(const ThroughputResult& r) {
  return r.deadlocked ? Rational(0) : r.throughput;
}

/// a >= b component-wise.
bool dominates(const std::vector<std::int64_t>& a,
               const std::vector<std::int64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] < b[i]) return false;
  return true;
}

/// `g` after one validation: every simulation of the engine skips it.
const Graph& validated(const Graph& g) {
  g.validate();
  return g;
}

}  // namespace

std::size_t DseEngine::CapVecHash::operator()(const CapVec& v) const {
  std::uint64_t h = kFnvOffset;
  for (std::int64_t c : v) h = fnv_mix(h, static_cast<std::uint64_t>(c));
  return static_cast<std::size_t>(h);
}

DseEngine::DseEngine(const Graph& g, std::vector<Channel> channels,
                     ActorId reference, BufferSizingOptions opt)
    : channels_(std::move(channels)),
      reference_(reference),
      opt_(opt),
      graph_(validated(g)),
      exec_(graph_, assume_validated) {
  ACC_EXPECTS(!channels_.empty());
  ACC_EXPECTS(reference_ >= 0 &&
              static_cast<std::size_t>(reference_) < graph_.num_actors());
  for (const Channel& ch : channels_) {
    ACC_EXPECTS(ch.data >= 0 &&
                static_cast<std::size_t>(ch.data) < graph_.num_edges());
    ACC_EXPECTS(ch.space >= 0 &&
                static_cast<std::size_t>(ch.space) < graph_.num_edges());
  }
}

std::vector<std::int64_t> DseEngine::snapshot_capacities() const {
  std::vector<std::int64_t> caps;
  caps.reserve(channels_.size());
  for (const Channel& ch : channels_)
    caps.push_back(graph_.channel_capacity(ch));
  return caps;
}

ThroughputResult DseEngine::run(const CapVec& caps) {
  for (std::size_t i = 0; i < channels_.size(); ++i)
    graph_.set_channel_capacity(channels_[i], caps[i]);
  return exec_.analyze_throughput(reference_, opt_.max_iterations);
}

Rational DseEngine::simulate(const CapVec& caps) {
  const ThroughputResult r = run(caps);
  ++stats_.simulations;
  ++stats_.cache_misses;
  stats_.replayed_iterations += r.replayed_iterations;
  return throughput_of(r);
}

Rational DseEngine::throughput(const std::vector<std::int64_t>& caps) {
  ACC_EXPECTS(caps.size() == channels_.size());
  const auto it = memo_.find(caps);
  if (it != memo_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }
  const Rational t = simulate(caps);
  memo_.emplace(caps, t);
  if (has_target_) frontier_note(frontier_point(caps), t >= target_);
  return t;
}

DseEngine::CapVec DseEngine::frontier_point(const CapVec& caps) const {
  CapVec point;
  point.reserve(caps.size() + 1);
  point.assign(caps.begin(), caps.end());
  point.push_back(-duration_);
  return point;
}

std::optional<DseEngine::Implied> DseEngine::frontier_implies(
    const CapVec& point) const {
  for (const CapVec& f : feasible_min_)
    if (dominates(point, f)) return Implied{true, -f.back()};
  for (const CapVec& v : infeasible_max_)
    if (dominates(v, point)) return Implied{false, -v.back()};
  return std::nullopt;
}

std::optional<bool> DseEngine::pruned_verdict(
    const CapVec& caps, [[maybe_unused]] const Rational& target) {
  const std::optional<Implied> implied = frontier_implies(frontier_point(caps));
  if (!implied) return std::nullopt;
  ++(implied->feasible ? stats_.pruned_feasible : stats_.pruned_infeasible);
#ifndef NDEBUG
  if (implied->decided_at != duration_) {
    ACC_CHECK_MSG((throughput_of(run(caps)) >= target) ==
                      implied->feasible,
                  "throughput not monotone in the re-timed duration");
  }
#endif
  return implied->feasible;
}

void DseEngine::frontier_note(const CapVec& point, bool ok) {
  std::vector<CapVec>& set = ok ? feasible_min_ : infeasible_max_;
  // Keep the set an antichain: feasible points are useful when minimal,
  // infeasible points when maximal.
  for (const CapVec& p : set) {
    const bool redundant = ok ? dominates(point, p) : dominates(p, point);
    if (redundant) return;
  }
  std::erase_if(set, [&](const CapVec& p) {
    return ok ? dominates(p, point) : dominates(point, p);
  });
  set.push_back(point);
}

void DseEngine::set_target(const Rational& target) {
  if (has_target_ && target_ == target) return;
  target_ = target;
  has_target_ = true;
  feasible_min_.clear();
  infeasible_max_.clear();
}

bool DseEngine::feasible(const std::vector<std::int64_t>& caps,
                         const Rational& target) {
  ACC_EXPECTS(caps.size() == channels_.size());
  set_target(target);
  bool ok = false;
  if (const auto it = memo_.find(caps); it != memo_.end()) {
    ++stats_.cache_hits;
    ok = it->second >= target;
  } else if (const std::optional<bool> implied =
                 pruned_verdict(caps, target)) {
    return *implied;
  } else {
    const Rational t = simulate(caps);
    memo_.emplace(caps, t);
    ok = t >= target;
  }
  frontier_note(frontier_point(caps), ok);
  return ok;
}

Rational DseEngine::max_throughput_unbounded() {
  // Approximate "unbounded" by doubling a uniform finite cap until the
  // throughput saturates; monotonicity makes the last value the supremum
  // once two consecutive doublings agree. max_capacity is probed last.
  std::int64_t cap = 1;
  for (const Channel& ch : channels_)
    cap = std::max(cap, channel_capacity_lower_bound(graph_, ch));
  Rational best(-1);
  for (;; cap *= 2) {
    cap = std::min(cap, opt_.max_capacity);
    const Rational t = throughput(CapVec(channels_.size(), cap));
    if (t == best) return t;  // saturated
    ACC_CHECK_MSG(t > best, "throughput not monotone in capacity (bug)");
    best = t;
    if (cap == opt_.max_capacity) return best;
  }
}

std::int64_t DseEngine::min_capacity_for(std::size_t idx,
                                         std::vector<std::int64_t> caps,
                                         const Rational& target) {
  ACC_EXPECTS(idx < channels_.size());
  ACC_EXPECTS(caps.size() == channels_.size());
  set_target(target);
  const auto probe = [&](std::int64_t c) {
    caps[idx] = c;
    return feasible(caps, target);
  };

  constexpr const char* kUnreachable =
      "throughput target unreachable for any capacity up to max_capacity";
  std::int64_t lo = channel_capacity_lower_bound(graph_, channels_[idx]);
  ACC_CHECK_MSG(lo <= opt_.max_capacity, kUnreachable);
  if (probe(lo)) return lo;
  // Exponential probe for a feasible upper bound, clamped to max_capacity,
  // then binary search; valid because throughput is monotone in the
  // capacity.
  std::int64_t hi = lo;
  do {
    ACC_CHECK_MSG(hi < opt_.max_capacity, kUnreachable);
    hi = std::min(opt_.max_capacity, std::max<std::int64_t>(hi * 2, hi + 1));
  } while (!probe(hi));
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (probe(mid) ? hi : lo) = mid;
  }
  return hi;
}

std::vector<ParetoPoint> DseEngine::pareto_sweep(std::size_t idx) {
  ACC_EXPECTS(idx < channels_.size());
  const Rational best = max_throughput_unbounded();
  const std::int64_t lb = channel_capacity_lower_bound(graph_, channels_[idx]);
  CapVec caps = snapshot_capacities();

  std::vector<ParetoPoint> out;
  Rational prev(-1);
  for (std::int64_t cap = lb; cap <= opt_.max_capacity; ++cap) {
    caps[idx] = cap;
    const Rational t = throughput(caps);
    ACC_CHECK_MSG(t >= prev, "throughput not monotone in capacity (bug)");
    if (t > prev) {
      out.push_back(ParetoPoint{cap, t});
      prev = t;
    }
    if (t >= best) break;  // saturated: the staircase is complete
  }
  return out;
}

MultiBufferResult DseEngine::minimize_total(const Rational& target) {
  const std::size_t k = channels_.size();
  set_target(target);

  // Per-channel lower bounds: the exact single-channel minimum with every
  // other channel opened wide. No assignment below these can be feasible.
  std::vector<std::int64_t> lower(k);
  for (std::size_t i = 0; i < k; ++i)
    lower[i] = min_capacity_for(i, CapVec(k, opt_.max_capacity), target);

  // Per-channel upper bounds: with every other channel at its LOWER bound,
  // the single-channel minimum is the most this channel could ever need in
  // an optimal assignment (raising others only helps).
  std::vector<std::int64_t> upper(k);
  for (std::size_t i = 0; i < k; ++i)
    upper[i] = min_capacity_for(i, lower, target);

  const std::int64_t base_total =
      std::accumulate(lower.begin(), lower.end(), std::int64_t{0});
  const std::int64_t max_total =
      std::accumulate(upper.begin(), upper.end(), std::int64_t{0});

  // Staircase: try total budgets in increasing order; within a budget,
  // enumerate all assignments >= lower bounds in the canonical (serial DFS)
  // order and return the first feasible one.
  std::vector<CapVec> cands;
  CapVec scratch(k);
  const std::function<void(std::size_t, std::int64_t)> enumerate =
      [&](std::size_t idx, std::int64_t slack) {
        if (idx + 1 == k) {
          if (lower[idx] + slack > upper[idx]) return;
          scratch[idx] = lower[idx] + slack;
          cands.push_back(scratch);
          return;
        }
        for (std::int64_t extra = 0; extra <= slack; ++extra) {
          if (lower[idx] + extra > upper[idx]) break;
          scratch[idx] = lower[idx] + extra;
          enumerate(idx + 1, slack - extra);
        }
      };

  enum class St : char { unknown, feas, infeas };
  std::vector<St> st;
  for (std::int64_t total = base_total; total <= max_total; ++total) {
    cands.clear();
    enumerate(0, total - base_total);

    // Resolve everything the memo and the monotone frontier already decide
    // before probing (this pass counts the budget's cache hits and pruning
    // wins), then probe the rest in enumeration order.
    st.assign(cands.size(), St::unknown);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (const auto it = memo_.find(cands[i]); it != memo_.end()) {
        ++stats_.cache_hits;
        st[i] = it->second >= target ? St::feas : St::infeas;
      } else if (const std::optional<bool> implied =
                     pruned_verdict(cands[i], target)) {
        st[i] = *implied ? St::feas : St::infeas;
      }
    }
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (st[i] == St::infeas) continue;
      if (st[i] == St::feas || feasible(cands[i], target)) {
        MultiBufferResult res;
        res.capacities = cands[i];
        res.total = total;
        return res;
      }
    }
  }
  throw invariant_error(
      "minimize_total_capacity: upper-bound assignment infeasible (bug)");
}

void DseEngine::retime(ActorId actor, Time duration) {
  ACC_EXPECTS_MSG(timed_ == kInvalidActor || timed_ == actor,
                  "an engine re-times one actor only");
  ACC_EXPECTS_MSG(graph_.actor(actor).phases() == 1,
                  "re-timed actor must be SDF");
  if (timed_ == kInvalidActor) {
    // Points decided so far were decided at the snapshot's duration.
    timed_ = actor;
    duration_ = graph_.actor(actor).phase_durations[0];
    for (CapVec& p : feasible_min_) p.back() = -duration_;
    for (CapVec& p : infeasible_max_) p.back() = -duration_;
  }
  if (duration == duration_) return;
  graph_.set_actor_duration(actor, duration);
  duration_ = duration;
  memo_.clear();
}

}  // namespace acc::df
