#include "dataflow/dse.hpp"

#include <algorithm>
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
      pool_(opt.jobs == 0 ? ThreadPool::hardware_threads()
                          : static_cast<std::size_t>(std::max(1, opt.jobs))) {
  ACC_EXPECTS(!channels_.empty());
  ACC_EXPECTS(reference_ >= 0 &&
              static_cast<std::size_t>(reference_) < g.num_actors());
  for (const Channel& ch : channels_) {
    ACC_EXPECTS(ch.data >= 0 &&
                static_cast<std::size_t>(ch.data) < g.num_edges());
    ACC_EXPECTS(ch.space >= 0 &&
                static_cast<std::size_t>(ch.space) < g.num_edges());
  }
  g.validate();  // once; every simulation skips re-validation
  worker_graphs_.assign(pool_.size(), g);
  worker_execs_.reserve(pool_.size());
  for (const Graph& clone : worker_graphs_)
    worker_execs_.emplace_back(clone, assume_validated);
}

std::vector<std::int64_t> DseEngine::snapshot_capacities() const {
  std::vector<std::int64_t> caps;
  caps.reserve(channels_.size());
  for (const Channel& ch : channels_)
    caps.push_back(worker_graphs_[0].channel_capacity(ch));
  return caps;
}

ThroughputResult DseEngine::run(std::size_t worker, const CapVec& caps) {
  Graph& g = worker_graphs_[worker];
  for (std::size_t i = 0; i < channels_.size(); ++i)
    g.set_channel_capacity(channels_[i], caps[i]);
  return worker_execs_[worker].analyze_throughput(reference_,
                                                  opt_.max_iterations);
}

Rational DseEngine::simulate(std::size_t worker, const CapVec& caps) {
  const ThroughputResult r = run(worker, caps);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.simulations;
    ++stats_.cache_misses;
    stats_.replayed_iterations += r.replayed_iterations;
  }
  return throughput_of(r);
}

Rational DseEngine::throughput_on(std::size_t worker, const CapVec& caps) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = memo_.find(caps);
    if (it != memo_.end()) {
      ++stats_.cache_hits;
      return it->second;
    }
  }
  const Rational t = simulate(worker, caps);
  std::lock_guard<std::mutex> lock(mu_);
  memo_.emplace(caps, t);
  if (has_target_) frontier_note(frontier_point(caps), t >= target_);
  return t;
}

Rational DseEngine::throughput(const std::vector<std::int64_t>& caps) {
  ACC_EXPECTS(caps.size() == channels_.size());
  return throughput_on(0, caps);
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
  const auto dominates = [&](const CapVec& a, const CapVec& b) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i] < b[i]) return false;
    return true;  // a >= b component-wise
  };
  for (const CapVec& f : feasible_min_)
    if (dominates(point, f)) return Implied{true, -f.back()};
  for (const CapVec& v : infeasible_max_)
    if (dominates(v, point)) return Implied{false, -v.back()};
  return std::nullopt;
}

std::optional<bool> DseEngine::pruned_verdict(
    [[maybe_unused]] std::size_t worker, const CapVec& caps,
    [[maybe_unused]] const Rational& target) {
  const std::optional<Implied> implied = frontier_implies(frontier_point(caps));
  if (!implied) return std::nullopt;
  ++(implied->feasible ? stats_.pruned_feasible : stats_.pruned_infeasible);
#ifndef NDEBUG
  if (implied->decided_at != duration_) {
    ACC_CHECK_MSG((throughput_of(run(worker, caps)) >= target) ==
                      implied->feasible,
                  "throughput not monotone in the re-timed duration");
  }
#endif
  return implied->feasible;
}

void DseEngine::frontier_note(const CapVec& point, bool ok) {
  const auto dominates = [](const CapVec& a, const CapVec& b) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i] < b[i]) return false;
    return true;
  };
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
  std::lock_guard<std::mutex> lock(mu_);
  if (has_target_ && target_ == target) return;
  target_ = target;
  has_target_ = true;
  feasible_min_.clear();
  infeasible_max_.clear();
}

bool DseEngine::feasible_on(std::size_t worker, const CapVec& caps,
                            const Rational& target) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = memo_.find(caps);
    if (it != memo_.end()) {
      ++stats_.cache_hits;
      const bool ok = it->second >= target;
      frontier_note(frontier_point(caps), ok);
      return ok;
    }
    if (const std::optional<bool> implied =
            pruned_verdict(worker, caps, target))
      return *implied;
  }
  const Rational t = simulate(worker, caps);
  std::lock_guard<std::mutex> lock(mu_);
  memo_.emplace(caps, t);
  const bool ok = t >= target;
  frontier_note(frontier_point(caps), ok);
  return ok;
}

bool DseEngine::feasible(const std::vector<std::int64_t>& caps,
                         const Rational& target) {
  ACC_EXPECTS(caps.size() == channels_.size());
  set_target(target);
  return feasible_on(0, caps, target);
}

Rational DseEngine::max_throughput_unbounded() {
  // Approximate "unbounded" by doubling a uniform finite cap until the
  // throughput saturates; monotonicity makes the last value the supremum
  // once two consecutive doublings agree. max_capacity is probed last.
  std::int64_t cap = 1;
  for (const Channel& ch : channels_)
    cap = std::max(cap, channel_capacity_lower_bound(worker_graphs_[0], ch));
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
    return feasible_on(0, caps, target);
  };

  constexpr const char* kUnreachable =
      "throughput target unreachable for any capacity up to max_capacity";
  std::int64_t lo =
      channel_capacity_lower_bound(worker_graphs_[0], channels_[idx]);
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
  const std::int64_t lb =
      channel_capacity_lower_bound(worker_graphs_[0], channels_[idx]);
  CapVec caps = snapshot_capacities();

  std::vector<ParetoPoint> out;
  Rational prev(-1);
  std::int64_t next_prefetch = lb;
  for (std::int64_t cap = lb; cap <= opt_.max_capacity; ++cap) {
    if (pool_.size() > 1 && cap >= next_prefetch) {
      // Speculatively warm the memo for the next wave of capacities; the
      // staircase itself is read strictly in order below, so the result is
      // identical to the serial sweep.
      const std::int64_t wave_end = std::min<std::int64_t>(
          opt_.max_capacity, cap + static_cast<std::int64_t>(pool_.size()) - 1);
      for (std::int64_t c = cap; c <= wave_end; ++c) {
        CapVec probe = caps;
        probe[idx] = c;
        pool_.submit([this, probe = std::move(probe)](std::size_t w) {
          (void)throughput_on(w, probe);
        });
      }
      pool_.wait_idle();
      next_prefetch = wave_end + 1;
    }
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
  // order and return the first feasible one. Feasibility of each vector is a
  // pure function of the vector, so the winner never depends on thread count.
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

  for (std::int64_t total = base_total; total <= max_total; ++total) {
    cands.clear();
    enumerate(0, total - base_total);

    enum class St : char { unknown, feas, infeas };
    std::vector<St> st(cands.size(), St::unknown);
    // Resolve everything the memo and the monotone frontier already decide.
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < cands.size(); ++i) {
        const auto it = memo_.find(cands[i]);
        if (it != memo_.end()) {
          ++stats_.cache_hits;
          st[i] = it->second >= target ? St::feas : St::infeas;
        } else if (const std::optional<bool> implied =
                       pruned_verdict(0, cands[i], target)) {
          st[i] = *implied ? St::feas : St::infeas;
        }
      }
    }

    const auto make_result = [&](std::size_t i) {
      MultiBufferResult res;
      res.capacities = cands[i];
      res.total = total;
      return res;
    };

    if (pool_.size() <= 1) {
      // Serial: identical probe sequence to the classic DFS, minus memo and
      // frontier savings.
      for (std::size_t i = 0; i < cands.size(); ++i) {
        if (st[i] == St::infeas) continue;
        if (st[i] == St::feas || feasible_on(0, cands[i], target))
          return make_result(i);
      }
      continue;
    }

    // Parallel: evaluate unknown candidates in order in waves; after each
    // wave the answer is the first feasible candidate with no unresolved
    // predecessor. Wave tasks write disjoint st[] slots.
    const std::size_t wave = 4 * pool_.size();
    std::size_t scan = 0;  // candidates before `scan` are resolved
    for (;;) {
      while (scan < cands.size() && st[scan] != St::unknown) ++scan;
      // A feasible candidate in the resolved prefix wins; pick the earliest.
      for (std::size_t i = 0; i < scan; ++i)
        if (st[i] == St::feas) return make_result(i);
      if (scan == cands.size()) break;  // budget exhausted, all infeasible

      std::size_t scheduled = 0;
      for (std::size_t i = scan; i < cands.size() && scheduled < wave; ++i) {
        if (st[i] != St::unknown) continue;
        ++scheduled;
        St* slot = &st[i];
        const CapVec* caps = &cands[i];
        pool_.submit([this, slot, caps, &target](std::size_t w) {
          *slot = feasible_on(w, *caps, target) ? St::feas : St::infeas;
        });
      }
      pool_.wait_idle();
    }
  }
  throw invariant_error(
      "minimize_total_capacity: upper-bound assignment infeasible (bug)");
}

void DseEngine::retime(ActorId actor, Time duration) {
  ACC_EXPECTS_MSG(timed_ == kInvalidActor || timed_ == actor,
                  "an engine re-times one actor only");
  ACC_EXPECTS_MSG(worker_graphs_[0].actor(actor).phases() == 1,
                  "re-timed actor must be SDF");
  std::lock_guard<std::mutex> lock(mu_);
  if (timed_ == kInvalidActor) {
    // Points decided so far were decided at the snapshot's duration.
    timed_ = actor;
    duration_ = worker_graphs_[0].actor(actor).phase_durations[0];
    for (CapVec& p : feasible_min_) p.back() = -duration_;
    for (CapVec& p : infeasible_max_) p.back() = -duration_;
  }
  if (duration == duration_) return;
  for (Graph& g : worker_graphs_) g.set_actor_duration(actor, duration);
  duration_ = duration;
  memo_.clear();
}

DseStats DseEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace acc::df
