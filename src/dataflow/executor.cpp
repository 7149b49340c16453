#include "dataflow/executor.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace acc::df {

SelfTimedExecutor::SelfTimedExecutor(const Graph& g) : g_(g) {
  g_.validate();
  for (ActorId a = 0; a < static_cast<ActorId>(g_.num_actors()); ++a) {
    // An unconstrained auto-concurrent actor could start infinitely many
    // firings at one instant; reject the model instead of hanging.
    ACC_EXPECTS_MSG(!g_.actor(a).auto_concurrent || !g_.in_edges(a).empty(),
                    "auto-concurrent actor '" + g_.actor(a).name +
                        "' needs at least one input edge");
  }
  reset();
}

SelfTimedExecutor::SelfTimedExecutor(const Graph& g, assume_validated_t)
    : g_(g) {
  reset();
}

void SelfTimedExecutor::reset() {
  now_ = 0;
  seq_ = 0;
  tokens_.assign(g_.num_edges(), 0);
  max_tokens_.assign(g_.num_edges(), 0);
  for (std::size_t e = 0; e < g_.num_edges(); ++e) {
    tokens_[e] = g_.edge(static_cast<EdgeId>(e)).initial_tokens;
    max_tokens_[e] = tokens_[e];
  }
  next_phase_.assign(g_.num_actors(), 0);
  in_flight_.assign(g_.num_actors(), 0);
  completed_.assign(g_.num_actors(), 0);
  pending_ = {};
}

bool SelfTimedExecutor::enabled(ActorId a) const {
  const Actor& actor = g_.actor(a);
  if (!actor.auto_concurrent && in_flight_[a] > 0) return false;
  const std::int32_t p = next_phase_[a];
  for (EdgeId eid : g_.in_edges(a)) {
    const Edge& e = g_.edge(eid);
    if (tokens_[eid] < e.cons[p]) return false;
  }
  return true;
}

void SelfTimedExecutor::start_firing(ActorId a) {
  const Actor& actor = g_.actor(a);
  const std::int32_t p = next_phase_[a];
  for (EdgeId eid : g_.in_edges(a)) tokens_[eid] -= g_.edge(eid).cons[p];
  const Time end = now_ + actor.phase_durations[p];
  pending_.push(Event{end, seq_++, a, p});
  ++in_flight_[a];
  next_phase_[a] =
      static_cast<std::int32_t>((p + 1) % actor.phases());
  if (observers_.on_firing) observers_.on_firing(a, p, now_, end);
}

void SelfTimedExecutor::complete(const Event& ev) {
  const std::int32_t p = ev.phase;
  for (EdgeId eid : g_.out_edges(ev.actor)) {
    const Edge& e = g_.edge(eid);
    if (e.prod[p] > 0) {
      tokens_[eid] += e.prod[p];
      max_tokens_[eid] = std::max(max_tokens_[eid], tokens_[eid]);
      if (observers_.on_produce) observers_.on_produce(eid, e.prod[p], now_);
    }
  }
  --in_flight_[ev.actor];
  ++completed_[ev.actor];
}

void SelfTimedExecutor::start_enabled() {
  for (ActorId a = 0; a < static_cast<ActorId>(g_.num_actors()); ++a) {
    while (enabled(a)) {
      start_firing(a);
      if (!g_.actor(a).auto_concurrent) break;
    }
  }
}

bool SelfTimedExecutor::step() {
  if (pending_.empty()) return false;
  now_ = pending_.top().when;
  // Complete everything scheduled for this instant, then start newly enabled
  // firings; zero-duration firings scheduled "at now" are drained in the same
  // loop so time never runs backwards. The drain counter guards against Zeno
  // behaviour (a cycle of zero-duration actors firing forever at one instant).
  std::int64_t drains = 0;
  while (!pending_.empty() && pending_.top().when == now_) {
    ACC_CHECK_MSG(++drains < 1'000'000,
                  "zero-duration firing cycle: graph never advances time");
    while (!pending_.empty() && pending_.top().when == now_) {
      const Event ev = pending_.top();
      pending_.pop();
      complete(ev);
    }
    start_enabled();
  }
  return true;
}

std::optional<Time> SelfTimedExecutor::run_until_firings(ActorId actor,
                                                         std::int64_t count) {
  ACC_EXPECTS(count >= 0);
  start_enabled();
  // Zero-duration firings enabled at t=0 need one drain before stepping.
  while (!pending_.empty() && pending_.top().when == now_) step();
  while (completed_[actor] < count) {
    if (!step()) return std::nullopt;  // deadlock
  }
  return now_;
}

bool SelfTimedExecutor::run_for(Time horizon) {
  start_enabled();
  while (!pending_.empty() && pending_.top().when <= horizon) {
    if (!step()) break;
  }
  return !pending_.empty() || now_ >= horizon;
}

std::vector<Time> SelfTimedExecutor::completion_times(ActorId actor,
                                                      std::int64_t count) {
  std::vector<Time> times;
  times.reserve(static_cast<std::size_t>(count));
  ExecObservers saved = observers_;
  ExecObservers obs = saved;
  // Wrap (not replace) any user observer so both see the events.
  obs.on_firing = [&, saved](ActorId a, std::int32_t ph, Time s, Time e) {
    if (saved.on_firing) saved.on_firing(a, ph, s, e);
    if (a == actor && static_cast<std::int64_t>(times.size()) <
                          count)  // record completion time
      times.push_back(e);
  };
  set_observers(obs);
  run_until_firings(actor, count);
  set_observers(saved);
  // Completion order equals start order for serialized actors; sort anyway
  // so auto-concurrent reference actors report monotone times.
  std::sort(times.begin(), times.end());
  times.resize(std::min<std::size_t>(times.size(),
                                     static_cast<std::size_t>(count)));
  return times;
}

namespace {

/// Incremental FNV-1a over 64-bit words. Hashing whole words (not bytes)
/// keeps the loop branch-free and is plenty mixing for recurrence detection.
struct Fnv1a64 {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  void mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;  // FNV prime
  }
  void mix_i64(std::int64_t x) { mix(static_cast<std::uint64_t>(x)); }
};

}  // namespace

std::uint64_t SelfTimedExecutor::state_key(std::int64_t overshoot) const {
  // Timing-relevant state: token counts, next phases, and the relative
  // offsets of all in-flight completions. Enumerated in the heap's pop
  // order — (when, seq) ascending — so the hash covers exactly the words
  // state_key_string() serializes, without the per-call heap copy + string
  // allocation.
  Fnv1a64 fnv;
  fnv.mix_i64(overshoot);
  for (std::int64_t t : tokens_) fnv.mix_i64(t);
  for (std::int32_t p : next_phase_) fnv.mix_i64(p);
  scratch_.assign(pending_.container().begin(), pending_.container().end());
  std::sort(scratch_.begin(), scratch_.end(),
            [](const Event& a, const Event& b) {
              return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
            });
  for (const Event& ev : scratch_) {
    fnv.mix_i64(ev.when - now_);
    fnv.mix_i64(ev.actor);
    fnv.mix_i64(ev.phase);
  }
  return fnv.h;
}

std::string SelfTimedExecutor::state_key_string(std::int64_t overshoot) const {
  std::vector<std::int64_t> v;
  v.reserve(tokens_.size() + next_phase_.size() + pending_.size() * 3 + 1);
  v.push_back(overshoot);
  for (std::int64_t t : tokens_) v.push_back(t);
  for (std::int32_t p : next_phase_) v.push_back(p);
  auto copy = pending_;
  while (!copy.empty()) {
    const Event& ev = copy.top();
    v.push_back(ev.when - now_);
    v.push_back(ev.actor);
    v.push_back(ev.phase);
    copy.pop();
  }
  return std::string(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(std::int64_t));
}

DeadlockReport diagnose_deadlock(const Graph& g, Time horizon) {
  SelfTimedExecutor exec(g);
  DeadlockReport out;
  if (exec.run_for(horizon)) {
    return out;  // events still pending (or horizon reached): live
  }
  // Quiesced: nothing in flight, nothing enabled. Explain each actor.
  out.deadlocked = true;
  out.at = exec.now();
  for (ActorId a = 0; a < static_cast<ActorId>(g.num_actors()); ++a) {
    const Actor& actor = g.actor(a);
    // Reconstruct the next phase from completed firings (serialized actors;
    // auto-concurrent ones report their next phase the same way).
    const auto phase = static_cast<std::int32_t>(
        exec.completed_firings(a) % static_cast<std::int64_t>(actor.phases()));
    for (EdgeId eid : g.in_edges(a)) {
      const Edge& e = g.edge(eid);
      if (exec.tokens(eid) < e.cons[phase]) {
        out.starved.push_back(DeadlockReport::Starved{
            a, eid, exec.tokens(eid), e.cons[phase]});
        break;  // one blocking edge per actor is enough for diagnosis
      }
    }
  }
  return out;
}

std::string describe(const DeadlockReport& r, const Graph& g) {
  std::ostringstream os;
  if (!r.deadlocked) {
    os << "graph is live (no quiescence before the horizon)";
    return os.str();
  }
  os << "deadlock at t=" << r.at << ":";
  for (const DeadlockReport::Starved& s : r.starved) {
    os << "\n  " << g.actor(s.actor).name << " starved on edge '"
       << g.edge(s.blocking_edge).name << "' (" << s.tokens_present << "/"
       << s.tokens_needed << " tokens)";
  }
  return os.str();
}

ThroughputResult SelfTimedExecutor::analyze_throughput(
    ActorId reference, std::int64_t max_iterations) {
  if (rv_firings_.empty()) {
    RepetitionVector rv = compute_repetition_vector(g_);
    ACC_EXPECTS_MSG(rv.consistent,
                    "throughput analysis needs a consistent graph");
    rv_firings_ = std::move(rv.firings);
  }
  const std::int64_t ref_per_iter = rv_firings_[reference];
  ACC_CHECK(ref_per_iter > 0);

  reset();
  ThroughputResult out;

  // States observed at iteration boundaries of the reference actor, keyed by
  // the 64-bit state hash. The key holds the reference's overshoot past the
  // boundary: an auto-concurrent reference can complete several firings at
  // one instant, and two boundaries passed at one instant must not look like
  // a period. A hash collision would mis-detect a recurrence; builds without
  // NDEBUG cross-check every hash against the full state.
  std::unordered_map<std::uint64_t, std::pair<Time, std::int64_t>> seen;
#ifndef NDEBUG
  std::unordered_map<std::uint64_t, std::string> seen_full;
#endif
  for (std::int64_t iter = 1; iter <= max_iterations; ++iter) {
    if (!run_until_firings(reference, iter * ref_per_iter).has_value()) {
      out.deadlocked = true;
      return out;
    }
    const std::int64_t overshoot = completed_[reference] - iter * ref_per_iter;
    const std::uint64_t key = state_key(overshoot);
#ifndef NDEBUG
    {
      const std::string full = state_key_string(overshoot);
      const auto fit = seen_full.find(key);
      ACC_CHECK_MSG(fit == seen_full.end() || fit->second == full,
                    "state_key 64-bit hash collision");
      seen_full.emplace(key, full);
    }
#endif
    const auto it = seen.find(key);
    if (it != seen.end()) {
      const Time t0 = it->second.first;
      const std::int64_t f0 = it->second.second;
      out.period = now_ - t0;
      out.firings_in_period = completed_[reference] - f0;
      ACC_CHECK(out.firings_in_period > 0);
      if (out.period == 0) {
        // Entire period executes in zero time: unbounded rate. Model as a
        // gigantic-but-finite rate so callers can still compare.
        out.throughput = Rational(INT64_MAX / 2);
      } else {
        out.throughput = Rational(out.firings_in_period, out.period);
      }
      out.transient_iterations = iter;
      return out;
    }
    seen.emplace(key, std::make_pair(now_, completed_[reference]));
  }
  throw invariant_error(
      "analyze_throughput: no periodic state within iteration budget");
}

}  // namespace acc::df
