#include "dataflow/executor.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace acc::df {

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

/// Windows a check keeps its outcome for when nothing bounds it.
constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();

}  // namespace

SelfTimedExecutor::SelfTimedExecutor(const Graph& g)
    : SelfTimedExecutor(g, assume_validated) {
  g_.validate();
  for (ActorId a = 0; a < static_cast<ActorId>(g_.num_actors()); ++a) {
    // An unconstrained auto-concurrent actor could start infinitely many
    // firings at one instant; reject the model instead of hanging.
    ACC_EXPECTS_MSG(!g_.actor(a).auto_concurrent || !g_.in_edges(a).empty(),
                    "auto-concurrent actor '" + g_.actor(a).name +
                        "' needs at least one input edge");
  }
}

SelfTimedExecutor::SelfTimedExecutor(const Graph& g, assume_validated_t)
    : g_(g) {
  for (const Actor& actor : g_.actors()) {
    const auto a = static_cast<ActorId>(actor_ports_.size());
    ActorPorts ap{actor.phase_durations.data(),
                  static_cast<std::int32_t>(actor.phases()),
                  actor.auto_concurrent,
                  static_cast<std::int32_t>(ports_.size()), 0, 0};
    for (EdgeId e : g_.in_edges(a))
      ports_.push_back({e, g_.edge(e).cons.data()});
    ap.out = static_cast<std::int32_t>(ports_.size());
    for (EdgeId e : g_.out_edges(a))
      ports_.push_back({e, g_.edge(e).prod.data()});
    ap.end = static_cast<std::int32_t>(ports_.size());
    actor_ports_.push_back(ap);
  }
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
  confirming_ = false;
}

bool SelfTimedExecutor::enabled(ActorId a) {
  const ActorPorts& ap = actor_ports_[a];
  // A busy serialized actor stays busy in every shifted window: no bound.
  if (!ap.auto_concurrent && in_flight_[a] > 0) return false;
  const std::int32_t p = next_phase_[a];
  const Port* in = ports_.data() + ap.in;
  const Port* const end = ports_.data() + ap.out;
  if (!confirming_) {
    for (; in != end; ++in)
      if (tokens_[in->edge] < in->quanta[p]) return false;
    return true;
  }
  // Windows this check keeps its outcome for when every window moves the
  // tokens by drift_ more. A pass lasts while every draining input still
  // holds its quantum; a failure while some short input stays short.
  std::int64_t pass_for = kForever;
  std::int64_t fail_for = -1;  // -1: no input is short
  for (; in != end; ++in) {
    const std::int64_t t = tokens_[in->edge];
    const std::int64_t q = in->quanta[p];
    const std::int64_t d = drift_[in->edge];
    if (t < q) {
      fail_for = std::max(fail_for, d <= 0 ? kForever : (q - t - 1) / d);
    } else if (d < 0) {
      pass_for = std::min(pass_for, (t - q) / -d);
    }
  }
  margin_ = std::min(margin_, fail_for < 0 ? pass_for : fail_for);
  return fail_for < 0;
}

void SelfTimedExecutor::start_firing(ActorId a) {
  const ActorPorts& ap = actor_ports_[a];
  const std::int32_t p = next_phase_[a];
  for (const Port* in = ports_.data() + ap.in; in != ports_.data() + ap.out;
       ++in)
    tokens_[in->edge] -= in->quanta[p];
  const Time end = now_ + ap.durations[p];
  pending_.push(Event{end, seq_++, a, p});
  ++in_flight_[a];
  next_phase_[a] = p + 1 == ap.phases ? 0 : p + 1;
  if (observers_.on_firing) observers_.on_firing(a, p, now_, end);
}

void SelfTimedExecutor::complete(const Event& ev) {
  const ActorPorts& ap = actor_ports_[ev.actor];
  for (const Port* out = ports_.data() + ap.out;
       out != ports_.data() + ap.end; ++out) {
    const std::int64_t q = out->quanta[ev.phase];
    if (q > 0) {
      tokens_[out->edge] += q;
      max_tokens_[out->edge] =
          std::max(max_tokens_[out->edge], tokens_[out->edge]);
      if (observers_.on_produce) observers_.on_produce(out->edge, q, now_);
    }
  }
  --in_flight_[ev.actor];
  ++completed_[ev.actor];
}

void SelfTimedExecutor::start_enabled() {
  for (ActorId a = 0; a < static_cast<ActorId>(actor_ports_.size()); ++a) {
    while (enabled(a)) {
      start_firing(a);
      if (!actor_ports_[a].auto_concurrent) break;
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

const SelfTimedExecutor::Boundary& SelfTimedExecutor::record_boundary(
    std::int64_t iter, std::int64_t overshoot) {
  Boundary& b = ring_[ring_head_];
  ring_head_ = (ring_head_ + 1) % kRing;
  ring_len_ = std::min(ring_len_ + 1, kRing);
  b.iter = iter;
  b.now = now_;
  // Pending completions in the heap's pop order, (when, seq) ascending,
  // without popping a copy of the heap.
  scratch_.assign(pending_.container().begin(), pending_.container().end());
  std::sort(scratch_.begin(), scratch_.end(),
            [](const Event& x, const Event& y) {
              return std::tie(x.when, x.seq) < std::tie(y.when, y.seq);
            });
  b.shape.assign(1, overshoot);
  b.shape.insert(b.shape.end(), next_phase_.begin(), next_phase_.end());
  for (const Event& ev : scratch_) {
    b.shape.push_back(ev.when - now_);
    b.shape.push_back(ev.actor);
    b.shape.push_back(ev.phase);
  }
  Fnv1a64 fnv;
  for (std::int64_t w : b.shape) fnv.mix_i64(w);
  b.shape_hash = fnv.h;
  b.tokens = tokens_;
  b.completed = completed_;
  return b;
}

std::int64_t SelfTimedExecutor::drift(const Boundary& b,
                                      std::int64_t max_iterations) {
  if (confirming_ && b.iter == window_end_) {
    // The window confirms if it ends in the shape it started in (compared
    // word by word, not by hash) with the tokens moved by drift_ again.
    const Boundary& start = ring_[window_slot_];
    const std::int64_t m = b.iter - start.iter;
    bool same = b.shape == start.shape;
    for (std::size_t e = 0; same && e < b.tokens.size(); ++e)
      same = b.tokens[e] - start.tokens[e] == drift_[e];
    const std::int64_t k =
        same ? std::min(margin_, (max_iterations - b.iter) / m) : 0;
    close_window(k);
    if (k > 0) {
      const Time shift = k * (b.now - start.now);
      for (std::size_t e = 0; e < tokens_.size(); ++e)
        tokens_[e] += k * drift_[e];
      for (std::size_t a = 0; a < completed_.size(); ++a)
        completed_[a] += k * (b.completed[a] - start.completed[a]);
      now_ += shift;
      pending_.shift(shift);
      ring_len_ = 0;
      return k * m;
    }
  }
  if (confirming_) return 0;
  // Open a window against the nearest kept boundary of the same shape. Its
  // tokens differ: equal tokens would have been a recurrence.
  const std::size_t cur = (ring_head_ + kRing - 1) % kRing;
  for (std::size_t back = 1; back < ring_len_; ++back) {
    const Boundary& c = ring_[(cur + kRing - back) % kRing];
    if (c.shape_hash != b.shape_hash || c.shape != b.shape) continue;
    for (std::size_t e = 0; e < tokens_.size(); ++e)
      drift_[e] = b.tokens[e] - c.tokens[e];
    window_slot_ = cur;
    window_end_ = b.iter + (b.iter - c.iter);
    margin_ = kForever;
    max_before_ = max_tokens_;
    max_tokens_ = tokens_;
    confirming_ = true;
    break;
  }
  return 0;
}

void SelfTimedExecutor::close_window(std::int64_t k) {
  if (!confirming_) return;
  confirming_ = false;
  // max_tokens_ holds the window's maximum; a growing edge peaks k drifts
  // above it in the last jumped window.
  for (std::size_t e = 0; e < max_tokens_.size(); ++e)
    max_tokens_[e] = std::max(
        max_before_[e], max_tokens_[e] + (drift_[e] > 0 ? k * drift_[e] : 0));
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
  // Observers must see every firing, so nothing jumps while one is set.
  const bool replay = !observers_.on_firing && !observers_.on_produce;
  const ThroughputResult out = analyze(reference, max_iterations, replay);
  close_window(0);
#ifndef NDEBUG
  if (out.replayed_iterations > 0) {
    const ThroughputResult plain = analyze(reference, max_iterations, false);
    ACC_CHECK_MSG(plain.deadlocked == out.deadlocked &&
                      plain.throughput == out.throughput &&
                      plain.period == out.period &&
                      plain.firings_in_period == out.firings_in_period,
                  "drift replay changed a throughput analysis");
  }
#endif
  return out;
}

ThroughputResult SelfTimedExecutor::analyze(ActorId reference,
                                            std::int64_t max_iterations,
                                            bool replay) {
  if (rv_firings_.empty()) {
    RepetitionVector rv = compute_repetition_vector(g_);
    ACC_EXPECTS_MSG(rv.consistent,
                    "throughput analysis needs a consistent graph");
    rv_firings_ = std::move(rv.firings);
  }
  const std::int64_t ref_per_iter = rv_firings_[reference];
  ACC_CHECK(ref_per_iter > 0);

  reset();
  // Every analysis fills the ring from slot 0, so an executor allocates only
  // the slots its longest analysis uses.
  ring_.resize(kRing);
  ring_head_ = 0;
  ring_len_ = 0;
  drift_.resize(tokens_.size());
  ThroughputResult out;

  // States observed at iteration boundaries of the reference actor, keyed by
  // the 64-bit hash of the boundary's shape and tokens. The shape holds the
  // reference's overshoot past the boundary: an auto-concurrent reference
  // can complete several firings at one instant, and two boundaries passed
  // at one instant must not look like a period. A hash collision would
  // mis-detect a recurrence; builds without NDEBUG cross-check every hash
  // against the full state.
  struct Seen {
    Time now;
    std::int64_t completed;
    std::int64_t iter;
  };
  std::unordered_map<std::uint64_t, Seen> seen;
#ifndef NDEBUG
  std::unordered_map<std::uint64_t, std::string> seen_full;
#endif
  std::int64_t landed = 0;  // iteration the last jump landed on
  for (std::int64_t iter = 1; iter <= max_iterations; ++iter) {
    if (!run_until_firings(reference, iter * ref_per_iter).has_value()) {
      out.deadlocked = true;
      return out;
    }
    for (;;) {  // once per boundary, and again where a jump lands
      const Boundary& b = record_boundary(
          iter, completed_[reference] - iter * ref_per_iter);
      Fnv1a64 fnv{b.shape_hash};
      for (std::int64_t t : tokens_) fnv.mix_i64(t);
      const std::uint64_t key = fnv.h;
#ifndef NDEBUG
      {
        std::string full(reinterpret_cast<const char*>(b.shape.data()),
                         b.shape.size() * sizeof(std::int64_t));
        full.append(reinterpret_cast<const char*>(tokens_.data()),
                    tokens_.size() * sizeof(std::int64_t));
        const auto fit = seen_full.find(key);
        ACC_CHECK_MSG(fit == seen_full.end() || fit->second == full,
                      "state hash collision");
        seen_full.emplace(key, std::move(full));
      }
#endif
      const auto it = seen.find(key);
      if (it != seen.end()) {
        // Between two recorded boundaries with no jump in between, the
        // first repeat is the period. A jump between them may have skipped
        // a nearer repeat, so that case is answered without jumps.
        if (it->second.iter < landed)
          return analyze(reference, max_iterations, false);
        out.period = now_ - it->second.now;
        out.firings_in_period = completed_[reference] - it->second.completed;
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
      seen.emplace(key, Seen{now_, completed_[reference], iter});
      const std::int64_t jumped = replay ? drift(b, max_iterations) : 0;
      if (jumped == 0) break;
      iter += jumped;
      out.replayed_iterations += jumped;
      landed = iter;
    }
  }
  throw invariant_error(
      "analyze_throughput: no periodic state within iteration budget");
}

}  // namespace acc::df
