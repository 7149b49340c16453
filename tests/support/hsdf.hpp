// SDF -> HSDF expansion and MCM-based throughput analysis.
//
// A consistent SDF graph expands into a Homogeneous SDF (HSDF) graph with
// r[a] copies of each actor a (r = repetition vector). Throughput then
// follows from maximum-cycle-mean analysis on the expansion — the classical
// technique (Sriram & Bhattacharyya) that the paper's parameterized models
// deliberately avoid (the block size eta keeps the topology symbolic).
//
// Test-only oracle: the HSDF tests (tests/dataflow/hsdf_test.cpp), the
// random-graph fuzzing and the parameterized executor tests cross-check the
// self-timed executor's throughput against it. No production code needs it.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rational.hpp"
#include "dataflow/graph.hpp"
#include "dataflow/mcr.hpp"
#include "dataflow/repetition.hpp"

namespace acc::df {

struct HsdfGraph {
  /// Node k corresponds to copy `copy[k]` of original actor `origin[k]`.
  std::vector<ActorId> origin;
  std::vector<std::int32_t> copy;
  std::vector<Time> duration;
  /// Precedence edges: dst firing n waits for src firing n - tokens.
  std::vector<RatioEdge> edges;

  [[nodiscard]] std::int32_t num_nodes() const {
    return static_cast<std::int32_t>(origin.size());
  }
};

/// Expand a consistent single-phase (SDF) graph. Actors must all have one
/// phase; serialized actors contribute their implicit self-edge.
inline HsdfGraph expand_to_hsdf(const Graph& g) {
  for (const Actor& a : g.actors())
    ACC_EXPECTS_MSG(a.phases() == 1, "expand_to_hsdf needs single-phase (SDF) actors");
  const RepetitionVector rv = compute_repetition_vector(g);
  ACC_EXPECTS_MSG(rv.consistent, "expand_to_hsdf needs a consistent graph");

  HsdfGraph h;
  std::vector<std::int32_t> base(g.num_actors());
  for (ActorId a = 0; a < static_cast<ActorId>(g.num_actors()); ++a) {
    base[a] = h.num_nodes();
    for (std::int32_t i = 0; i < rv.firings[a]; ++i) {
      h.origin.push_back(a);
      h.copy.push_back(i);
      h.duration.push_back(g.actor(a).phase_durations[0]);
    }
  }

  // Keep only the tightest (minimum-delay) edge per (src,dst) node pair.
  std::map<std::pair<std::int32_t, std::int32_t>, std::int64_t> best;
  auto add = [&](std::int32_t s, std::int32_t d, std::int64_t tokens) {
    const auto key = std::make_pair(s, d);
    const auto it = best.find(key);
    if (it == best.end() || tokens < it->second) best[key] = tokens;
  };

  auto expand_edge = [&](ActorId u, ActorId v, std::int64_t p, std::int64_t c,
                         std::int64_t d0) {
    const std::int64_t ru = rv.firings[u];
    const std::int64_t rvv = rv.firings[v];
    // Firing x of u (1-based, first iteration) produces tokens
    // n = (x-1)p+1 .. xp; token n is consumed by firing y = ceil((n+d0)/c)
    // of v, which lies in iteration (y-1)/rvv => that many delay tokens.
    for (std::int64_t x = 1; x <= ru; ++x) {
      for (std::int64_t l = 1; l <= p; ++l) {
        const std::int64_t n = (x - 1) * p + l;
        const std::int64_t y = (n + d0 + c - 1) / c;
        const std::int32_t i = static_cast<std::int32_t>(x - 1);
        const std::int32_t j = static_cast<std::int32_t>((y - 1) % rvv);
        const std::int64_t delay = (y - 1) / rvv;
        add(base[u] + i, base[v] + j, delay);
      }
    }
  };

  for (const Edge& e : g.edges())
    expand_edge(e.src, e.dst, e.prod[0], e.cons[0], e.initial_tokens);
  for (ActorId a = 0; a < static_cast<ActorId>(g.num_actors()); ++a)
    if (!g.actor(a).auto_concurrent)
      expand_edge(a, a, 1, 1, 1);  // implicit self-edge: serialized firings

  for (const auto& [key, tokens] : best) {
    RatioEdge re;
    re.src = key.first;
    re.dst = key.second;
    re.tokens = tokens;
    re.weight = h.duration[key.first];
    h.edges.push_back(re);
  }
  return h;
}

struct SdfThroughput {
  bool deadlocked = false;
  /// Iterations of the full graph per time unit.
  Rational iterations_per_time;
  /// Firings of the given reference actor per time unit.
  Rational firings_per_time;
};

/// MCM-based throughput of a consistent SDF graph; exact. The reference
/// actor scales iterations to firings (firings = iterations * r[ref]).
inline SdfThroughput sdf_throughput_via_mcm(const Graph& g,
                                           ActorId reference) {
  const RepetitionVector rv = compute_repetition_vector(g);
  ACC_EXPECTS_MSG(rv.consistent, "throughput needs a consistent graph");
  const HsdfGraph h = expand_to_hsdf(g);
  const McrResult mcr = max_cycle_ratio(h.num_nodes(), h.edges);

  SdfThroughput out;
  if (mcr.zero_token_cycle) {
    out.deadlocked = true;
    return out;
  }
  if (mcr.acyclic || mcr.ratio.is_zero()) {
    // No cycle constrains the rate: unbounded throughput. Mirror the
    // executor's convention of a gigantic finite rational.
    out.iterations_per_time = Rational(INT64_MAX / 2);
  } else {
    out.iterations_per_time = mcr.ratio.reciprocal();
  }
  out.firings_per_time = out.iterations_per_time * Rational(rv.firings[reference]);
  return out;
}

}  // namespace acc::df
