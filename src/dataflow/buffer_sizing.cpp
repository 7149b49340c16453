#include "dataflow/buffer_sizing.hpp"

#include <algorithm>

#include "dataflow/dse.hpp"

namespace acc::df {

// The search entry points below all route through the DSE engine
// (dataflow/dse.hpp): it snapshots the graph (so the caller's capacities are
// trivially preserved), validates once, memoizes every simulated capacity
// vector and applies monotone feasibility pruning.

namespace {

/// Adds an engine's counters to opt.stats when the search leaves scope, by
/// return or by throw: a search for an unreachable target throws after
/// simulating.
struct StatsFlush {
  const BufferSizingOptions& opt;
  const DseEngine& engine;
  ~StatsFlush() {
    if (opt.stats) *opt.stats += engine.stats();
  }
};

}  // namespace

std::int64_t channel_capacity_lower_bound(const Graph& g, const Channel& ch) {
  const Edge& data = g.edge(ch.data);
  std::int64_t lb = 1;
  for (std::int64_t q : data.prod) lb = std::max(lb, q);
  for (std::int64_t q : data.cons) lb = std::max(lb, q);
  lb = std::max(lb, data.initial_tokens);
  return lb;
}

std::int64_t min_channel_capacity_for_throughput(
    Graph& g, const Channel& ch, ActorId reference, const Rational& target,
    const BufferSizingOptions& opt) {
  DseEngine engine(g, {ch}, reference, opt);
  const StatsFlush flush{opt, engine};
  return engine.min_capacity_for(0, engine.snapshot_capacities(), target);
}

std::vector<ParetoPoint> pareto_buffer_sweep(Graph& g, const Channel& ch,
                                             ActorId reference,
                                             const BufferSizingOptions& opt) {
  DseEngine engine(g, {ch}, reference, opt);
  const StatsFlush flush{opt, engine};
  return engine.pareto_sweep(0);
}

}  // namespace acc::df
