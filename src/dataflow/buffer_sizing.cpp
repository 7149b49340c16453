#include "dataflow/buffer_sizing.hpp"

#include <algorithm>

#include "dataflow/dse.hpp"

namespace acc::df {

// The search entry points below all route through the DSE engine
// (dataflow/dse.hpp): it snapshots the graph (so the caller's capacities are
// trivially preserved), validates once, memoizes every simulated capacity
// vector and applies monotone feasibility pruning. `opt.jobs` controls the
// worker-thread count; results are identical for every value.

namespace {

void flush_stats(const BufferSizingOptions& opt, const DseEngine& engine) {
  if (opt.stats) *opt.stats += engine.stats();
}

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
  const std::int64_t cap =
      engine.min_capacity_for(0, engine.snapshot_capacities(), target);
  flush_stats(opt, engine);
  return cap;
}

std::vector<ParetoPoint> pareto_buffer_sweep(Graph& g, const Channel& ch,
                                             ActorId reference,
                                             const BufferSizingOptions& opt) {
  DseEngine engine(g, {ch}, reference, opt);
  std::vector<ParetoPoint> out = engine.pareto_sweep(0);
  flush_stats(opt, engine);
  return out;
}

}  // namespace acc::df
