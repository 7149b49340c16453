// Reference throughput for the buffer-sizing and dataflow tests: one fresh
// self-timed executor on the graph as configured, a deadlock read as 0, at
// the iteration budget every buffer-sizing search gives one analysis. The
// DSE engine (dataflow/dse.hpp) answers the same question through its memo
// and pruning; this is the plain analysis its answers must match.
//
// Test-only oracle: production code sizes buffers through the engine.
#pragma once

#include "common/rational.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/graph.hpp"

namespace acc::df {

inline Rational reference_throughput(const Graph& g, ActorId actor) {
  const ThroughputResult r = SelfTimedExecutor(g).analyze_throughput(
      actor, BufferSizingOptions{}.max_iterations);
  return r.deadlocked ? Rational(0) : r.throughput;
}

}  // namespace acc::df
