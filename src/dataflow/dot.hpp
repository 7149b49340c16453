// Graphviz export of (C)SDF graphs — design documentation and debugging.
#pragma once

#include <string>

#include "dataflow/graph.hpp"

namespace acc::df {

struct DotOptions {
  /// Graph name in the dot header.
  std::string name = "csdf";
};

/// Render the graph in Graphviz dot syntax. Actors become boxes labelled
/// "name [d0,d1,...]"; edges are labelled "prod:cons" with token dots for
/// initial tokens (counts above 3 are printed numerically). The space edge
/// of a channel pair (name ending ".space") is drawn gray and dashed.
[[nodiscard]] std::string to_dot(const Graph& g, const DotOptions& opt = {});

}  // namespace acc::df
