// JSON reading of (C)SDF graphs: the models a lint configuration declares
// in its "graphs" section.
//
// Format (all numbers integers):
// {
//   "actors": [{"name": "...", "durations": [..], "auto_concurrent": bool}],
//   "edges":  [{"src": i, "dst": j, "prod": [..], "cons": [..],
//               "tokens": t, "name": "..."}]
// }
#pragma once

#include "common/json.hpp"
#include "dataflow/graph.hpp"

namespace acc::df {

/// Rebuild a graph; throws acc::precondition_error on malformed input.
[[nodiscard]] Graph graph_from_json(const json::Value& v);

}  // namespace acc::df
