// JSON writer for (C)SDF graphs in the format graph_from_json reads
// (dataflow/serialize.hpp). The serialization tests (tests/dataflow/
// serialize_test.cpp) round-trip graphs through it, so a field the reader
// drops or misplaces shows up as a different graph.
//
// Test-only oracle: production code only reads graphs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/json.hpp"
#include "dataflow/graph.hpp"

namespace acc::df {

inline json::Array int_list(const std::vector<std::int64_t>& v) {
  json::Array a;
  a.reserve(v.size());
  for (std::int64_t x : v) a.emplace_back(x);
  return a;
}

/// Serialize a graph (channels become their two constituent edges).
inline json::Value graph_to_json(const Graph& g) {
  json::Array actors;
  for (const Actor& a : g.actors()) {
    json::Object o;
    o["name"] = a.name;
    o["durations"] = int_list(a.phase_durations);
    o["auto_concurrent"] = a.auto_concurrent;
    actors.emplace_back(std::move(o));
  }
  json::Array edges;
  for (const Edge& e : g.edges()) {
    json::Object o;
    o["src"] = static_cast<std::int64_t>(e.src);
    o["dst"] = static_cast<std::int64_t>(e.dst);
    o["prod"] = int_list(e.prod);
    o["cons"] = int_list(e.cons);
    o["tokens"] = e.initial_tokens;
    o["name"] = e.name;
    edges.emplace_back(std::move(o));
  }
  json::Object root;
  root["actors"] = std::move(actors);
  root["edges"] = std::move(edges);
  return root;
}

}  // namespace acc::df
