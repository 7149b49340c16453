#include "dataflow/dot.hpp"

#include <sstream>

namespace acc::df {

namespace {

std::string quanta_label(const std::vector<std::int64_t>& q) {
  // Compress uniform quanta to a scalar; otherwise list per phase.
  bool uniform = true;
  for (std::int64_t v : q) uniform &= v == q.front();
  if (uniform) return std::to_string(q.front());
  std::string s = "<";
  for (std::size_t i = 0; i < q.size(); ++i)
    s += (i ? "," : "") + std::to_string(q[i]);
  return s + ">";
}

std::string token_label(std::int64_t tokens) {
  if (tokens == 0) return "";
  if (tokens <= 3) return std::string(static_cast<std::size_t>(tokens), '*');
  return std::to_string(tokens) + "*";
}

}  // namespace

std::string to_dot(const Graph& g, const DotOptions& opt) {
  std::ostringstream os;
  os << "digraph \"" << opt.name << "\" {\n";
  os << "  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  for (std::size_t a = 0; a < g.num_actors(); ++a) {
    const Actor& actor = g.actor(static_cast<ActorId>(a));
    os << "  a" << a << " [label=\"" << actor.name << "\\n[";
    for (std::size_t p = 0; p < actor.phase_durations.size(); ++p)
      os << (p ? "," : "") << actor.phase_durations[p];
    os << "]\"];\n";
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(static_cast<EdgeId>(e));
    const bool is_space = edge.name.find(".space") != std::string::npos;
    os << "  a" << edge.src << " -> a" << edge.dst << " [label=\""
       << quanta_label(edge.prod) << ":" << quanta_label(edge.cons);
    const std::string tok = token_label(edge.initial_tokens);
    if (!tok.empty()) os << " (" << tok << ")";
    os << "\"";
    if (is_space) os << ", color=gray, style=dashed";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace acc::df
