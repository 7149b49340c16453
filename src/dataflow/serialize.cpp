#include "dataflow/serialize.hpp"

namespace acc::df {

namespace {

std::vector<std::int64_t> int_vector(const json::Value& v) {
  std::vector<std::int64_t> out;
  for (const json::Value& x : v.as_array()) out.push_back(x.as_int());
  return out;
}

}  // namespace

Graph graph_from_json(const json::Value& v) {
  Graph g;
  for (const json::Value& av : v.at("actors").as_array()) {
    const bool auto_conc =
        av.find("auto_concurrent") != nullptr && av.at("auto_concurrent").as_bool();
    g.add_actor(av.at("name").as_string(), int_vector(av.at("durations")),
                auto_conc);
  }
  for (const json::Value& ev : v.at("edges").as_array()) {
    const auto src = static_cast<ActorId>(ev.at("src").as_int());
    const auto dst = static_cast<ActorId>(ev.at("dst").as_int());
    ACC_EXPECTS_MSG(src >= 0 &&
                        static_cast<std::size_t>(src) < g.num_actors() &&
                        dst >= 0 &&
                        static_cast<std::size_t>(dst) < g.num_actors(),
                    "edge references an unknown actor");
    const json::Value* name = ev.find("name");
    g.add_edge(src, dst, int_vector(ev.at("prod")), int_vector(ev.at("cons")),
               ev.at("tokens").as_int(),
               name != nullptr ? name->as_string() : std::string{});
  }
  g.validate();
  return g;
}

}  // namespace acc::df
