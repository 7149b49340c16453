#include "dataflow/graph.hpp"

#include <algorithm>

namespace acc::df {

ActorId Graph::add_actor(std::string name, std::vector<Time> phase_durations,
                         bool auto_concurrent) {
  ACC_EXPECTS_MSG(!phase_durations.empty(), "actor needs at least one phase");
  for (Time d : phase_durations) ACC_EXPECTS_MSG(d >= 0, "negative duration");
  actors_.push_back(Actor{std::move(name), std::move(phase_durations),
                          auto_concurrent});
  in_edges_.emplace_back();
  out_edges_.emplace_back();
  return static_cast<ActorId>(actors_.size() - 1);
}

ActorId Graph::add_sdf_actor(std::string name, Time duration,
                             bool auto_concurrent) {
  return add_actor(std::move(name), {duration}, auto_concurrent);
}

EdgeId Graph::add_edge(ActorId src, ActorId dst, std::vector<std::int64_t> prod,
                       std::vector<std::int64_t> cons,
                       std::int64_t initial_tokens, std::string name) {
  ACC_EXPECTS(src >= 0 && static_cast<std::size_t>(src) < actors_.size());
  ACC_EXPECTS(dst >= 0 && static_cast<std::size_t>(dst) < actors_.size());
  ACC_EXPECTS_MSG(prod.size() == actors_[src].phases(),
                  "prod arity != source phase count");
  ACC_EXPECTS_MSG(cons.size() == actors_[dst].phases(),
                  "cons arity != destination phase count");
  ACC_EXPECTS(initial_tokens >= 0);
  for (std::int64_t q : prod) ACC_EXPECTS(q >= 0);
  for (std::int64_t q : cons) ACC_EXPECTS(q >= 0);
  if (name.empty())
    name = actors_[src].name + "->" + actors_[dst].name + "#" +
           std::to_string(edges_.size());
  edges_.push_back(Edge{std::move(name), src, dst, std::move(prod),
                        std::move(cons), initial_tokens});
  const auto id = static_cast<EdgeId>(edges_.size() - 1);
  out_edges_[src].push_back(id);
  in_edges_[dst].push_back(id);
  return id;
}

EdgeId Graph::add_sdf_edge(ActorId src, ActorId dst, std::int64_t prod,
                           std::int64_t cons, std::int64_t initial_tokens,
                           std::string name) {
  ACC_EXPECTS(src >= 0 && static_cast<std::size_t>(src) < actors_.size());
  ACC_EXPECTS(dst >= 0 && static_cast<std::size_t>(dst) < actors_.size());
  return add_edge(src, dst,
                  std::vector<std::int64_t>(actors_[src].phases(), prod),
                  std::vector<std::int64_t>(actors_[dst].phases(), cons),
                  initial_tokens, std::move(name));
}

Channel Graph::add_channel(ActorId src, ActorId dst,
                           std::vector<std::int64_t> prod,
                           std::vector<std::int64_t> cons,
                           std::int64_t capacity, std::int64_t initial_tokens,
                           std::string name) {
  ACC_EXPECTS_MSG(capacity >= initial_tokens,
                  "channel capacity below initial fill");
  if (name.empty()) name = "ch" + std::to_string(edges_.size());
  // Space tokens travel dst -> src: the producer consumes `prod` spaces when
  // producing `prod` data tokens, the consumer returns `cons` spaces.
  std::vector<std::int64_t> space_prod = cons;  // produced by dst
  std::vector<std::int64_t> space_cons = prod;  // consumed by src
  const EdgeId data = add_edge(src, dst, std::move(prod), std::move(cons),
                               initial_tokens, name + ".data");
  const EdgeId space =
      add_edge(dst, src, std::move(space_prod), std::move(space_cons),
               capacity - initial_tokens, name + ".space");
  return Channel{data, space};
}

void Graph::set_channel_capacity(const Channel& ch, std::int64_t capacity) {
  const std::int64_t data_tokens = edge(ch.data).initial_tokens;
  ACC_EXPECTS_MSG(capacity >= data_tokens,
                  "channel capacity below initial fill");
  set_initial_tokens(ch.space, capacity - data_tokens);
}

std::int64_t Graph::channel_capacity(const Channel& ch) const {
  return edge(ch.data).initial_tokens + edge(ch.space).initial_tokens;
}

void Graph::set_initial_tokens(EdgeId e, std::int64_t tokens) {
  ACC_EXPECTS(e >= 0 && static_cast<std::size_t>(e) < edges_.size());
  ACC_EXPECTS(tokens >= 0);
  edges_[e].initial_tokens = tokens;
}

void Graph::set_actor_duration(ActorId a, Time duration) {
  ACC_EXPECTS(a >= 0 && static_cast<std::size_t>(a) < actors_.size());
  ACC_EXPECTS_MSG(actors_[a].phases() == 1, "re-timed actor must be SDF");
  ACC_EXPECTS_MSG(duration >= 0, "negative duration");
  actors_[a].phase_durations[0] = duration;
}

void Graph::validate() const {
  for (const Edge& e : edges_) {
    ACC_CHECK(e.src >= 0 && static_cast<std::size_t>(e.src) < actors_.size());
    ACC_CHECK(e.dst >= 0 && static_cast<std::size_t>(e.dst) < actors_.size());
    ACC_CHECK(e.prod.size() == actors_[e.src].phases());
    ACC_CHECK(e.cons.size() == actors_[e.dst].phases());
    ACC_CHECK(e.initial_tokens >= 0);
    // An edge whose every phase-quantum is zero on one side can never carry
    // tokens and is almost certainly a modelling bug.
    const bool prod_all_zero =
        std::all_of(e.prod.begin(), e.prod.end(),
                    [](std::int64_t q) { return q == 0; });
    const bool cons_all_zero =
        std::all_of(e.cons.begin(), e.cons.end(),
                    [](std::int64_t q) { return q == 0; });
    ACC_CHECK_MSG(!prod_all_zero && !cons_all_zero,
                  "edge '" + e.name + "' has all-zero quanta on one side");
  }
}

}  // namespace acc::df
