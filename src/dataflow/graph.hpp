// Cyclo-Static Dataflow (CSDF) graph model.
//
// This is the analysis substrate of the paper: per-stream CSDF models of the
// gateway/accelerator pipeline (paper Fig. 5) and their single-actor SDF
// abstractions (paper Fig. 7) are instances of this graph class. SDF is the
// one-phase special case of CSDF (Bilsen et al., 1996).
//
// Conventions
//  - Tokens are consumed at firing start and produced at firing end
//    (self-timed operational semantics).
//  - Every actor has an implicit self-edge with one token unless
//    `auto_concurrent` is set, matching the CSDF definition used in the paper.
//  - A bounded FIFO channel of capacity beta holding t initial tokens is
//    modelled as a forward data edge with t tokens plus a backward space edge
//    with beta - t tokens (add_channel does this for you).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace acc::df {

/// Discrete time in clock cycles.
using Time = std::int64_t;

using ActorId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr ActorId kInvalidActor = -1;

/// A CSDF actor: cyclically executes its phases; phase p takes
/// `phase_durations[p]` time between consuming inputs and producing outputs.
struct Actor {
  std::string name;
  /// One entry per phase; an SDF actor has exactly one.
  std::vector<Time> phase_durations;
  /// If true, firings of this actor may overlap (no implicit self-edge).
  bool auto_concurrent = false;

  [[nodiscard]] std::size_t phases() const { return phase_durations.size(); }
};

/// A directed edge (unbounded token queue) between two actors. `prod[p]`
/// tokens are produced by source phase p, `cons[q]` consumed by destination
/// phase q.
struct Edge {
  std::string name;
  ActorId src = kInvalidActor;
  ActorId dst = kInvalidActor;
  std::vector<std::int64_t> prod;
  std::vector<std::int64_t> cons;
  std::int64_t initial_tokens = 0;
};

/// Handle pair returned by add_channel: the forward data edge and the
/// backward space edge that together model one bounded FIFO.
struct Channel {
  EdgeId data;
  EdgeId space;
};

class Graph {
 public:
  /// Add a CSDF actor with the given per-phase firing durations (>= 0).
  ActorId add_actor(std::string name, std::vector<Time> phase_durations,
                    bool auto_concurrent = false);

  /// Add a single-phase (SDF) actor.
  ActorId add_sdf_actor(std::string name, Time duration,
                        bool auto_concurrent = false);

  /// Add an edge with per-phase production/consumption quanta. The vectors
  /// must have as many entries as the respective endpoint has phases.
  EdgeId add_edge(ActorId src, ActorId dst, std::vector<std::int64_t> prod,
                  std::vector<std::int64_t> cons, std::int64_t initial_tokens,
                  std::string name = {});

  /// Add an SDF edge (scalar rates, broadcast over all phases of CSDF
  /// endpoints — i.e. the same quantum for every phase).
  EdgeId add_sdf_edge(ActorId src, ActorId dst, std::int64_t prod,
                      std::int64_t cons, std::int64_t initial_tokens,
                      std::string name = {});

  /// Model a bounded FIFO channel of `capacity` token slots with
  /// `initial_tokens` already present. Returns both constituent edges; the
  /// capacity can later be changed with set_channel_capacity.
  Channel add_channel(ActorId src, ActorId dst, std::vector<std::int64_t> prod,
                      std::vector<std::int64_t> cons, std::int64_t capacity,
                      std::int64_t initial_tokens = 0, std::string name = {});

  /// Re-dimension a channel created by add_channel (space tokens become
  /// capacity - data tokens). Used by the buffer-sizing searches.
  void set_channel_capacity(const Channel& ch, std::int64_t capacity);

  /// Current capacity of a channel (data tokens + space tokens).
  [[nodiscard]] std::int64_t channel_capacity(const Channel& ch) const;

  [[nodiscard]] std::size_t num_actors() const { return actors_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  [[nodiscard]] const Actor& actor(ActorId a) const {
    ACC_EXPECTS(a >= 0 && static_cast<std::size_t>(a) < actors_.size());
    return actors_[a];
  }
  [[nodiscard]] const Edge& edge(EdgeId e) const {
    ACC_EXPECTS(e >= 0 && static_cast<std::size_t>(e) < edges_.size());
    return edges_[e];
  }

  /// Mutable access to an edge's initial tokens (buffer-sizing sweeps).
  void set_initial_tokens(EdgeId e, std::int64_t tokens);

  /// Re-time a single-phase actor in place. Executors over this graph read
  /// durations through it, so they see the new duration on their next run.
  void set_actor_duration(ActorId a, Time duration);

  [[nodiscard]] const std::vector<Actor>& actors() const { return actors_; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  /// Edges entering / leaving an actor (indices into edges()).
  [[nodiscard]] const std::vector<EdgeId>& in_edges(ActorId a) const {
    ACC_EXPECTS(a >= 0 && static_cast<std::size_t>(a) < actors_.size());
    return in_edges_[a];
  }
  [[nodiscard]] const std::vector<EdgeId>& out_edges(ActorId a) const {
    ACC_EXPECTS(a >= 0 && static_cast<std::size_t>(a) < actors_.size());
    return out_edges_[a];
  }

  /// Structural validation: endpoint ids valid, quanta arity matches phase
  /// counts, non-negative quanta and tokens. Throws on violation.
  void validate() const;

 private:
  std::vector<Actor> actors_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
  std::vector<std::vector<EdgeId>> out_edges_;
};

}  // namespace acc::df
