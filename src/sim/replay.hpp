// Steady-state replay: the per-component side of System::run's periodic
// jump (see System::run and docs/performance.md).
//
// Once the wake-list stepper has seen a period of P cycles repeat — same
// control state at both ends, no data payload outside C-FIFOs and kernel
// state — it jumps k·P cycles in one step instead of ticking them. Every
// component that runs in the period takes part through
// Component::replay(Replay&), which visits the same field sequence in
// every mode:
//
//   kFirst   at the period's start: record each word;
//   kSecond  at its end: derive each word's per-period step, bind the
//            component's C-FIFO roles (whose pushes it produces, whose pops
//            it takes) and bound k;
//   kCheck   at the start of a later jump from a state equal to the period
//            end: bound k from the current values;
//   kApply   after a jump's data plane: advance each word k periods.
//
// Word kinds: counter() grows by the same amount every period; deadline()
// is a cycle the period either rewrites at a fixed offset from its end or
// leaves alone; progress() is a counter toward a threshold the jump must
// stop short of (a block's last sample, a source's last sample); quiet()
// must not move at all — a period that moves it (a traced event, a
// completed block) cannot be replayed. A component that returns false, or
// a quiet() word that moved, vetoes the jump.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"

namespace acc::sim {

class CFifo;
class Component;

class Replay {
 public:
  enum class Mode { kFirst, kSecond, kCheck, kApply };

  /// One C-FIFO's producer or consumer inside the period. A `derived`
  /// producer's values come out of the chain it feeds (an exit-gateway).
  struct Role {
    const CFifo* fifo;
    Component* actor;
    bool derived;
  };

  [[nodiscard]] bool applying() const { return mode_ == Mode::kApply; }

  void counter(std::int64_t& v) {
    if (std::int64_t* s = step(v); s != nullptr) {
      if (mode_ == Mode::kSecond) *s = v - *s;
      if (mode_ == Mode::kApply) v += k_ * *s;
    }
  }
  void counter(obs::Counter& c) {
    if (!c.enabled()) return;
    if (std::int64_t* s = step(c.value()); s != nullptr) {
      if (mode_ == Mode::kSecond) *s = c.value() - *s;
      if (mode_ == Mode::kApply) c.add(k_ * *s);
    }
  }
  void deadline(std::int64_t& v) {
    if (std::int64_t* s = step(v); s != nullptr) {
      if (mode_ == Mode::kSecond) *s = v != *s ? v - at_ : kUnwritten;
      if (mode_ == Mode::kApply && *s != kUnwritten) v = at_ + *s;
    }
  }
  /// `v` moves toward `stop` every period; the jump ends at least one step
  /// short of it.
  void progress(std::int64_t& v, std::int64_t stop) {
    std::int64_t* s = step(v);
    if (s == nullptr) return;
    if (mode_ == Mode::kSecond) *s = v - *s;
    if (mode_ == Mode::kApply) {
      v += k_ * *s;
      return;
    }
    const std::int64_t gap = stop - v;
    if (*s == 0) return;
    if (gap == 0 || (*s > 0) != (gap > 0))
      veto();
    else
      k_max_ = std::min(k_max_, (std::abs(gap) - 1) / std::abs(*s));
  }
  void quiet(const std::int64_t& v) {
    std::int64_t copy = v;
    const std::int64_t* s = step(copy);
    if (s != nullptr && mode_ == Mode::kSecond && v != *s) veto();
  }
  void quiet(const obs::Counter& c) {
    if (c.enabled()) quiet(c.value());
  }

  /// kSecond only: `actor` supplies the values of `f`'s pushes in the
  /// period (Component::replay_produce) / takes its pops (replay_consume).
  void produces(const CFifo& f, Component& actor, bool derived = false) {
    if (mode_ == Mode::kSecond) bind(producers_, Role{&f, &actor, derived});
  }
  void consumes(const CFifo& f, Component& actor) {
    if (mode_ == Mode::kSecond) bind(consumers_, Role{&f, &actor, false});
  }

  void veto() { vetoed_ = true; }

 private:
  friend class System;

  static constexpr std::int64_t kUnwritten =
      std::numeric_limits<std::int64_t>::min();

  /// The next word's slot in steps_: its recorded period-start value until
  /// kSecond turns it into the per-period step. Null in kFirst (which
  /// records) and when the field sequence disagrees with the recorded one.
  std::int64_t* step(const std::int64_t& v) {
    if (mode_ == Mode::kFirst) {
      steps_.push_back(v);
      return nullptr;
    }
    if (pos_ >= steps_.size()) {
      veto();
      return nullptr;
    }
    return &steps_[pos_++];
  }

  void bind(std::vector<Role>& roles, Role role) {
    for (const Role& r : roles) {
      if (r.fifo == role.fifo && r.actor != role.actor) veto();
    }
    roles.push_back(role);
  }

  /// Start a pass; kFirst starts a fresh period. `at` is the period end
  /// (kSecond) or the jump's end (kApply).
  void begin(Mode mode, std::int64_t at = 0) {
    mode_ = mode;
    at_ = at;
    pos_ = 0;
    vetoed_ = false;
    k_max_ = std::numeric_limits<std::int64_t>::max();
    if (mode != Mode::kFirst) return;
    steps_.clear();
    producers_.clear();
    consumers_.clear();
  }
  [[nodiscard]] bool complete() const {
    return !vetoed_ && pos_ == steps_.size();
  }

  Mode mode_ = Mode::kFirst;
  std::int64_t at_ = 0;
  std::int64_t k_ = 0;
  std::int64_t k_max_ = std::numeric_limits<std::int64_t>::max();
  bool vetoed_ = false;
  std::size_t pos_ = 0;
  std::vector<std::int64_t> steps_;
  std::vector<Role> producers_;
  std::vector<Role> consumers_;
};

}  // namespace acc::sim
