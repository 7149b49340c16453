#include "ctrl/workload.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace acc::ctrl {

namespace {

/// Probability that an event slot with room for a session joins one.
constexpr double kJoinBias = 0.55;

}  // namespace

std::vector<SessionEvent> generate_session_trace(const WorkloadConfig& cfg) {
  ACC_EXPECTS(cfg.events >= 1);
  ACC_EXPECTS(cfg.max_concurrent >= 1);
  ACC_EXPECTS(cfg.num_templates >= 1);
  SplitMix64 rng(cfg.seed);
  std::vector<SessionEvent> out;
  out.reserve(static_cast<std::size_t>(cfg.events));
  std::vector<std::int32_t> active;  // the generator's own view
  std::int32_t next_session = 0;
  for (std::int32_t i = 0; i < cfg.events; ++i) {
    const bool full =
        static_cast<std::int32_t>(active.size()) >= cfg.max_concurrent;
    const bool join = active.empty() || (!full && rng.chance(kJoinBias));
    SessionEvent e;
    if (join) {
      e.kind = SessionEvent::Kind::kJoin;
      e.session = next_session++;
      e.template_id = static_cast<std::int32_t>(
          rng.uniform(0, cfg.num_templates - 1));
      active.push_back(e.session);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(active.size()) - 1));
      e.kind = SessionEvent::Kind::kLeave;
      e.session = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    out.push_back(e);
  }
  return out;
}

}  // namespace acc::ctrl
