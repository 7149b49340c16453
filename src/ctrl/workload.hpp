// Seeded session workloads for the dynamic control plane: deterministic
// join/leave traces replayed by app/admission_churn (bench E14).
//
// Arrivals are memoryless ("Poisson-ish"): at each event slot the trace
// joins a fresh session with probability 0.55 (forced when nothing
// is active, suppressed when `max_concurrent` sessions already run) and
// otherwise retires a uniformly chosen active session. Everything derives
// from SplitMix64, so a (seed, events) pair names one exact trace on every
// platform — the property the byte-identical BENCH_admission.json contract
// rests on.
#pragma once

#include <cstdint>
#include <vector>

namespace acc::ctrl {

struct SessionEvent {
  enum class Kind { kJoin, kLeave };
  Kind kind = Kind::kJoin;
  /// Join-order session number: the new session on kJoin, the target on
  /// kLeave. The generator does not know which joins the admission
  /// controller will accept, so a kLeave may name a rejected session — the
  /// driver skips those deterministically.
  std::int32_t session = 0;
  /// Stream-template index in [0, num_templates) (kJoin only).
  std::int32_t template_id = 0;
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  std::int32_t events = 200;
  std::int32_t max_concurrent = 5;
  std::int32_t num_templates = 2;
};

[[nodiscard]] std::vector<SessionEvent> generate_session_trace(
    const WorkloadConfig& cfg);

}  // namespace acc::ctrl
