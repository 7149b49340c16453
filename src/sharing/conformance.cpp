#include "sharing/conformance.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "sharing/analysis.hpp"

namespace acc::sharing {

ConformanceReport check_conformance(const SharedSystemSpec& sys,
                                    const std::vector<std::int64_t>& etas,
                                    const sim::TraceLog& trace,
                                    const ConformanceOptions& opts) {
  sys.validate();
  ACC_EXPECTS(etas.size() == sys.num_streams());

  ConformanceReport rep;
  const Time gamma = gamma_hat(sys, etas);
  const sim::Cycle slack = opts.slack;

  // Eq. 4 applies to backlogged streams: a stream whose inputs arrive at
  // rate mu cannot complete blocks faster than eta/mu, so the conforming
  // spacing is the larger of the round bound and that input-limited period.
  std::vector<Time> spacing_bound(sys.num_streams(), gamma);
  for (std::size_t s = 0; s < sys.num_streams(); ++s) {
    const Time input_limited =
        (Rational(etas[s]) / sys.streams[s].mu).ceil();
    spacing_bound[s] = std::max(gamma, input_limited);
  }

  // `cover_limit` is the largest excess the declared fault envelope can
  // explain for the violated rule; 0 means any violation is genuine.
  auto violate = [&](const char* rule, sim::Cycle at, const std::string& d,
                     sim::Cycle excess, sim::Cycle cover_limit) {
    rep.conforms = false;
    const bool covered = excess > 0 ? excess <= cover_limit
                                    : cover_limit > 0;
    if (covered)
      rep.covered_by_slack++;
    else
      rep.genuine_breaches++;
    if (excess > rep.max_excess) rep.max_excess = excess;
    rep.violations.push_back(ConformanceViolation{rule, d, at, excess,
                                                  covered});
  };
  // One round holds a block of every stream, each inflatable by the
  // per-block envelope, so spacing may drift num_streams times further.
  const sim::Cycle round_cover =
      opts.fault_slack * static_cast<sim::Cycle>(sys.num_streams());

  // Pair admits with completions per stream and check each service window.
  std::map<std::int64_t, sim::Cycle> open_admit;  // stream -> admit time
  std::map<std::int64_t, sim::Cycle> last_done;   // stream -> last done
  // since_last[v][w]: services of w since v's own last service. Heuristic
  // RR rule: between two consecutive services of v, no other stream is
  // served twice. (A starved v could legitimately relax this; the
  // admission-gated gateways of this library keep backlogged streams
  // admissible, so the rule holds on conforming traces.)
  std::map<std::int64_t, std::map<std::int64_t, std::int64_t>> since_last;

  for (const sim::TraceEvent& e : trace.events()) {
    if (e.event == "admit") {
      open_admit[e.value] = e.cycle;
      for (const auto& [other, count] : since_last[e.value]) {
        if (count > 1) {
          std::ostringstream os;
          os << "stream " << other << " served " << count
             << " times between services of stream " << e.value;
          violate("round_robin", e.cycle, os.str(), 0, opts.fault_slack);
        }
      }
      since_last[e.value].clear();
      for (auto& [v, counts] : since_last)
        if (v != e.value) ++counts[e.value];
    } else if (e.event == "block.done") {
      ACC_EXPECTS_MSG(
          e.value >= 0 &&
              static_cast<std::size_t>(e.value) < sys.num_streams(),
          "block.done of stream " + std::to_string(e.value) +
              " outside the spec's streams");
      rep.blocks_checked++;
      const auto it = open_admit.find(e.value);
      if (it == open_admit.end()) {
        violate("tau_hat", e.cycle, "completion without a matching admit",
                0, 0);
        continue;
      }
      // Eq. 2: service time of one block once the gateway turned to it.
      const Time bound =
          tau_hat(sys, static_cast<std::size_t>(e.value),
                  etas[static_cast<std::size_t>(e.value)]) + slack;
      const sim::Cycle service = e.cycle - it->second;
      if (service > rep.max_service_observed)
        rep.max_service_observed = service;
      if (service > bound) {
        std::ostringstream os;
        os << "stream " << e.value << " block served in " << service
           << " > tau_hat+slack " << bound;
        violate("tau_hat", e.cycle, os.str(), service - bound,
                opts.fault_slack);
      }
      open_admit.erase(it);
      // Eq. 4: completions of a backlogged stream no farther apart than a
      // full round. (Only meaningful when the stream was immediately
      // re-admittable; a conservative check uses gamma + slack and skips
      // gaps larger than 2*gamma, which indicate input starvation instead.)
      const auto prev = last_done.find(e.value);
      if (prev != last_done.end()) {
        const Time sbound = spacing_bound[static_cast<std::size_t>(e.value)];
        const sim::Cycle gap = e.cycle - prev->second;
        if (gap > sbound + slack && gap < 2 * sbound) {
          std::ostringstream os;
          os << "stream " << e.value << " completion gap " << gap
             << " exceeds spacing bound+slack " << (sbound + slack);
          violate("gamma_spacing", e.cycle, os.str(), gap - (sbound + slack),
                  round_cover);
        }
      }
      last_done[e.value] = e.cycle;
    }
  }
  return rep;
}

ConformanceReport check_conformance(const SharedSystemSpec& sys,
                                    const std::vector<std::int64_t>& etas,
                                    const sim::TraceLog& trace,
                                    sim::Cycle slack) {
  ConformanceOptions opts;
  opts.slack = slack;
  return check_conformance(sys, etas, trace, opts);
}

}  // namespace acc::sharing
