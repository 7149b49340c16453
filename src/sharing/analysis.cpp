#include "sharing/analysis.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/checked.hpp"

namespace acc::sharing {

Time bottleneck_cycles_per_sample(const ChainSpec& chain) {
  Time c0 = std::max(chain.entry_cycles_per_sample,
                     chain.exit_cycles_per_sample);
  for (Time rho : chain.accel_cycles_per_sample) c0 = std::max(c0, rho);
  return c0;
}

std::int64_t pipeline_tail(const ChainSpec& chain) {
  return static_cast<std::int64_t>(chain.num_accelerators()) + 1;
}

Time tau_hat(const SharedSystemSpec& sys, std::size_t stream,
             std::int64_t eta) {
  ACC_EXPECTS(stream < sys.num_streams());
  ACC_EXPECTS(eta >= 1);
  // Eq. 2 assumes the double-buffered NI FIFOs of the paper's hardware
  // (alpha1 = alpha2 = 2). With single-slot FIFOs the blocked pipeline can
  // run slower than its bottleneck stage and the bound is NOT conservative
  // (see AnalysisProperty.SingleSlotNiBreaksEq2Bound).
  ACC_EXPECTS_MSG(sys.chain.ni_capacity >= 2,
                  "tau_hat (Eq. 2) requires NI FIFO capacity >= 2");
  const Time c0 = bottleneck_cycles_per_sample(sys.chain);
  // Checked: eta and R_s come straight from user configurations, and a
  // wrapped tau_hat would certify an infeasible system as admissible.
  return checked_add(
      sys.streams[stream].reconfig,
      checked_mul(checked_add(eta, pipeline_tail(sys.chain), "tau_hat"), c0,
                  "tau_hat"),
      "tau_hat (Eq. 2)");
}

Time s_hat(const SharedSystemSpec& sys, std::size_t stream,
           const std::vector<std::int64_t>& etas) {
  ACC_EXPECTS(etas.size() == sys.num_streams());
  Time total = 0;
  for (std::size_t i = 0; i < sys.num_streams(); ++i)
    if (i != stream)
      total = checked_add(total, tau_hat(sys, i, etas[i]), "s_hat (Eq. 3)");
  return total;
}

Time gamma_hat(const SharedSystemSpec& sys,
               const std::vector<std::int64_t>& etas) {
  ACC_EXPECTS(etas.size() == sys.num_streams());
  Time total = 0;
  for (std::size_t i = 0; i < sys.num_streams(); ++i)
    total = checked_add(total, tau_hat(sys, i, etas[i]), "gamma_hat (Eq. 4)");
  return total;
}

bool throughput_met(const SharedSystemSpec& sys,
                    const std::vector<std::int64_t>& etas) {
  const Time gamma = gamma_hat(sys, etas);
  for (std::size_t s = 0; s < sys.num_streams(); ++s) {
    // Eq. 5: eta_s / gamma >= mu_s.
    if (Rational(etas[s]) < sys.streams[s].mu * Rational(gamma)) return false;
  }
  return true;
}

Rational utilization(const SharedSystemSpec& sys) {
  Rational sum(0);
  for (const StreamSpec& s : sys.streams) sum += s.mu;
  return sum * Rational(bottleneck_cycles_per_sample(sys.chain));
}

BlockSchedule block_schedule(const SharedSystemSpec& sys, std::size_t stream,
                             std::int64_t eta) {
  ACC_EXPECTS(stream < sys.num_streams());
  ACC_EXPECTS(eta >= 1);
  const ChainSpec& chain = sys.chain;

  // Stage pipeline: G0 | A_0 .. A_{k-1} | G1. Stage names and durations.
  std::vector<std::string> names{"G0"};
  std::vector<Time> dur{chain.entry_cycles_per_sample};
  for (std::size_t a = 0; a < chain.num_accelerators(); ++a) {
    names.push_back("A" + std::to_string(a));
    dur.push_back(chain.accel_cycles_per_sample[a]);
  }
  names.emplace_back("G1");
  dur.push_back(chain.exit_cycles_per_sample);
  const std::size_t stages = dur.size();

  // finish[m][j]: completion time of sample j at stage m. Recurrence:
  //   start >= finish of previous sample at the same stage (serialization),
  //   start >= finish of the same sample upstream (data),
  //   start >= finish of sample j - ni_capacity downstream (credit
  //            flow-control back-pressure on the inter-tile FIFOs).
  std::vector<std::vector<Time>> finish(stages,
                                        std::vector<Time>(eta, 0));
  BlockSchedule out;
  out.entries.reserve(stages * static_cast<std::size_t>(eta));

  // Multiple passes settle the downstream back-pressure dependency; with a
  // forward sweep per sample index the dependencies are already resolved
  // because stage m's sample j-alpha downstream finish only involves earlier
  // sample indices.
  for (std::int64_t j = 0; j < eta; ++j) {
    for (std::size_t m = 0; m < stages; ++m) {
      Time start = 0;
      if (m == 0) {
        // Reconfiguration precedes the first sample through the entry-gateway.
        start = j == 0 ? sys.streams[stream].reconfig : finish[0][j - 1];
      } else {
        start = std::max(finish[m - 1][j], j > 0 ? finish[m][j - 1] : 0);
      }
      if (m + 1 < stages && j >= chain.ni_capacity) {
        start = std::max(start, finish[m + 1][j - chain.ni_capacity]);
      }
      finish[m][j] = start + dur[m];
      out.entries.push_back(ScheduleEntry{names[m], j, start, finish[m][j]});
    }
  }
  out.completion = finish[stages - 1][eta - 1];
  return out;
}

std::string render_gantt(const BlockSchedule& schedule, int width) {
  ACC_EXPECTS(width >= 16);
  if (schedule.entries.empty()) return "";
  Time t0 = schedule.entries.front().start;
  Time t1 = schedule.completion;
  for (const ScheduleEntry& e : schedule.entries) t0 = std::min(t0, e.start);
  const double scale =
      static_cast<double>(width) / static_cast<double>(std::max<Time>(1, t1 - t0));

  // Group rows by actor name, preserving pipeline order of first appearance.
  std::vector<std::string> order;
  std::map<std::string, std::string> rows;
  for (const ScheduleEntry& e : schedule.entries) {
    if (rows.find(e.actor) == rows.end()) {
      rows[e.actor] = std::string(static_cast<std::size_t>(width) + 1, ' ');
      order.push_back(e.actor);
    }
    auto& row = rows[e.actor];
    const int a = static_cast<int>(static_cast<double>(e.start - t0) * scale);
    int b = static_cast<int>(static_cast<double>(e.end - t0) * scale);
    b = std::max(b, a + 1);  // every firing at least one cell wide
    for (int x = a; x < b && x <= width; ++x) {
      // Alternate glyphs per sample index so adjacent firings stay visible.
      row[static_cast<std::size_t>(x)] = e.index % 2 == 0 ? '#' : '=';
    }
  }

  std::size_t label_w = 0;
  for (const std::string& name : order) label_w = std::max(label_w, name.size());
  std::ostringstream os;
  for (const std::string& name : order) {
    os << name << std::string(label_w - name.size(), ' ') << " |"
       << rows[name] << "|\n";
  }
  os << std::string(label_w, ' ') << " t=" << t0 << " .. " << t1 << " cycles\n";
  return os.str();
}

}  // namespace acc::sharing
