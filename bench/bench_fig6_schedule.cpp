// E1 — Paper Fig. 6: the execution schedule of one block of eta samples
// through gateway + accelerator(s), parameterized in eta.
//
// Regenerates the schedule three ways and cross-checks them:
//   1. the closed-form stage recurrence (analysis.hpp),
//   2. self-timed execution of the Fig. 5 CSDF model,
//   3. the Eq. 2 upper bound tau_hat.
#include <iostream>

#include "common/table.hpp"
#include "dataflow/executor.hpp"
#include "sharing/analysis.hpp"
#include "sharing/csdf_model.hpp"

int main() {
  using namespace acc;
  using namespace acc::sharing;

  std::cout << "=== Fig. 6: execution schedule of one block (eta parameterized) ===\n\n";

  // The paper's chain parameters, one accelerator for the figure's layout.
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = 15;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, 1000), 4100}};

  // A small eta so the Gantt chart is printable.
  const std::int64_t eta = 6;
  const BlockSchedule sch = block_schedule(sys, 0, eta);

  Table t({"sample", "G0 [start,end)", "A0 [start,end)", "G1 [start,end)"});
  for (std::int64_t j = 0; j < eta; ++j) {
    std::vector<std::string> row{std::to_string(j)};
    for (std::size_t m = 0; m < 3; ++m) {
      const ScheduleEntry& e = sch.entries[j * 3 + m];
      row.push_back("[" + std::to_string(e.start) + "," +
                    std::to_string(e.end) + ")");
    }
    t.add_row(row);
  }
  std::cout << t.render();
  std::cout << "\nGantt view (one row per pipeline stage, '#'/'=' alternate "
               "per sample):\n"
            << render_gantt(sch) << "\n";
  std::cout << "block completion tau_s        = " << sch.completion
            << " cycles (R_s + eta*epsilon + rho_A + delta)\n";

  // Cross-check against the executed CSDF model (Fig. 5).
  CsdfModelOptions o;
  o.eta = eta;
  o.alpha0 = eta;
  o.alpha3 = eta;
  o.producer_period = 0;
  o.consumer_period = 0;
  CsdfStreamModel m = build_csdf_stream_model(sys, 0, o);
  df::SelfTimedExecutor exec(m.graph);
  const auto done = exec.run_until_firings(m.exit, eta);
  std::cout << "CSDF model (Fig. 5) executed  = " << (done ? *done : -1)
            << " cycles\n";
  std::cout << "Eq. 2 bound tau_hat           = " << tau_hat(sys, 0, eta)
            << " cycles\n";

  // Sweep eta to show the parameterization (the essence of the figure).
  std::cout << "\n";
  Table sweep({"eta", "tau_s exact", "tau_hat (Eq. 2)", "bound holds"});
  bool all_ok = true;
  for (std::int64_t e : {1, 2, 4, 8, 16, 64, 256, 1024, 10136}) {
    const Time exact = block_schedule(sys, 0, e).completion;
    const Time bound = tau_hat(sys, 0, e);
    all_ok &= exact <= bound;
    sweep.add_row({std::to_string(e), fmt_int(exact), fmt_int(bound),
                   exact <= bound ? "yes" : "NO"});
  }
  std::cout << sweep.render();
  std::cout << (all_ok ? "\nall schedules within the Eq. 2 bound\n"
                       : "\nBOUND VIOLATED\n");
  return all_ok ? 0 : 1;
}
