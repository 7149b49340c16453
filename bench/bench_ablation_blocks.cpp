// E12 (ablation) — §V-F: minimal block sizes vs buffer-optimal block sizes.
//
// Because buffer capacities are non-monotone in the block size (Fig. 8),
// the paper proposes a branch-and-bound search over block sizes to find the
// assignment minimizing total buffer capacity. This bench runs
// `optimal_blocks_for_buffers` against the Algorithm-1 minimum on systems
// where the two differ, quantifying the buffer savings of searching beyond
// the minimal blocks.
//
// Scenarios are independent B&B searches, so they run in parallel
// (--jobs N threads, default 2). Each scenario renders into its own string
// buffer and the buffers are printed in a fixed order, so the output is
// bit-identical for any --jobs — the same determinism contract as
// bench_fault_campaign.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel_for.hpp"
#include "common/table.hpp"
#include "sharing/analysis.hpp"
#include "sharing/blocksize.hpp"
#include "sharing/nonmonotone.hpp"

namespace {

using namespace acc;
using namespace acc::sharing;

std::string report(const char* title, const SharedSystemSpec& sys,
                   const std::vector<df::Time>& periods, std::int64_t slack,
                   const std::vector<std::int64_t>& chunks = {}) {
  std::ostringstream out;
  out << title << "\n";
  const std::vector<std::int64_t> ch =
      chunks.empty() ? std::vector<std::int64_t>(sys.num_streams(), 1)
                     : chunks;
  const BlockSizeResult minimum = solve_block_sizes_fixpoint(sys);
  if (!minimum.feasible) {
    out << "  infeasible\n\n";
    return out.str();
  }
  std::int64_t min_total = 0;
  bool min_ok = true;
  std::vector<StreamBufferResult> at_min(sys.num_streams());
  for (std::size_t s = 0; s < sys.num_streams(); ++s) {
    at_min[s] = min_buffers_for_stream(sys, s, minimum.eta, periods[s], ch[s]);
    min_ok &= at_min[s].feasible;
    min_total += at_min[s].total();
  }
  const OptimalBlockResult best =
      optimal_blocks_for_buffers(sys, periods, slack, ch);

  Table t({"strategy", "blocks", "total buffer (samples)"});
  auto blocks_str = [&](const std::vector<std::int64_t>& etas) {
    std::string s;
    for (std::size_t i = 0; i < etas.size(); ++i)
      s += (i ? "," : "") + std::to_string(etas[i]);
    return s;
  };
  t.add_row({"Algorithm-1 minimum", blocks_str(minimum.eta),
             min_ok ? std::to_string(min_total) : "infeasible"});
  if (best.feasible) {
    t.add_row({"buffer-optimal (B&B, slack " + std::to_string(slack) + ")",
               blocks_str(best.eta), std::to_string(best.total_buffer)});
  }
  out << t.render();
  if (best.feasible && min_ok) {
    out << "  buffer saving over minimal blocks: "
        << (min_total - best.total_buffer) << " samples ("
        << fmt_double(100.0 * (min_total - best.total_buffer) /
                          std::max<std::int64_t>(min_total, 1), 1)
        << " %)\n";
  }
  out << "\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0] << " [--jobs N]\n";
      return 1;
    }
  }

  std::cout << "=== Ablation: minimal vs buffer-optimal block sizes (§V-F) ===\n\n";

  // Scenario closures write into their own slot; rendering order is fixed.
  std::vector<std::string> sections(5);
  std::vector<std::function<void()>> scenarios;

  scenarios.push_back([&sections] {
    SharedSystemSpec sys;
    sys.chain.accel_cycles_per_sample = {1};
    sys.chain.entry_cycles_per_sample = 2;
    sys.chain.exit_cycles_per_sample = 1;
    sys.streams = {{"s", Rational(1, 4), 6}};
    sections[0] = report("single stream, tight rate (mu=1/4, R=6):", sys, {4}, 8);
  });
  scenarios.push_back([&sections] {
    SharedSystemSpec sys;
    sys.chain.accel_cycles_per_sample = {1};
    sys.chain.entry_cycles_per_sample = 3;
    sys.chain.exit_cycles_per_sample = 1;
    sys.streams = {{"a", Rational(1, 10), 20}, {"b", Rational(1, 14), 20}};
    sections[1] = report("two streams (mu=1/10, 1/14; R=20):", sys, {10, 14}, 5);
  });
  scenarios.push_back([&sections] {
    SharedSystemSpec sys;
    sys.chain.accel_cycles_per_sample = {1, 1};
    sys.chain.entry_cycles_per_sample = 2;
    sys.chain.exit_cycles_per_sample = 1;
    sys.streams = {{"fast", Rational(1, 8), 12}, {"slow", Rational(1, 24), 12}};
    sections[2] = report("two-accelerator chain (mu=1/8, 1/24; R=12):", sys, {8, 24}, 6);
  });
  scenarios.push_back([&sections] {
    // The Fig. 8 situation: the stream feeds a 4:1 down-sampler, so its
    // output is claimed in chunks of 4. A minimal block misaligned with the
    // chunk strands remainders in the buffer; the B&B finds a (possibly
    // larger) aligned block with a smaller total buffer.
    SharedSystemSpec sys;
    sys.chain.accel_cycles_per_sample = {1};
    sys.chain.entry_cycles_per_sample = 2;
    sys.chain.exit_cycles_per_sample = 1;
    sys.streams = {{"s", Rational(1, 3), 6}};
    sections[3] = report("chunked consumer (4:1 down-sampler downstream; mu=1/3, R=6):",
                         sys, {3}, 8, {4});
  });
  scenarios.push_back([&sections] {
    SharedSystemSpec sys;
    sys.chain.accel_cycles_per_sample = {1};
    sys.chain.entry_cycles_per_sample = 1;
    sys.chain.exit_cycles_per_sample = 1;
    sys.streams = {{"s", Rational(1, 2), 10}};
    sections[4] = report("chunked consumer (8:1 down-sampler downstream; mu=1/2, R=10):",
                         sys, {2}, 12, {8});
  });

  // The clearest manifestation: the OUTPUT buffer of a stream feeding an
  // 8:1 down-sampler. When the Algorithm-1 feasibility boundary lands on a
  // chunk-misaligned eta, a larger aligned block needs a strictly smaller
  // buffer.
  const std::vector<Time> sweep = {11, 13, 15};
  std::vector<std::vector<std::string>> sweep_rows(sweep.size());
  auto run_sweep_point = [&](std::size_t i) {
    const Time r = sweep[i];
    const auto pts = chunked_consumer_buffer_sweep(r, 1, 2, 8, r, r + 10);
    std::int64_t eta_min = -1;
    std::int64_t cap_min = -1;
    std::int64_t best_eta = -1;
    std::int64_t best_cap = -1;
    for (const auto& p : pts) {
      if (p.min_capacity < 0) continue;
      if (eta_min < 0) {
        eta_min = p.eta;
        cap_min = p.min_capacity;
      }
      if (best_cap < 0 || p.min_capacity < best_cap) {
        best_cap = p.min_capacity;
        best_eta = p.eta;
      }
    }
    sweep_rows[i] = {std::to_string(r), std::to_string(eta_min),
                     std::to_string(cap_min), std::to_string(best_eta),
                     std::to_string(best_cap),
                     std::to_string(cap_min - best_cap) + " samples"};
  };

  for (std::size_t i = 0; i < sweep.size(); ++i)
    scenarios.push_back([&run_sweep_point, i] { run_sweep_point(i); });
  parallel_for(jobs, scenarios.size(), [&](std::size_t i) { scenarios[i](); });

  for (const std::string& s : sections) std::cout << s;

  std::cout << "output-buffer-optimal block vs Algorithm-1 minimum (stream "
               "feeding an 8:1 chunk consumer, sample period 2):\n";
  Table t({"R_s", "eta_min (Alg. 1)", "buffer at eta_min", "best eta",
           "buffer at best", "saving"});
  for (const auto& row : sweep_rows) t.add_row(row);
  std::cout << t.render();

  std::cout
      << "\nconclusions:\n"
         "  1. for plain sample-rate consumers the Algorithm-1 minimum was\n"
         "     also buffer-optimal in every system we swept (the input\n"
         "     buffer's ~eta growth dominates any output-side saving);\n"
         "  2. when the downstream claims CHUNKS (down-sampler / next\n"
         "     gateway block), a misaligned minimal block strands\n"
         "     remainders and a LARGER block needs a strictly smaller\n"
         "     buffer (up to 12 samples above) — the paper's Fig. 8\n"
         "     non-monotonicity, and the reason its ILP is paired with a\n"
         "     branch-and-bound buffer search.\n";
  return 0;
}
