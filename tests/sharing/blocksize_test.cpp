#include "sharing/blocksize.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "sharing/analysis.hpp"

namespace acc::sharing {
namespace {

SharedSystemSpec pal_like_system() {
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1, 1};
  sys.chain.entry_cycles_per_sample = 15;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {
      {"ch1.stage1", Rational(28224, 1000000), 4100},
      {"ch2.stage1", Rational(28224, 1000000), 4100},
      {"ch1.stage2", Rational(3528, 1000000), 4100},
      {"ch2.stage2", Rational(3528, 1000000), 4100},
  };
  return sys;
}

TEST(BlockSize, FixpointSolvesPalLikeSystem) {
  const BlockSizeResult r = solve_block_sizes_fixpoint(pal_like_system());
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.eta.size(), 4u);
  // Symmetric streams get identical blocks.
  EXPECT_EQ(r.eta[0], r.eta[1]);
  EXPECT_EQ(r.eta[2], r.eta[3]);
  // Stage-1 streams run 8x faster, so their blocks are ~8x larger (exact
  // 8:1 in the real relaxation; integer ceiling may perturb by <= 1 ulp).
  EXPECT_NEAR(static_cast<double>(r.eta[0]) / static_cast<double>(r.eta[2]),
              8.0, 0.01);
  EXPECT_TRUE(throughput_met(pal_like_system(), r.eta));
}

TEST(BlockSize, IlpAgreesWithFixpoint) {
  const SharedSystemSpec sys = pal_like_system();
  const BlockSizeResult fp = solve_block_sizes_fixpoint(sys);
  const BlockSizeResult ilp = solve_block_sizes_ilp(sys);
  ASSERT_TRUE(fp.feasible);
  ASSERT_TRUE(ilp.feasible);
  EXPECT_EQ(fp.eta, ilp.eta);
  EXPECT_EQ(fp.total_eta, ilp.total_eta);
  EXPECT_EQ(fp.gamma, ilp.gamma);
}

TEST(BlockSize, InfeasibleWhenUtilizationAtLeastOne) {
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = 10;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"a", Rational(1, 15), 100}, {"b", Rational(1, 15), 100}};
  // utilization = 10 * 2/15 = 4/3 >= 1.
  EXPECT_GE(utilization(sys), Rational(1));
  EXPECT_FALSE(solve_block_sizes_fixpoint(sys).feasible);
  EXPECT_FALSE(solve_block_sizes_ilp(sys).feasible);
}

TEST(BlockSize, RelaxationLowerBoundsIntegerSolution) {
  const SharedSystemSpec sys = pal_like_system();
  const std::vector<Rational> relax = block_size_real_relaxation(sys);
  const BlockSizeResult fp = solve_block_sizes_fixpoint(sys);
  ASSERT_EQ(relax.size(), fp.eta.size());
  for (std::size_t s = 0; s < relax.size(); ++s) {
    EXPECT_GE(Rational(fp.eta[s]), relax[s]);
    // Integer solution stays close to the relaxation (within the ceiling
    // feedback amplification).
    EXPECT_LE(fp.eta[s] - relax[s].ceil(), fp.eta[s] / 10 + 16);
  }
}

TEST(BlockSize, RelaxationSatisfiesBalanceEquation) {
  const SharedSystemSpec sys = pal_like_system();
  const std::vector<Rational> relax = block_size_real_relaxation(sys);
  // X = gamma at the real fixed point; eta_s = mu_s * X must satisfy
  // X = sum R + c0*(sum eta + T*|S|) exactly.
  const Rational c0(bottleneck_cycles_per_sample(sys.chain));
  const Rational tail(pipeline_tail(sys.chain));
  Rational sum_eta(0);
  for (const Rational& e : relax) sum_eta += e;
  Rational x = Rational(4 * 4100) + c0 * (sum_eta + tail * Rational(4));
  EXPECT_EQ(relax[0], sys.streams[0].mu * x);
  EXPECT_EQ(relax[2], sys.streams[2].mu * x);
}

TEST(BlockSize, SolutionIsMinimalPerComponent) {
  // Decrementing any stream's block must break feasibility (least fixed
  // point = component-wise minimum).
  const SharedSystemSpec sys = pal_like_system();
  const BlockSizeResult fp = solve_block_sizes_fixpoint(sys);
  for (std::size_t s = 0; s < fp.eta.size(); ++s) {
    if (fp.eta[s] <= 1) continue;
    std::vector<std::int64_t> etas = fp.eta;
    etas[s] -= 1;
    EXPECT_FALSE(throughput_met(sys, etas)) << "stream " << s;
  }
}

TEST(BlockSize, SingleStreamClosedForm) {
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = 2;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, 4), 6}};
  // gamma(eta) = 6 + (eta+2)*2 = 10 + 2*eta; eta >= (10+2*eta)/4
  // -> 2*eta >= 10 -> eta = 5, gamma = 20.
  const BlockSizeResult fp = solve_block_sizes_fixpoint(sys);
  ASSERT_TRUE(fp.feasible);
  EXPECT_EQ(fp.eta, (std::vector<std::int64_t>{5}));
  EXPECT_EQ(fp.gamma, 20);
}

// Property: on random feasible systems the two solvers agree and produce
// the minimal feasible point.
TEST(BlockSizeProperty, SolversAgreeOnRandomSystems) {
  SplitMix64 rng(0xB10C);
  int solved = 0;
  for (int trial = 0; trial < 120; ++trial) {
    SharedSystemSpec sys;
    sys.chain.accel_cycles_per_sample = {rng.uniform(1, 4)};
    sys.chain.entry_cycles_per_sample = rng.uniform(1, 8);
    sys.chain.exit_cycles_per_sample = rng.uniform(1, 3);
    const int n = static_cast<int>(rng.uniform(1, 4));
    for (int s = 0; s < n; ++s) {
      sys.streams.push_back({"s" + std::to_string(s),
                             Rational(1, rng.uniform(20, 400)),
                             rng.uniform(0, 500)});
    }
    const BlockSizeResult fp = solve_block_sizes_fixpoint(sys);
    const BlockSizeResult ilp = solve_block_sizes_ilp(sys);
    ASSERT_EQ(fp.feasible, ilp.feasible);
    if (!fp.feasible) {
      EXPECT_GE(utilization(sys), Rational(1));
      continue;
    }
    ++solved;
    EXPECT_EQ(fp.eta, ilp.eta) << "trial " << trial;
    EXPECT_TRUE(throughput_met(sys, fp.eta));
    // Component-wise minimality.
    for (std::size_t s = 0; s < fp.eta.size(); ++s) {
      if (fp.eta[s] <= 1) continue;
      std::vector<std::int64_t> etas = fp.eta;
      etas[s] -= 1;
      EXPECT_FALSE(throughput_met(sys, etas));
    }
  }
  EXPECT_GT(solved, 40);
}

TEST(BufferForStream, SmallSystemExactness) {
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = 2;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, 4), 6}};
  const BlockSizeResult fp = solve_block_sizes_fixpoint(sys);
  ASSERT_TRUE(fp.feasible);
  const StreamBufferResult buf =
      min_buffers_for_stream(sys, 0, fp.eta, /*sample_period=*/4);
  ASSERT_TRUE(buf.feasible);
  // Buffers must at least hold one block.
  EXPECT_GE(buf.alpha0, fp.eta[0]);
  EXPECT_GE(buf.alpha3, fp.eta[0]);
}

TEST(BufferForStream, InfeasiblePeriodReported) {
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = 2;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, 4), 6}};
  // eta=1 gives gamma=12 > 4 cycles/sample: period 4 unreachable.
  const StreamBufferResult buf = min_buffers_for_stream(sys, 0, {1}, 4);
  EXPECT_FALSE(buf.feasible);
}

TEST(OptimalBlocks, NeverWorseThanMinimalBlocks) {
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = 2;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, 4), 6}};
  const BlockSizeResult fp = solve_block_sizes_fixpoint(sys);
  ASSERT_TRUE(fp.feasible);
  const StreamBufferResult at_min =
      min_buffers_for_stream(sys, 0, fp.eta, 4);
  ASSERT_TRUE(at_min.feasible);
  const OptimalBlockResult best = optimal_blocks_for_buffers(sys, {4}, 6);
  ASSERT_TRUE(best.feasible);
  EXPECT_LE(best.total_buffer, at_min.total());
  EXPECT_GE(best.eta[0], fp.eta[0]);  // never below the Algorithm-1 minimum
}

/// Each (stream, eta_s, gamma_hat) sized once, with its own
/// min_buffers_for_stream call.
using TripleSizings =
    std::map<std::tuple<std::size_t, std::int64_t, Time>, StreamBufferResult>;

/// The §V-F sweep by one-shot sizing: sizes every stream of every
/// block-size vector (or, with `once`, each (s, eta_s, gamma_hat) once), in
/// the same lexicographic order, keeping the first minimum. `ties`
/// (optional) counts later vectors that equal the best total so far.
OptimalBlockResult exhaustive_optimal_blocks(
    const SharedSystemSpec& sys, const std::vector<Time>& periods,
    std::int64_t slack, const std::vector<std::int64_t>& chunks,
    df::DseStats* stats, int* ties = nullptr, TripleSizings* once = nullptr) {
  const BlockSizeResult base = solve_block_sizes_fixpoint(sys);
  OptimalBlockResult best;
  const std::size_t n = sys.num_streams();
  std::vector<std::int64_t> etas(base.eta);
  const std::function<void(std::size_t)> sweep = [&](std::size_t idx) {
    if (idx == n) {
      if (!throughput_met(sys, etas)) return;
      std::vector<StreamBufferResult> bufs(n);
      std::int64_t total = 0;
      for (std::size_t s = 0; s < n; ++s) {
        const auto size = [&] {
          return min_buffers_for_stream(sys, s, etas, periods[s], chunks[s],
                                        stats);
        };
        if (once) {
          const auto [it, fresh] =
              once->try_emplace({s, etas[s], gamma_hat(sys, etas)});
          if (fresh) it->second = size();
          bufs[s] = it->second;
        } else {
          bufs[s] = size();
        }
        if (!bufs[s].feasible) return;
        total += bufs[s].total();
      }
      if (ties && best.feasible && total == best.total_buffer) ++*ties;
      if (!best.feasible || total < best.total_buffer) {
        best.feasible = true;
        best.eta = etas;
        best.buffers = std::move(bufs);
        best.total_buffer = total;
      }
      return;
    }
    for (std::int64_t e = base.eta[idx]; e <= base.eta[idx] + slack; ++e) {
      etas[idx] = e;
      sweep(idx + 1);
    }
    etas[idx] = base.eta[idx];
  };
  sweep(0);
  return best;
}

struct SweepQuery {
  SharedSystemSpec sys;
  std::vector<Time> periods;
  std::vector<std::int64_t> chunks;
  std::int64_t slack = 0;
};

/// A random feasible query with `n` streams, drawn like the benchmark's:
/// periods 4-32, R_s 4-12, chunks from {1, 2, 4, 8}, bottleneck below 60 %
/// busy and small Algorithm-1 blocks.
SweepQuery random_sweep_query(SplitMix64& rng, std::size_t n) {
  constexpr std::int64_t kChunks[] = {1, 2, 4, 8};
  for (;;) {
    SweepQuery q;
    q.sys.chain.accel_cycles_per_sample.assign(
        static_cast<std::size_t>(rng.uniform(1, 2)), 1);
    q.sys.chain.entry_cycles_per_sample = rng.uniform(1, 3);
    q.sys.chain.exit_cycles_per_sample = 1;
    for (std::size_t s = 0; s < n; ++s) {
      const Time period = rng.uniform(4, 32);
      q.sys.streams.push_back(
          {"s" + std::to_string(s), Rational(1, period), rng.uniform(4, 12)});
      q.periods.push_back(period);
      q.chunks.push_back(kChunks[rng.uniform(0, 3)]);
    }
    q.slack = rng.uniform(1, 3);
    if (!(utilization(q.sys) < Rational(3, 5))) continue;
    std::int64_t total_eta = 0;
    for (std::int64_t e : solve_block_sizes_fixpoint(q.sys).eta) total_eta += e;
    if (total_eta <= 6 * static_cast<std::int64_t>(n)) return q;
  }
}

void expect_same_result(const OptimalBlockResult& got,
                        const OptimalBlockResult& want) {
  ASSERT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.eta, want.eta);
  EXPECT_EQ(got.total_buffer, want.total_buffer);
  ASSERT_EQ(got.buffers.size(), want.buffers.size());
  for (std::size_t s = 0; s < got.buffers.size(); ++s) {
    EXPECT_EQ(got.buffers[s].feasible, want.buffers[s].feasible) << s;
    EXPECT_EQ(got.buffers[s].alpha0, want.buffers[s].alpha0) << s;
    EXPECT_EQ(got.buffers[s].alpha3, want.buffers[s].alpha3) << s;
  }
}

// Property: reusing each stream's sizing and DSE frontier across block-size
// vectors changes no answer, ties included, on random 1-4-stream queries
// (six of each stream count).
TEST(OptimalBlocksProperty, ReuseMatchesExhaustiveSweep) {
  constexpr std::size_t kStreams[] = {2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4,
                                      1, 2, 1, 3, 1, 4, 1, 2, 1, 3, 1, 4};
  SplitMix64 rng(0x5EF1);
  int ties = 0;
  for (int trial = 0; trial < std::ssize(kStreams); ++trial) {
    const SweepQuery q = random_sweep_query(rng, kStreams[trial]);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_result(
        optimal_blocks_for_buffers(q.sys, q.periods, q.slack, q.chunks),
        exhaustive_optimal_blocks(q.sys, q.periods, q.slack, q.chunks,
                                  nullptr, &ties));
  }
  EXPECT_GT(ties, 0);  // the first-found tie-break is exercised
}

TEST(OptimalBlocks, ReuseRunsFewerSimulations) {
  SplitMix64 rng(0x5EF3);
  const SweepQuery q = random_sweep_query(rng, 3);
  df::DseStats reused;
  df::DseStats exhaustive;
  const OptimalBlockResult got = optimal_blocks_for_buffers(
      q.sys, q.periods, q.slack, q.chunks, &reused);
  const OptimalBlockResult want =
      exhaustive_optimal_blocks(q.sys, q.periods, q.slack, q.chunks, &exhaustive);
  expect_same_result(got, want);
  EXPECT_LT(reused.simulations, exhaustive.simulations);
}

// The signatures with the retired DSE worker count accept only jobs = 1.
TEST(OptimalBlocks, RetiredJobCountMustBeOne) {
  SplitMix64 rng(0x5EF7);
  const SweepQuery q = random_sweep_query(rng, 2);
  const BlockSizeResult base = solve_block_sizes_fixpoint(q.sys);
  ASSERT_TRUE(base.feasible);
  df::DseStats one;
  df::DseStats plain;
  expect_same_result(
      optimal_blocks_for_buffers(q.sys, q.periods, q.slack, q.chunks, 1, &one),
      optimal_blocks_for_buffers(q.sys, q.periods, q.slack, q.chunks, &plain));
  EXPECT_EQ(one.simulations, plain.simulations);
  EXPECT_THROW((void)optimal_blocks_for_buffers(q.sys, q.periods, q.slack,
                                                q.chunks, 2, nullptr),
               precondition_error);
  EXPECT_EQ(min_buffers_for_stream(q.sys, 0, base.eta, q.periods[0],
                                   q.chunks[0], 1, nullptr)
                .total(),
            min_buffers_for_stream(q.sys, 0, base.eta, q.periods[0],
                                   q.chunks[0])
                .total());
  EXPECT_THROW((void)min_buffers_for_stream(q.sys, 0, base.eta, q.periods[0],
                                            q.chunks[0], 2, nullptr),
               precondition_error);
}

// The DSE counters are the work units the sizing benchmark reports as
// host-independent: two runs of one search count the same work.
TEST(OptimalBlocks, CountersRepeatRunToRun) {
  SplitMix64 rng(0x5EF9);
  const SweepQuery q = random_sweep_query(rng, 3);
  df::DseStats first;
  df::DseStats second;
  expect_same_result(
      optimal_blocks_for_buffers(q.sys, q.periods, q.slack, q.chunks, &first),
      optimal_blocks_for_buffers(q.sys, q.periods, q.slack, q.chunks,
                                 &second));
  EXPECT_GT(first.simulations, 0);
  EXPECT_EQ(first.simulations, second.simulations);
  EXPECT_EQ(first.cache_hits, second.cache_hits);
  EXPECT_EQ(first.pruned_infeasible, second.pruned_infeasible);
  EXPECT_EQ(first.pruned_feasible, second.pruned_feasible);
  EXPECT_EQ(first.replayed_iterations, second.replayed_iterations);
}

// Sizing each (s, eta_s, gamma_hat) on its own engine repeats the searches
// a shared gamma_hat frontier answers: one engine per (s, eta_s) reaches the
// same answer with fewer simulations.
TEST(OptimalBlocks, GammaFrontierRunsFewerSimulations) {
  SplitMix64 rng(0x5EF5);
  const SweepQuery q = random_sweep_query(rng, 3);
  df::DseStats shared;
  df::DseStats one_shot;
  TripleSizings once;
  const OptimalBlockResult got = optimal_blocks_for_buffers(
      q.sys, q.periods, q.slack, q.chunks, &shared);
  const OptimalBlockResult want = exhaustive_optimal_blocks(
      q.sys, q.periods, q.slack, q.chunks, &one_shot, nullptr, &once);
  expect_same_result(got, want);
  // Several gamma_hat values for some (s, eta_s), or nothing is shared.
  std::set<std::pair<std::size_t, std::int64_t>> groups;
  for (const auto& [key, sized] : once)
    groups.emplace(std::get<0>(key), std::get<1>(key));
  EXPECT_LT(groups.size(), once.size());
  EXPECT_LT(shared.simulations, one_shot.simulations);
  EXPECT_GT(shared.pruned(), one_shot.pruned());
}

}  // namespace
}  // namespace acc::sharing
