// Workload `dse_sizing`: a seeded batch of block- and buffer-sizing
// queries, the analysis path alone (sharing, ilp, dataflow DSE and the
// self-timed executor; no simulator). Each query is a shared chain with 1-4
// streams of random period and R_s and a fixed downstream claim
// granularity, and runs
//   - solve_block_sizes_ilp       (Algorithm 1 as the paper's ILP),
//   - solve_block_sizes_fixpoint  (the same minimum by Kleene iteration),
//   - min_buffers_for_stream      (buffers at the Algorithm-1 minimum),
//   - optimal_blocks_for_buffers  (the branch-and-bound of Sec. V-F),
// all with DSE jobs = 1.
//
// Output gate per query: ILP eta == fixpoint eta, and the B&B total buffer
// is at most the Algorithm-1 total. The digest over every answer is pinned
// for seed 1.
#include <cstdio>
#include <utility>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "sharing/analysis.hpp"
#include "sharing/blocksize.hpp"

namespace perfbench {
namespace {

using namespace acc;

/// Seed of the query pool every run draws its batch from.
constexpr std::uint64_t kPoolSeed = 0xd5e5d5e4ULL;

/// Answer digest of the full-size batch. It does not depend on the order
/// of the queries or of their streams, so it is the same for every seed.
constexpr std::uint64_t kPinnedDigest = 0x68bded601ae94252ULL;

struct Query {
  sharing::SharedSystemSpec spec;
  std::vector<sharing::Time> periods;
  std::vector<std::int64_t> chunks;
  std::int64_t slack = 0;
};

std::size_t batch_size(const Options& opt) { return opt.smoke ? 8 : 192; }

/// Query `i` of a batch. The shape cycles through every combination of
/// stream count (1-4), entry cost epsilon (1-3) and chain length (1-2)
/// every 24 queries, and each stream's downstream claim granularity
/// through {1, 2, 4, 8}; the seed draws the periods (4-32 cycles) and R_s
/// (4-12 cycles). A batch thus has the same mix of search sizes for every
/// seed, and the seed moves only the numbers inside it.
Query make_query(std::size_t i, SplitMix64& rng) {
  constexpr std::int64_t kChunks[] = {1, 2, 4, 8};
  // Branch-and-bound slack per stream count: the search visits
  // (slack + 1)^n block-size vectors.
  constexpr std::int64_t kSlack[] = {6, 3, 2, 1};
  const std::size_t n = 1 + i % 4;
  for (;;) {
    Query q;
    q.spec.chain.accel_cycles_per_sample.assign(1 + (i / 12) % 2, 1);
    q.spec.chain.entry_cycles_per_sample =
        static_cast<sharing::Time>(1 + (i / 4) % 3);
    q.spec.chain.exit_cycles_per_sample = 1;
    for (std::size_t s = 0; s < n; ++s) {
      const sharing::Time period = rng.uniform(4, 32);
      q.spec.streams.push_back({"s" + std::to_string(s),
                                Rational(1, period), rng.uniform(4, 12)});
      q.periods.push_back(period);
      q.chunks.push_back(kChunks[(i + s) % 4]);
    }
    q.slack = kSlack[n - 1];
    // Keep the bottleneck below 60 % busy (every query stays feasible, so
    // no operation of the workload fails) and the Algorithm-1 blocks at
    // most 8 samples per stream on average: the DSE cost grows with the
    // block sizes, and unbounded blocks let one seed's rare large query
    // dominate its whole batch.
    if (!(sharing::utilization(q.spec) < Rational(3, 5))) continue;
    std::int64_t total_eta = 0;
    for (const std::int64_t e : sharing::solve_block_sizes_fixpoint(q.spec).eta) {
      total_eta += e;
    }
    if (total_eta <= 8 * static_cast<std::int64_t>(n)) return q;
  }
}

/// Fisher-Yates shuffle of `n` indices.
std::vector<std::size_t> permutation(std::size_t n, SplitMix64& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[static_cast<std::size_t>(
                            rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return p;
}

/// The batch of a run: the fixed query pool, with the queries and the
/// streams inside each query in an order drawn from the seed. Every search
/// visits the same candidates in any stream order, so every seed costs the
/// same; a batch drawn from the seed itself moved its cost by up to 35 %
/// between seeds (see README.md).
std::vector<Query> make_batch(const Options& opt) {
  Scope scope("dse.make_batch");
  SplitMix64 pool_rng(kPoolSeed);
  std::vector<Query> pool;
  for (std::size_t i = 0; i < batch_size(opt); ++i) {
    pool.push_back(make_query(i, pool_rng));
  }
  SplitMix64 rng(opt.seed);
  std::vector<Query> batch;
  for (const std::size_t i : permutation(pool.size(), rng)) {
    const Query& q = pool[i];
    Query p = q;
    const std::vector<std::size_t> order = permutation(q.periods.size(), rng);
    for (std::size_t s = 0; s < order.size(); ++s) {
      p.spec.streams[s] = q.spec.streams[order[s]];
      p.periods[s] = q.periods[order[s]];
      p.chunks[s] = q.chunks[order[s]];
    }
    batch.push_back(std::move(p));
  }
  return batch;
}

struct Answer {
  bool consistent = false;
  std::uint64_t digest = 0;
};

Answer answer(const Query& q, df::DseStats* stats) {
  Scope scope("dse.query");
  Answer a;
  sharing::BlockSizeResult ilp;
  sharing::BlockSizeResult fix;
  {
    Scope sc("sharing.solve_block_sizes_ilp");
    ilp = sharing::solve_block_sizes_ilp(q.spec);
  }
  {
    Scope sc("sharing.solve_block_sizes_fixpoint");
    fix = sharing::solve_block_sizes_fixpoint(q.spec);
  }
  std::int64_t min_total = 0;
  bool min_ok = fix.feasible;
  if (min_ok) {
    Scope sc("sharing.min_buffers_for_stream");
    for (std::size_t s = 0; s < q.spec.num_streams(); ++s) {
      const sharing::StreamBufferResult b = sharing::min_buffers_for_stream(
          q.spec, s, fix.eta, q.periods[s], q.chunks[s], 1, stats);
      min_ok = min_ok && b.feasible;
      min_total += b.total();
    }
  }
  sharing::OptimalBlockResult best;
  {
    Scope sc("sharing.optimal_blocks_for_buffers");
    best = sharing::optimal_blocks_for_buffers(q.spec, q.periods, q.slack,
                                               q.chunks, 1, stats);
  }
  a.consistent = ilp.feasible && fix.feasible && ilp.eta == fix.eta &&
                 min_ok && best.feasible && best.total_buffer <= min_total;
  // Order-independent: a sum over streams of each stream's (period, chunk,
  // Algorithm-1 eta), plus the two totals. The B&B eta vector is left out:
  // among equal totals it keeps the first found, which depends on order.
  std::uint64_t h = fnv_mix(fnv_mix(kFnvOffset, static_cast<std::uint64_t>(min_total)),
                            static_cast<std::uint64_t>(best.total_buffer));
  for (std::size_t s = 0; s < fix.eta.size(); ++s) {
    std::uint64_t hs = fnv_mix(kFnvOffset, static_cast<std::uint64_t>(q.periods[s]));
    hs = fnv_mix(hs, static_cast<std::uint64_t>(q.chunks[s]));
    h += fnv_mix(hs, static_cast<std::uint64_t>(fix.eta[s]));
  }
  a.digest = h;
  return a;
}

struct BatchRun {
  double wall_s = 0.0;
  std::vector<double> query_us;
  std::int64_t inconsistent = 0;
  std::uint64_t digest = kFnvOffset;
  df::DseStats stats;
};

BatchRun run_batch(const std::vector<Query>& batch) {
  BatchRun b;
  const auto t0 = Clock::now();
  for (const Query& q : batch) {
    const auto tq = Clock::now();
    const Answer a = answer(q, &b.stats);
    b.query_us.push_back(1e6 * seconds_since(tq));
    if (!a.consistent) ++b.inconsistent;
    b.digest += a.digest;  // order-independent, like the query digest
  }
  b.wall_s = seconds_since(t0);
  return b;
}

void gate(const Options& opt, const BatchRun& b, Result& res) {
  if (b.inconsistent > 0) {
    res.mismatch("dse: " + std::to_string(b.inconsistent) +
                 " queries failed the ILP == fixpoint / B&B <= Alg-1 check");
  }
  if (!opt.smoke && b.digest != kPinnedDigest) {
    res.mismatch("dse: answer digest differs from the pinned digest");
  }
  char line[96];
  std::snprintf(line, sizeof line, "dse: answer digest %016llx",
                static_cast<unsigned long long>(b.digest));
  res.note(line);
}

}  // namespace

Result run_dse(const Options& opt) {
  Result res;
  // Set-up (query generation) takes well under a millisecond: ten timed
  // repetitions now and ten after every batch; setup_s is their median.
  std::vector<double> setups;
  std::vector<Query> batch;
  const auto timed_setups = [&] {
    for (int i = 0; i < 10; ++i) {
      const auto t0 = Clock::now();
      batch = make_batch(opt);
      setups.push_back(seconds_since(t0));
    }
  };
  timed_setups();

  const BatchRun first = run_batch(batch);  // warm-up, and the gated answer
  gate(opt, first, res);

  std::vector<double> walls;
  DecisionMinima queries;
  std::int64_t disagree = 0;
  const auto start = Clock::now();
  const std::size_t min_reps = opt.smoke ? 2 : 5;
  while (walls.size() < min_reps || seconds_since(start) < opt.seconds) {
    const BatchRun b = run_batch(batch);
    walls.push_back(b.wall_s);
    queries.add(b.query_us);
    if (b.digest != first.digest || b.inconsistent != 0) ++disagree;
    timed_setups();
  }
  if (disagree > 0) res.mismatch("dse: repeated batches disagree");

  const auto reps = static_cast<std::int64_t>(walls.size());
  const auto n = static_cast<std::int64_t>(batch.size());
  res.attempted = reps * n;
  res.failed = reps * first.inconsistent + disagree * n;

  res.add("setup_s", median(setups), "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MiB");
  // A batch costs at least the sum of its queries' fastest times: each
  // query is short enough that some repetition misses every noise phase.
  res.add("work_per_s", static_cast<double>(n) / (1e-6 * queries.total_us()),
          "1/s");
  queries.report(res, "one sizing query");
  char line[240];
  std::snprintf(line, sizeof line,
                "dse_sizing: %lld batches of %lld queries, batch wall min "
                "%.1f / median %.1f ms, sum of per-query minima %.1f ms",
                static_cast<long long>(reps), static_cast<long long>(n),
                1e3 * fastest(walls), 1e3 * median(walls),
                1e-3 * queries.total_us());
  res.note(line);
  return res;
}

void trace_dse(const Options& opt, Result& res, bool selected) {
  const std::vector<Query> batch = make_batch(opt);
  const BatchRun b = run_batch(batch);
  gate(opt, b, res);
  res.add("dataflow.dse_simulations", static_cast<double>(b.stats.simulations),
          "count");
  res.add("dataflow.dse_cache_hit_ratio", b.stats.cache_hit_rate(), "ratio");
  res.add("dataflow.dse_pruned", static_cast<double>(b.stats.pruned()),
          "count");
  if (!selected) return;

  // Untraced vs traced batch walls (spans are the only tracing here).
  std::vector<double> plain;
  std::vector<double> traced{b.wall_s};
  for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
    Tracer::get().set_run(i + 1);
    Tracer::get().enable(false);
    plain.push_back(run_batch(batch).wall_s);
    Tracer::get().enable(true);
    traced.push_back(run_batch(batch).wall_s);
  }
  Tracer::get().set_run(0);
  res.add("obs.trace_overhead_ratio", fastest(traced) / fastest(plain),
          "ratio");
  char line[200];
  std::snprintf(line, sizeof line,
                "dse: %lld simulations, %lld cache hits, %lld pruned over "
                "%zu queries",
                static_cast<long long>(b.stats.simulations),
                static_cast<long long>(b.stats.cache_hits),
                static_cast<long long>(b.stats.pruned()), batch.size());
  res.note(line);
}

}  // namespace perfbench
