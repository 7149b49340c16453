#include "sharing/blocksize.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "dataflow/dse.hpp"
#include "ilp/model.hpp"
#include "sharing/analysis.hpp"
#include "sharing/sdf_model.hpp"

namespace acc::sharing {

namespace {

BlockSizeResult package(const SharedSystemSpec& sys,
                        std::vector<std::int64_t> etas) {
  BlockSizeResult r;
  r.feasible = true;
  r.eta = std::move(etas);
  for (std::int64_t e : r.eta) r.total_eta += e;
  r.gamma = gamma_hat(sys, r.eta);
  ACC_CHECK_MSG(throughput_met(sys, r.eta),
                "block-size solver returned an infeasible solution");
  return r;
}

}  // namespace

BlockSizeResult solve_block_sizes_ilp(const SharedSystemSpec& sys) {
  sys.validate();
  if (utilization(sys) >= Rational(1)) return {};

  const std::size_t n = sys.num_streams();
  const double c0 =
      static_cast<double>(bottleneck_cycles_per_sample(sys.chain));
  const double tail = static_cast<double>(pipeline_tail(sys.chain));
  double sum_r = 0.0;
  for (const StreamSpec& s : sys.streams)
    sum_r += static_cast<double>(s.reconfig);

  ilp::Model m;
  std::vector<ilp::VarId> eta;
  ilp::LinExpr objective;
  for (std::size_t s = 0; s < n; ++s) {
    eta.push_back(m.add_var(1.0, ilp::kInf, /*integer=*/true));
    objective.add(eta.back(), 1.0);
  }
  m.set_objective(objective, ilp::Sense::kMinimize);

  // Eq. 6: eta_s - mu_s*c0*sum_i(eta_i) >= mu_s*(sum_i R_i + c0*T*|S|).
  for (std::size_t s = 0; s < n; ++s) {
    const double mu = sys.streams[s].mu.to_double();
    ilp::LinExpr lhs;
    for (std::size_t i = 0; i < n; ++i) {
      const double coef = (i == s ? 1.0 : 0.0) - mu * c0;
      lhs.add(eta[i], coef);
    }
    m.add_constraint(lhs, ilp::Rel::kGe,
                     mu * (sum_r + c0 * tail * static_cast<double>(n)));
  }

  const ilp::Solution sol = m.solve();
  if (!sol.optimal()) return {};
  std::vector<std::int64_t> etas(n);
  for (std::size_t s = 0; s < n; ++s)
    etas[s] = std::max<std::int64_t>(1, sol.value_int(eta[s]));
  // Floating-point constraints can round a boundary solution just below
  // exact-rational feasibility; repair with the monotone update (each pass
  // only raises etas, and utilization < 1 guarantees convergence).
  for (int pass = 0; pass < 1000 && !throughput_met(sys, etas); ++pass) {
    const Time gamma = gamma_hat(sys, etas);
    for (std::size_t s = 0; s < n; ++s) {
      const Rational need = sys.streams[s].mu * Rational(gamma);
      etas[s] = std::max(etas[s], need.ceil());
    }
  }
  return package(sys, std::move(etas));
}

BlockSizeResult solve_block_sizes_fixpoint(const SharedSystemSpec& sys,
                                           std::int64_t max_iterations) {
  sys.validate();
  if (utilization(sys) >= Rational(1)) return {};

  const std::size_t n = sys.num_streams();
  std::vector<std::int64_t> etas(n, 1);
  for (std::int64_t it = 0; it < max_iterations; ++it) {
    // eta_s <- max(1, ceil(mu_s * gamma_hat(etas))) — monotone, so Kleene
    // iteration from bottom converges to the least fixed point.
    const Time gamma = gamma_hat(sys, etas);
    bool changed = false;
    for (std::size_t s = 0; s < n; ++s) {
      const std::int64_t next =
          std::max<std::int64_t>(1, (sys.streams[s].mu * Rational(gamma)).ceil());
      ACC_CHECK_MSG(next >= etas[s], "fixpoint iteration not monotone (bug)");
      changed |= next != etas[s];
      etas[s] = next;
    }
    if (!changed) return package(sys, std::move(etas));
  }
  throw invariant_error("block-size fixpoint did not converge within budget");
}

std::vector<Rational> block_size_real_relaxation(const SharedSystemSpec& sys) {
  sys.validate();
  const Rational util = utilization(sys);
  if (util >= Rational(1)) return {};
  const Rational c0(bottleneck_cycles_per_sample(sys.chain));
  const Rational tail(pipeline_tail(sys.chain));
  Rational sum_r(0);
  Rational sum_mu(0);
  for (const StreamSpec& s : sys.streams) {
    sum_r += Rational(s.reconfig);
    sum_mu += s.mu;
  }
  // X = gamma at the fixed point of the real system:
  // X = sum_r + c0*(sum_i eta_i + T*|S|) with eta_i = mu_i * X.
  const Rational num =
      sum_r + c0 * tail * Rational(static_cast<std::int64_t>(sys.num_streams()));
  const Rational x = num / (Rational(1) - c0 * sum_mu);
  std::vector<Rational> out;
  out.reserve(sys.num_streams());
  for (const StreamSpec& s : sys.streams) out.push_back(s.mu * x);
  return out;
}

namespace {

/// Can the Fig. 7 shared actor, delivering eta samples per gamma cycles,
/// keep up with one sample per sample_period at all?
bool delivers(std::int64_t eta, Time gamma, Time sample_period) {
  return Rational(eta, gamma) >= Rational(1, sample_period);
}

/// Stream s's buffer question at block size eta_s: its Fig. 7 model, the
/// consumer's target rate and one DSE engine over alpha0/alpha3. Only the
/// shared actor's duration gamma_hat depends on the other streams' blocks;
/// size() re-times the engine to it, so one sizer answers every gamma_hat
/// of a (s, eta_s) and the engine's monotone frontier carries over.
class StreamSizer {
 public:
  StreamSizer(std::int64_t eta, Time gamma, Time sample_period,
              std::int64_t consumer_chunk)
      // The consumer sustains one sample per sample_period = one firing per
      // chunk * sample_period.
      : target_(Rational(1, sample_period) / Rational(consumer_chunk)),
        model_(build_model(eta, gamma, sample_period, consumer_chunk)),
        engine_(model_.graph, {model_.input_buffer, model_.output_buffer},
                model_.consumer, engine_options(eta, consumer_chunk)) {}

  /// Minimum alpha0/alpha3 with the shared actor firing for `gamma` cycles;
  /// the caller has checked delivers(eta, gamma, sample_period).
  [[nodiscard]] StreamBufferResult size(Time gamma) {
    engine_.retime(model_.shared, gamma);
    const df::MultiBufferResult res = engine_.minimize_total(target_);
    StreamBufferResult out;
    out.feasible = true;
    out.alpha0 = res.capacities[0];
    out.alpha3 = res.capacities[1];
    return out;
  }

  [[nodiscard]] const df::DseStats& stats() const { return engine_.stats(); }

 private:
  /// Generous starting capacities; the searches shrink them.
  static std::int64_t cap0(std::int64_t eta, std::int64_t consumer_chunk) {
    return 4 * eta + 8 * consumer_chunk + 4;
  }

  static SdfStreamModel build_model(std::int64_t eta, Time gamma,
                                    Time sample_period,
                                    std::int64_t consumer_chunk) {
    SdfModelOptions opt;
    opt.eta = eta;
    opt.shared_duration = gamma;
    opt.producer_period = sample_period;
    opt.consumer_period = consumer_chunk * sample_period;
    opt.consumer_chunk = consumer_chunk;
    opt.alpha0 = cap0(eta, consumer_chunk);
    opt.alpha3 = opt.alpha0;
    return build_sdf_stream_model(opt);
  }

  static df::BufferSizingOptions engine_options(std::int64_t eta,
                                                std::int64_t consumer_chunk) {
    df::BufferSizingOptions bopt;
    bopt.max_capacity = cap0(eta, consumer_chunk);
    return bopt;
  }

  Rational target_;
  SdfStreamModel model_;
  df::DseEngine engine_;
};

/// `sorted` (ascending, distinct) in the order a sizer visits it: smallest,
/// largest, then the midpoints of the gaps between visited values,
/// breadth-first. The smallest duration's infeasible points bound every
/// larger one from below and the largest's feasible points every smaller
/// one from above, so each midpoint starts between two frontiers.
std::vector<Time> extremes_first(const std::vector<Time>& sorted) {
  std::vector<Time> order{sorted.front()};
  if (sorted.size() > 1) order.push_back(sorted.back());
  std::deque<std::pair<std::size_t, std::size_t>> gaps{{0, sorted.size() - 1}};
  while (!gaps.empty()) {
    const auto [lo, hi] = gaps.front();
    gaps.pop_front();
    if (hi - lo < 2) continue;
    const std::size_t mid = lo + (hi - lo) / 2;
    order.push_back(sorted[mid]);
    gaps.emplace_back(lo, mid);
    gaps.emplace_back(mid, hi);
  }
  return order;
}

/// Calls visit(etas, gamma_hat) for every block-size vector from `base` up
/// to `slack` extra samples per stream that meets every stream's
/// throughput, in lexicographic order (the last stream varies fastest).
template <class Visit>
void for_each_block_vector(const SharedSystemSpec& sys,
                           const std::vector<std::int64_t>& base,
                           std::int64_t slack, Visit visit) {
  std::vector<std::int64_t> etas(base);
  for (;;) {
    if (throughput_met(sys, etas)) visit(etas, gamma_hat(sys, etas));
    std::size_t idx = etas.size();
    while (idx > 0 && etas[idx - 1] == base[idx - 1] + slack) {
      --idx;
      etas[idx] = base[idx];
    }
    if (idx == 0) return;
    ++etas[idx - 1];
  }
}

}  // namespace

StreamBufferResult min_buffers_for_stream(
    const SharedSystemSpec& sys, std::size_t stream,
    const std::vector<std::int64_t>& etas, Time sample_period,
    std::int64_t consumer_chunk, df::DseStats* stats) {
  sys.validate();
  ACC_EXPECTS(stream < sys.num_streams());
  ACC_EXPECTS(etas.size() == sys.num_streams());
  ACC_EXPECTS(sample_period >= 1);
  ACC_EXPECTS(consumer_chunk >= 1);

  const std::int64_t eta = etas[stream];
  const Time gamma = gamma_hat(sys, etas);
  // A faster sample period than the shared actor's block rate is
  // structurally impossible.
  if (!delivers(eta, gamma, sample_period)) return {};
  StreamSizer sizer(eta, gamma, sample_period, consumer_chunk);
  const StreamBufferResult out = sizer.size(gamma);
  if (stats) *stats += sizer.stats();
  return out;
}

StreamBufferResult min_buffers_for_stream(
    const SharedSystemSpec& sys, std::size_t stream,
    const std::vector<std::int64_t>& etas, Time sample_period,
    std::int64_t consumer_chunk, int jobs, df::DseStats* stats) {
  ACC_EXPECTS(jobs == 1);
  return min_buffers_for_stream(sys, stream, etas, sample_period,
                                consumer_chunk, stats);
}

OptimalBlockResult optimal_blocks_for_buffers(
    const SharedSystemSpec& sys, const std::vector<Time>& sample_periods,
    std::int64_t eta_slack, const std::vector<std::int64_t>& consumer_chunks,
    df::DseStats* stats) {
  sys.validate();
  ACC_EXPECTS(sample_periods.size() == sys.num_streams());
  ACC_EXPECTS(eta_slack >= 0);
  ACC_EXPECTS(consumer_chunks.empty() ||
              consumer_chunks.size() == sys.num_streams());
  const std::vector<std::int64_t> chunks =
      consumer_chunks.empty()
          ? std::vector<std::int64_t>(sys.num_streams(), 1)
          : consumer_chunks;

  const BlockSizeResult base = solve_block_sizes_fixpoint(sys);
  OptimalBlockResult best;
  if (!base.feasible) return best;
  const std::size_t n = sys.num_streams();

  // Stream s's buffers depend on a vector only through eta_s and gamma_hat.
  // A vector is dropped at its first stream the shared actor cannot keep
  // up with, so the streams after it are never sized for it.
  std::map<std::pair<std::size_t, std::int64_t>, std::set<Time>> wanted;
  for_each_block_vector(
      sys, base.eta, eta_slack,
      [&](const std::vector<std::int64_t>& etas, Time gamma) {
        for (std::size_t s = 0; s < n; ++s) {
          if (!delivers(etas[s], gamma, sample_periods[s])) return;
          wanted[{s, etas[s]}].insert(gamma);
        }
      });

  // Size each (s, eta_s) on one engine across its gamma_hat values.
  std::map<std::tuple<std::size_t, std::int64_t, Time>, StreamBufferResult>
      sized;
  for (const auto& [key, gammas] : wanted) {
    const auto [s, eta] = key;
    const std::vector<Time> order =
        extremes_first({gammas.begin(), gammas.end()});
    StreamSizer sizer(eta, order.front(), sample_periods[s], chunks[s]);
    for (const Time gamma : order) sized[{s, eta, gamma}] = sizer.size(gamma);
    if (stats) *stats += sizer.stats();
  }

  // The least total in lexicographic order, the first found among ties.
  for_each_block_vector(
      sys, base.eta, eta_slack,
      [&](const std::vector<std::int64_t>& etas, Time gamma) {
        std::vector<StreamBufferResult> bufs(n);
        std::int64_t total = 0;
        for (std::size_t s = 0; s < n; ++s) {
          if (!delivers(etas[s], gamma, sample_periods[s])) return;
          bufs[s] = sized.at({s, etas[s], gamma});
          total += bufs[s].total();
        }
        if (!best.feasible || total < best.total_buffer) {
          best.feasible = true;
          best.eta = etas;
          best.buffers = std::move(bufs);
          best.total_buffer = total;
        }
      });
  return best;
}

OptimalBlockResult optimal_blocks_for_buffers(
    const SharedSystemSpec& sys, const std::vector<Time>& sample_periods,
    std::int64_t eta_slack, const std::vector<std::int64_t>& consumer_chunks,
    int jobs, df::DseStats* stats) {
  ACC_EXPECTS(jobs == 1);
  return optimal_blocks_for_buffers(sys, sample_periods, eta_slack,
                                    consumer_chunks, stats);
}

}  // namespace acc::sharing
