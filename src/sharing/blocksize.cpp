#include "sharing/blocksize.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>

#include "dataflow/buffer_sizing.hpp"
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
    eta.push_back(m.add_var("eta_" + sys.streams[s].name, 1.0, ilp::kInf,
                            /*integer=*/true));
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

StreamBufferResult min_buffers_for_stream(
    const SharedSystemSpec& sys, std::size_t stream,
    const std::vector<std::int64_t>& etas, Time sample_period,
    std::int64_t consumer_chunk, int jobs, df::DseStats* stats) {
  sys.validate();
  ACC_EXPECTS(stream < sys.num_streams());
  ACC_EXPECTS(etas.size() == sys.num_streams());
  ACC_EXPECTS(sample_period >= 1);
  ACC_EXPECTS(consumer_chunk >= 1);

  const std::int64_t eta = etas[stream];
  const Time gamma = gamma_hat(sys, etas);
  // The consumer sustains one sample per sample_period = one firing per
  // chunk * sample_period.
  const Rational target = Rational(1, sample_period) / Rational(consumer_chunk);
  StreamBufferResult out;
  // The abstract shared actor delivers eta samples per gamma cycles at most;
  // a faster sample period is structurally impossible.
  if (Rational(eta, gamma) < Rational(1, sample_period)) return out;

  SdfModelOptions opt;
  opt.eta = eta;
  opt.shared_duration = gamma;
  opt.producer_period = sample_period;
  opt.consumer_period = consumer_chunk * sample_period;
  opt.consumer_chunk = consumer_chunk;
  // Generous starting capacities; the searches below shrink them.
  const std::int64_t cap0 = 4 * eta + 8 * consumer_chunk + 4;
  opt.alpha0 = cap0;
  opt.alpha3 = cap0;
  SdfStreamModel model = build_sdf_stream_model(opt);

  df::BufferSizingOptions bopt;
  bopt.max_capacity = cap0;
  bopt.jobs = jobs;
  bopt.stats = stats;
  const df::MultiBufferResult res = df::minimize_total_capacity(
      model.graph, {model.input_buffer, model.output_buffer}, model.consumer,
      target, bopt);
  out.feasible = true;
  out.alpha0 = res.capacities[0];
  out.alpha3 = res.capacities[1];
  return out;
}

OptimalBlockResult optimal_blocks_for_buffers(
    const SharedSystemSpec& sys, const std::vector<Time>& sample_periods,
    std::int64_t eta_slack, const std::vector<std::int64_t>& consumer_chunks,
    int jobs, df::DseStats* stats) {
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
  std::vector<std::int64_t> etas(base.eta);
  // Stream s's buffers depend on the vector only through eta_s and
  // gamma_hat, so each (s, eta_s, gamma_hat) is sized once.
  std::map<std::tuple<std::size_t, std::int64_t, Time>, StreamBufferResult>
      sized;
  std::function<void(std::size_t)> sweep = [&](std::size_t idx) {
    if (idx == n) {
      if (!throughput_met(sys, etas)) return;
      const Time gamma = gamma_hat(sys, etas);
      std::vector<StreamBufferResult> bufs(n);
      std::int64_t total = 0;
      for (std::size_t s = 0; s < n; ++s) {
        const auto [it, fresh] = sized.try_emplace({s, etas[s], gamma});
        if (fresh)
          it->second = min_buffers_for_stream(sys, s, etas, sample_periods[s],
                                              chunks[s], jobs, stats);
        bufs[s] = it->second;
        if (!bufs[s].feasible) return;
        total += bufs[s].total();
      }
      if (!best.feasible || total < best.total_buffer) {
        best.feasible = true;
        best.eta = etas;
        best.buffers = std::move(bufs);
        best.total_buffer = total;
      }
      return;
    }
    for (std::int64_t e = base.eta[idx]; e <= base.eta[idx] + eta_slack; ++e) {
      etas[idx] = e;
      sweep(idx + 1);
    }
    etas[idx] = base.eta[idx];
  };
  sweep(0);
  return best;
}

}  // namespace acc::sharing
