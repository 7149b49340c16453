#include "sharing/nonmonotone.hpp"

#include "dataflow/buffer_sizing.hpp"
#include "dataflow/dse.hpp"
#include "sharing/blocksize.hpp"

namespace acc::sharing {

namespace {

BufferSweepPoint sweep_point(df::Graph& g, const df::Channel& ch,
                             df::ActorId consumer, std::int64_t eta, int jobs,
                             df::DseStats* stats) {
  df::BufferSizingOptions opt;
  opt.max_capacity = std::max<std::int64_t>(64, 8 * eta);
  opt.jobs = jobs;
  // One engine for both questions: the saturation probes populate the memo
  // the minimum-capacity binary search then hits.
  df::DseEngine engine(g, {ch}, consumer, opt);
  BufferSweepPoint p;
  p.eta = eta;
  p.max_throughput = engine.max_throughput_unbounded();
  p.min_capacity =
      engine.min_capacity_for(0, engine.snapshot_capacities(),
                              p.max_throughput);
  if (stats) *stats += engine.stats();
  return p;
}

}  // namespace

std::vector<BufferSweepPoint> two_actor_buffer_sweep(
    Time producer_duration, Time consumer_duration, std::int64_t eta_lo,
    std::int64_t eta_hi, int jobs, df::DseStats* stats) {
  ACC_EXPECTS(eta_lo >= 1 && eta_hi >= eta_lo);
  std::vector<BufferSweepPoint> out;
  for (std::int64_t eta = eta_lo; eta <= eta_hi; ++eta) {
    df::Graph g;
    const df::ActorId a = g.add_sdf_actor("vA", producer_duration);
    const df::ActorId b = g.add_sdf_actor("vB", consumer_duration);
    const df::Channel ch = g.add_channel(a, b, {1}, {eta}, eta, 0, "alpha");
    out.push_back(sweep_point(g, ch, b, eta, jobs, stats));
  }
  return out;
}

std::vector<BufferSweepPoint> chunked_consumer_buffer_sweep(
    Time reconfig, Time per_sample, Time sample_period, std::int64_t chunk,
    std::int64_t eta_lo, std::int64_t eta_hi, int jobs, df::DseStats* stats) {
  ACC_EXPECTS(eta_lo >= 1 && eta_hi >= eta_lo);
  ACC_EXPECTS(chunk >= 1 && sample_period >= 1);
  std::vector<BufferSweepPoint> out;
  for (std::int64_t eta = eta_lo; eta <= eta_hi; ++eta) {
    df::Graph g;
    const df::ActorId s =
        g.add_sdf_actor("vS", reconfig + per_sample * eta);
    const df::ActorId c = g.add_sdf_actor("vC", chunk * sample_period);
    const df::Channel ch =
        g.add_channel(s, c, {eta}, {chunk}, std::max(eta, chunk), 0, "alpha");
    // Fixed target: the consumer must sustain one sample per sample_period,
    // i.e. 1/(chunk*period) firings per cycle.
    const Rational target = Rational(1, sample_period) / Rational(chunk);
    df::BufferSizingOptions opt;
    opt.max_capacity = 8 * eta + 8 * chunk + 64;
    opt.jobs = jobs;
    opt.stats = stats;
    BufferSweepPoint p;
    p.eta = eta;
    p.max_throughput = target;  // the sizing target, not the supremum
    try {
      p.min_capacity = df::min_channel_capacity_for_throughput(
          g, ch, c, target, opt);
    } catch (const invariant_error&) {
      p.min_capacity = -1;  // infeasible at this eta
    }
    out.push_back(p);
  }
  return out;
}

std::vector<GatewayBufferPoint> gateway_buffer_sweep(
    const SharedSystemSpec& sys, std::size_t stream, Time sample_period,
    std::int64_t eta_lo, std::int64_t eta_hi, int jobs, df::DseStats* stats) {
  ACC_EXPECTS(stream < sys.num_streams());
  const BlockSizeResult base = solve_block_sizes_fixpoint(sys);
  std::vector<GatewayBufferPoint> out;
  std::vector<std::int64_t> etas =
      base.feasible ? base.eta
                    : std::vector<std::int64_t>(sys.num_streams(), 1);
  for (std::int64_t eta = eta_lo; eta <= eta_hi; ++eta) {
    etas[stream] = eta;
    GatewayBufferPoint p;
    p.eta = eta;
    const StreamBufferResult r =
        min_buffers_for_stream(sys, stream, etas, sample_period,
                               /*consumer_chunk=*/1, jobs, stats);
    p.feasible = r.feasible;
    p.alpha0 = r.alpha0;
    p.alpha3 = r.alpha3;
    out.push_back(p);
  }
  return out;
}

bool is_non_monotone(const std::vector<std::int64_t>& values) {
  bool rose = false;
  bool fell = false;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[i - 1]) rose = true;
    if (values[i] < values[i - 1]) fell = true;
  }
  return rose && fell;
}

}  // namespace acc::sharing
