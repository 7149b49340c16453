// Steady-state replay (System::run): the wake-list stepper jumps k repeating
// periods of a streaming block at once. Every case runs the same system
// under run_dense and run and demands identical outcomes — audio, state
// digests, metric snapshots, traces — while checking that the replay fired
// (or was vetoed) where it should.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "accel/fir.hpp"
#include "accel/mixer.hpp"
#include "app/pal_system.hpp"
#include "obs/metrics.hpp"
#include "sim/chain_builder.hpp"
#include "sim/fault.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"
#include "../support/random_chain.hpp"

namespace acc::sim {
namespace {

// --- The PAL decoder itself ----------------------------------------------

struct PalRun {
  app::PalSimResult result;
  std::string metrics;
  std::string trace;
};

PalRun run_pal(StepperKind kind, FaultInjector* fault) {
  obs::MetricsRegistry metrics;
  TraceLog trace(1 << 18);
  app::PalSimConfig cfg;
  cfg.input_samples = 1 << 13;
  cfg.stepper = kind;
  cfg.metrics = &metrics;
  cfg.trace = &trace;
  cfg.fault = fault;
  PalRun run{app::run_pal_decoder(cfg), "", trace.to_csv()};
  run.metrics = metrics.snapshot_text();
  return run;
}

void expect_same_pal(const PalRun& dense, const PalRun& wake) {
  EXPECT_EQ(dense.result.left, wake.result.left);
  EXPECT_EQ(dense.result.right, wake.result.right);
  EXPECT_EQ(dense.result.source_drops, wake.result.source_drops);
  EXPECT_EQ(dense.result.cycles_run, wake.result.cycles_run);
  EXPECT_EQ(dense.result.cordic_busy, wake.result.cordic_busy);
  EXPECT_EQ(dense.result.fir_busy, wake.result.fir_busy);
  EXPECT_EQ(dense.result.gateway.data_cycles, wake.result.gateway.data_cycles);
  EXPECT_EQ(dense.result.gateway.wait_cycles, wake.result.gateway.wait_cycles);
  EXPECT_EQ(dense.metrics, wake.metrics);
  EXPECT_EQ(dense.trace, wake.trace);
  EXPECT_EQ(dense.result.stepper.replays, 0);
}

TEST(SteadyReplay, PalWithMetricsAndTraceMatchesDense) {
  const PalRun dense = run_pal(StepperKind::kDense, nullptr);
  const PalRun wake = run_pal(StepperKind::kWakeList, nullptr);
  expect_same_pal(dense, wake);
  EXPECT_GT(wake.result.stepper.replays, 0);
  EXPECT_GT(wake.result.stepper.replayed_cycles,
            wake.result.cycles_run / 8);
  // Jumped cycles are neither ticked nor skipped.
  EXPECT_EQ(wake.result.stepper.dense_ticks +
                wake.result.stepper.skipped_cycles +
                wake.result.stepper.replayed_cycles,
            wake.result.cycles_run);
}

TEST(SteadyReplay, FaultInjectorVetoesEvenAtZeroIntensity) {
  // No site configured: the injector never fires, but its presence alone
  // keeps every jump off.
  FaultInjector quiet_dense(3);
  FaultInjector quiet_wake(3);
  const PalRun dense = run_pal(StepperKind::kDense, &quiet_dense);
  const PalRun wake = run_pal(StepperKind::kWakeList, &quiet_wake);
  expect_same_pal(dense, wake);
  EXPECT_EQ(wake.result.stepper.replays, 0);
}

TEST(SteadyReplay, LiveFaultInjectorVetoes) {
  const auto injector = [] {
    auto inj = std::make_unique<FaultInjector>(0xFA117);
    FaultSpec ring;
    ring.probability = 0.01;
    ring.max_delay = 4;
    ring.min_spacing = 200;
    inj->configure(FaultSite::kRingLink, ring);
    FaultSpec credit;
    credit.probability = 0.02;
    credit.max_delay = 3;
    credit.min_spacing = 64;
    inj->configure(FaultSite::kCreditWithhold, credit);
    return inj;
  };
  const auto d = injector();
  const auto w = injector();
  const PalRun dense = run_pal(StepperKind::kDense, d.get());
  const PalRun wake = run_pal(StepperKind::kWakeList, w.get());
  expect_same_pal(dense, wake);
  EXPECT_EQ(wake.result.stepper.replays, 0);
}

// --- A PAL-shaped line: source -> mixer -> decimating FIR -> sink ----------

/// A decimator written the way a user would: its phase is in save_state()
/// and it does not override control_word().
class PlainDecimator final : public accel::StreamKernel {
 public:
  explicit PlainDecimator(std::int32_t k) : k_(k) {}
  void push(CQ16 in, std::vector<CQ16>& out) override {
    if (++n_ == k_) {
      n_ = 0;
      out.push_back(in);
    }
  }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {n_};
  }
  void restore_state(std::span<const std::int32_t> state) override {
    n_ = state[0];
  }
  void reset() override { n_ = 0; }
  [[nodiscard]] std::size_t state_words() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "plain.decim"; }
  [[nodiscard]] std::unique_ptr<accel::StreamKernel> clone_fresh()
      const override {
    return std::make_unique<PlainDecimator>(k_);
  }

 private:
  std::int32_t k_;
  std::int32_t n_ = 0;
};

struct LineParams {
  Cycle epsilon = 15;
  Cycle source_period = 40;
  std::int64_t eta = 512;
  std::int32_t decimation = 8;
  std::int64_t in_capacity = 0;  // 0: four blocks
  Cycle sink_period = 2560;
  std::size_t samples = 1 << 13;
  Cycle jitter = 0;
  Cycle cycles = 0;  // 0: until the source is done, plus a drain
  bool plain_decimator = false;  // PlainDecimator instead of the FIR
  int streams = 1;  // each with its own source, sink and C-FIFOs
};

struct Line {
  explicit Line(const LineParams& p) : sys(4), trace(1 << 16) {
    ChainConfig cfg;
    cfg.name = "line";
    cfg.accel_cycles = {1, 1};
    cfg.epsilon = p.epsilon;
    cfg.trace = &trace;
    cfg.metrics = &metrics;
    chain = build_gateway_chain(sys, cfg);
    const std::int64_t outputs =
        static_cast<std::int64_t>(p.samples) / p.decimation;
    for (int s = 0; s < p.streams; ++s) {
      const std::string id = std::to_string(s);
      CFifo& in = sys.add_fifo(
          "in" + id, p.in_capacity > 0 ? p.in_capacity : 4 * p.eta);
      CFifo& out = sys.add_fifo("out" + id, outputs + 64);
      in.set_metrics(&metrics);
      out.set_metrics(&metrics);
      std::vector<std::unique_ptr<accel::StreamKernel>> kernels;
      kernels.push_back(std::make_unique<accel::NcoMixer>(
          accel::NcoMixer::freq_from_normalized(-0.2)));
      if (p.plain_decimator)
        kernels.push_back(std::make_unique<PlainDecimator>(p.decimation));
      else
        kernels.push_back(std::make_unique<accel::DecimatingFir>(
            accel::quantize_taps(accel::design_lowpass(33, 0.06)),
            p.decimation));
      chain.add_stream({s, "s" + id, p.eta, p.eta / p.decimation, &in, &out,
                        400},
                       std::move(kernels));
      std::vector<Flit> samples(p.samples);
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const double x = 0.7 * std::sin(0.37 * static_cast<double>(i + s));
        const double y = 0.5 * std::cos(0.11 * static_cast<double>(i));
        samples[i] =
            pack_sample(CQ16{Q16::from_double(x), Q16::from_double(y)});
      }
      SourceTile& src =
          sys.add<SourceTile>("src" + id, in, samples, p.source_period);
      if (p.jitter > 0) src.set_jitter(p.jitter, 7);
      SinkTile& sink = sys.add<SinkTile>("snk" + id, out, p.sink_period, 1);
      src.set_metrics(&metrics);
      sink.set_metrics(&metrics);
      srcs.push_back(&src);
      sinks.push_back(&sink);
    }
  }

  System sys;
  TraceLog trace;
  obs::MetricsRegistry metrics;
  GatewayChain chain;
  std::vector<SourceTile*> srcs;  // per stream
  std::vector<SinkTile*> sinks;
};

struct LineOutcome {
  std::vector<std::uint64_t> digests;  // after every run() call
  std::string metrics;
  std::string trace;
  std::vector<Flit> received;
  std::vector<Cycle> stamps;
  std::int64_t dropped = 0;
  StepperStats stats;
};

LineOutcome run_line(const LineParams& p, StepperKind kind, Cycle chunk) {
  Line line(p);
  const Cycle total =
      p.cycles > 0 ? p.cycles
                   : static_cast<Cycle>(p.samples) * p.source_period + 20000;
  LineOutcome o;
  for (Cycle done = 0; done < total; done += chunk) {
    line.sys.run_with(kind, std::min(chunk, total - done));
    o.digests.push_back(line.sys.state_digest());
  }
  o.metrics = line.metrics.snapshot_text();
  o.trace = line.trace.to_csv();
  for (const SinkTile* sink : line.sinks) {
    o.received.insert(o.received.end(), sink->received().begin(),
                      sink->received().end());
    o.stamps.insert(o.stamps.end(), sink->timestamps().begin(),
                    sink->timestamps().end());
  }
  for (const SourceTile* src : line.srcs) o.dropped += src->dropped();
  o.stats = line.sys.stepper_stats();
  return o;
}

void expect_same_line(const LineOutcome& dense, const LineOutcome& wake) {
  EXPECT_EQ(dense.digests, wake.digests);
  EXPECT_EQ(dense.metrics, wake.metrics);
  EXPECT_EQ(dense.trace, wake.trace);
  EXPECT_EQ(dense.received, wake.received);
  EXPECT_EQ(dense.stamps, wake.stamps);
  EXPECT_EQ(dense.dropped, wake.dropped);
  EXPECT_FALSE(wake.received.empty());
}

TEST(SteadyReplay, ChunkedRunsCutTheWindows) {
  // 1,000-cycle run() calls: every jump must stop at the run's end, and the
  // digest after every call must match dense.
  const LineParams p;
  const LineOutcome dense = run_line(p, StepperKind::kDense, 1000);
  const LineOutcome wake = run_line(p, StepperKind::kWakeList, 1000);
  expect_same_line(dense, wake);
  EXPECT_GT(wake.stats.replays, 0);
}

TEST(SteadyReplay, JitteredSourceNeverRepeats) {
  // The jitter RNG state is control state: no period the source runs in
  // ever hashes equal. (Once the source is done, a block streaming what is
  // left in its C-FIFO may replay, so the run stops before that.)
  LineParams p;
  p.jitter = 3;
  p.cycles = static_cast<Cycle>(p.samples) * p.source_period - 1000;
  const LineOutcome dense = run_line(p, StepperKind::kDense, 1 << 20);
  const LineOutcome wake = run_line(p, StepperKind::kWakeList, 1 << 20);
  expect_same_line(dense, wake);
  EXPECT_EQ(wake.stats.replays, 0);
}

TEST(SteadyReplay, DecimatorPhaseIsControlState) {
  // One sample per epsilon-long stretch, one output per three or four
  // samples: a hash blind to the decimator's phase would take one sample
  // for the period and replay outputs the chain never makes. The FIR
  // declares its phase as its control word; PlainDecimator declares
  // nothing, so its whole state must count.
  for (const bool plain : {false, true}) {
    SCOPED_TRACE(plain ? "PlainDecimator" : "DecimatingFir");
    LineParams p;
    p.epsilon = 16;
    p.source_period = 16;
    p.decimation = plain ? 3 : 4;
    p.eta = plain ? 255 : 256;
    p.plain_decimator = plain;
    const LineOutcome dense = run_line(p, StepperKind::kDense, 1 << 20);
    const LineOutcome wake = run_line(p, StepperKind::kWakeList, 1 << 20);
    expect_same_line(dense, wake);
    EXPECT_GT(wake.stats.replays, 0);
  }
}

TEST(SteadyReplay, SourceFifoFillsMidBlock) {
  // The source outruns the chain (two samples per epsilon): the input
  // C-FIFO fills a third of the way into each block and the source drops
  // from then on. Jumps must stop short of the fill.
  LineParams p;
  p.epsilon = 20;
  p.source_period = 10;
  p.eta = 300;
  p.decimation = 4;
  p.in_capacity = 400;
  const LineOutcome dense = run_line(p, StepperKind::kDense, 1 << 20);
  const LineOutcome wake = run_line(p, StepperKind::kWakeList, 1 << 20);
  expect_same_line(dense, wake);
  EXPECT_GT(wake.dropped, 0);
  EXPECT_GT(wake.stats.replays, 0);
}

TEST(SteadyReplay, RoutesUpToTheCapKeepTheirPeriods) {
  // The streams take turns on one chain, each a route of its own. System
  // keeps 32 routes: with 17 every route keeps its confirmed period from
  // one of its blocks to the next, so most boundaries check one. With 33
  // every new route evicts the least recently entered one, each route is
  // gone before it recurs, and its blocks search afresh.
  for (const int streams : {17, 33}) {
    SCOPED_TRACE(std::to_string(streams) + " streams");
    LineParams p;
    p.streams = streams;
    p.eta = 64;
    p.samples = 4 * 64;
    p.cycles = streams * 4 * 1500 + 40000;
    const LineOutcome dense = run_line(p, StepperKind::kDense, 1 << 20);
    const LineOutcome wake = run_line(p, StepperKind::kWakeList, 1 << 20);
    expect_same_line(dense, wake);
    EXPECT_EQ(wake.received.size(),
              static_cast<std::size_t>(streams) * 4 * 64 / 8);
    EXPECT_GT(wake.stats.replays, 0);
    if (streams <= 32)
      EXPECT_GT(wake.stats.period_checks, wake.stats.replay_boundaries / 2);
    else
      EXPECT_LT(wake.stats.period_checks, wake.stats.replay_boundaries / 4);
  }
}

// --- Seeded random chains with long blocks ---------------------------------

TEST(SteadyReplay, RandomLongBlockChainsMatchDense) {
  // epsilon >= 16 exceeds the per-sample latency of up to three unit-cost
  // accelerators, so the chain empties between samples and blocks of
  // hundreds of samples repeat period after period.
  std::mt19937_64 rng(0x5EED17);
  const auto pick = [&rng](int lo, int hi) {
    return lo +
           static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  int fired = 0;
  constexpr int kSeeds = 12;
  for (int seed = 0; seed < kSeeds; ++seed) {
    testsupport::Params p;
    p.accels = pick(1, 3);
    p.accel_cost = 1;
    p.epsilon = pick(16, 24);
    p.eta = 2 * pick(50, 200);
    p.reconfig = pick(5, 120);
    p.source_period = p.epsilon * pick(1, 3);
    p.sink_period = 8 * p.source_period;
    p.payload_blocks = 3;
    p.run_cycles = p.eta * p.payload_blocks * p.source_period + 20000;
    const auto run = [&p](StepperKind kind) {
      obs::MetricsRegistry metrics;
      testsupport::Scenario s(p, &metrics);
      s.sys.run_with(kind, p.run_cycles);
      return std::make_tuple(s.sys.state_digest(), metrics.snapshot_text(),
                             s.trace.to_csv(), s.sink->received(),
                             s.sink->timestamps(), s.sys.stepper_stats());
    };
    const auto dense = run(StepperKind::kDense);
    const auto wake = run(StepperKind::kWakeList);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(std::get<0>(dense), std::get<0>(wake));
    EXPECT_EQ(std::get<1>(dense), std::get<1>(wake));
    EXPECT_EQ(std::get<2>(dense), std::get<2>(wake));
    EXPECT_EQ(std::get<3>(dense), std::get<3>(wake));
    EXPECT_EQ(std::get<4>(dense), std::get<4>(wake));
    if (std::get<5>(wake).replays > 0) ++fired;
  }
  EXPECT_GE(fired, kSeeds * 3 / 4);
}

}  // namespace
}  // namespace acc::sim
