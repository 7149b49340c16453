// Per-layer probes of the traced run: each times one layer's public entry
// point in isolation, on inputs shaped like the workloads' (PAL block
// sizes, the PAL spec, a one-accelerator gateway chain). They supply the
// unit costs the attribution multiplies by the workloads' counts.
//
// Every probe reports the lower quartile of ~15 equal chunks of calls (see
// fastest), after one warm-up call.
#include <memory>

#include "accel/fir.hpp"
#include "accel/mixer.hpp"
#include "app/pal_system.hpp"
#include "bench.hpp"
#include "dataflow/executor.hpp"
#include "lint/linter.hpp"
#include "radio/signal.hpp"
#include "sharing/analysis.hpp"
#include "sharing/blocksize.hpp"
#include "sharing/csdf_model.hpp"
#include "sim/chain_builder.hpp"
#include "sim/proc_tile.hpp"

namespace perfbench {
namespace {

using namespace acc;

volatile std::uint64_t g_sink = 0;  // keeps probed results observable

struct Budget {
  double chunk_s;
  int chunks;
};

/// Host seconds per call of `f`.
template <typename F>
double per_call_s(const Budget& b, const char* name, F&& f) {
  Scope scope(name);
  f();
  std::int64_t reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < reps; ++i) f();
    const double el = seconds_since(t0);
    if (el >= b.chunk_s / 4) {
      reps = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(static_cast<double>(reps) * b.chunk_s / el));
      break;
    }
    reps *= 4;
  }
  std::vector<double> per;
  for (int c = 0; c < b.chunks; ++c) {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < reps; ++i) f();
    per.push_back(seconds_since(t0) / static_cast<double>(reps));
  }
  return fastest(per);
}

std::vector<CQ16> stimulus(std::size_t n) {
  std::vector<CQ16> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    in[i] = CQ16{Q16::from_double(0.4 * std::sin(0.011 * t)),
                 Q16::from_double(0.4 * std::cos(0.017 * t))};
  }
  return in;
}

/// Block path (Msamples/s) and per-sample push path (ns/sample) of one
/// kernel on blocks of `eta` samples.
void kernel_probe(const Budget& b, accel::StreamKernel& k, std::size_t eta,
                  const std::string& name, Result& res) {
  const std::vector<CQ16> in = stimulus(eta);
  std::vector<CQ16> out(eta);
  std::vector<std::uint8_t> counts(eta);
  const double block_s = per_call_s(b, "accel.process_block", [&] {
    g_sink = g_sink + k.process_block(in, out, counts.data());
  });
  std::vector<CQ16> scratch;
  scratch.reserve(eta);
  const double push_s = per_call_s(b, "accel.push", [&] {
    scratch.clear();
    for (const CQ16 s : in) k.push(s, scratch);
    g_sink = g_sink + scratch.size();
  });
  const auto n = static_cast<double>(eta);
  res.add("accel." + name + "_msamples_per_s", n / block_s / 1e6,
          "Msamples/s");
  res.add("accel." + name + "_push_ns", 1e9 * push_s / n, "ns");
}

class Nop final : public accel::StreamKernel {
 public:
  void push(CQ16 in, std::vector<CQ16>& out) override { out.push_back(in); }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {};
  }
  void restore_state(std::span<const std::int32_t> /*state*/) override {}
  void reset() override {}
  [[nodiscard]] std::size_t state_words() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "nop"; }
  [[nodiscard]] std::unique_ptr<accel::StreamKernel> clone_fresh()
      const override {
    return std::make_unique<Nop>();
  }
};

/// A minimal streaming system: source -> entry -> one accelerator -> exit
/// -> sink, plus `parked` components that never act again (exhausted
/// sources, like the departed sessions of churn_sessions). Returns the
/// active (stepped) cycle count.
std::int64_t min_chain(sim::Cycle cycles, int parked) {
  sim::System sys(3);
  sim::ChainConfig cc;
  cc.accel_cycles = {1};
  cc.epsilon = 2;
  sim::GatewayChain chain = sim::build_gateway_chain(sys, cc);
  sim::CFifo& in = sys.add_fifo("in", 256);
  sim::CFifo& out = sys.add_fifo("out", 256);
  sim::StreamRoute route;
  route.name = "s";
  route.eta = 32;
  route.out_per_block = 32;
  route.input = &in;
  route.output = &out;
  route.reconfig = 50;
  std::vector<std::unique_ptr<accel::StreamKernel>> kernels;
  kernels.push_back(std::make_unique<Nop>());
  chain.add_stream(route, std::move(kernels));
  const sim::Cycle period = 4;
  sys.add<sim::SourceTile>("src", in,
                           std::vector<sim::Flit>(
                               static_cast<std::size_t>(cycles / period), 7),
                           period);
  sys.add<sim::SinkTile>("snk", out, period, 64);
  for (int i = 0; i < parked; ++i) {
    sim::CFifo& f = sys.add_fifo("p" + std::to_string(i), 4);
    sys.add<sim::SourceTile>("p" + std::to_string(i), f,
                             std::vector<sim::Flit>{}, period);
  }
  sys.run(cycles);
  return sys.stepper_stats().dense_ticks;
}

}  // namespace

void run_layer_probes(const Options& opt, Result& res) {
  Scope scope("layers");
  const Budget b = opt.smoke ? Budget{0.002, 3} : Budget{0.02, 15};
  const app::PalSimConfig pal;
  // The PAL chain's Algorithm-1 blocks: 2672 front-end samples per stage-1
  // block (mixer and FIR), 336 per stage-2 block (FM demodulator).
  constexpr std::size_t kEta1 = 2672;
  constexpr std::size_t kEta2 = 336;

  // --- accel: the three PAL kernels.
  {
    accel::NcoMixer mixer(
        accel::NcoMixer::freq_from_normalized(-pal.carrier1_hz / pal.sample_rate));
    kernel_probe(b, mixer, kEta1, "mixer", res);
    accel::FmDiscriminator fm;
    kernel_probe(b, fm, kEta2, "fm_demod", res);
    accel::DecimatingFir fir(
        accel::quantize_taps(accel::design_lowpass(pal.fir_taps, pal.fir_cutoff)),
        pal.decimation);
    kernel_probe(b, fir, kEta1, "fir", res);
  }

  // --- sim: standalone transport.
  {
    constexpr sim::Cycle kCycles = 4096;
    std::int64_t pops = 0;
    const double s = per_call_s(b, "sim.CFifo", [&] {
      sim::CFifo f("probe", 64);
      pops = 0;
      for (sim::Cycle t = 0; t < kCycles; ++t) {
        if (f.can_push(t)) f.push(t, static_cast<sim::Flit>(t));
        if (f.can_pop(t)) {
          g_sink = g_sink + f.pop(t);
          ++pops;
        }
      }
    });
    res.add("sim.cfifo_push_pop_ns", 1e9 * s / static_cast<double>(pops), "ns");
  }
  {
    constexpr int kCycles = 4096;
    std::int64_t delivered = 0;
    const double s = per_call_s(b, "sim.Ring", [&] {
      sim::Ring ring(4, /*clockwise=*/true);
      std::vector<sim::RingMsg> got;
      delivered = 0;
      for (int t = 0; t < kCycles; ++t) {
        (void)ring.try_inject(0, sim::RingMsg{2, 1, static_cast<sim::Flit>(t)});
        ring.tick();
        ring.drain_into(2, got);
        delivered += static_cast<std::int64_t>(got.size());
      }
    });
    res.add("sim.ring_flit_ns", 1e9 * s / static_cast<double>(delivered), "ns");
  }

  // --- sim: stepper on a minimal chain, with and without parked slots.
  {
    const sim::Cycle cycles = opt.smoke ? 20000 : 100000;
    constexpr int kParked = 256;
    std::int64_t active = 0;
    const double bare = per_call_s(b, "sim.min_chain", [&] { active = min_chain(cycles, 0); });
    const double with = per_call_s(b, "sim.min_chain_parked", [&] { (void)min_chain(cycles, kParked); });
    res.add("sim.min_chain_cycles_per_s", static_cast<double>(cycles) / bare,
            "1/s");
    res.add("sim.parked_slot_ns",
            1e9 * (with - bare) / (static_cast<double>(active) * kParked), "ns");
  }

  // --- sharing / ilp / dataflow on the PAL spec.
  const sharing::SharedSystemSpec spec = app::make_system_spec(pal);
  {
    const std::vector<std::int64_t> etas{2672, 2672, 336, 336};
    const double s = per_call_s(b, "sharing.gamma_hat", [&] {
      g_sink = g_sink + static_cast<std::uint64_t>(sharing::gamma_hat(spec, etas));
    });
    res.add("sharing.gamma_hat_ns", 1e9 * s, "ns");
  }
  {
    const double s = per_call_s(b, "sharing.solve_block_sizes_ilp", [&] {
      g_sink = g_sink + sharing::solve_block_sizes_ilp(spec).eta.size();
    });
    res.add("ilp.blocksize_us", 1e6 * s, "us");
  }
  {
    const double s = per_call_s(b, "sharing.solve_block_sizes_fixpoint", [&] {
      g_sink = g_sink + sharing::solve_block_sizes_fixpoint(spec).eta.size();
    });
    res.add("sharing.fixpoint_us", 1e6 * s, "us");
  }
  {
    sharing::SharedSystemSpec one;
    one.chain.accel_cycles_per_sample = {1};
    one.chain.entry_cycles_per_sample = 15;
    one.chain.exit_cycles_per_sample = 1;
    one.streams = {{"s", Rational(1, 1000), 4100}};
    sharing::CsdfModelOptions o;
    o.eta = opt.smoke ? 64 : 1024;
    o.alpha0 = o.eta;
    o.alpha3 = o.eta;
    o.producer_period = 0;
    o.consumer_period = 0;
    const sharing::CsdfStreamModel m =
        sharing::build_csdf_stream_model(one, 0, o);
    std::int64_t firings = 0;
    const double s = per_call_s(b, "df.SelfTimedExecutor", [&] {
      df::SelfTimedExecutor exec(m.graph);
      (void)exec.run_until_firings(m.exit, o.eta);
      firings = 0;
      for (std::size_t a = 0; a < m.graph.num_actors(); ++a) {
        firings += exec.completed_firings(static_cast<df::ActorId>(a));
      }
    });
    res.add("dataflow.executor_firings_per_s", static_cast<double>(firings) / s,
            "1/s");
  }

  // --- lint and radio: the PAL set-up path.
  {
    const lint::LintInput li = app::make_lint_input(pal);
    const double s = per_call_s(b, "lint.lint_input", [&] {
      g_sink = g_sink + static_cast<std::uint64_t>(lint::lint_input(li).errors());
    });
    res.add("lint.pal_ms", 1e3 * s, "ms");
  }
  {
    radio::PalStereoConfig rc;
    rc.sample_rate = pal.sample_rate;
    rc.carrier1_hz = pal.carrier1_hz;
    rc.carrier2_hz = pal.carrier2_hz;
    rc.deviation_hz = pal.deviation_hz;
    const radio::Tone tl{pal.tone_left_hz, pal.tone_amplitude};
    const radio::Tone tr{pal.tone_right_hz, pal.tone_amplitude};
    const std::size_t n = opt.smoke ? (1 << 13) : pal.input_samples;
    const double s = per_call_s(b, "radio.synthesize_pal_stereo", [&] {
      const radio::StereoSource src =
          radio::render_stereo_tones({&tl, 1}, {&tr, 1}, rc.sample_rate, n);
      g_sink = g_sink + radio::synthesize_pal_stereo(rc, src).size();
    });
    res.add("radio.synthesize_ms", 1e3 * s, "ms");
  }
}

}  // namespace perfbench
