#include "app/pal_system.hpp"

#include <algorithm>
#include <cmath>

#include "accel/fir.hpp"
#include "accel/mixer.hpp"
#include "common/check.hpp"
#include "sharing/analysis.hpp"
#include "sharing/blocksize.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"

namespace acc::app {

namespace {

std::int64_t round_up_to(std::int64_t v, std::int64_t multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

/// Solve Algorithm 1, then round blocks up to the decimation factor so each
/// block yields a fixed output count (the exit-gateway must know how many
/// samples to expect). Rounding up grows gamma, so re-verify and iterate.
void solve_blocks(const PalSimConfig& cfg, const sharing::SharedSystemSpec& spec,
                  std::int64_t* eta1, std::int64_t* eta2) {
  if (cfg.eta_stage1 > 0 && cfg.eta_stage2 > 0) {
    ACC_EXPECTS_MSG(cfg.eta_stage1 % cfg.decimation == 0 &&
                        cfg.eta_stage2 % cfg.decimation == 0,
                    "explicit block sizes must be decimation-aligned");
    *eta1 = cfg.eta_stage1;
    *eta2 = cfg.eta_stage2;
    return;
  }
  const sharing::BlockSizeResult base = sharing::solve_block_sizes_fixpoint(spec);
  ACC_EXPECTS_MSG(base.feasible,
                  "system infeasible: utilization >= 1 (raise input_period)");
  std::vector<std::int64_t> etas = base.eta;
  for (std::int64_t& e : etas) e = round_up_to(e, cfg.decimation);
  for (int guard = 0; guard < 1000 && !sharing::throughput_met(spec, etas);
       ++guard) {
    const Time gamma = sharing::gamma_hat(spec, etas);
    for (std::size_t s = 0; s < etas.size(); ++s) {
      const std::int64_t need = (spec.streams[s].mu * Rational(gamma)).ceil();
      etas[s] = std::max(etas[s], round_up_to(need, cfg.decimation));
    }
  }
  ACC_CHECK(sharing::throughput_met(spec, etas));
  *eta1 = etas[0];
  *eta2 = etas[2];
}

}  // namespace

/// Synthesize the broadcast and quantize it to flits (shared by both the
/// shared-chain and the dedicated-baseline assemblies).
std::vector<sim::Flit> synthesize_pal_input(const PalSimConfig& cfg) {
  radio::PalStereoConfig pal;
  pal.sample_rate = cfg.sample_rate;
  pal.carrier1_hz = cfg.carrier1_hz;
  pal.carrier2_hz = cfg.carrier2_hz;
  pal.deviation_hz = cfg.deviation_hz;
  const radio::Tone tl{cfg.tone_left_hz, cfg.tone_amplitude};
  const radio::Tone tr{cfg.tone_right_hz, cfg.tone_amplitude};
  const radio::StereoSource src = radio::render_stereo_tones(
      {&tl, 1}, {&tr, 1}, cfg.sample_rate, cfg.input_samples);
  const std::vector<radio::cplx> baseband =
      radio::synthesize_pal_stereo(pal, src);
  std::vector<sim::Flit> rf;
  rf.reserve(baseband.size());
  for (const radio::cplx& s : baseband) {
    rf.push_back(sim::pack_sample(CQ16{Q16::from_double(s.real()),
                                       Q16::from_double(s.imag())}));
  }
  return rf;
}

lint::LintInput make_lint_input(const PalSimConfig& cfg) {
  lint::LintInput in;
  in.name = "pal-decoder";
  in.spec = make_system_spec(cfg);

  // Resolve block sizes where possible; an infeasible spec leaves etas
  // empty and the linter reports M09 from the utilization test instead.
  std::int64_t eta1 = 0;
  std::int64_t eta2 = 0;
  try {
    solve_blocks(cfg, *in.spec, &eta1, &eta2);
  } catch (const std::exception&) {
    eta1 = eta2 = 0;
  }
  if (eta1 > 0 && eta2 > 0) {
    in.etas = {eta1, eta1, eta2, eta2};
    const std::int64_t burst = eta2 / cfg.decimation;
    in.fifos = {{"in.ch1", cfg.fifo_slack * eta1},
                {"in.ch2", cfg.fifo_slack * eta1},
                {"mid.ch1", cfg.fifo_slack * eta2},
                {"mid.ch2", cfg.fifo_slack * eta2},
                {"audio.ch1", cfg.fifo_slack * burst + 64},
                {"audio.ch2", cfg.fifo_slack * burst + 64}};
    in.stream_fifos = {"in.ch1", "in.ch2", "mid.ch1", "mid.ch2"};
    // Each stage-1 block leaves eta1/decimation samples in its mid FIFO;
    // each stage-2 block leaves eta2/decimation samples in its audio FIFO.
    in.block_out = {eta1 / cfg.decimation, eta1 / cfg.decimation, burst,
                    burst};
    lint::GatewayDecl entry;
    entry.name = "entry";
    entry.is_entry = true;
    entry.chain = "cordic+fir";
    entry.streams = {0, 1, 2, 3};
    entry.consumer_fifos = {"mid.ch1", "mid.ch2", "audio.ch1", "audio.ch2"};
    lint::GatewayDecl exit;
    exit.name = "exit";
    exit.is_entry = false;
    exit.chain = "cordic+fir";
    in.gateways = {std::move(entry), std::move(exit)};
  }

  if (cfg.fault != nullptr) in.faults = lint::faults_from_injector(*cfg.fault);

  lint::DeterminismDecl det;
  det.event_stepper = cfg.stepper != sim::StepperKind::kDense;
  det.rng_seeded = true;  // the broadcast synthesis is closed-form, no RNG
  in.determinism = det;
  return in;
}

sharing::SharedSystemSpec make_system_spec(const PalSimConfig& cfg) {
  sharing::SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample = {cfg.accel_cycles, cfg.accel_cycles};
  spec.chain.entry_cycles_per_sample = cfg.epsilon;
  spec.chain.exit_cycles_per_sample = cfg.delta;
  spec.chain.ni_capacity = cfg.ni_capacity;
  const Rational mu_fast(1, cfg.input_period);
  const Rational mu_slow(1, cfg.input_period * cfg.decimation);
  spec.streams = {
      {"ch1.mix+lpf", mu_fast, cfg.reconfig},
      {"ch2.mix+lpf", mu_fast, cfg.reconfig},
      {"ch1.demod+lpf", mu_slow, cfg.reconfig},
      {"ch2.demod+lpf", mu_slow, cfg.reconfig},
  };
  return spec;
}

PalSimResult run_pal_decoder(const PalSimConfig& cfg) {
  if (cfg.lint) {
    const lint::LintReport rep = lint::lint_input(make_lint_input(cfg));
    ACC_EXPECTS_MSG(rep.clean(),
                    "configuration rejected by acc-lint:\n" + rep.to_text());
  }
  PalSimResult res;
  const sharing::SharedSystemSpec spec = make_system_spec(cfg);
  res.utilization = sharing::utilization(spec);

  std::int64_t eta1 = 0;
  std::int64_t eta2 = 0;
  solve_blocks(cfg, spec, &eta1, &eta2);
  res.eta_stage1 = eta1;
  res.eta_stage2 = eta2;
  res.gamma = sharing::gamma_hat(spec, {eta1, eta1, eta2, eta2});

  // ---- Synthesize the broadcast and quantize to fixed point. ----
  std::vector<sim::Flit> rf_local;
  if (cfg.prebuilt_input == nullptr) {
    rf_local = synthesize_pal_input(cfg);
  } else {
    ACC_EXPECTS_MSG(cfg.prebuilt_input->size() == cfg.input_samples,
                    "prebuilt_input size does not match input_samples");
  }
  const std::vector<sim::Flit>& rf =
      cfg.prebuilt_input != nullptr ? *cfg.prebuilt_input : rf_local;

  // ---- Build the MPSoC. Nodes: 0 entry, 1 CORDIC, 2 FIR, 3 exit. ----
  sim::System sys(4);
  constexpr std::int32_t kEntry = 0;
  constexpr std::int32_t kCordic = 1;
  constexpr std::int32_t kFir = 2;
  constexpr std::int32_t kExit = 3;
  constexpr std::uint32_t kTagToCordic = 1;
  constexpr std::uint32_t kTagToFir = 2;
  constexpr std::uint32_t kTagToExit = 3;

  const std::int64_t burst = eta2 / cfg.decimation;  // audio samples/round
  sim::CFifo& in1 = sys.add_fifo("in.ch1", cfg.fifo_slack * eta1);
  sim::CFifo& in2 = sys.add_fifo("in.ch2", cfg.fifo_slack * eta1);
  sim::CFifo& mid1 = sys.add_fifo("mid.ch1", cfg.fifo_slack * eta2);
  sim::CFifo& mid2 = sys.add_fifo("mid.ch2", cfg.fifo_slack * eta2);
  sim::CFifo& audio1 = sys.add_fifo("audio.ch1", cfg.fifo_slack * burst + 64);
  sim::CFifo& audio2 = sys.add_fifo("audio.ch2", cfg.fifo_slack * burst + 64);
  sim::CFifo& out_l = sys.add_fifo("dac.left", cfg.fifo_slack * burst + 64);
  sim::CFifo& out_r = sys.add_fifo("dac.right", cfg.fifo_slack * burst + 64);

  // Accelerator tiles with per-stream contexts.
  auto& cordic = sys.add<sim::AcceleratorTile>("cordic", sys.ring(), kCordic,
                                               cfg.accel_cycles,
                                               cfg.ni_capacity);
  auto& fir = sys.add<sim::AcceleratorTile>("fir", sys.ring(), kFir,
                                            cfg.accel_cycles, cfg.ni_capacity);
  const double f1 = cfg.carrier1_hz / cfg.sample_rate;
  const double f2 = cfg.carrier2_hz / cfg.sample_rate;
  cordic.register_context(
      0, std::make_unique<accel::NcoMixer>(
             accel::NcoMixer::freq_from_normalized(-f1), "mix.ch1"));
  cordic.register_context(
      1, std::make_unique<accel::NcoMixer>(
             accel::NcoMixer::freq_from_normalized(-f2), "mix.ch2"));
  cordic.register_context(2,
                          std::make_unique<accel::FmDiscriminator>("fm.ch1"));
  cordic.register_context(3,
                          std::make_unique<accel::FmDiscriminator>("fm.ch2"));
  const std::vector<Q16> taps =
      accel::quantize_taps(accel::design_lowpass(cfg.fir_taps, cfg.fir_cutoff));
  for (sim::StreamId s = 0; s < 4; ++s) {
    fir.register_context(s, std::make_unique<accel::DecimatingFir>(
                                taps, cfg.decimation,
                                "lpf.s" + std::to_string(s)));
  }

  cordic.set_upstream(kEntry, kTagToCordic);
  cordic.set_downstream(kFir, kTagToFir, cfg.ni_capacity);
  fir.set_upstream(kCordic, kTagToCordic);
  fir.set_downstream(kExit, kTagToExit, cfg.ni_capacity);

  auto& exit_gw = sys.add<sim::ExitGateway>("exit", sys.ring(), kExit,
                                            cfg.delta, cfg.ni_capacity);
  exit_gw.set_upstream(kFir, kTagToFir);
  auto& entry = sys.add<sim::EntryGateway>("entry", sys.ring(), kEntry,
                                           cfg.epsilon, kCordic, kTagToCordic,
                                           cfg.ni_capacity);
  entry.set_chain({&cordic, &fir});
  entry.set_exit(&exit_gw);
  exit_gw.set_entry(&entry);

  if (cfg.trace != nullptr) {
    entry.set_trace(cfg.trace);
    exit_gw.set_trace(cfg.trace);
  }
  if (cfg.fault != nullptr) {
    entry.set_fault(cfg.fault);
    exit_gw.set_fault(cfg.fault);
    sys.ring().set_fault(cfg.fault);
    in1.set_fault(cfg.fault);
    in2.set_fault(cfg.fault);
    mid1.set_fault(cfg.fault);
    mid2.set_fault(cfg.fault);
  }
  if (cfg.notify_timeout > 0) {
    entry.set_retry_policy(
        sim::GatewayRetryPolicy{.notify_timeout = cfg.notify_timeout});
  }

  const std::int64_t out1 = eta1 / cfg.decimation;
  entry.add_stream({0, "ch1.mix+lpf", eta1, out1, &in1, &mid1, cfg.reconfig});
  entry.add_stream({1, "ch2.mix+lpf", eta1, out1, &in2, &mid2, cfg.reconfig});
  entry.add_stream({2, "ch1.demod+lpf", eta2, burst, &mid1, &audio1,
                    cfg.reconfig});
  entry.add_stream({3, "ch2.demod+lpf", eta2, burst, &mid2, &audio2,
                    cfg.reconfig});

  // Front-end: hard real-time source fanned out to both stage-1 streams.
  auto& fe1 = sys.add<sim::SourceTile>("fe.ch1", in1, rf, cfg.input_period);
  auto& fe2 = sys.add<sim::SourceTile>("fe.ch2", in2, rf, cfg.input_period);

  // Software reconstruction task: L = 2*ch1 - ch2, R = ch2, with the FM
  // scale factor fs1/(2*deviation) folded in.
  const double fs1 = cfg.sample_rate / cfg.decimation;
  const Q16 gain = Q16::from_double(fs1 / (2.0 * cfg.deviation_hz));
  auto& cpu = sys.add<sim::ProcessorTile>("pt.recon", /*replenish=*/256);
  sim::Task recon{
      "reconstruct",
      [&, gain](sim::Cycle now) -> sim::Cycle {
        if (!audio1.can_pop(now) || !audio2.can_pop(now)) return 0;
        if (!out_l.can_push(now) || !out_r.can_push(now)) return 0;
        const CQ16 a = sim::unpack_sample(audio1.pop(now));  // (L+R)/2
        const CQ16 b = sim::unpack_sample(audio2.pop(now));  // R
        const Q16 sum2 = a.re * gain;                        // (L+R)/2
        const Q16 r = b.re * gain;
        const Q16 l = sum2 + sum2 - r;
        out_l.push(now, sim::pack_sample(CQ16{l, Q16{}}));
        out_r.push(now, sim::pack_sample(CQ16{r, Q16{}}));
        return 24;  // cycles per reconstruction
      },
      /*budget=*/192};
  // Horizon hint mirroring the invoke's guards: runnable once one sample is
  // visible on both audio FIFOs and one slot on both DAC FIFOs (each
  // condition is monotone while the system is frozen, so the max is exact).
  recon.next_ready = [&](sim::Cycle now) -> sim::Cycle {
    return std::max({audio1.when_fill_visible(1, now),
                     audio2.when_fill_visible(1, now),
                     out_l.when_space_visible(1, now),
                     out_r.when_space_visible(1, now)});
  };
  // Wake-list contract: the hint reads the audio fills and the DAC spaces.
  recon.wake_on_push = {&audio1, &audio2};
  recon.wake_on_pop = {&out_l, &out_r};
  cpu.add_task(std::move(recon));

  // DACs: hard real-time consumers at the audio rate. Audio arrives in
  // bursts of `burst` samples once per gateway round, so the DAC buffers a
  // full burst before starting.
  const sim::Cycle audio_period =
      cfg.input_period * cfg.decimation * cfg.decimation;
  auto& dac_l = sys.add<sim::SinkTile>("dac.left", out_l, audio_period,
                                       /*prefill=*/burst + 2);
  auto& dac_r = sys.add<sim::SinkTile>("dac.right", out_r, audio_period,
                                       /*prefill=*/burst + 2);

  if (cfg.metrics != nullptr) {
    obs::MetricsRegistry* reg = cfg.metrics;
    in1.set_metrics(reg);
    in2.set_metrics(reg);
    mid1.set_metrics(reg);
    mid2.set_metrics(reg);
    audio1.set_metrics(reg);
    audio2.set_metrics(reg);
    out_l.set_metrics(reg);
    out_r.set_metrics(reg);
    cordic.set_metrics(reg);
    fir.set_metrics(reg);
    entry.set_metrics(reg);
    exit_gw.set_metrics(reg);
    sys.ring().set_metrics(reg);
    fe1.set_metrics(reg);
    fe2.set_metrics(reg);
    cpu.set_metrics(reg);
    dac_l.set_metrics(reg);
    dac_r.set_metrics(reg);
    if (cfg.fault != nullptr) cfg.fault->set_metrics(reg);
  }

  // ---- Run: feed everything through, then drain. Underruns during the
  // feed phase are genuine real-time violations; underruns after the
  // front-end stops are just the end of the broadcast. ----
  const sim::Cycle feed =
      static_cast<sim::Cycle>(cfg.input_samples) * cfg.input_period;
  sys.run_with(cfg.stepper, feed);
  const std::int64_t feed_underruns = dac_l.underruns() + dac_r.underruns();
  sys.run_with(cfg.stepper, 8 * res.gamma);
  res.cycles_run = sys.now();
  res.stepper = sys.stepper_stats();

  // ---- Collect results. ----
  res.audio_rate = cfg.sample_rate / (cfg.decimation * cfg.decimation);
  for (sim::Flit f : dac_l.received())
    res.left.push_back(sim::unpack_sample(f).re.to_double());
  for (sim::Flit f : dac_r.received())
    res.right.push_back(sim::unpack_sample(f).re.to_double());
  res.source_drops = fe1.dropped() + fe2.dropped();
  res.sink_underruns = feed_underruns;
  // End-to-end latency: audio sample j depends on input samples up to
  // (j+1)*64 - 1, emitted nominally at that index times the input period.
  const std::int64_t dec2 = cfg.decimation * cfg.decimation;
  for (std::size_t j = 0; j < dac_l.timestamps().size(); ++j) {
    const sim::Cycle emitted =
        (static_cast<sim::Cycle>(j + 1) * dec2 - 1) * cfg.input_period;
    res.max_audio_latency =
        std::max(res.max_audio_latency, dac_l.timestamps()[j] - emitted);
  }
  res.gateway = entry.stats();
  res.cordic_samples = cordic.samples_processed();
  res.fir_samples = fir.samples_processed();
  res.cordic_busy = cordic.busy_cycles();
  res.fir_busy = fir.busy_cycles();
  for (sim::StreamId s = 0; s < 4; ++s) {
    res.blocks_per_stream.push_back(
        static_cast<std::int64_t>(entry.block_completions(s).size()));
  }
  return res;
}

PalSimResult run_pal_decoder_dedicated(const PalSimConfig& cfg) {
  PalSimResult res;
  res.utilization = sharing::utilization(make_system_spec(cfg));

  // No multiplexing: blocks exist only as DMA transfer granularity. Small,
  // decimation-aligned blocks keep latency low; nothing needs amortizing.
  const std::int64_t eta1 = 64;
  const std::int64_t eta2 = 32;
  res.eta_stage1 = eta1;
  res.eta_stage2 = eta2;
  res.gamma = 0;  // no round-robin round in the dedicated system

  std::vector<sim::Flit> rf_local;
  if (cfg.prebuilt_input == nullptr) {
    rf_local = synthesize_pal_input(cfg);
  } else {
    ACC_EXPECTS_MSG(cfg.prebuilt_input->size() == cfg.input_samples,
                    "prebuilt_input size does not match input_samples");
  }
  const std::vector<sim::Flit>& rf =
      cfg.prebuilt_input != nullptr ? *cfg.prebuilt_input : rf_local;

  // ---- Four private chains: nodes 4c .. 4c+3 per chain c. ----
  sim::System sys(16);
  const std::int64_t burst2 = eta2 / cfg.decimation;

  sim::CFifo& in1 = sys.add_fifo("in.ch1", 4 * eta1);
  sim::CFifo& in2 = sys.add_fifo("in.ch2", 4 * eta1);
  sim::CFifo& mid1 = sys.add_fifo("mid.ch1", 4 * eta2);
  sim::CFifo& mid2 = sys.add_fifo("mid.ch2", 4 * eta2);
  sim::CFifo& audio1 = sys.add_fifo("audio.ch1", 8 * burst2 + 64);
  sim::CFifo& audio2 = sys.add_fifo("audio.ch2", 8 * burst2 + 64);
  sim::CFifo& out_l = sys.add_fifo("dac.left", 8 * burst2 + 64);
  sim::CFifo& out_r = sys.add_fifo("dac.right", 8 * burst2 + 64);

  const std::vector<Q16> taps =
      accel::quantize_taps(accel::design_lowpass(cfg.fir_taps, cfg.fir_cutoff));
  const double f1 = cfg.carrier1_hz / cfg.sample_rate;
  const double f2 = cfg.carrier2_hz / cfg.sample_rate;

  struct Chain {
    sim::EntryGateway* entry = nullptr;
    sim::AcceleratorTile* first = nullptr;
    sim::AcceleratorTile* second = nullptr;
  };
  std::vector<Chain> chains(4);
  auto build_chain = [&](int c, std::unique_ptr<accel::StreamKernel> k1,
                         sim::CFifo* in, sim::CFifo* out, std::int64_t eta) {
    const std::int32_t base = 4 * c;
    auto& a1 = sys.add<sim::AcceleratorTile>("acc" + std::to_string(c) + ".0",
                                             sys.ring(), base + 1,
                                             cfg.accel_cycles,
                                             cfg.ni_capacity);
    auto& a2 = sys.add<sim::AcceleratorTile>("acc" + std::to_string(c) + ".1",
                                             sys.ring(), base + 2,
                                             cfg.accel_cycles,
                                             cfg.ni_capacity);
    a1.register_context(0, std::move(k1));
    a2.register_context(0, std::make_unique<accel::DecimatingFir>(
                               taps, cfg.decimation,
                               "lpf.c" + std::to_string(c)));
    a1.set_upstream(base, 1);
    a1.set_downstream(base + 2, 2, cfg.ni_capacity);
    a2.set_upstream(base + 1, 1);
    a2.set_downstream(base + 3, 3, cfg.ni_capacity);
    auto& exit_gw = sys.add<sim::ExitGateway>("exit" + std::to_string(c),
                                              sys.ring(), base + 3, cfg.delta,
                                              cfg.ni_capacity);
    exit_gw.set_upstream(base + 2, 2);
    // Dedicated DMA forwards at full speed; "reconfiguration" is a one-off
    // 1-cycle arm of the private chain.
    auto& entry = sys.add<sim::EntryGateway>("entry" + std::to_string(c),
                                             sys.ring(), base,
                                             /*epsilon=*/1, base + 1, 1,
                                             cfg.ni_capacity);
    entry.set_chain({&a1, &a2});
    entry.set_exit(&exit_gw);
    exit_gw.set_entry(&entry);
    entry.add_stream({0, "chain" + std::to_string(c), eta,
                      eta / cfg.decimation, in, out, /*reconfig=*/1});
    chains[c] = Chain{&entry, &a1, &a2};
  };

  build_chain(0,
              std::make_unique<accel::NcoMixer>(
                  accel::NcoMixer::freq_from_normalized(-f1), "mix.ch1"),
              &in1, &mid1, eta1);
  build_chain(1,
              std::make_unique<accel::NcoMixer>(
                  accel::NcoMixer::freq_from_normalized(-f2), "mix.ch2"),
              &in2, &mid2, eta1);
  build_chain(2, std::make_unique<accel::FmDiscriminator>("fm.ch1"), &mid1,
              &audio1, eta2);
  build_chain(3, std::make_unique<accel::FmDiscriminator>("fm.ch2"), &mid2,
              &audio2, eta2);

  auto& fe1 = sys.add<sim::SourceTile>("fe.ch1", in1, rf, cfg.input_period);
  auto& fe2 = sys.add<sim::SourceTile>("fe.ch2", in2, rf, cfg.input_period);

  const double fs1 = cfg.sample_rate / cfg.decimation;
  const Q16 gain = Q16::from_double(fs1 / (2.0 * cfg.deviation_hz));
  auto& cpu = sys.add<sim::ProcessorTile>("pt.recon", 256);
  sim::Task recon{
      "reconstruct",
      [&, gain](sim::Cycle now) -> sim::Cycle {
        if (!audio1.can_pop(now) || !audio2.can_pop(now)) return 0;
        if (!out_l.can_push(now) || !out_r.can_push(now)) return 0;
        const CQ16 a = sim::unpack_sample(audio1.pop(now));
        const CQ16 b = sim::unpack_sample(audio2.pop(now));
        const Q16 sum2 = a.re * gain;
        const Q16 r = b.re * gain;
        const Q16 l = sum2 + sum2 - r;
        out_l.push(now, sim::pack_sample(CQ16{l, Q16{}}));
        out_r.push(now, sim::pack_sample(CQ16{r, Q16{}}));
        return 24;
      },
      192};
  recon.next_ready = [&](sim::Cycle now) -> sim::Cycle {
    return std::max({audio1.when_fill_visible(1, now),
                     audio2.when_fill_visible(1, now),
                     out_l.when_space_visible(1, now),
                     out_r.when_space_visible(1, now)});
  };
  recon.wake_on_push = {&audio1, &audio2};
  recon.wake_on_pop = {&out_l, &out_r};
  cpu.add_task(std::move(recon));

  const sim::Cycle audio_period =
      cfg.input_period * cfg.decimation * cfg.decimation;
  auto& dac_l = sys.add<sim::SinkTile>("dac.left", out_l, audio_period,
                                       /*prefill=*/2 * burst2 + 2);
  auto& dac_r = sys.add<sim::SinkTile>("dac.right", out_r, audio_period,
                                       /*prefill=*/2 * burst2 + 2);

  const sim::Cycle feed =
      static_cast<sim::Cycle>(cfg.input_samples) * cfg.input_period;
  sys.run_with(cfg.stepper, feed);
  const std::int64_t feed_underruns = dac_l.underruns() + dac_r.underruns();
  sys.run_with(cfg.stepper, 64 * eta2 * cfg.input_period);
  res.cycles_run = sys.now();
  res.stepper = sys.stepper_stats();

  res.audio_rate = cfg.sample_rate / (cfg.decimation * cfg.decimation);
  for (sim::Flit f : dac_l.received())
    res.left.push_back(sim::unpack_sample(f).re.to_double());
  for (sim::Flit f : dac_r.received())
    res.right.push_back(sim::unpack_sample(f).re.to_double());
  res.source_drops = fe1.dropped() + fe2.dropped();
  res.sink_underruns = feed_underruns;
  for (const Chain& c : chains) {
    const sim::GatewayStats& st = c.entry->stats();
    res.gateway.blocks += st.blocks;
    res.gateway.samples_forwarded += st.samples_forwarded;
    res.gateway.data_cycles += st.data_cycles;
    res.gateway.reconfig_cycles += st.reconfig_cycles;
    res.gateway.wait_cycles += st.wait_cycles;
    // First stage of every chain is the CORDIC-class tile, second the FIR.
    res.cordic_samples += c.first->samples_processed();
    res.fir_samples += c.second->samples_processed();
    res.cordic_busy += c.first->busy_cycles();
    res.fir_busy += c.second->busy_cycles();
    res.blocks_per_stream.push_back(
        static_cast<std::int64_t>(c.entry->block_completions(0).size()));
  }
  return res;
}

}  // namespace acc::app
