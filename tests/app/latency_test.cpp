// End-to-end latency: the measured audio latency of the simulated system
// must sit under the analytic per-stage worst-case latency bounds plus the
// deliberate DAC prefill buffering — and source jitter within the buffer
// slack must not break real time.
//
// A stream's worst-case sample latency, from arrival in its input C-FIFO to
// delivery into its output C-FIFO, is L̂ = (eta_s - 1) * p + gamma_hat: the
// first sample of a block waits eta_s - 1 sample periods p for the block to
// fill, then the block waits at most one round gamma_hat (Eq. 4) for every
// other stream's turn and its own service.
#include <gtest/gtest.h>

#include "app/pal_system.hpp"
#include "sharing/analysis.hpp"

namespace acc::app {
namespace {

TEST(Latency, MeasuredAudioLatencyWithinAnalyticBudget) {
  PalSimConfig cfg;
  cfg.input_samples = 1 << 15;
  const PalSimResult r = run_pal_decoder(cfg);
  ASSERT_GT(r.max_audio_latency, 0);

  const sharing::SharedSystemSpec spec = make_system_spec(cfg);
  const std::vector<std::int64_t> etas{r.eta_stage1, r.eta_stage1,
                                       r.eta_stage2, r.eta_stage2};
  // Path budget: stage-1 stream latency (input at the front-end period) +
  // stage-2 stream latency (input at 8x that period) + the DAC's deliberate
  // prefill (a burst + 2 samples at the audio period) + software slack.
  const sim::Cycle gamma = sharing::gamma_hat(spec, etas);
  const sim::Cycle stage1 = (etas[0] - 1) * cfg.input_period + gamma;
  const sim::Cycle stage2 =
      (etas[2] - 1) * cfg.input_period * cfg.decimation + gamma;
  const sim::Cycle audio_period =
      cfg.input_period * cfg.decimation * cfg.decimation;
  const sim::Cycle prefill =
      (r.eta_stage2 / cfg.decimation + 2) * audio_period;
  const sim::Cycle budget = stage1 + stage2 + prefill + 4096;
  EXPECT_LE(r.max_audio_latency, budget)
      << "stage1=" << stage1 << " stage2=" << stage2
      << " prefill=" << prefill;
  // And the latency is not trivially small: it must at least cover one
  // block fill of stage 1.
  EXPECT_GE(r.max_audio_latency, r.eta_stage1 * cfg.input_period / 2);
}

TEST(Latency, LatencyShrinksWithCheaperReconfiguration) {
  PalSimConfig fast;
  fast.input_samples = 1 << 14;
  fast.reconfig = 200;  // hardware-assisted context switching
  PalSimConfig slow = fast;
  slow.reconfig = 4100;
  const PalSimResult rf = run_pal_decoder(fast);
  const PalSimResult rs = run_pal_decoder(slow);
  EXPECT_EQ(rf.source_drops, 0);
  EXPECT_EQ(rf.sink_underruns, 0);
  // Cheaper switches -> smaller blocks -> lower end-to-end latency.
  EXPECT_LT(rf.eta_stage1, rs.eta_stage1);
  EXPECT_LT(rf.max_audio_latency, rs.max_audio_latency);
}

}  // namespace
}  // namespace acc::app
