#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "accel/fir.hpp"
#include "accel/mixer.hpp"
#include "common/rng.hpp"

namespace acc::accel {
namespace {

std::vector<CQ16> random_block(SplitMix64& rng, std::size_t n) {
  std::vector<CQ16> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(CQ16{Q16::from_double(rng.uniform_real(-0.9, 0.9)),
                       Q16::from_double(rng.uniform_real(-0.9, 0.9))});
  return out;
}

/// THE sharing-correctness property: multiplexing two streams through ONE
/// kernel with save/restore context switches must be bit-identical to
/// running each stream through its own dedicated kernel. This is what makes
/// the paper's gateway approach functionally transparent.
void check_multiplexing_transparent(StreamKernel& shared, SplitMix64& rng,
                                    int blocks, std::size_t block_len) {
  const auto dedicated0 = shared.clone_fresh();
  const auto dedicated1 = shared.clone_fresh();
  shared.reset();
  std::vector<std::int32_t> ctx0 = shared.save_state();  // power-on contexts
  std::vector<std::int32_t> ctx1 = ctx0;

  std::vector<CQ16> muxed0;
  std::vector<CQ16> muxed1;
  std::vector<CQ16> ref0;
  std::vector<CQ16> ref1;
  for (int b = 0; b < blocks; ++b) {
    for (int stream = 0; stream < 2; ++stream) {
      const std::vector<CQ16> block = random_block(rng, block_len);
      // Context switch: restore this stream's state, run, save it back.
      shared.restore_state(stream == 0 ? ctx0 : ctx1);
      std::vector<CQ16>& muxed = stream == 0 ? muxed0 : muxed1;
      for (const CQ16& s : block) shared.push(s, muxed);
      (stream == 0 ? ctx0 : ctx1) = shared.save_state();
      // Reference: dedicated kernel per stream, no switching.
      StreamKernel& ded = stream == 0 ? *dedicated0 : *dedicated1;
      std::vector<CQ16>& ref = stream == 0 ? ref0 : ref1;
      for (const CQ16& s : block) ded.push(s, ref);
    }
  }
  ASSERT_EQ(muxed0.size(), ref0.size());
  ASSERT_EQ(muxed1.size(), ref1.size());
  for (std::size_t i = 0; i < ref0.size(); ++i) EXPECT_EQ(muxed0[i], ref0[i]);
  for (std::size_t i = 0; i < ref1.size(); ++i) EXPECT_EQ(muxed1[i], ref1[i]);
}

TEST(Multiplexing, TransparentForFir) {
  SplitMix64 rng(0xF1D0);
  DecimatingFir fir(quantize_taps(design_lowpass(33, 0.06)), 8);
  check_multiplexing_transparent(fir, rng, 6, 37);  // odd len: phase carries
}

TEST(Multiplexing, TransparentForMixer) {
  SplitMix64 rng(0x310);
  NcoMixer mixer(NcoMixer::freq_from_normalized(0.123));
  check_multiplexing_transparent(mixer, rng, 5, 29);
}

TEST(Multiplexing, TransparentForFmDiscriminator) {
  SplitMix64 rng(0xFD);
  FmDiscriminator fm;
  check_multiplexing_transparent(fm, rng, 5, 31);
}

TEST(NcoMixerBehaviour, ShiftsToneToDc) {
  // Mix a complex exponential at +f by a -f NCO: the output should be
  // (nearly) constant.
  const double f = 0.05;
  NcoMixer mixer(NcoMixer::freq_from_normalized(-f));
  std::vector<CQ16> out;
  for (int n = 1; n <= 400; ++n) {
    const double w = 2.0 * M_PI * f * n;
    mixer.push(CQ16{Q16::from_double(0.7 * std::cos(w)),
                    Q16::from_double(0.7 * std::sin(w))},
               out);
  }
  // After mixing, all samples sit near the same phasor.
  double min_re = 1e9;
  double max_re = -1e9;
  for (std::size_t i = 50; i < out.size(); ++i) {
    min_re = std::min(min_re, out[i].re.to_double());
    max_re = std::max(max_re, out[i].re.to_double());
  }
  EXPECT_LT(max_re - min_re, 0.03);
}

TEST(NcoMixerBehaviour, PhaseAccumulatorWrapsLikeHardware) {
  // A step near half a turn wraps through INT32 overflow without fault.
  NcoMixer mixer(NcoMixer::freq_from_normalized(0.49));
  std::vector<CQ16> out;
  for (int i = 0; i < 100; ++i)
    mixer.push(CQ16{Q16::from_double(0.5), Q16{}}, out);
  EXPECT_EQ(out.size(), 100u);
  for (const CQ16& s : out) {
    EXPECT_LE(std::abs(s.re.to_double()), 0.55);
    EXPECT_LE(std::abs(s.im.to_double()), 0.55);
  }
}

TEST(NcoMixerBehaviour, FrequencyConversionBounds) {
  EXPECT_THROW((void)NcoMixer::freq_from_normalized(0.6), precondition_error);
  EXPECT_THROW((void)NcoMixer::freq_from_normalized(-0.5), precondition_error);
  EXPECT_NO_THROW((void)NcoMixer::freq_from_normalized(0.25));
}

TEST(FmDiscriminatorBehaviour, ConstantFrequencyGivesConstantOutput) {
  // A complex exponential at normalized frequency f has per-sample phase
  // increment 2*pi*f -> discriminator output f/0.5 = 2f (since +-pi -> +-1).
  const double f = 0.1;
  FmDiscriminator fm;
  std::vector<CQ16> out;
  for (int n = 0; n < 200; ++n) {
    const double w = 2.0 * M_PI * f * n;
    fm.push(CQ16{Q16::from_double(0.8 * std::cos(w)),
                 Q16::from_double(0.8 * std::sin(w))},
            out);
  }
  for (std::size_t i = 5; i < out.size(); ++i)
    EXPECT_NEAR(out[i].re.to_double(), 2.0 * f, 5e-3);
}

TEST(FmDiscriminatorBehaviour, StateIsPreviousSample) {
  FmDiscriminator fm;
  std::vector<CQ16> sink;
  fm.push(CQ16{Q16::from_double(0.5), Q16::from_double(0.25)}, sink);
  const auto state = fm.save_state();
  ASSERT_EQ(state.size(), 2u);
  EXPECT_EQ(state[0], Q16::from_double(0.5).raw());
  EXPECT_EQ(state[1], Q16::from_double(0.25).raw());
}

}  // namespace
}  // namespace acc::accel
