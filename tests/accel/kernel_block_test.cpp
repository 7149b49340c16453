// Golden bit-exactness fixtures for the SoA block paths (ISSUE 8): every
// kernel's process_block must match push() per sample bit-for-bit — outputs,
// per-input output counts AND the post-block mutable state — across block
// sizes 1..64 and fixed-point edge values. This is the contract that lets
// AcceleratorTile precompute whole queued blocks without perturbing the
// cycle-exact simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/cordic.hpp"
#include "accel/fir.hpp"
#include "accel/mixer.hpp"
#include "common/rng.hpp"

namespace acc::accel {
namespace {

constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();

std::vector<CQ16> random_block(SplitMix64& rng, std::size_t n) {
  std::vector<CQ16> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(CQ16{Q16::from_double(rng.uniform_real(-0.9, 0.9)),
                       Q16::from_double(rng.uniform_real(-0.9, 0.9))});
  return out;
}

/// Fixed-point edge values: saturation rails, +-1, zero, smallest steps.
std::vector<CQ16> edge_block() {
  const std::int32_t raws[] = {0,      1,        -1,       Q16::one,
                               -Q16::one, kI32Max, kI32Min, kI32Max - 1,
                               kI32Min + 1, 1 << 20, -(1 << 20), 12345};
  std::vector<CQ16> out;
  for (std::int32_t a : raws) {
    // Two's-complement negation without signed overflow: -kI32Min wraps to
    // kI32Min itself.
    const auto neg_a =
        static_cast<std::int32_t>(0u - static_cast<std::uint32_t>(a));
    for (std::int32_t b : {a, neg_a, std::int32_t{0}})
      out.push_back(CQ16{Q16::from_raw(a), Q16::from_raw(b)});
  }
  return out;
}

/// Drive `in` through a fresh clone of `proto` sample-by-sample and through
/// another fresh clone via process_block; everything observable must match.
void check_block_matches_scalar(const StreamKernel& proto,
                                std::span<const CQ16> in) {
  const auto scalar = proto.clone_fresh();
  const auto blocked = proto.clone_fresh();

  std::vector<CQ16> want;
  std::vector<std::uint8_t> want_counts;
  for (const CQ16& s : in) {
    const std::size_t before = want.size();
    scalar->push(s, want);
    want_counts.push_back(static_cast<std::uint8_t>(want.size() - before));
  }

  std::vector<CQ16> got(in.size());
  std::vector<std::uint8_t> got_counts(in.size(), 0xAB);
  const std::size_t n = blocked->process_block(in, got, got_counts.data());

  ASSERT_EQ(n, want.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].re.raw(), want[i].re.raw()) << "output " << i;
    EXPECT_EQ(got[i].im.raw(), want[i].im.raw()) << "output " << i;
  }
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(got_counts[i], want_counts[i]) << "count " << i;
  // Post-block mutable state: the next context switch must transfer the
  // identical blob regardless of which path ran the block.
  EXPECT_EQ(blocked->save_state(), scalar->save_state());
}

/// Sweep block sizes 1..64 with a fresh kernel pair per size, then the
/// edge-value block, then a long mid-state run (block split at an odd
/// boundary so the linearized-history path starts from non-trivial state).
void sweep_kernel(const StreamKernel& proto) {
  SplitMix64 rng(0xB10C);
  for (std::size_t len = 1; len <= 64; ++len) {
    SCOPED_TRACE("block size " + std::to_string(len));
    check_block_matches_scalar(proto, random_block(rng, len));
  }
  {
    SCOPED_TRACE("fixed-point edge values");
    check_block_matches_scalar(proto, edge_block());
  }
  {
    SCOPED_TRACE("split mid-state");
    const std::vector<CQ16> in = random_block(rng, 301);
    const auto scalar = proto.clone_fresh();
    const auto blocked = proto.clone_fresh();
    std::vector<CQ16> want;
    for (const CQ16& s : in) scalar->push(s, want);
    std::vector<CQ16> got(in.size());
    std::size_t n = 0;
    std::size_t pos = 0;
    for (const std::size_t chunk : {std::size_t{37}, std::size_t{64},
                                    std::size_t{1}, std::size_t{199}}) {
      n += blocked->process_block(
          std::span<const CQ16>(in).subspan(pos, chunk),
          std::span<CQ16>(got).subspan(n));
      pos += chunk;
    }
    ASSERT_EQ(pos, in.size());
    ASSERT_EQ(n, want.size());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]);
    EXPECT_EQ(blocked->save_state(), scalar->save_state());
  }
}

TEST(KernelBlock, FirMatchesScalar) {
  sweep_kernel(DecimatingFir(quantize_taps(design_lowpass(33, 0.06)), 8));
}

TEST(KernelBlock, FirNoDecimationMatchesScalar) {
  sweep_kernel(DecimatingFir(quantize_taps(design_lowpass(17, 0.2)), 1));
}

TEST(KernelBlock, FirWideDecimationMatchesScalar) {
  // Decimation wider than most block sizes: many blocks emit nothing.
  sweep_kernel(DecimatingFir(quantize_taps(design_lowpass(9, 0.1)), 100));
}

TEST(KernelBlock, MixerMatchesScalar) {
  sweep_kernel(NcoMixer(NcoMixer::freq_from_normalized(0.21)));
}

TEST(KernelBlock, MixerNegativeFreqMatchesScalar) {
  sweep_kernel(NcoMixer(NcoMixer::freq_from_normalized(-0.497)));
}

TEST(KernelBlock, AmDetectorMatchesScalar) { sweep_kernel(AmDetector(6)); }

TEST(KernelBlock, FmDiscriminatorMatchesScalar) {
  sweep_kernel(FmDiscriminator());
}

TEST(KernelBlock, DefaultImplementationCountsOutputs) {
  // The base-class fallback must fill `counts` and return the total even
  // for kernels with no override (exercised through a decimating FIR by
  // calling the base explicitly).
  DecimatingFir fir(quantize_taps(design_lowpass(5, 0.2)), 2);
  SplitMix64 rng(0x5EED);
  const std::vector<CQ16> in = random_block(rng, 10);
  std::vector<CQ16> got(in.size());
  std::vector<std::uint8_t> counts(in.size(), 0xFF);
  const std::size_t n =
      fir.StreamKernel::process_block(in, got, counts.data());
  EXPECT_EQ(n, 5u);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(counts[i], i % 2 == 1 ? 1 : 0);
}

/// The block CORDIC primitives themselves, pinned against the scalar calls
/// over edge angles and magnitudes (the kernels above only reach angles the
/// NCO generates).
TEST(KernelBlock, CordicRotateBlockMatchesScalar) {
  std::vector<Q16> xs;
  std::vector<Q16> ys;
  std::vector<Q16> as;
  SplitMix64 rng(0xC0DC);
  for (int i = 0; i < 500; ++i) {
    xs.push_back(Q16::from_double(rng.uniform_real(-1.9, 1.9)));
    ys.push_back(Q16::from_double(rng.uniform_real(-1.9, 1.9)));
    as.push_back(Q16::from_double(rng.uniform_real(-3.14159, 3.14159)));
  }
  // Edge rows: rails and exact +-pi/2 fold boundaries.
  for (std::int32_t raw : {kI32Max, kI32Min, std::int32_t{0}}) {
    xs.push_back(Q16::from_raw(raw));
    ys.push_back(Q16::from_raw(raw));
    as.push_back(q16_half_pi());
    xs.push_back(Q16::from_raw(raw));
    ys.push_back(Q16::from_raw(raw));
    as.push_back(Q16::from_raw(-q16_half_pi().raw() - 1));
  }
  std::vector<Q16> ox(xs.size());
  std::vector<Q16> oy(xs.size());
  cordic_rotate_block(xs, ys, as, ox.data(), oy.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const RotateResult want = cordic_rotate(xs[i], ys[i], as[i]);
    EXPECT_EQ(ox[i].raw(), want.x.raw()) << i;
    EXPECT_EQ(oy[i].raw(), want.y.raw()) << i;
  }
}

TEST(KernelBlock, CordicVectorBlockMatchesScalar) {
  std::vector<Q16> xs;
  std::vector<Q16> ys;
  SplitMix64 rng(0xC0DD);
  for (int i = 0; i < 500; ++i) {
    xs.push_back(Q16::from_double(rng.uniform_real(-1.9, 1.9)));
    ys.push_back(Q16::from_double(rng.uniform_real(-1.9, 1.9)));
  }
  for (std::int32_t a : {kI32Max, kI32Min, std::int32_t{0}, std::int32_t{1},
                         std::int32_t{-1}})
    for (std::int32_t b : {kI32Max, kI32Min, std::int32_t{0}}) {
      xs.push_back(Q16::from_raw(a));
      ys.push_back(Q16::from_raw(b));
    }
  std::vector<Q16> mag(xs.size());
  std::vector<Q16> ang(xs.size());
  cordic_vector_block(xs, ys, mag.data(), ang.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const VectorResult want = cordic_vector(xs[i], ys[i]);
    EXPECT_EQ(mag[i].raw(), want.magnitude.raw()) << i;
    EXPECT_EQ(ang[i].raw(), want.angle.raw()) << i;
  }
}

/// Both block primitives against the scalar calls, element by element,
/// on one block of operands (rotation by `as`, vectoring of (xs, ys)).
void expect_blocks_match_scalar(const std::vector<Q16>& xs,
                                const std::vector<Q16>& ys,
                                const std::vector<Q16>& as) {
  std::vector<Q16> ox(xs.size());
  std::vector<Q16> oy(xs.size());
  cordic_rotate_block(xs, ys, as, ox.data(), oy.data());
  std::vector<Q16> mag(xs.size());
  std::vector<Q16> ang(xs.size());
  cordic_vector_block(xs, ys, mag.data(), ang.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const RotateResult rot = cordic_rotate(xs[i], ys[i], as[i]);
    EXPECT_EQ(ox[i].raw(), rot.x.raw()) << "rotate x, element " << i;
    EXPECT_EQ(oy[i].raw(), rot.y.raw()) << "rotate y, element " << i;
    const VectorResult vec = cordic_vector(xs[i], ys[i]);
    EXPECT_EQ(mag[i].raw(), vec.magnitude.raw()) << "magnitude, element " << i;
    EXPECT_EQ(ang[i].raw(), vec.angle.raw()) << "angle, element " << i;
  }
}

/// The block paths run on int32 lanes while every |x| and |y| of a block
/// is below 2^29. Operands at the edge, 2^29 - 1 in every sign
/// combination (and with one axis at 0), across the whole angle range:
/// the largest intermediates the int32 lanes ever hold.
TEST(KernelBlock, CordicLargestInt32LaneOperandsMatchScalar) {
  constexpr std::int32_t kEdge = (1 << 29) - 1;
  std::vector<Q16> xs;
  std::vector<Q16> ys;
  std::vector<Q16> as;
  const std::int32_t pi = q16_pi().raw();
  for (std::int32_t x : {kEdge, -kEdge, std::int32_t{0}})
    for (std::int32_t y : {kEdge, -kEdge, std::int32_t{0}})
      for (std::int32_t step = 0; step <= 16; ++step) {
        xs.push_back(Q16::from_raw(x));
        ys.push_back(Q16::from_raw(y));
        as.push_back(Q16::from_raw(-pi + step * pi / 8));
      }
  expect_blocks_match_scalar(xs, ys, as);
}

/// A single operand at or beyond 2^29 sends its whole block to int64
/// lanes; the rest of the block holds the largest int32-lane operands.
/// 2^30 - 1 on both axes overflows int32 in both modes, so a guard raised
/// that far fails here.
TEST(KernelBlock, CordicBlocksWithOneWideOperandMatchScalar) {
  constexpr std::int32_t kEdge = (1 << 29) - 1;
  const std::int32_t pi = q16_pi().raw();
  for (const std::int32_t wide :
       {std::int32_t{1} << 29, -(std::int32_t{1} << 29), (1 << 30) - 1,
        -((1 << 30) - 1), kI32Min, kI32Max}) {
    for (std::int32_t angle = -pi; angle <= pi; angle += pi / 4) {
      // Eleven elements, two chunks; the wide one sits in the second.
      std::vector<Q16> xs(11, Q16::from_raw(kEdge));
      std::vector<Q16> ys(11, Q16::from_raw(-kEdge));
      std::vector<Q16> as;
      for (std::int32_t e = 0; e < 11; ++e)
        as.push_back(Q16::from_raw(angle + (e - 5) * (pi / 16)));
      xs[9] = Q16::from_raw(wide);
      ys[9] = Q16::from_raw(wide);
      SCOPED_TRACE(testing::Message() << "wide " << wide << " angle " << angle);
      expect_blocks_match_scalar(xs, ys, as);
      ys[9] = Q16::from_raw(kEdge);  // wide on one axis only
      expect_blocks_match_scalar(xs, ys, as);
    }
  }
}

}  // namespace
}  // namespace acc::accel
