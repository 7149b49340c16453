// CORDIC-based channel mixer (numerically controlled oscillator).
//
// Multiplies the input stream by e^{j * 2*pi * f * n}: the paper's "channel
// mixer accelerator containing a CORDIC" that shifts one audio carrier of
// the PAL signal to baseband. State is the NCO phase accumulator.
#pragma once

#include <cstdint>
#include <vector>

#include "accel/kernel.hpp"

namespace acc::accel {

/// Structure-of-arrays staging of a CORDIC kernel's block path: the
/// operands and the two result words per element. Reused across calls, so
/// a block allocates nothing once the arrays have grown to its size; not
/// kernel state (save_state ignores it).
struct CordicScratch {
  std::vector<Q16> x, y, angle;  // operands (angle: rotation mode only)
  std::vector<Q16> a, b;         // results: (x, y) or (magnitude, angle)

  void resize(std::size_t n) {
    for (std::vector<Q16>* v : {&x, &y, &angle, &a, &b}) v->resize(n);
  }
};

class NcoMixer final : public StreamKernel {
 public:
  /// `freq_turns_q32`: NCO step per sample as a signed Q32 fraction of a
  /// full turn (-0.5 .. 0.5 turns). Using turns (not radians) makes the
  /// accumulator wrap for free on int32 overflow — exactly what a hardware
  /// phase accumulator does.
  explicit NcoMixer(std::int32_t freq_turns_q32, std::string name = "mixer");

  /// Helper: convert a frequency in cycles/sample to the Q32 turns step.
  [[nodiscard]] static std::int32_t freq_from_normalized(double cycles_per_sample);

  void push(CQ16 in, std::vector<CQ16>& out) override;
  /// Block path: precompute the wrapped phase sequence (element-local
  /// int32 adds), then one block rotation. Bit-identical to push().
  std::size_t process_block(std::span<const CQ16> in, std::span<CQ16> out,
                            std::uint8_t* counts = nullptr) override;
  [[nodiscard]] std::vector<std::int32_t> save_state() const override;
  /// The NCO phase is data: one output per input.
  [[nodiscard]] std::int64_t control_word() const override { return 0; }
  void restore_state(std::span<const std::int32_t> state) override;
  void reset() override;
  [[nodiscard]] std::size_t state_words() const override { return 1; }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override;

 private:
  std::int32_t step_;  // static configuration
  std::string name_;
  std::int32_t phase_ = 0;  // mutable state: Q32 turns, wraps naturally
  CordicScratch scratch_;
};

/// CORDIC AM envelope detector: outputs |x[n]| minus a tracked DC estimate,
/// i.e. the modulating signal of an AM carrier after mixing to baseband.
/// Supports the multi-standard receiver scenarios of the paper's context
/// (ref [8]: multi-standard channel decoding on shared hardware): the same
/// physical CORDIC tile serves FM streams in vectoring-for-phase mode and
/// AM streams in vectoring-for-magnitude mode, selected per context.
/// State: the DC tracker accumulator.
class AmDetector final : public StreamKernel {
 public:
  /// `dc_shift`: DC tracker time constant as a right-shift (larger =
  /// slower tracking); the envelope is high-passed by subtracting it.
  explicit AmDetector(int dc_shift = 6, std::string name = "amdet");

  void push(CQ16 in, std::vector<CQ16>& out) override;
  /// Block path: one block vectoring pass, then the (inherently
  /// sequential, but cheap) DC-tracker recurrence. Bit-identical to push().
  std::size_t process_block(std::span<const CQ16> in, std::span<CQ16> out,
                            std::uint8_t* counts = nullptr) override;
  [[nodiscard]] std::vector<std::int32_t> save_state() const override;
  /// The DC estimate is data: one output per input.
  [[nodiscard]] std::int64_t control_word() const override { return 0; }
  void restore_state(std::span<const std::int32_t> state) override;
  void reset() override;
  [[nodiscard]] std::size_t state_words() const override { return 1; }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override;

 private:
  int dc_shift_;
  std::string name_;
  std::int32_t dc_raw_ = 0;  // mutable state: tracked DC (Q16 raw)
  CordicScratch scratch_;
};

/// CORDIC FM discriminator: outputs the per-sample phase increment of the
/// input (the instantaneous frequency), i.e. arg(x[n] * conj(x[n-1])) scaled
/// to (-1, 1] for +-pi. The paper's "accelerator containing a CORDIC module
/// to convert the data stream from FM radio to normal audio". State is the
/// previous sample.
class FmDiscriminator final : public StreamKernel {
 public:
  explicit FmDiscriminator(std::string name = "fmdemod");

  void push(CQ16 in, std::vector<CQ16>& out) override;
  /// Block path: the prev_-chained conjugate products run as an
  /// element-local sequential pass, then one block vectoring pass and the
  /// normalization epilogue. Bit-identical to push().
  std::size_t process_block(std::span<const CQ16> in, std::span<CQ16> out,
                            std::uint8_t* counts = nullptr) override;
  [[nodiscard]] std::vector<std::int32_t> save_state() const override;
  /// The previous sample is data: one output per input.
  [[nodiscard]] std::int64_t control_word() const override { return 0; }
  void restore_state(std::span<const std::int32_t> state) override;
  void reset() override;
  [[nodiscard]] std::size_t state_words() const override { return 2; }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override;

 private:
  std::string name_;
  CQ16 prev_{};  // mutable state
  CordicScratch scratch_;
};

}  // namespace acc::accel
