// Complex FIR filtering with built-in down-sampling — the paper's
// "LPF + down-sampler" accelerator (a 33-tap complex FIR with programmable
// 8:1 decimation in the case study).
#pragma once

#include <cstdint>
#include <vector>

#include "accel/kernel.hpp"
#include "common/fixed_point.hpp"

namespace acc::accel {

/// Windowed-sinc (Hamming) low-pass design. `cutoff` is the -6 dB edge as a
/// fraction of the sample rate (0 < cutoff < 0.5). Returns `taps` real
/// coefficients normalized to unit DC gain.
[[nodiscard]] std::vector<double> design_lowpass(int taps, double cutoff);

/// Quantize double coefficients to Q16.
[[nodiscard]] std::vector<Q16> quantize_taps(const std::vector<double>& taps);

/// Streaming complex FIR with decimation: consumes every input sample into
/// its delay line and emits one filtered output per `decimation` inputs.
class DecimatingFir final : public StreamKernel {
 public:
  DecimatingFir(std::vector<Q16> taps, std::int32_t decimation,
                std::string name = "fir");

  void push(CQ16 in, std::vector<CQ16>& out) override;
  /// SoA block path: linearizes the circular delay line plus the block into
  /// contiguous per-component arrays, then computes each decimated output
  /// as a straight dot product against the reversed tap ROM, with no index
  /// wrapping and only the decimated outputs computed (GCC does not
  /// vectorize the dot product at -O2). Bit-identical to push() per sample
  /// (see .cpp for the no-overflow argument that makes the MAC
  /// order-insensitive).
  std::size_t process_block(std::span<const CQ16> in, std::span<CQ16> out,
                            std::uint8_t* counts = nullptr) override;
  [[nodiscard]] std::vector<std::int32_t> save_state() const override;
  /// The decimation phase: the delay line and its head are data.
  [[nodiscard]] std::int64_t control_word() const override { return phase_; }
  void restore_state(std::span<const std::int32_t> state) override;
  void reset() override;
  [[nodiscard]] std::size_t state_words() const override;
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override;

  [[nodiscard]] std::int32_t decimation() const { return decimation_; }
  [[nodiscard]] std::size_t taps() const { return taps_.size(); }

 private:
  [[nodiscard]] CQ16 filter_now() const;

  std::vector<Q16> taps_;  // static configuration (coefficient ROM)
  std::int32_t decimation_;
  std::string name_;

  // Reversed raw tap ROM (rtaps_[j] = taps_[n-1-j]): lets the block path's
  // dot product walk the linearized window forward. Static configuration.
  std::vector<std::int32_t> rtaps_;

  // Mutable state: circular delay line + write index + decimation phase.
  std::vector<CQ16> delay_;
  std::int32_t head_ = 0;
  std::int32_t phase_ = 0;

  // Block-path scratch (reused across calls; not part of saved state).
  std::vector<std::int32_t> hist_re_;
  std::vector<std::int32_t> hist_im_;
};

}  // namespace acc::accel
