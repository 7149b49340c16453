// Stream-processing kernel interface: the functional model of one
// accelerator datapath.
//
// Kernels are sample-streaming (one input in, zero or more outputs out —
// down-samplers emit less than they consume) and, crucially for the paper,
// CONTEXT-SWITCHABLE: all internal state can be saved and restored through
// save_state()/restore_state(), modelling the accelerator configuration bus
// that the entry-gateway drives when multiplexing streams. The defining
// correctness property (tested in kernels_test.cpp) is that interleaving
// two streams through one kernel with save/restore around each block is
// bit-identical to running each stream through its own kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/fixed_point.hpp"

namespace acc::accel {

class StreamKernel {
 public:
  virtual ~StreamKernel() = default;

  /// Process one input sample, appending any produced samples to `out`.
  virtual void push(CQ16 in, std::vector<CQ16>& out) = 0;

  /// Process a whole block: BIT-IDENTICAL to pushing in[0..n) one at a
  /// time, in order, including the final mutable state (save_state() after
  /// a block equals save_state() after the equivalent pushes — the golden
  /// fixtures in kernel_block_test.cpp pin this). Outputs are written to
  /// `out`, which must have room for the worst case (one output per input
  /// for every kernel in this repo); the return value is the number
  /// written. When `counts` is non-null, counts[i] receives the number of
  /// outputs produced by in[i] (0 or 1 here) — AcceleratorTile needs the
  /// per-input attribution to replay its per-sample forwarding exactly.
  ///
  /// The default walks push() per sample. Overrides restructure the maths
  /// into SoA passes over the block (separate real/imaginary/phase arrays,
  /// branchless inner loops) so the compiler can autovectorize; they must
  /// preserve per-element operation order bit-for-bit.
  virtual std::size_t process_block(std::span<const CQ16> in,
                                    std::span<CQ16> out,
                                    std::uint8_t* counts = nullptr);

  /// Serialize the complete mutable state (delay lines, phase accumulators,
  /// decimation counters) as raw 32-bit words — what the configuration bus
  /// would transfer on a context switch.
  [[nodiscard]] virtual std::vector<std::int32_t> save_state() const = 0;

  /// The part of the mutable state that decides how many outputs the next
  /// input produces (a decimator's phase), folded into one word: the
  /// simulator's steady-state replay hashes it (System::run), so a state
  /// this word cannot tell apart from another must produce outputs at the
  /// same inputs. Default: a hash of every save_state() word. A kernel
  /// whose state is all data (it shapes output values, never their timing)
  /// overrides this to return a constant, and a decimator to return only
  /// its phase; either lets a streaming block's periods repeat.
  [[nodiscard]] virtual std::int64_t control_word() const;

  /// Restore state previously captured with save_state().
  virtual void restore_state(std::span<const std::int32_t> state) = 0;

  /// Reset to the power-on state.
  virtual void reset() = 0;

  /// Number of 32-bit words save_state() produces.
  [[nodiscard]] virtual std::size_t state_words() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Fresh kernel of the same type and static configuration with power-on
  /// state (used to model per-stream virtual accelerators).
  [[nodiscard]] virtual std::unique_ptr<StreamKernel> clone_fresh() const = 0;
};

}  // namespace acc::accel
