#include "accel/kernel.hpp"

#include "common/check.hpp"

namespace acc::accel {

std::size_t StreamKernel::process_block(std::span<const CQ16> in,
                                        std::span<CQ16> out,
                                        std::uint8_t* counts) {
  // Reference path: exactly the per-sample stream, routed into the block
  // interface. Subclass overrides must match this bit-for-bit.
  std::vector<CQ16> scratch;
  std::size_t n = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    scratch.clear();
    push(in[i], scratch);
    if (counts != nullptr)
      counts[i] = static_cast<std::uint8_t>(scratch.size());
    for (const CQ16& s : scratch) {
      ACC_CHECK_MSG(n < out.size(), "process_block output span too small");
      out[n++] = s;
    }
  }
  return n;
}

std::int64_t StreamKernel::control_word() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the words
  for (const std::int32_t w : save_state())
    h = (h ^ static_cast<std::uint32_t>(w)) * 1099511628211ULL;
  return static_cast<std::int64_t>(h);
}

}  // namespace acc::accel
