// RIFF/WAVE header reader for the WAV writer's tests (tests/radio/
// wav_test.cpp): it reads the writer's bytes back, so a field the writer
// gets wrong shows up as a wrong parsed value.
//
// Test-only oracle: production code only writes WAV files.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace acc::radio {

struct WavInfo {
  bool valid = false;
  std::uint16_t channels = 0;
  std::uint32_t sample_rate = 0;
  std::uint16_t bits_per_sample = 0;
  std::uint32_t num_frames = 0;
};

inline std::uint32_t wav_u32(std::span<const std::uint8_t> b,
                             std::size_t off) {
  return static_cast<std::uint32_t>(b[off]) |
         (static_cast<std::uint32_t>(b[off + 1]) << 8) |
         (static_cast<std::uint32_t>(b[off + 2]) << 16) |
         (static_cast<std::uint32_t>(b[off + 3]) << 24);
}

inline std::uint16_t wav_u16(std::span<const std::uint8_t> b,
                             std::size_t off) {
  return static_cast<std::uint16_t>(
      b[off] | (static_cast<std::uint16_t>(b[off + 1]) << 8));
}

/// Parse the canonical 44-byte PCM header; `valid` is false for anything
/// else.
inline WavInfo parse_wav_header(std::span<const std::uint8_t> bytes) {
  WavInfo info;
  if (bytes.size() < 44) return info;
  if (std::memcmp(bytes.data(), "RIFF", 4) != 0 ||
      std::memcmp(bytes.data() + 8, "WAVE", 4) != 0 ||
      std::memcmp(bytes.data() + 12, "fmt ", 4) != 0 ||
      std::memcmp(bytes.data() + 36, "data", 4) != 0) {
    return info;
  }
  info.channels = wav_u16(bytes, 22);
  info.sample_rate = wav_u32(bytes, 24);
  info.bits_per_sample = wav_u16(bytes, 34);
  const std::uint32_t data_bytes = wav_u32(bytes, 40);
  if (info.channels == 0 || info.bits_per_sample == 0) return info;
  info.num_frames =
      data_bytes / (info.channels * (info.bits_per_sample / 8));
  info.valid = true;
  return info;
}

}  // namespace acc::radio
