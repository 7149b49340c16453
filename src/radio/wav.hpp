// Minimal RIFF/WAVE writer (PCM16) so decoded audio can actually be
// listened to — the closest a simulator gets to the paper's speakers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace acc::radio {

/// Serialize interleaved stereo PCM16 WAV bytes. `left`/`right` must be the
/// same length; samples are clipped to [-1, 1] and quantized to 16 bits.
[[nodiscard]] std::vector<std::uint8_t> encode_wav_stereo(
    std::span<const double> left, std::span<const double> right,
    std::uint32_t sample_rate);

/// Write to a file; returns false on I/O failure.
bool write_wav_stereo(const std::string& path, std::span<const double> left,
                      std::span<const double> right,
                      std::uint32_t sample_rate);

}  // namespace acc::radio
