#include "radio/wav.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/check.hpp"

namespace acc::radio {

namespace {

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v >> 16));
  out->push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u16(std::vector<std::uint8_t>* out, std::uint16_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_tag(std::vector<std::uint8_t>* out, const char* tag) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<std::uint8_t>(tag[i]));
}

std::int16_t quantize(double v) {
  const double clipped = std::clamp(v, -1.0, 1.0);
  return static_cast<std::int16_t>(std::lround(clipped * 32767.0));
}

}  // namespace

std::vector<std::uint8_t> encode_wav_stereo(std::span<const double> left,
                                            std::span<const double> right,
                                            std::uint32_t sample_rate) {
  ACC_EXPECTS(left.size() == right.size());
  ACC_EXPECTS(sample_rate > 0);
  const std::uint32_t frames = static_cast<std::uint32_t>(left.size());
  const std::uint32_t data_bytes = frames * 2 /*ch*/ * 2 /*bytes*/;

  std::vector<std::uint8_t> out;
  out.reserve(44 + data_bytes);
  put_tag(&out, "RIFF");
  put_u32(&out, 36 + data_bytes);
  put_tag(&out, "WAVE");
  put_tag(&out, "fmt ");
  put_u32(&out, 16);              // PCM fmt chunk size
  put_u16(&out, 1);               // PCM
  put_u16(&out, 2);               // stereo
  put_u32(&out, sample_rate);
  put_u32(&out, sample_rate * 4);  // byte rate
  put_u16(&out, 4);                // block align
  put_u16(&out, 16);               // bits per sample
  put_tag(&out, "data");
  put_u32(&out, data_bytes);
  for (std::uint32_t i = 0; i < frames; ++i) {
    put_u16(&out, static_cast<std::uint16_t>(quantize(left[i])));
    put_u16(&out, static_cast<std::uint16_t>(quantize(right[i])));
  }
  return out;
}

bool write_wav_stereo(const std::string& path, std::span<const double> left,
                      std::span<const double> right,
                      std::uint32_t sample_rate) {
  const std::vector<std::uint8_t> bytes =
      encode_wav_stereo(left, right, sample_rate);
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(f);
}

}  // namespace acc::radio
