#include "radio/wav.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "../support/wav_header.hpp"
#include "common/check.hpp"

namespace acc::radio {
namespace {

TEST(Wav, HeaderFieldsCorrect) {
  const std::vector<double> l(100, 0.0);
  const std::vector<double> r(100, 0.0);
  const auto bytes = encode_wav_stereo(l, r, 44100);
  EXPECT_EQ(bytes.size(), 44u + 100 * 4);
  const WavInfo info = parse_wav_header(bytes);
  ASSERT_TRUE(info.valid);
  EXPECT_EQ(info.channels, 2);
  EXPECT_EQ(info.sample_rate, 44100u);
  EXPECT_EQ(info.bits_per_sample, 16);
  EXPECT_EQ(info.num_frames, 100u);
}

TEST(Wav, SamplesQuantizedAndInterleaved) {
  const std::vector<double> l{1.0, -1.0};
  const std::vector<double> r{0.0, 0.5};
  const auto bytes = encode_wav_stereo(l, r, 8000);
  auto sample = [&](std::size_t idx) {
    const std::size_t off = 44 + 2 * idx;
    return static_cast<std::int16_t>(bytes[off] |
                                     (static_cast<std::uint16_t>(bytes[off + 1])
                                      << 8));
  };
  EXPECT_EQ(sample(0), 32767);   // L0
  EXPECT_EQ(sample(1), 0);       // R0
  EXPECT_EQ(sample(2), -32767);  // L1
  EXPECT_NEAR(sample(3), 16384, 1);  // R1
}

TEST(Wav, ClipsOutOfRange) {
  const std::vector<double> l{3.0};
  const std::vector<double> r{-7.5};
  const auto bytes = encode_wav_stereo(l, r, 8000);
  const auto s0 = static_cast<std::int16_t>(
      bytes[44] | (static_cast<std::uint16_t>(bytes[45]) << 8));
  const auto s1 = static_cast<std::int16_t>(
      bytes[46] | (static_cast<std::uint16_t>(bytes[47]) << 8));
  EXPECT_EQ(s0, 32767);
  EXPECT_EQ(s1, -32767);
}

TEST(Wav, MismatchedChannelsRejected) {
  const std::vector<double> l(3, 0.0);
  const std::vector<double> r(4, 0.0);
  EXPECT_THROW((void)encode_wav_stereo(l, r, 8000), precondition_error);
}

TEST(Wav, ParseRejectsGarbage) {
  std::vector<std::uint8_t> junk(44, 0x5A);
  EXPECT_FALSE(parse_wav_header(junk).valid);
  EXPECT_FALSE(parse_wav_header({junk.data(), 10}).valid);
}

TEST(Wav, FileRoundTrip) {
  const std::string path = "/tmp/acc_wav_test.wav";
  std::vector<double> l(50);
  std::vector<double> r(50);
  for (int i = 0; i < 50; ++i) {
    l[i] = std::sin(0.3 * i) * 0.5;
    r[i] = std::cos(0.3 * i) * 0.5;
  }
  ASSERT_TRUE(write_wav_stereo(path, l, r, 22050));
  std::ifstream f(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  const WavInfo info = parse_wav_header(bytes);
  ASSERT_TRUE(info.valid);
  EXPECT_EQ(info.num_frames, 50u);
  EXPECT_EQ(info.sample_rate, 22050u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace acc::radio
