#include "accel/mixer.hpp"

#include <cmath>

#include "accel/cordic.hpp"
#include "common/check.hpp"

namespace acc::accel {

namespace {

/// Q32 turns -> Q16 radians in (-pi, pi].
Q16 turns_to_radians(std::int32_t turns_q32) {
  const double turns =
      static_cast<double>(turns_q32) / 4294967296.0;  // 2^32
  return Q16::from_double(2.0 * M_PI * turns);
}

}  // namespace

NcoMixer::NcoMixer(std::int32_t freq_turns_q32, std::string name)
    : step_(freq_turns_q32), name_(std::move(name)) {}

std::int32_t NcoMixer::freq_from_normalized(double cycles_per_sample) {
  ACC_EXPECTS_MSG(cycles_per_sample > -0.5 && cycles_per_sample < 0.5,
                  "mixer frequency must be within +-Nyquist");
  return static_cast<std::int32_t>(
      std::llround(cycles_per_sample * 4294967296.0));
}

void NcoMixer::push(CQ16 in, std::vector<CQ16>& out) {
  // int32 wraparound implements modulo-one-turn phase arithmetic.
  phase_ = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(phase_) + static_cast<std::uint32_t>(step_));
  const RotateResult r = cordic_rotate(in.re, in.im, turns_to_radians(phase_));
  out.push_back(CQ16{r.x, r.y});
}

std::size_t NcoMixer::process_block(std::span<const CQ16> in,
                                    std::span<CQ16> out,
                                    std::uint8_t* counts) {
  const std::size_t n = in.size();
  ACC_CHECK_MSG(out.size() >= n, "process_block output span too small");
  CordicScratch& s = scratch_;
  s.resize(n);
  for (std::size_t e = 0; e < n; ++e) {
    phase_ = static_cast<std::int32_t>(static_cast<std::uint32_t>(phase_) +
                                       static_cast<std::uint32_t>(step_));
    s.angle[e] = turns_to_radians(phase_);
    s.x[e] = in[e].re;
    s.y[e] = in[e].im;
  }
  cordic_rotate_block(s.x, s.y, s.angle, s.a.data(), s.b.data());
  for (std::size_t e = 0; e < n; ++e) {
    out[e] = CQ16{s.a[e], s.b[e]};
    if (counts != nullptr) counts[e] = 1;
  }
  return n;
}

std::vector<std::int32_t> NcoMixer::save_state() const { return {phase_}; }

void NcoMixer::restore_state(std::span<const std::int32_t> state) {
  ACC_EXPECTS_MSG(state.size() == 1, "mixer state blob has the wrong size");
  phase_ = state[0];
}

void NcoMixer::reset() { phase_ = 0; }

std::unique_ptr<StreamKernel> NcoMixer::clone_fresh() const {
  return std::make_unique<NcoMixer>(step_, name_);
}

AmDetector::AmDetector(int dc_shift, std::string name)
    : dc_shift_(dc_shift), name_(std::move(name)) {
  ACC_EXPECTS(dc_shift >= 1 && dc_shift <= 20);
}

void AmDetector::push(CQ16 in, std::vector<CQ16>& out) {
  const VectorResult v = cordic_vector(in.re, in.im);
  // First-order DC tracker: dc += (mag - dc) >> k.
  const std::int32_t mag = v.magnitude.raw();
  dc_raw_ += (mag - dc_raw_) >> dc_shift_;
  out.push_back(CQ16{Q16::from_raw(mag - dc_raw_), Q16{}});
}

std::size_t AmDetector::process_block(std::span<const CQ16> in,
                                      std::span<CQ16> out,
                                      std::uint8_t* counts) {
  const std::size_t n = in.size();
  ACC_CHECK_MSG(out.size() >= n, "process_block output span too small");
  CordicScratch& s = scratch_;
  s.resize(n);
  for (std::size_t e = 0; e < n; ++e) {
    s.x[e] = in[e].re;
    s.y[e] = in[e].im;
  }
  cordic_vector_block(s.x, s.y, s.a.data(), s.b.data());
  for (std::size_t e = 0; e < n; ++e) {
    const std::int32_t mag = s.a[e].raw();
    dc_raw_ += (mag - dc_raw_) >> dc_shift_;
    out[e] = CQ16{Q16::from_raw(mag - dc_raw_), Q16{}};
    if (counts != nullptr) counts[e] = 1;
  }
  return n;
}

std::vector<std::int32_t> AmDetector::save_state() const { return {dc_raw_}; }

void AmDetector::restore_state(std::span<const std::int32_t> state) {
  ACC_EXPECTS_MSG(state.size() == 1, "amdet state blob has the wrong size");
  dc_raw_ = state[0];
}

void AmDetector::reset() { dc_raw_ = 0; }

std::unique_ptr<StreamKernel> AmDetector::clone_fresh() const {
  return std::make_unique<AmDetector>(dc_shift_, name_);
}

FmDiscriminator::FmDiscriminator(std::string name) : name_(std::move(name)) {}

void FmDiscriminator::push(CQ16 in, std::vector<CQ16>& out) {
  // d = in * conj(prev); instantaneous frequency = arg(d).
  const Q16 dre = in.re * prev_.re + in.im * prev_.im;
  const Q16 dim = in.im * prev_.re - in.re * prev_.im;
  prev_ = in;
  const VectorResult v = cordic_vector(dre, dim);
  // Normalize radians to (-1, 1] so full-scale output is +-Nyquist.
  const double norm = v.angle.to_double() / M_PI;
  out.push_back(CQ16{Q16::from_double(norm), Q16{}});
}

std::size_t FmDiscriminator::process_block(std::span<const CQ16> in,
                                           std::span<CQ16> out,
                                           std::uint8_t* counts) {
  const std::size_t n = in.size();
  ACC_CHECK_MSG(out.size() >= n, "process_block output span too small");
  CordicScratch& s = scratch_;
  s.resize(n);
  // Conjugate products, chained through prev_ exactly as push() would be
  // (saturating Q16 ops, same per-element operation order).
  for (std::size_t e = 0; e < n; ++e) {
    s.x[e] = in[e].re * prev_.re + in[e].im * prev_.im;
    s.y[e] = in[e].im * prev_.re - in[e].re * prev_.im;
    prev_ = in[e];
  }
  cordic_vector_block(s.x, s.y, s.a.data(), s.b.data());
  for (std::size_t e = 0; e < n; ++e) {
    const double norm = s.b[e].to_double() / M_PI;
    out[e] = CQ16{Q16::from_double(norm), Q16{}};
    if (counts != nullptr) counts[e] = 1;
  }
  return n;
}

std::vector<std::int32_t> FmDiscriminator::save_state() const {
  return {prev_.re.raw(), prev_.im.raw()};
}

void FmDiscriminator::restore_state(std::span<const std::int32_t> state) {
  ACC_EXPECTS_MSG(state.size() == 2, "fmdemod state blob has the wrong size");
  prev_.re = Q16::from_raw(state[0]);
  prev_.im = Q16::from_raw(state[1]);
}

void FmDiscriminator::reset() { prev_ = CQ16{}; }

std::unique_ptr<StreamKernel> FmDiscriminator::clone_fresh() const {
  return std::make_unique<FmDiscriminator>(name_);
}

}  // namespace acc::accel
