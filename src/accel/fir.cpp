#include "accel/fir.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace acc::accel {

std::vector<double> design_lowpass(int taps, double cutoff) {
  ACC_EXPECTS(taps >= 3 && taps % 2 == 1);
  ACC_EXPECTS(cutoff > 0.0 && cutoff < 0.5);
  std::vector<double> h(taps);
  const int mid = taps / 2;
  double sum = 0.0;
  for (int n = 0; n < taps; ++n) {
    const int k = n - mid;
    const double sinc =
        k == 0 ? 2.0 * cutoff
               : std::sin(2.0 * M_PI * cutoff * k) / (M_PI * k);
    const double hamming =
        0.54 - 0.46 * std::cos(2.0 * M_PI * n / (taps - 1));
    h[n] = sinc * hamming;
    sum += h[n];
  }
  for (double& v : h) v /= sum;  // unit DC gain
  return h;
}

std::vector<Q16> quantize_taps(const std::vector<double>& taps) {
  std::vector<Q16> q;
  q.reserve(taps.size());
  for (double t : taps) q.push_back(Q16::from_double(t));
  return q;
}

DecimatingFir::DecimatingFir(std::vector<Q16> taps, std::int32_t decimation,
                             std::string name)
    : taps_(std::move(taps)),
      decimation_(decimation),
      name_(std::move(name)),
      delay_(taps_.size()) {
  ACC_EXPECTS(!taps_.empty());
  ACC_EXPECTS(decimation_ >= 1);
  rtaps_.reserve(taps_.size());
  for (std::size_t j = taps_.size(); j-- > 0;)
    rtaps_.push_back(taps_[j].raw());
}

CQ16 DecimatingFir::filter_now() const {
  // Multiply-accumulate in 64-bit, truncate once at the end — the behaviour
  // of a wide FPGA accumulator (avoids per-tap quantization noise).
  std::int64_t acc_re = 0;
  std::int64_t acc_im = 0;
  const auto mac = [&](std::size_t i, std::size_t idx) {
    const CQ16& s = delay_[idx];
    const std::int64_t c = taps_[i].raw();
    acc_re += c * s.re.raw();
    acc_im += c * s.im.raw();
  };
  // delay_[head_] is the newest sample = x[0]; tap 0 applies to it. Tap i
  // reads delay_[head_ - i], wrapping once past index 0.
  const auto n = taps_.size();
  const auto head = static_cast<std::size_t>(head_);
  for (std::size_t i = 0; i <= head; ++i) mac(i, head - i);
  for (std::size_t i = head + 1; i < n; ++i) mac(i, head + n - i);
  return CQ16{Q16::from_raw(static_cast<std::int32_t>(acc_re >> 16)),
              Q16::from_raw(static_cast<std::int32_t>(acc_im >> 16))};
}

void DecimatingFir::push(CQ16 in, std::vector<CQ16>& out) {
  if (++head_ == static_cast<std::int32_t>(delay_.size())) head_ = 0;
  delay_[head_] = in;
  if (++phase_ >= decimation_) {
    phase_ = 0;
    out.push_back(filter_now());
  }
}

std::size_t DecimatingFir::process_block(std::span<const CQ16> in,
                                         std::span<CQ16> out,
                                         std::uint8_t* counts) {
  const std::size_t m = in.size();
  if (m == 0) return 0;
  const std::size_t nt = taps_.size();
  const auto nd = static_cast<std::int32_t>(delay_.size());
  // Linearize: hist[0 .. nt-2] = the nt-1 most recent delay-line samples in
  // chronological order, hist[nt-1 + k] = in[k]. The window for in[k] is
  // then the contiguous run hist[k .. k+nt-1], newest last.
  hist_re_.resize(nt - 1 + m);
  hist_im_.resize(nt - 1 + m);
  for (std::size_t i = 0; i + 1 < nt; ++i) {
    const auto idx = static_cast<std::size_t>(
        (head_ - static_cast<std::int32_t>(i) + nd) % nd);
    hist_re_[nt - 2 - i] = delay_[idx].re.raw();
    hist_im_[nt - 2 - i] = delay_[idx].im.raw();
  }
  for (std::size_t k = 0; k < m; ++k) {
    hist_re_[nt - 1 + k] = in[k].re.raw();
    hist_im_[nt - 1 + k] = in[k].im.raw();
  }

  std::size_t produced = 0;
  std::int32_t ph = phase_;
  for (std::size_t k = 0; k < m; ++k) {
    std::uint8_t c = 0;
    if (++ph >= decimation_) {
      ph = 0;
      // Straight dot product over the contiguous window against the
      // reversed tap ROM — sum_j rtaps[j] * hist[k + j] equals filter_now's
      // sum_i taps[i] * x[n - i]. The summation order differs from the
      // scalar path, but every product fits in ~2^47 (Q16 tap * Q16 sample)
      // and the tap count is small, so no intermediate sum can leave int64
      // range in either order: integer addition is then exactly
      // associative and both orders produce the same accumulator.
      std::int64_t acc_re = 0;
      std::int64_t acc_im = 0;
      const std::int32_t* wr = hist_re_.data() + k;
      const std::int32_t* wi = hist_im_.data() + k;
      for (std::size_t j = 0; j < nt; ++j) {
        const std::int64_t cj = rtaps_[j];
        acc_re += cj * wr[j];
        acc_im += cj * wi[j];
      }
      ACC_CHECK_MSG(produced < out.size(),
                    "process_block output span too small");
      out[produced++] =
          CQ16{Q16::from_raw(static_cast<std::int32_t>(acc_re >> 16)),
               Q16::from_raw(static_cast<std::int32_t>(acc_im >> 16))};
      c = 1;
    }
    if (counts != nullptr) counts[k] = c;
  }
  phase_ = ph;

  // Replay the delay-line state m pushes would leave behind: the head
  // advances m slots and the last min(nd, m) inputs land at the indices
  // push() would have written them to; older slots keep their contents.
  const auto new_head = static_cast<std::int32_t>(
      (static_cast<std::size_t>(head_) + m) % static_cast<std::size_t>(nd));
  const std::size_t keep = std::min(static_cast<std::size_t>(nd), m);
  for (std::size_t i = 0; i < keep; ++i) {
    const auto idx = static_cast<std::size_t>(
        (new_head - static_cast<std::int32_t>(i) + nd) % nd);
    delay_[idx] = in[m - 1 - i];
  }
  head_ = new_head;
  return produced;
}

std::vector<std::int32_t> DecimatingFir::save_state() const {
  std::vector<std::int32_t> s;
  s.reserve(state_words());
  s.push_back(head_);
  s.push_back(phase_);
  for (const CQ16& d : delay_) {
    s.push_back(d.re.raw());
    s.push_back(d.im.raw());
  }
  return s;
}

void DecimatingFir::restore_state(std::span<const std::int32_t> state) {
  ACC_EXPECTS_MSG(state.size() == state_words(),
                  "FIR state blob has the wrong size");
  head_ = state[0];
  phase_ = state[1];
  ACC_EXPECTS(head_ >= 0 && head_ < static_cast<std::int32_t>(delay_.size()));
  ACC_EXPECTS(phase_ >= 0 && phase_ < decimation_);
  for (std::size_t i = 0; i < delay_.size(); ++i) {
    delay_[i].re = Q16::from_raw(state[2 + 2 * i]);
    delay_[i].im = Q16::from_raw(state[3 + 2 * i]);
  }
}

void DecimatingFir::reset() {
  head_ = 0;
  phase_ = 0;
  delay_.assign(delay_.size(), CQ16{});
}

std::size_t DecimatingFir::state_words() const {
  return 2 + 2 * delay_.size();
}

std::unique_ptr<StreamKernel> DecimatingFir::clone_fresh() const {
  return std::make_unique<DecimatingFir>(taps_, decimation_, name_);
}

}  // namespace acc::accel
