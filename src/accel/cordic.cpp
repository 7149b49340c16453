#include "accel/cordic.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace acc::accel {

namespace {

constexpr int kMaxIterations = 24;

/// atan(2^-i) table in Q16 radians, and the CORDIC gain compensation
/// 1/K = prod(cos(atan(2^-i))), computed once at startup (an FPGA would
/// bake these into LUT ROMs).
struct Tables {
  std::array<std::int32_t, kMaxIterations> atan_q16{};
  std::array<double, kMaxIterations + 1> inv_gain{};

  Tables() {
    double k = 1.0;
    inv_gain[0] = 1.0;
    for (int i = 0; i < kMaxIterations; ++i) {
      const double a = std::atan(std::ldexp(1.0, -i));
      atan_q16[i] =
          static_cast<std::int32_t>(std::lround(a * (std::int32_t{1} << 16)));
      k *= std::cos(a);
      inv_gain[i + 1] = k;
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

/// `d` when `s` is 0, -d when `s` is -1: a micro-rotation's direction as a
/// sign mask (s = v >> (bits - 1)) instead of a data-dependent branch.
template <typename Lane>
Lane steer(Lane d, Lane s) {
  return (d ^ s) - s;
}

/// Elements per chunk of the block paths: held in local arrays, so GCC
/// vectorizes the micro-rotation loop at -O2 (it vectorized no loop over
/// the whole block in heap arrays).
constexpr std::size_t kChunk = 8;

/// Rotation mode's pre-rotation: CORDIC converges for |angle| <= ~1.74
/// rad; fold angles beyond +-pi/2 by an exact half-turn ((x,y) -> (-x,-y),
/// angle -+ pi).
void fold_half_turn(std::int64_t& x, std::int64_t& y, std::int64_t& z) {
  if (z > q16_half_pi().raw()) {
    z -= q16_pi().raw();
    x = -x;
    y = -y;
  } else if (z < -q16_half_pi().raw()) {
    z += q16_pi().raw();
    x = -x;
    y = -y;
  }
}

/// Vectoring mode's pre-rotation into the right half-plane: a half turn
/// flips the vector exactly; the micro-rotations then add the remaining
/// angle, so z_out = z_init + atan2(-y, -x) = atan2(y, x).
void fold_right_half(std::int64_t& x, std::int64_t& y, std::int64_t& z) {
  z = 0;
  if (x < 0) {
    x = -x;
    y = -y;
    z = y <= 0 ? q16_pi().raw() : -q16_pi().raw();
  }
}

/// A block runs on int32 lanes when every |x| and |y| is below this. The
/// vector's magnitude is then at most sqrt(2) * 2^29, and the micro-
/// rotations grow it by at most the CORDIC gain K ~ 1.647 (plus a unit of
/// truncation per step): every intermediate stays below
/// K * sqrt(2) * 2^29 < 1.26e9 < 2^31, so the int32 sequence equals the
/// int64 one. The angle word stays in range too: rotation steps move it
/// toward 0, and vectoring accumulates less than pi + 1.75 rad.
constexpr std::int64_t kNarrowLimit = std::int64_t{1} << 29;

bool narrow(std::span<const Q16> x, std::span<const Q16> y) {
  bool ok = true;
  for (std::size_t e = 0; e < x.size(); ++e) {
    const std::int64_t ex = x[e].raw();
    const std::int64_t ey = y[e].raw();
    ok &= ex > -kNarrowLimit && ex < kNarrowLimit && ey > -kNarrowLimit &&
          ey < kNarrowLimit;
  }
  return ok;
}

/// Both block paths, on `Lane`-typed chunks: `load(e, x, y, z)` gives
/// element e's words after its pre-rotation, `store(e, x, y, z)` takes
/// them after `iterations` micro-rotations. Rotation steers each step by
/// the sign of z (drive z to 0), vectoring by the sign of y (drive y to 0,
/// the opposite direction for y >= 0). The elements are independent and
/// each computes the scalar path's exact sequence of additions, so the
/// chunked reordering across elements changes no result.
template <typename Lane, bool kVectoring, typename Load, typename Store>
void micro_rotate_block(std::size_t n, int iterations, Load load,
                        Store store) {
  constexpr int kSign = std::numeric_limits<Lane>::digits;
  const Tables& t = tables();
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    Lane cx[kChunk] = {};
    Lane cy[kChunk] = {};
    Lane cz[kChunk] = {};
    for (std::size_t e = 0; e < m; ++e) {
      std::int64_t x = 0;
      std::int64_t y = 0;
      std::int64_t z = 0;
      load(base + e, x, y, z);
      cx[e] = static_cast<Lane>(x);
      cy[e] = static_cast<Lane>(y);
      cz[e] = static_cast<Lane>(z);
    }
    for (int i = 0; i < iterations; ++i) {
      const Lane a = t.atan_q16[i];
      for (std::size_t e = 0; e < kChunk; ++e) {
        const Lane s = kVectoring ? ~(cy[e] >> kSign) : cz[e] >> kSign;
        const Lane dx = cy[e] >> i;
        const Lane dy = cx[e] >> i;
        cx[e] -= steer(dx, s);
        cy[e] += steer(dy, s);
        cz[e] -= steer(a, s);
      }
    }
    for (std::size_t e = 0; e < m; ++e) store(base + e, cx[e], cy[e], cz[e]);
  }
}

/// Gain-compensated Q16 of a micro-rotated x or y word.
Q16 compensate(std::int64_t v, double inv_k) {
  return Q16::from_double(static_cast<double>(v) / (1 << 16) * inv_k);
}

/// An accumulated vectoring angle mapped into (-pi, pi].
Q16 wrap_angle(std::int64_t a, std::int64_t pi) {
  if (a > pi) a -= 2 * pi;
  if (a <= -pi) a += 2 * pi;
  return Q16::from_raw(static_cast<std::int32_t>(a));
}

template <typename Lane>
void rotate_block(std::span<const Q16> x, std::span<const Q16> y,
                  std::span<const Q16> angle, Q16* out_x, Q16* out_y,
                  int iterations) {
  const double inv_k = tables().inv_gain[iterations];
  micro_rotate_block<Lane, false>(
      x.size(), iterations,
      [&](std::size_t e, std::int64_t& ex, std::int64_t& ey,
          std::int64_t& ez) {
        ex = x[e].raw();
        ey = y[e].raw();
        ez = angle[e].raw();
        fold_half_turn(ex, ey, ez);
      },
      [&](std::size_t e, Lane ex, Lane ey, Lane) {
        out_x[e] = compensate(ex, inv_k);
        out_y[e] = compensate(ey, inv_k);
      });
}

template <typename Lane>
void vector_block(std::span<const Q16> x, std::span<const Q16> y,
                  Q16* out_mag, Q16* out_angle, int iterations) {
  const std::int64_t pi = q16_pi().raw();
  const double inv_k = tables().inv_gain[iterations];
  micro_rotate_block<Lane, true>(
      x.size(), iterations,
      [&](std::size_t e, std::int64_t& ex, std::int64_t& ey,
          std::int64_t& ez) {
        ex = x[e].raw();
        ey = y[e].raw();
        fold_right_half(ex, ey, ez);
      },
      [&](std::size_t e, Lane ex, Lane, Lane ez) {
        out_mag[e] = compensate(ex, inv_k);
        out_angle[e] = wrap_angle(ez, pi);
      });
}

}  // namespace

Q16 q16_pi() { return Q16::from_double(M_PI); }
Q16 q16_half_pi() { return Q16::from_double(M_PI / 2); }

RotateResult cordic_rotate(Q16 x, Q16 y, Q16 angle, int iterations) {
  ACC_EXPECTS(iterations >= 1 && iterations <= kMaxIterations);
  const Tables& t = tables();
  std::int64_t cx = x.raw();
  std::int64_t cy = y.raw();
  std::int64_t cz = angle.raw();
  fold_half_turn(cx, cy, cz);

  // Drive z to 0: subtract the step's angle while z >= 0, add it below.
  for (int i = 0; i < iterations; ++i) {
    const std::int64_t s = cz >> 63;
    const std::int64_t dx = cy >> i;
    const std::int64_t dy = cx >> i;
    cx -= steer(dx, s);
    cy += steer(dy, s);
    cz -= steer(std::int64_t{t.atan_q16[i]}, s);
  }

  const double inv_k = t.inv_gain[iterations];
  return RotateResult{compensate(cx, inv_k), compensate(cy, inv_k)};
}

void cordic_rotate_block(std::span<const Q16> x, std::span<const Q16> y,
                         std::span<const Q16> angle, Q16* out_x, Q16* out_y,
                         int iterations) {
  ACC_EXPECTS(iterations >= 1 && iterations <= kMaxIterations);
  ACC_EXPECTS(x.size() == y.size() && x.size() == angle.size());
  if (narrow(x, y))
    rotate_block<std::int32_t>(x, y, angle, out_x, out_y, iterations);
  else
    rotate_block<std::int64_t>(x, y, angle, out_x, out_y, iterations);
}

void cordic_vector_block(std::span<const Q16> x, std::span<const Q16> y,
                         Q16* out_mag, Q16* out_angle, int iterations) {
  ACC_EXPECTS(iterations >= 1 && iterations <= kMaxIterations);
  ACC_EXPECTS(x.size() == y.size());
  if (narrow(x, y))
    vector_block<std::int32_t>(x, y, out_mag, out_angle, iterations);
  else
    vector_block<std::int64_t>(x, y, out_mag, out_angle, iterations);
}

VectorResult cordic_vector(Q16 x, Q16 y, int iterations) {
  ACC_EXPECTS(iterations >= 1 && iterations <= kMaxIterations);
  const Tables& t = tables();
  std::int64_t cx = x.raw();
  std::int64_t cy = y.raw();
  std::int64_t cz = 0;
  fold_right_half(cx, cy, cz);

  // Drive y to 0: rotate clockwise (adding the step's angle) while y >= 0.
  for (int i = 0; i < iterations; ++i) {
    const std::int64_t s = cy >> 63;
    const std::int64_t dx = cy >> i;
    const std::int64_t dy = cx >> i;
    cx += steer(dx, s);
    cy -= steer(dy, s);
    cz += steer(std::int64_t{t.atan_q16[i]}, s);
  }

  const double inv_k = t.inv_gain[iterations];
  return VectorResult{compensate(cx, inv_k), wrap_angle(cz, q16_pi().raw())};
}

}  // namespace acc::accel
