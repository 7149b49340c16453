#include "accel/cordic.hpp"

#include <array>
#include <cmath>
#include <vector>

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

}  // namespace

Q16 q16_pi() { return Q16::from_double(M_PI); }
Q16 q16_half_pi() { return Q16::from_double(M_PI / 2); }

RotateResult cordic_rotate(Q16 x, Q16 y, Q16 angle, int iterations) {
  ACC_EXPECTS(iterations >= 1 && iterations <= kMaxIterations);
  std::int64_t cx = x.raw();
  std::int64_t cy = y.raw();
  std::int64_t cz = angle.raw();

  // Pre-rotation: CORDIC converges for |angle| <= ~1.74 rad; fold angles
  // beyond +-pi/2 by an exact half-turn ((x,y) -> (-x,-y), angle -+ pi).
  const std::int32_t half_pi = q16_half_pi().raw();
  if (cz > half_pi) {
    cz -= q16_pi().raw();
    cx = -cx;
    cy = -cy;
  } else if (cz < -half_pi) {
    cz += q16_pi().raw();
    cx = -cx;
    cy = -cy;
  }

  for (int i = 0; i < iterations; ++i) {
    const std::int64_t dx = cy >> i;
    const std::int64_t dy = cx >> i;
    if (cz >= 0) {
      cx -= dx;
      cy += dy;
      cz -= tables().atan_q16[i];
    } else {
      cx += dx;
      cy -= dy;
      cz += tables().atan_q16[i];
    }
  }

  const double inv_k = tables().inv_gain[iterations];
  RotateResult r;
  r.x = Q16::from_double(static_cast<double>(cx) / (1 << 16) * inv_k);
  r.y = Q16::from_double(static_cast<double>(cy) / (1 << 16) * inv_k);
  return r;
}

void cordic_rotate_block(std::span<const Q16> x, std::span<const Q16> y,
                         std::span<const Q16> angle, Q16* out_x, Q16* out_y,
                         int iterations) {
  ACC_EXPECTS(iterations >= 1 && iterations <= kMaxIterations);
  ACC_EXPECTS(x.size() == y.size() && x.size() == angle.size());
  const std::size_t n = x.size();
  std::vector<std::int64_t> cx(n);
  std::vector<std::int64_t> cy(n);
  std::vector<std::int64_t> cz(n);
  // Prologue per element: widen and fold the exact half-turn pre-rotation
  // (same branches as the scalar path — element-local, so order across
  // elements is irrelevant).
  const std::int32_t half_pi = q16_half_pi().raw();
  const std::int32_t pi = q16_pi().raw();
  for (std::size_t e = 0; e < n; ++e) {
    std::int64_t ex = x[e].raw();
    std::int64_t ey = y[e].raw();
    std::int64_t ez = angle[e].raw();
    if (ez > half_pi) {
      ez -= pi;
      ex = -ex;
      ey = -ey;
    } else if (ez < -half_pi) {
      ez += pi;
      ex = -ex;
      ey = -ey;
    }
    cx[e] = ex;
    cy[e] = ey;
    cz[e] = ez;
  }
  // Micro-rotations, iteration-outer / element-inner. The scalar branch
  // `if (cz >= 0) {cx -= dx; ...} else {cx += dx; ...}` becomes a +-1
  // multiplier — multiplying an int64 by +-1 is exact, so every element
  // computes the identical sequence of additions.
  for (int i = 0; i < iterations; ++i) {
    const std::int64_t a = tables().atan_q16[i];
    for (std::size_t e = 0; e < n; ++e) {
      const std::int64_t s = cz[e] >= 0 ? 1 : -1;
      const std::int64_t dx = cy[e] >> i;
      const std::int64_t dy = cx[e] >> i;
      cx[e] -= s * dx;
      cy[e] += s * dy;
      cz[e] -= s * a;
    }
  }
  // Epilogue per element: identical gain compensation as the scalar path.
  const double inv_k = tables().inv_gain[iterations];
  for (std::size_t e = 0; e < n; ++e) {
    out_x[e] = Q16::from_double(static_cast<double>(cx[e]) / (1 << 16) * inv_k);
    out_y[e] = Q16::from_double(static_cast<double>(cy[e]) / (1 << 16) * inv_k);
  }
}

void cordic_vector_block(std::span<const Q16> x, std::span<const Q16> y,
                         Q16* out_mag, Q16* out_angle, int iterations) {
  ACC_EXPECTS(iterations >= 1 && iterations <= kMaxIterations);
  ACC_EXPECTS(x.size() == y.size());
  const std::size_t n = x.size();
  std::vector<std::int64_t> cx(n);
  std::vector<std::int64_t> cy(n);
  std::vector<std::int64_t> cz(n);
  const std::int64_t pi = q16_pi().raw();
  for (std::size_t e = 0; e < n; ++e) {
    std::int64_t ex = x[e].raw();
    std::int64_t ey = y[e].raw();
    std::int64_t ez = 0;
    if (ex < 0) {
      ex = -ex;
      ey = -ey;
      ez = ey <= 0 ? pi : -pi;
    }
    cx[e] = ex;
    cy[e] = ey;
    cz[e] = ez;
  }
  for (int i = 0; i < iterations; ++i) {
    const std::int64_t a = tables().atan_q16[i];
    for (std::size_t e = 0; e < n; ++e) {
      const std::int64_t s = cy[e] >= 0 ? 1 : -1;
      const std::int64_t dx = cy[e] >> i;
      const std::int64_t dy = cx[e] >> i;
      cx[e] += s * dx;
      cy[e] -= s * dy;
      cz[e] += s * a;
    }
  }
  const double inv_k = tables().inv_gain[iterations];
  for (std::size_t e = 0; e < n; ++e) {
    out_mag[e] =
        Q16::from_double(static_cast<double>(cx[e]) / (1 << 16) * inv_k);
    std::int64_t a = cz[e];
    if (a > pi) a -= 2 * pi;
    if (a <= -pi) a += 2 * pi;
    out_angle[e] = Q16::from_raw(static_cast<std::int32_t>(a));
  }
}

VectorResult cordic_vector(Q16 x, Q16 y, int iterations) {
  ACC_EXPECTS(iterations >= 1 && iterations <= kMaxIterations);
  std::int64_t cx = x.raw();
  std::int64_t cy = y.raw();
  std::int64_t cz = 0;

  // Pre-rotation into the right half-plane: a half turn flips the vector
  // exactly; the loop then adds the remaining angle, so
  // z_out = z_init + atan2(-y, -x) = atan2(y, x).
  if (cx < 0) {
    cx = -cx;
    cy = -cy;
    cz = cy <= 0 ? q16_pi().raw() : -q16_pi().raw();
  }

  for (int i = 0; i < iterations; ++i) {
    const std::int64_t dx = cy >> i;
    const std::int64_t dy = cx >> i;
    if (cy >= 0) {
      cx += dx;
      cy -= dy;
      cz += tables().atan_q16[i];
    } else {
      cx -= dx;
      cy += dy;
      cz -= tables().atan_q16[i];
    }
  }

  const double inv_k = tables().inv_gain[iterations];
  VectorResult r;
  r.magnitude = Q16::from_double(static_cast<double>(cx) / (1 << 16) * inv_k);
  // Map the accumulated angle into (-pi, pi].
  std::int64_t a = cz;
  const std::int64_t pi = q16_pi().raw();
  if (a > pi) a -= 2 * pi;
  if (a <= -pi) a += 2 * pi;
  r.angle = Q16::from_raw(static_cast<std::int32_t>(a));
  return r;
}

}  // namespace acc::accel
