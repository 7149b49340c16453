// Fixed-point CORDIC in rotation and vectoring mode.
//
// The paper's case study shares one CORDIC accelerator between four
// streams: it serves both as the channel mixer (rotation mode: multiply by
// e^{j*phi}) and as the FM demodulator front half (vectoring mode: atan2).
// This is a bit-accurate model of such a datapath: shift-add
// micro-rotations on Q2.16 operands, no hardware multipliers except the
// final gain compensation.
#pragma once

#include <cstdint>
#include <span>

#include "common/fixed_point.hpp"

namespace acc::accel {

/// Number of micro-rotations; 16 gives ~1e-4 angular resolution, matching a
/// 16-iteration unrolled FPGA pipeline.
inline constexpr int kCordicIterations = 16;

/// Q16 representation of pi (3.14159... * 65536).
Q16 q16_pi();
/// Q16 representation of pi/2.
Q16 q16_half_pi();

struct RotateResult {
  Q16 x;
  Q16 y;
};

/// Rotate the vector (x, y) by `angle` radians (Q16, any value in
/// [-pi, pi]; callers must wrap). Gain-compensated.
[[nodiscard]] RotateResult cordic_rotate(Q16 x, Q16 y, Q16 angle,
                                         int iterations = kCordicIterations);

struct VectorResult {
  /// Gain-compensated magnitude sqrt(x^2 + y^2).
  Q16 magnitude;
  /// atan2(y, x) in radians (Q16), in (-pi, pi].
  Q16 angle;
};

/// Vectoring mode: rotate (x, y) onto the positive x axis, reporting the
/// accumulated angle and the magnitude.
[[nodiscard]] VectorResult cordic_vector(Q16 x, Q16 y,
                                         int iterations = kCordicIterations);

/// Block rotation: out_x[i], out_y[i] = cordic_rotate(x[i], y[i], angle[i]),
/// bit-identical to the scalar call per element. The micro-rotations run
/// on chunks of 8 elements in local arrays (iteration outer, element
/// inner), each step steered by a sign mask, a form GCC vectorizes at
/// -O2. The lanes are int32 when every |x| and |y| of the block is below
/// 2^29, where no intermediate can leave int32, and int64 otherwise.
/// Elements are independent, so the cross-element reordering cannot
/// change any result.
void cordic_rotate_block(std::span<const Q16> x, std::span<const Q16> y,
                         std::span<const Q16> angle, Q16* out_x, Q16* out_y,
                         int iterations = kCordicIterations);

/// Block vectoring: out_mag[i] / out_angle[i] = cordic_vector(x[i], y[i]),
/// bit-identical to the scalar call per element (same chunks and lanes).
void cordic_vector_block(std::span<const Q16> x, std::span<const Q16> y,
                         Q16* out_mag, Q16* out_angle,
                         int iterations = kCordicIterations);

}  // namespace acc::accel
