#include "hwcost/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace acc::hwcost {

std::string component_name(Component c) {
  switch (c) {
    case Component::kFirDownsampler: return "FIR + down-sampler";
    case Component::kMicroBlaze: return "MicroBlaze";
    case Component::kCordic: return "CORDIC";
    case Component::kEntryGateway: return "Entry-gateway";
    case Component::kExitGateway: return "Exit-gateway";
    case Component::kGatewayPair: return "Entry- + Exit-gateway";
  }
  return "?";
}

FpgaCost published_cost(Component c) {
  // Table I verbatim: gateway pair, FIR+DS, CORDIC. The pair's split into
  // entry/exit/MicroBlaze is reconstructed (Fig. 11's bars are published
  // only as a chart); the parts sum exactly to the published pair.
  switch (c) {
    case Component::kGatewayPair: return {3788, 4445};
    case Component::kEntryGateway: return {2830, 3350};
    case Component::kExitGateway: return {958, 1095};
    case Component::kMicroBlaze: return {2450, 2900};
    case Component::kFirDownsampler: return {6512, 10837};
    case Component::kCordic: return {1714, 1882};
  }
  throw precondition_error("unknown component");
}

FpgaCost StructuralEstimate::to_cost(const PackingModel& pm) const {
  const double by_lut = static_cast<double>(luts) / pm.lut_per_slice;
  const double by_ff = static_cast<double>(ffs) / pm.ff_per_slice;
  return {static_cast<std::int64_t>(std::llround(std::max(by_lut, by_ff))),
          luts};
}

StructuralEstimate estimate_cordic(int iterations, int width) {
  ACC_EXPECTS(iterations >= 1 && width >= 8);
  StructuralEstimate e;
  // Per micro-rotation stage: add/sub for x, y and the angle accumulator
  // (one LUT per bit each — the add/sub select folds into the same LUT6),
  // barrel shifts are pure routing in an unrolled pipeline.
  e.luts = static_cast<std::int64_t>(iterations) * 3 * width;
  // Gain-compensation multiplier (LUT fabric) and I/O staging.
  e.luts += 350;
  // Three pipeline registers per stage plus interface registers.
  e.ffs = static_cast<std::int64_t>(iterations) * 3 * width + 128;
  return e;
}

StructuralEstimate estimate_fir(int taps, int width) {
  ACC_EXPECTS(taps >= 1 && width >= 8);
  StructuralEstimate e;
  // Complex MAC per tap: 4 real multipliers + 2 adders. The published area
  // implies fabric multipliers of ~width x coefficient-width; 72 LUTs per
  // 16x18 multiplier matches Virtex-6 fabric synthesis.
  const std::int64_t mult_luts = 72;
  e.luts = static_cast<std::int64_t>(taps) * (4 * mult_luts + 2 * width);
  // Accumulator tree, coefficient memory addressing, decimation control.
  e.luts += 40 * width + 180;
  // Delay line in registers (complex, both I and Q) + pipeline regs.
  e.ffs = static_cast<std::int64_t>(taps) * 2 * width + 6 * width;
  return e;
}

StructuralEstimate estimate_microblaze() {
  StructuralEstimate e;
  // Area-optimized 32-bit RISC: regfile read logic (LUTRAM) 250, ALU 350,
  // barrel shifter 250, decoder 400, pipeline control 300, cache control
  // 500, LMB/PLB bus interfaces 600, multiplier 250.
  e.luts = 250 + 350 + 250 + 400 + 300 + 500 + 600 + 250;
  e.ffs = 2200;
  return e;
}

StructuralEstimate estimate_dma() {
  StructuralEstimate e;
  // Two 32-bit address generators, a length counter, FIFO handshake and a
  // bus interface.
  e.luts = 2 * 64 + 40 + 90 + 160;
  e.ffs = 300;
  return e;
}

StructuralEstimate estimate_ring_ni() {
  StructuralEstimate e;
  // Slot compare/eject, injection queue control, credit counters.
  e.luts = 350;
  e.ffs = 280;
  return e;
}

namespace {

/// Link width (bits) of both interconnects.
constexpr std::int64_t kWidth = 64;

/// Full dual-ring interconnect for `nodes` tiles (data ring + credit ring +
/// one NI per tile).
StructuralEstimate estimate_dual_ring(int nodes) {
  ACC_EXPECTS(nodes >= 2);
  StructuralEstimate e;
  // Per node and per ring: a slot register (width + header), an eject
  // comparator, and injection mux; plus the per-tile NI. Two rings.
  const std::int64_t per_node_per_ring = kWidth + 16 /*hdr*/ + 24 /*cmp+mux*/;
  e.luts = static_cast<std::int64_t>(nodes) *
           (2 * per_node_per_ring + estimate_ring_ni().luts);
  e.ffs = static_cast<std::int64_t>(nodes) *
          (2 * (kWidth + 16) + estimate_ring_ni().ffs);
  return e;
}

/// Point-to-point crossbar with a pre-computed TDM schedule for `nodes`
/// tiles.
StructuralEstimate estimate_tdm_crossbar(int nodes) {
  ACC_EXPECTS(nodes >= 2);
  StructuralEstimate e;
  // Each output port selects among `nodes` inputs: a width-wide
  // nodes-to-1 mux costs ~width * (nodes-1) / 2 LUT6s (2 mux2 per LUT),
  // plus the TDM slot table and per-port control.
  const std::int64_t mux_luts = kWidth * (nodes - 1) / 2 + 1;
  const std::int64_t slot_table = 8 * nodes;  // schedule storage addressing
  e.luts = static_cast<std::int64_t>(nodes) * (mux_luts + slot_table + 40);
  // Output registers + schedule counters.
  e.ffs = static_cast<std::int64_t>(nodes) * (kWidth + 32);
  return e;
}

}  // namespace

std::vector<InterconnectComparison> compare_interconnects(
    const std::vector<int>& node_counts) {
  std::vector<InterconnectComparison> out;
  out.reserve(node_counts.size());
  for (int n : node_counts) {
    InterconnectComparison c;
    c.nodes = n;
    c.ring = estimate_dual_ring(n).to_cost();
    c.crossbar = estimate_tdm_crossbar(n).to_cost();
    c.crossbar_over_ring = static_cast<double>(c.crossbar.luts) /
                           static_cast<double>(c.ring.luts);
    out.push_back(c);
  }
  return out;
}

SharingComparison compare_sharing(
    const std::vector<AcceleratorDemand>& demands) {
  ACC_EXPECTS(!demands.empty());
  SharingComparison out;
  for (const AcceleratorDemand& d : demands) {
    ACC_EXPECTS(d.copies_needed >= 1);
    out.non_shared = out.non_shared + d.copies_needed * published_cost(d.type);
    out.shared = out.shared + published_cost(d.type);
  }
  out.shared = out.shared + published_cost(Component::kGatewayPair);
  out.savings = {out.non_shared.slices - out.shared.slices,
                 out.non_shared.luts - out.shared.luts};
  out.slice_saving_pct = 100.0 * static_cast<double>(out.savings.slices) /
                         static_cast<double>(out.non_shared.slices);
  out.lut_saving_pct = 100.0 * static_cast<double>(out.savings.luts) /
                       static_cast<double>(out.non_shared.luts);
  return out;
}

SharingComparison paper_case_study() {
  return compare_sharing({{Component::kFirDownsampler, 4},
                          {Component::kCordic, 4}});
}

}  // namespace acc::hwcost
