// FPGA hardware-cost model (substitute for Virtex-6 synthesis, see
// DESIGN.md).
//
// Two layers:
//  1. PUBLISHED component costs — the paper's own measurements (its Table I
//     and Fig. 11). Composition over these regenerates Table I exactly.
//  2. STRUCTURAL estimators — first-principles LUT/FF counts from the
//     datapath structure (CORDIC stages, FIR MAC array, ...), mapped to
//     slices with a Virtex-6 packing model. Tests check the estimators land
//     within engineering distance of the published numbers, which validates
//     using the model for what-if composition (more streams, wider chains).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace acc::hwcost {

/// Resource vector on a Virtex-6-class FPGA.
struct FpgaCost {
  std::int64_t slices = 0;
  std::int64_t luts = 0;

  friend FpgaCost operator+(FpgaCost a, FpgaCost b) {
    return {a.slices + b.slices, a.luts + b.luts};
  }
  friend FpgaCost operator*(std::int64_t n, FpgaCost c) {
    return {n * c.slices, n * c.luts};
  }
  friend bool operator==(FpgaCost a, FpgaCost b) = default;
};

/// The components the paper reports (its Fig. 11 / Table I).
enum class Component {
  kFirDownsampler,  // 33-tap complex FIR + programmable down-sampler
  kMicroBlaze,      // RISC core of processor tiles / entry-gateway
  kCordic,          // CORDIC accelerator
  kEntryGateway,    // MicroBlaze + DMA + C-FIFO memory + config-bus master
  kExitGateway,     // hardware DMA converting HW to SW flow control
  kGatewayPair,     // entry + exit together (Table I row 1)
};

[[nodiscard]] std::string component_name(Component c);

/// The paper's published cost of a component. kEntryGateway/kExitGateway/
/// kMicroBlaze are a reconstruction consistent with the published pair
/// total (the scanned Fig. 11 bars are not legible to single-slice
/// precision); kGatewayPair, kFirDownsampler and kCordic are verbatim from
/// Table I.
[[nodiscard]] FpgaCost published_cost(Component c);

// ---- Structural estimators ----

/// Virtex-6 packing: a slice holds 4 LUT6s and 8 FFs, but placement,
/// routing and control sets keep real designs far from full packing.
struct PackingModel {
  double lut_per_slice = 2.9;  // effective LUTs packed per slice
  double ff_per_slice = 5.0;   // effective FFs packed per slice
};

struct StructuralEstimate {
  std::int64_t luts = 0;
  std::int64_t ffs = 0;

  [[nodiscard]] FpgaCost to_cost(const PackingModel& pm = {}) const;
};

/// Unrolled CORDIC pipeline: per stage two W-bit add/sub datapaths for
/// x/y, one for the angle, plus the shifter muxes and stage registers.
[[nodiscard]] StructuralEstimate estimate_cordic(int iterations, int width);

/// Complex FIR with down-sampler: `taps` complex MACs (4 mults + 2 adds
/// each in LUT fabric — the paper's area numbers imply LUT-based
/// multipliers), coefficient storage and the decimation counter.
[[nodiscard]] StructuralEstimate estimate_fir(int taps, int width);

/// MicroBlaze-class 32-bit RISC with caches' control (area-optimized).
[[nodiscard]] StructuralEstimate estimate_microblaze();

/// Simple DMA engine (address generators + FIFO interface).
[[nodiscard]] StructuralEstimate estimate_dma();

/// Ring network interface with credit-based flow control.
[[nodiscard]] StructuralEstimate estimate_ring_ni();

// ---- Interconnect scaling (the paper's related-work cost argument) ----

struct InterconnectComparison {
  int nodes = 0;
  FpgaCost ring;
  FpgaCost crossbar;
  double crossbar_over_ring = 0.0;  // LUT ratio
};

/// Ring vs crossbar across system sizes (64-bit links, every node count
/// >= 2). The full dual ring (data ring + credit ring + one NI per tile)
/// grows LINEARLY in the node count — the reason the paper uses the ring of
/// refs [11]/[14]. A point-to-point switch/crossbar with a pre-computed TDM
/// schedule (PROPHID [9] / Aethereal-style [13]) grows QUADRATICALLY in its
/// crosspoint muxes.
[[nodiscard]] std::vector<InterconnectComparison> compare_interconnects(
    const std::vector<int>& node_counts);

// ---- Composition (Table I) ----

/// One accelerator type that the application instantiates `copies_needed`
/// times when not shared.
struct AcceleratorDemand {
  Component type = Component::kCordic;
  std::int64_t copies_needed = 1;
};

struct SharingComparison {
  FpgaCost non_shared;  // copies_needed instances of every accelerator
  FpgaCost shared;      // one instance of each + one gateway pair
  FpgaCost savings;
  double slice_saving_pct = 0.0;
  double lut_saving_pct = 0.0;
};

/// The Table I computation: dedicated copies vs gateway-shared single
/// instances.
[[nodiscard]] SharingComparison compare_sharing(
    const std::vector<AcceleratorDemand>& demands);

/// The paper's exact scenario: 4x (FIR+DS) + 4x CORDIC vs shared.
[[nodiscard]] SharingComparison paper_case_study();

}  // namespace acc::hwcost
