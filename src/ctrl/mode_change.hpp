// Live mode-change orchestration: executing an accepted admission (or a
// departure) on the RUNNING simulator without disturbing the streams that
// stay (ISSUE 10 tentpole).
//
// State machine per transition (docs/control_plane.md has the diagram):
//
//   Quiesce  -- chunked stepping until the entry-gateway reaches its kIdle
//               resting state with the pipeline drained (the exit-gateway's
//               idle notification marks the round boundary)
//   Freeze   -- EntryGateway::pause(): admission stays off while the
//               configuration bus is being reprogrammed
//   Program  -- register/unregister per-stream accelerator contexts, resize
//               and rebind C-FIFOs, add/remove the gateway route; then run
//               the simulator for the stream's modeled R_s cycles (the
//               config-bus programming window — real time keeps flowing for
//               everyone else)
//   Resume   -- EntryGateway::resume(): the round-robin scan restarts
//
// The property-tested invariant: streams admitted before the transition
// miss no deadlines and produce bit-identical audio up to the transition
// point, under every stepper (tests/ctrl/mode_change_test.cpp).
#pragma once

#include <memory>
#include <vector>

#include "accel/kernel.hpp"
#include "obs/metrics.hpp"
#include "sim/gateway.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace acc::ctrl {

struct ModeChangeConfig {
  sim::System* sys = nullptr;
  sim::EntryGateway* entry = nullptr;
  /// The gateway's accelerator chain, in chain order (context targets).
  std::vector<sim::AcceleratorTile*> accels;
  /// Stepper used for the quiesce polling and the R_s programming window.
  /// Chunked run_with keeps the transition bit-identical across steppers.
  sim::StepperKind stepper = sim::StepperKind::kWakeList;
  sim::Cycle quiesce_chunk = 64;
  /// Hard budget on one quiesce (a chain that never drains is a protocol
  /// violation, not a slow day): exceeded => invariant_error.
  sim::Cycle max_quiesce = 4'000'000;
  sim::TraceLog* trace = nullptr;
  /// Opt-in metrics: ctrl.modechange.count + ctrl.modechange.cycles
  /// histogram (pow2 buckets of whole-transition reconfiguration cost).
  obs::MetricsRegistry* metrics = nullptr;
};

class ModeChangeProtocol {
 public:
  explicit ModeChangeProtocol(const ModeChangeConfig& cfg);

  /// Execute an accepted join live: quiesce, freeze admission, register
  /// `kernels` (one per accelerator, chain order) as stream contexts, grow
  /// the route's C-FIFOs to the block size if needed, add the route, charge
  /// the modeled R_s programming window, resume. Returns cycles spent in
  /// the whole transition (quiesce included).
  sim::Cycle join(const sim::StreamRoute& route,
                  std::vector<std::unique_ptr<accel::StreamKernel>> kernels);

  /// Execute a departure live: quiesce, freeze admission, drop the gateway
  /// route and every accelerator context of `id`, charge the stream's R_s,
  /// resume. The stream's C-FIFOs stay owned by the System (their watchers
  /// are deliberately not unhooked — stale wakes are harmless).
  sim::Cycle leave(sim::StreamId id);

  /// Chunked-poll the simulator until the entry-gateway reaches its
  /// quiesced resting state (round boundary). Returns cycles spent.
  sim::Cycle quiesce();

 private:
  ModeChangeConfig cfg_;
  obs::Counter m_count_;
  obs::Histogram m_cycles_;
};

}  // namespace acc::ctrl
