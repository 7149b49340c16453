#include "ctrl/mode_change.hpp"

#include "common/check.hpp"

namespace acc::ctrl {

ModeChangeProtocol::ModeChangeProtocol(const ModeChangeConfig& cfg)
    : cfg_(cfg) {
  ACC_EXPECTS(cfg_.sys != nullptr && cfg_.entry != nullptr);
  ACC_EXPECTS(!cfg_.accels.empty());
  ACC_EXPECTS(cfg_.quiesce_chunk >= 1 && cfg_.max_quiesce >= 1);
  m_count_ = obs::make_counter(cfg_.metrics, "ctrl.modechange.count");
  m_cycles_ = obs::make_histogram(cfg_.metrics, "ctrl.modechange.cycles",
                                  obs::pow2_bounds(16, 8));
}

sim::Cycle ModeChangeProtocol::quiesce() {
  const sim::Cycle start = cfg_.sys->now();
  // Fixed-size chunks: every stepper advances through the identical cycle
  // boundaries and observes the identical resting states, so the
  // transition point is bit-identical across kDense and kWakeList.
  while (!cfg_.entry->is_idle()) {
    ACC_CHECK_MSG(cfg_.sys->now() - start <= cfg_.max_quiesce,
                  "mode change failed to quiesce within budget");
    cfg_.sys->run_with(cfg_.stepper, cfg_.quiesce_chunk);
  }
  return cfg_.sys->now() - start;
}

sim::Cycle ModeChangeProtocol::join(
    const sim::StreamRoute& route,
    std::vector<std::unique_ptr<accel::StreamKernel>> kernels) {
  ACC_EXPECTS_MSG(kernels.size() == cfg_.accels.size(),
                  "mode change needs one kernel per accelerator tile");
  const sim::Cycle start = cfg_.sys->now();
  quiesce();
  cfg_.entry->pause();
  if (cfg_.trace != nullptr)
    cfg_.trace->record(cfg_.sys->now(), "ctrl", "modechange.start", route.id);
  for (std::size_t i = 0; i < cfg_.accels.size(); ++i)
    cfg_.accels[i]->register_context(route.id, std::move(kernels[i]));
  // Rebind the C-FIFOs to the admitted block size: the gateway requires
  // alpha0 >= eta and room for one block of output.
  if (route.input->capacity() < route.eta)
    route.input->set_capacity(route.eta);
  if (route.output->capacity() < route.out_per_block)
    route.output->set_capacity(route.out_per_block);
  cfg_.entry->add_stream(route);
  // The modeled config-bus programming window (R_s): admission stays
  // frozen, but real time flows — producers keep filling their C-FIFOs.
  if (route.reconfig > 0) cfg_.sys->run_with(cfg_.stepper, route.reconfig);
  cfg_.entry->resume();
  if (cfg_.trace != nullptr)
    cfg_.trace->record(cfg_.sys->now(), "ctrl", "modechange.done", route.id);
  const sim::Cycle spent = cfg_.sys->now() - start;
  m_count_.add();
  m_cycles_.observe(spent);
  return spent;
}

sim::Cycle ModeChangeProtocol::leave(sim::StreamId id) {
  const sim::Cycle start = cfg_.sys->now();
  quiesce();
  // Look the route's R_s up before it disappears.
  sim::Cycle reconfig = -1;
  for (const sim::StreamRoute& r : cfg_.entry->streams()) {
    if (r.id == id) reconfig = r.reconfig;
  }
  ACC_EXPECTS_MSG(reconfig >= 0, "unknown stream id");
  cfg_.entry->pause();
  if (cfg_.trace != nullptr)
    cfg_.trace->record(cfg_.sys->now(), "ctrl", "modechange.start", id);
  cfg_.entry->remove_stream(id);
  for (sim::AcceleratorTile* a : cfg_.accels) a->unregister_context(id);
  if (reconfig > 0) cfg_.sys->run_with(cfg_.stepper, reconfig);
  cfg_.entry->resume();
  if (cfg_.trace != nullptr)
    cfg_.trace->record(cfg_.sys->now(), "ctrl", "modechange.done", id);
  const sim::Cycle spent = cfg_.sys->now() - start;
  m_count_.add();
  m_cycles_.observe(spent);
  return spent;
}

}  // namespace acc::ctrl
