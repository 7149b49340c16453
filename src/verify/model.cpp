#include "verify/model.hpp"

#include <algorithm>

#include "sharing/analysis.hpp"
#include "sharing/blocksize.hpp"

namespace acc::verify {

namespace {

/// Identity kernel: one output per input, no state.
class Pass final : public accel::StreamKernel {
 public:
  void push(CQ16 in, std::vector<CQ16>& out) override { out.push_back(in); }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {};
  }
  void restore_state(std::span<const std::int32_t>) override {}
  void reset() override {}
  [[nodiscard]] std::size_t state_words() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "verify.pass"; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override {
    return std::make_unique<Pass>();
  }
};

/// Forward every k-th input: realizes an eta -> eta/k block rate. The
/// counter is per-stream context state and round-trips through
/// save_state/restore_state on context switches like any real kernel's.
class Decimate final : public accel::StreamKernel {
 public:
  explicit Decimate(std::int64_t k) : k_(k) { ACC_EXPECTS(k >= 1); }
  void push(CQ16 in, std::vector<CQ16>& out) override {
    if (++n_ == k_) {
      n_ = 0;
      out.push_back(in);
    }
  }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {static_cast<std::int32_t>(n_)};
  }
  void restore_state(std::span<const std::int32_t> state) override {
    ACC_EXPECTS(state.size() == 1);
    n_ = state[0];
  }
  void reset() override { n_ = 0; }
  [[nodiscard]] std::size_t state_words() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "verify.decim"; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override {
    return std::make_unique<Decimate>(k_);
  }

 private:
  std::int64_t k_;
  std::int64_t n_ = 0;
};

constexpr struct {
  Mutation m;
  const char* name;
} kMutationNames[] = {
    {Mutation::kPhantomCredit, "phantom_credit"},
    {Mutation::kAdmitOversized, "admit_oversized"},
    {Mutation::kDropNotify, "drop_notify"},
    {Mutation::kSlowAccel, "slow_accel"},
    {Mutation::kLyingHorizon, "lying_horizon"},
    {Mutation::kMidRoundReconfig, "midround_reconfig"},
};

}  // namespace

std::optional<Mutation> mutation_from_string(std::string_view s) {
  for (const auto& e : kMutationNames)
    if (e.name == s) return e.m;
  return std::nullopt;
}

bool ModelSpec::has(Mutation m) const {
  return std::find(mutations.begin(), mutations.end(), m) != mutations.end();
}

bool build_model_spec(const json::Value& doc, const lint::LintInput& in,
                      ModelSpec& out, lint::LintReport& rep) {
  if (!in.spec.has_value()) {
    rep.add("C01", "$", "no system spec to build a verification model from");
    return false;
  }
  out.spec = *in.spec;
  out.etas = in.etas;
  const std::size_t n_streams = out.spec.num_streams();

  const json::Value* sec =
      doc.is_object() ? doc.find("verify") : nullptr;
  if (sec != nullptr && !sec->is_object()) {
    rep.add("C01", "$.verify", "\"verify\" must be an object");
    return false;
  }
  bool ok = true;
  const auto budget = [&](const char* key, std::int64_t lo, std::int64_t hi,
                          std::int64_t* dst) {
    const json::Value* v = sec != nullptr ? sec->find(key) : nullptr;
    if (v == nullptr) return;
    if (!v->is_int() || v->as_int() < lo || v->as_int() > hi) {
      rep.add("C01", std::string("$.verify.") + key,
              std::string("\"") + key + "\" must be an integer in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]");
      ok = false;
      return;
    }
    *dst = v->as_int();
  };
  budget("depth", 1, 64, &out.depth);
  budget("states", 1, 1000000, &out.states);
  budget("max_advance", 1, 100000000, &out.max_advance);

  if (const json::Value* etas = sec != nullptr ? sec->find("etas") : nullptr) {
    if (!etas->is_array() || etas->as_array().size() != n_streams) {
      rep.add("C01", "$.verify.etas",
              "\"etas\" must be an array with one block size per stream");
      return false;
    }
    out.etas.clear();
    for (std::size_t i = 0; i < etas->as_array().size(); ++i) {
      const json::Value& e = etas->as_array()[i];
      if (!e.is_int() || e.as_int() < 1) {
        rep.add("C01", "$.verify.etas[" + std::to_string(i) + "]",
                "model block sizes must be positive integers");
        return false;
      }
      out.etas.push_back(e.as_int());
    }
  }
  if (out.etas.empty()) {
    // No explicit block sizes anywhere: model the Algorithm 1 minimum.
    const sharing::BlockSizeResult sol =
        sharing::solve_block_sizes_fixpoint(out.spec);
    if (!sol.feasible) {
      rep.add("C01", "$.verify",
              "no model block sizes: config has no \"etas\" and Algorithm 1 "
              "is infeasible for this spec",
              "add \"etas\" to the verify section");
      return false;
    }
    out.etas = sol.eta;
  }

  out.block_out.assign(n_streams, 0);
  for (std::size_t s = 0; s < n_streams; ++s) {
    const std::int64_t eta = out.etas[s];
    std::int64_t bo = eta;  // default: no rate change through the chain
    if (s < in.block_out.size() && in.block_out[s] > 0) {
      const std::int64_t bo_decl = in.block_out[s];
      if (s < in.etas.size() && in.etas[s] > 0 && in.etas[s] % bo_decl == 0) {
        // The config declares block_out at ITS block size; what carries
        // over to a (possibly smaller) model block is the decimation
        // RATIO, not the absolute output count.
        const std::int64_t ratio = in.etas[s] / bo_decl;
        if (eta % ratio != 0) {
          rep.add("C01", "$.verify.etas[" + std::to_string(s) + "]",
                  "model eta " + std::to_string(eta) +
                      " is not a multiple of stream " + std::to_string(s) +
                      "'s decimation ratio " + std::to_string(ratio));
          return false;
        }
        bo = eta / ratio;
      } else {
        bo = bo_decl;
      }
    }
    if (bo < 1 || bo > eta || eta % bo != 0) {
      rep.add("C01", "$.verify.etas[" + std::to_string(s) + "]",
              "cannot build a verification model: block_out " +
                  std::to_string(bo) + " does not evenly divide eta " +
                  std::to_string(eta) + " for stream " + std::to_string(s));
      return false;
    }
    out.block_out[s] = bo;
  }

  if (const json::Value* muts =
          sec != nullptr ? sec->find("mutations") : nullptr) {
    if (!muts->is_array()) {
      rep.add("C01", "$.verify.mutations",
              "\"mutations\" must be an array of mutation names");
      return false;
    }
    for (std::size_t i = 0; i < muts->as_array().size(); ++i) {
      const json::Value& m = muts->as_array()[i];
      const std::optional<Mutation> mut =
          m.is_string() ? mutation_from_string(m.as_string()) : std::nullopt;
      if (!mut.has_value()) {
        rep.add("C01", "$.verify.mutations[" + std::to_string(i) + "]",
                "unknown mutation" +
                    (m.is_string() ? " '" + m.as_string() + "'" : ""),
                "one of: phantom_credit, admit_oversized, drop_notify, "
                "slow_accel, lying_horizon, midround_reconfig");
        ok = false;
      } else {
        out.mutations.push_back(*mut);
      }
    }
  }
  if (out.has(Mutation::kMidRoundReconfig) && n_streams == 0) {
    rep.add("C01", "$.verify.mutations",
            "midround_reconfig needs at least one stream to reconfigure");
    return false;
  }
  if (out.has(Mutation::kAdmitOversized)) {
    for (std::size_t s = 0; s < n_streams; ++s) {
      if (out.etas[s] < 2) {
        rep.add("C01", "$.verify.mutations",
                "admit_oversized needs every model eta >= 2");
        return false;
      }
    }
  }
  return ok;
}

Model::Model(const ModelSpec& spec)
    : ms(spec),
      sys(static_cast<std::int32_t>(spec.spec.chain.num_accelerators()) + 2),
      trace(1 << 16),
      fault(/*seed=*/1) {
  const std::size_t n = ms.spec.chain.num_accelerators();
  const sim::Cycle c0 =
      sharing::bottleneck_cycles_per_sample(ms.spec.chain);

  sim::ChainConfig cfg;
  cfg.name = "verify";
  cfg.base_node = 0;
  cfg.accel_cycles.clear();
  for (const sharing::Time rho : ms.spec.chain.accel_cycles_per_sample) {
    // kSlowAccel: the implementation is 4x slower than the BOTTLENECK the
    // Eq. 2 analysis assumed (4x rho alone could hide below epsilon/delta).
    cfg.accel_cycles.push_back(ms.has(Mutation::kSlowAccel) ? 4 * c0 : rho);
  }
  cfg.epsilon = ms.spec.chain.entry_cycles_per_sample;
  cfg.delta = ms.spec.chain.exit_cycles_per_sample;
  cfg.ni_capacity = ms.spec.chain.ni_capacity;
  cfg.exit_notify_lag = 4;
  cfg.trace = &trace;
  chain = sim::build_gateway_chain(sys, cfg);

  if (ms.has(Mutation::kDropNotify)) {
    // Deterministic, total notification loss with no retry policy. Wired
    // directly into the exit gateway — NOT through ChainConfig::fault, so
    // the rings and the entry stay fault-free and deterministic.
    sim::FaultSpec fs;
    fs.drop_probability = 1.0;
    fault.configure(sim::FaultSite::kExitNotify, fs);
    chain.exit->set_fault(&fault);
  }

  for (std::size_t s = 0; s < ms.spec.num_streams(); ++s) {
    const std::int64_t eta = ms.etas[s];
    const std::int64_t bo = ms.block_out[s];
    sim::CFifo& in = sys.add_fifo("in" + std::to_string(s), eta * 4);
    sim::CFifo& out = sys.add_fifo("out" + std::to_string(s), bo * 4);
    inputs.push_back(&in);
    outputs.push_back(&out);

    // kAdmitOversized: the route under-declares the block's output (the
    // kernels still produce eta samples), so the exit gateway is armed for
    // fewer samples than will arrive.
    const bool oversized = ms.has(Mutation::kAdmitOversized);
    const std::int64_t route_out = oversized ? eta - 1 : bo;
    const std::int64_t k = oversized ? 1 : eta / bo;

    std::vector<std::unique_ptr<accel::StreamKernel>> kernels;
    for (std::size_t a = 0; a < n; ++a) {
      if (a + 1 == n && k > 1)
        kernels.push_back(std::make_unique<Decimate>(k));
      else
        kernels.push_back(std::make_unique<Pass>());
    }
    sim::StreamRoute route;
    route.id = static_cast<sim::StreamId>(s);
    route.name = ms.spec.streams[s].name;
    route.eta = eta;
    route.out_per_block = route_out;
    route.input = &in;
    route.output = &out;
    route.reconfig = ms.spec.streams[s].reconfig;
    chain.add_stream(route, std::move(kernels));
  }

  if (ms.has(Mutation::kPhantomCredit)) {
    // One credit more than the downstream NI has slots: V02's conservation
    // equation is off by one from cycle 0 onward.
    const auto n32 = static_cast<std::int32_t>(n);
    const std::int32_t down = n32 > 1 ? 2 : n32 + 1;
    chain.accels[0]->set_downstream(down, /*tag=*/2,
                                    ms.spec.chain.ni_capacity + 1);
  }
  if (ms.has(Mutation::kLyingHorizon)) sys.add<LyingClock>();
  if (ms.has(Mutation::kMidRoundReconfig)) {
    // The rogue agent targets the first accelerator's first stream context:
    // the context is always registered (>= 1 stream is enforced at spec
    // build time), and the swap fires on the first non-drained tick.
    sys.add<MidRoundSwapper>(chain.accels[0], sim::StreamId{0});
  }
}

}  // namespace acc::verify
