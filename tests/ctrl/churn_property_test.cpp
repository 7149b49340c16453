// Control-plane properties (ISSUE 10):
//  - both cycle-exact steppers stay bit-identical through a full
//    seeded join/leave churn trace (digests, audio checksums, decisions);
//  - the BENCH_admission.json document is byte-identical across --jobs;
//  - a rejected admission is a no-op on the running system: consulting the
//    controller for a doomed candidate mid-stream leaves the admitted
//    streams' cycle-exact state (and hence their audio) untouched.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "app/admission_churn.hpp"
#include "ctrl/admission.hpp"
#include "ctrl/mode_change.hpp"
#include "sim/chain_builder.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"

#include "../support/random_chain.hpp"

namespace acc {
namespace {

app::ChurnConfig test_config(std::int32_t events) {
  app::ChurnConfig cfg = app::small_churn_config();
  cfg.workload.events = events;
  return cfg;
}

TEST(ChurnProperty, SteppersStayBitIdenticalThroughChurn) {
  const app::ChurnResult res = app::run_churn_campaign(test_config(80));
  ASSERT_EQ(res.runs.size(), 2u);
  EXPECT_TRUE(res.equivalent);
  const app::ChurnRunResult& ref = res.runs.back();
  EXPECT_EQ(ref.stepper, sim::StepperKind::kWakeList);
  for (const app::ChurnRunResult& r : res.runs) {
    EXPECT_EQ(r.cycles_run, ref.cycles_run);
    EXPECT_EQ(r.digest, ref.digest);
    EXPECT_EQ(r.audio_checksum, ref.audio_checksum);
    EXPECT_EQ(r.deadline_misses, 0);
    ASSERT_EQ(r.decisions.size(), ref.decisions.size());
  }
  EXPECT_GT(ref.mode_changes, 0);
  EXPECT_GT(ref.samples_delivered, 0);
}

TEST(ChurnProperty, BenchDocIsByteIdenticalAcrossJobs) {
  app::ChurnConfig one = test_config(60);
  one.jobs = 1;
  app::ChurnConfig three = test_config(60);
  three.jobs = 3;
  const app::ChurnResult ra = app::run_churn_campaign(one);
  const app::ChurnResult rb = app::run_churn_campaign(three);
  EXPECT_EQ(app::admission_bench_doc(one, ra).pretty(),
            app::admission_bench_doc(three, rb).pretty());
}

/// One admitted stream fed end to end; `probe_rejection` additionally asks
/// the controller mid-stream about a candidate that saturates the
/// bottleneck (always rejected). Returns the final cycle-exact digest.
std::uint64_t run_with_probe(bool probe_rejection) {
  sim::System sys(3);
  sim::ChainConfig ccfg;
  ccfg.name = "noop";
  ccfg.base_node = 0;
  ccfg.accel_cycles = {1};
  ccfg.epsilon = 2;
  ccfg.delta = 1;
  ccfg.ni_capacity = 2;
  ccfg.exit_notify_lag = 4;
  sim::GatewayChain chain = sim::build_gateway_chain(sys, ccfg);

  ctrl::AdmissionConfig acfg;
  acfg.chain.accel_cycles_per_sample = {1};
  acfg.chain.entry_cycles_per_sample = 2;
  acfg.chain.exit_cycles_per_sample = 1;
  acfg.chain.ni_capacity = 2;
  ctrl::AdmissionController ctl(acfg);

  ctrl::ModeChangeConfig mcfg;
  mcfg.sys = &sys;
  mcfg.entry = chain.entry;
  mcfg.accels = chain.accels;
  ctrl::ModeChangeProtocol protocol(mcfg);

  const ctrl::StreamRequest req{"a", Rational(1, 16), 20};
  const ctrl::AdmissionDecision d = ctl.admit({}, req);
  EXPECT_TRUE(d.accepted);

  sim::CFifo& in = sys.add_fifo("a.in", d.eta * 4);
  sim::CFifo& out = sys.add_fifo("a.out", 32);
  sim::StreamRoute route;
  route.id = 0;
  route.name = "a";
  route.eta = d.eta;
  route.out_per_block = d.eta;
  route.input = &in;
  route.output = &out;
  route.reconfig = 20;
  protocol.join(route, sim::testsupport::passes(1));

  std::vector<sim::Flit> samples;
  for (std::uint64_t j = 0; j < 16; ++j) samples.push_back(j * 2654435761u);
  auto& src = sys.add<sim::SourceTile>("a.src", in, samples,
                                       /*period=*/16, sys.now() + 16);

  sys.run_with(sim::StepperKind::kWakeList, 1000);
  if (probe_rejection) {
    std::vector<ctrl::StreamRequest> active{req};
    active[0].eta = d.eta;
    const ctrl::AdmissionDecision doomed =
        ctl.admit(active, {"hog", Rational(1, 1), 20});
    EXPECT_FALSE(doomed.accepted);
    EXPECT_EQ(doomed.reason, "utilization");
  }
  sys.run_with(sim::StepperKind::kWakeList, 4000);

  EXPECT_TRUE(src.exhausted());
  EXPECT_EQ(src.dropped(), 0);
  EXPECT_EQ(out.fill_visible(sys.now()), 16);
  return sys.state_digest();
}

TEST(ChurnProperty, RejectedAdmissionIsANoOpOnAdmittedStreams) {
  EXPECT_EQ(run_with_probe(false), run_with_probe(true));
}

}  // namespace
}  // namespace acc
