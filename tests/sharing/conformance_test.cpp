#include "sharing/conformance.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "accel/kernel.hpp"
#include "sharing/analysis.hpp"
#include "sim/chain_builder.hpp"
#include "sim/proc_tile.hpp"

namespace acc::sharing {
namespace {

class Pass final : public accel::StreamKernel {
 public:
  void push(CQ16 s, std::vector<CQ16>& o) override { o.push_back(s); }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {};
  }
  void restore_state(std::span<const std::int32_t>) override {}
  void reset() override {}
  [[nodiscard]] std::size_t state_words() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "p"; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override {
    return std::make_unique<Pass>();
  }
};

std::vector<std::unique_ptr<accel::StreamKernel>> one_pass() {
  std::vector<std::unique_ptr<accel::StreamKernel>> v;
  v.push_back(std::make_unique<Pass>());
  return v;
}

/// A live two-stream system whose trace must conform to its own model.
TEST(Conformance, LiveSystemTraceConforms) {
  SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample = {1};
  spec.chain.entry_cycles_per_sample = 2;
  spec.chain.exit_cycles_per_sample = 1;
  spec.streams = {{"s0", Rational(1, 16), 20}, {"s1", Rational(1, 16), 20}};
  const std::vector<std::int64_t> etas{16, 16};

  sim::System sys(4);
  sim::ChainConfig cfg;
  cfg.accel_cycles = {1};
  cfg.epsilon = 2;
  sim::GatewayChain chain = sim::build_gateway_chain(sys, cfg);
  sim::TraceLog trace;
  chain.entry->set_trace(&trace);

  sim::CFifo& in0 = sys.add_fifo("in0", 64);
  sim::CFifo& in1 = sys.add_fifo("in1", 64);
  sim::CFifo& out0 = sys.add_fifo("out0", 1024, 0, 0);
  sim::CFifo& out1 = sys.add_fifo("out1", 1024, 0, 0);
  chain.add_stream({0, "s0", 16, 16, &in0, &out0, 20}, one_pass());
  chain.add_stream({1, "s1", 16, 16, &in1, &out1, 20}, one_pass());
  std::vector<sim::Flit> payload(128);
  std::iota(payload.begin(), payload.end(), sim::Flit{1});
  sys.add<sim::SourceTile>("src0", in0, payload, 16);
  sys.add<sim::SourceTile>("src1", in1, payload, 16);
  sys.run(128 * 16 + 4000);

  const ConformanceReport rep = check_conformance(spec, etas, trace);
  EXPECT_TRUE(rep.conforms);
  EXPECT_GE(rep.blocks_checked, 14);
  EXPECT_TRUE(rep.violations.empty());
}

TEST(Conformance, DetectsServiceTimeViolation) {
  SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample = {1};
  spec.chain.entry_cycles_per_sample = 2;
  spec.chain.exit_cycles_per_sample = 1;
  spec.streams = {{"s0", Rational(1, 16), 20}};
  // Hand-crafted trace: the block takes far longer than tau_hat.
  sim::TraceLog trace;
  trace.record(0, "gw", "admit", 0);
  trace.record(100000, "gw", "block.done", 0);
  const ConformanceReport rep = check_conformance(spec, {16}, trace);
  EXPECT_FALSE(rep.conforms);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].rule, "tau_hat");
}

TEST(Conformance, DetectsOrphanCompletion) {
  SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample = {1};
  spec.chain.entry_cycles_per_sample = 2;
  spec.chain.exit_cycles_per_sample = 1;
  spec.streams = {{"s0", Rational(1, 16), 20}};
  sim::TraceLog trace;
  trace.record(50, "gw", "block.done", 0);  // no admit
  const ConformanceReport rep = check_conformance(spec, {16}, trace);
  EXPECT_FALSE(rep.conforms);
}

TEST(Conformance, RejectsCompletionOfAStreamOutsideTheSpec) {
  // A stream id the spec does not have must be refused before it indexes
  // the per-stream block sizes.
  SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample = {1};
  spec.chain.entry_cycles_per_sample = 2;
  spec.chain.exit_cycles_per_sample = 1;
  spec.streams = {{"s0", Rational(1, 16), 20}};
  const auto past_end = static_cast<std::int64_t>(spec.num_streams());
  for (const std::int64_t id : {past_end, std::int64_t{-1}}) {
    SCOPED_TRACE("stream " + std::to_string(id));
    sim::TraceLog trace;
    trace.record(0, "gw", "admit", id);
    trace.record(60, "gw", "block.done", id);
    EXPECT_THROW((void)check_conformance(spec, {16}, trace),
                 precondition_error);
  }
}

TEST(Conformance, DetectsRoundRobinViolation) {
  SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample = {1};
  spec.chain.entry_cycles_per_sample = 2;
  spec.chain.exit_cycles_per_sample = 1;
  spec.streams = {{"s0", Rational(1, 32), 20}, {"s1", Rational(1, 32), 20}};
  sim::TraceLog trace;
  // Stream 1 served twice between services of stream 0.
  trace.record(0, "gw", "admit", 0);
  trace.record(60, "gw", "block.done", 0);
  trace.record(61, "gw", "admit", 1);
  trace.record(120, "gw", "block.done", 1);
  trace.record(121, "gw", "admit", 1);
  trace.record(180, "gw", "block.done", 1);
  trace.record(181, "gw", "admit", 0);
  const ConformanceReport rep = check_conformance(spec, {8, 8}, trace);
  EXPECT_FALSE(rep.conforms);
  bool found = false;
  for (const auto& v : rep.violations) found |= v.rule == "round_robin";
  EXPECT_TRUE(found);
}

// --- Covered-by-slack vs genuine-breach classification ------------------

SharedSystemSpec one_stream_spec() {
  SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample = {1};
  spec.chain.entry_cycles_per_sample = 2;
  spec.chain.exit_cycles_per_sample = 1;
  spec.streams = {{"s0", Rational(1, 16), 20}};
  return spec;
}

TEST(ConformanceClassification, ExcessWithinFaultSlackIsCovered) {
  const SharedSystemSpec spec = one_stream_spec();
  const Time bound = tau_hat(spec, 0, 16);
  ConformanceOptions opts;
  opts.slack = 16;
  opts.fault_slack = 100;
  sim::TraceLog trace;
  trace.record(0, "gw", "admit", 0);
  trace.record(bound + opts.slack + 40, "gw", "block.done", 0);  // excess 40
  const ConformanceReport rep = check_conformance(spec, {16}, trace, opts);
  // Still a violation of the zero-fault model...
  EXPECT_FALSE(rep.conforms);
  ASSERT_EQ(rep.violations.size(), 1u);
  // ...but the declared fault envelope explains it.
  EXPECT_TRUE(rep.violations[0].covered_by_slack);
  EXPECT_EQ(rep.violations[0].excess, 40);
  EXPECT_EQ(rep.covered_by_slack, 1);
  EXPECT_EQ(rep.genuine_breaches, 0);
  EXPECT_EQ(rep.max_excess, 40);
}

TEST(ConformanceClassification, ExcessBeyondFaultSlackIsGenuine) {
  const SharedSystemSpec spec = one_stream_spec();
  const Time bound = tau_hat(spec, 0, 16);
  ConformanceOptions opts;
  opts.slack = 16;
  opts.fault_slack = 100;
  sim::TraceLog trace;
  trace.record(0, "gw", "admit", 0);
  trace.record(bound + opts.slack + 101, "gw", "block.done", 0);
  const ConformanceReport rep = check_conformance(spec, {16}, trace, opts);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_FALSE(rep.violations[0].covered_by_slack);
  EXPECT_EQ(rep.covered_by_slack, 0);
  EXPECT_EQ(rep.genuine_breaches, 1);
}

TEST(ConformanceClassification, OrphanCompletionIsAlwaysGenuine) {
  const SharedSystemSpec spec = one_stream_spec();
  ConformanceOptions opts;
  opts.fault_slack = 1 << 20;  // no envelope excuses a phantom block
  sim::TraceLog trace;
  trace.record(50, "gw", "block.done", 0);
  const ConformanceReport rep = check_conformance(spec, {16}, trace, opts);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_FALSE(rep.violations[0].covered_by_slack);
  EXPECT_EQ(rep.genuine_breaches, 1);
}

TEST(ConformanceClassification, LegacyOverloadMeansZeroFaultSlack) {
  const SharedSystemSpec spec = one_stream_spec();
  const Time bound = tau_hat(spec, 0, 16);
  sim::TraceLog trace;
  trace.record(0, "gw", "admit", 0);
  trace.record(bound + 16 + 40, "gw", "block.done", 0);
  // Legacy call site: every violation counts as genuine.
  const ConformanceReport rep = check_conformance(spec, {16}, trace, 16);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_FALSE(rep.violations[0].covered_by_slack);
  EXPECT_EQ(rep.genuine_breaches, 1);
  EXPECT_EQ(rep.covered_by_slack, 0);
}

}  // namespace
}  // namespace acc::sharing
