#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "sharing/report.hpp"
#include "sharing/serialize.hpp"

namespace acc::sharing {
namespace {

SharedSystemSpec small_system() {
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1, 2};
  sys.chain.entry_cycles_per_sample = 3;
  sys.chain.exit_cycles_per_sample = 1;
  sys.chain.ni_capacity = 2;
  sys.streams = {{"a", Rational(1, 20), 50}, {"b", Rational(1, 32), 40}};
  return sys;
}

TEST(SpecSerialize, RoundTrip) {
  const SharedSystemSpec sys = small_system();
  const SharedSystemSpec copy = spec_from_string(spec_to_string(sys));
  EXPECT_EQ(copy.chain.accel_cycles_per_sample,
            sys.chain.accel_cycles_per_sample);
  EXPECT_EQ(copy.chain.entry_cycles_per_sample,
            sys.chain.entry_cycles_per_sample);
  EXPECT_EQ(copy.chain.exit_cycles_per_sample,
            sys.chain.exit_cycles_per_sample);
  EXPECT_EQ(copy.chain.ni_capacity, sys.chain.ni_capacity);
  ASSERT_EQ(copy.streams.size(), sys.streams.size());
  for (std::size_t s = 0; s < sys.streams.size(); ++s) {
    EXPECT_EQ(copy.streams[s].name, sys.streams[s].name);
    EXPECT_EQ(copy.streams[s].mu, sys.streams[s].mu);
    EXPECT_EQ(copy.streams[s].reconfig, sys.streams[s].reconfig);
  }
}

TEST(SpecSerialize, DefaultsAndValidation) {
  // ni_capacity is optional.
  const SharedSystemSpec sys = spec_from_string(R"({
    "chain": {"accelerators": [1], "entry": 2, "exit": 1},
    "streams": [{"name": "s", "mu_num": 1, "mu_den": 10, "reconfig": 5}]
  })");
  EXPECT_EQ(sys.chain.ni_capacity, 2);
  // Malformed specs rejected.
  EXPECT_THROW((void)spec_from_string("{}"), precondition_error);
  EXPECT_THROW((void)spec_from_string(R"({
    "chain": {"accelerators": [], "entry": 2, "exit": 1},
    "streams": [{"name": "s", "mu_num": 1, "mu_den": 10, "reconfig": 5}]
  })"),
               precondition_error);
  EXPECT_THROW((void)spec_from_string(R"({
    "chain": {"accelerators": [1], "entry": 2, "exit": 1},
    "streams": []
  })"),
               precondition_error);
}

TEST(Report, AnalyzesSchedulableSystem) {
  const SystemReport rep = analyze_system(small_system());
  ASSERT_TRUE(rep.schedulable);
  EXPECT_TRUE(rep.solvers_agree);
  EXPECT_LT(rep.utilization, Rational(1));
  ASSERT_EQ(rep.streams.size(), 2u);
  for (const StreamReport& s : rep.streams) {
    EXPECT_GE(s.guaranteed_rate, s.mu);
    EXPECT_GT(s.eta, 0);
    ASSERT_TRUE(s.buffers.has_value());
    EXPECT_TRUE(s.buffers->feasible);
    EXPECT_GE(s.buffers->alpha0, s.eta);
  }
  // The derived law slope is the bottleneck cost.
  EXPECT_EQ(rep.law_slope, 3);
}

TEST(Report, FlagsUnschedulableSystem) {
  SharedSystemSpec sys = small_system();
  sys.streams[0].mu = Rational(1, 3);  // utilization 3*(1/3 + 1/32) > 1
  const SystemReport rep = analyze_system(sys);
  EXPECT_FALSE(rep.schedulable);
  const std::string md = rep.to_markdown(sys);
  EXPECT_NE(md.find("NOT SCHEDULABLE"), std::string::npos);
}

TEST(Report, MarkdownContainsKeyNumbers) {
  const SharedSystemSpec sys = small_system();
  const SystemReport rep = analyze_system(sys);
  const std::string md = rep.to_markdown(sys);
  EXPECT_NE(md.find("# Shared-accelerator design report"), std::string::npos);
  EXPECT_NE(md.find("gamma_hat"), std::string::npos);
  EXPECT_NE(md.find("tau(eta) = 3*eta"), std::string::npos);
  for (const StreamReport& s : rep.streams)
    EXPECT_NE(md.find(s.name), std::string::npos);
}

TEST(Report, BufferSizingCanBeSkipped) {
  ReportOptions opt;
  opt.size_buffers = false;
  const SystemReport rep = analyze_system(small_system(), opt);
  ASSERT_TRUE(rep.schedulable);
  for (const StreamReport& s : rep.streams)
    EXPECT_FALSE(s.buffers.has_value());
}

TEST(Report, QuickstartConfigSizesBlocksAndBuffers) {
  // The two radios on a CORDIC -> FIR chain that the README's quick tour
  // sizes with `accshare_analyze examples/configs/quickstart.json`.
  std::ifstream in(ACC_EXAMPLE_CONFIG_DIR "/quickstart.json");
  ASSERT_TRUE(in);
  std::stringstream text;
  text << in.rdbuf();
  const SharedSystemSpec sys = spec_from_string(text.str());
  const SystemReport rep = analyze_system(sys);
  ASSERT_TRUE(rep.schedulable);
  EXPECT_TRUE(rep.solvers_agree);
  EXPECT_EQ(rep.utilization, Rational(39, 80));
  EXPECT_EQ(rep.gamma, 16195);
  ASSERT_EQ(rep.streams.size(), 2u);
  EXPECT_EQ(rep.streams[0].eta, 324);
  EXPECT_EQ(rep.streams[1].eta, 203);
  const std::int64_t alpha[] = {648, 406};
  for (std::size_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(rep.streams[s].buffers.has_value());
    EXPECT_EQ(rep.streams[s].buffers->alpha0, alpha[s]);
    EXPECT_EQ(rep.streams[s].buffers->alpha3, alpha[s]);
  }
}

}  // namespace
}  // namespace acc::sharing
