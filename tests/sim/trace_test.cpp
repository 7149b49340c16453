#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "accel/kernel.hpp"
#include "common/json.hpp"
#include "obs/chrome_trace.hpp"
#include "sim/gateway.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"

namespace acc::sim {
namespace {

TEST(TraceLog, RecordsAndFilters) {
  TraceLog log;
  log.record(1, "gw", "admit", 0);
  log.record(2, "acc", "ctx.switch", 0);
  log.record(5, "gw", "block.done", 0);
  EXPECT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.from("gw").size(), 2u);
  EXPECT_EQ(log.of("ctx.switch").size(), 1u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceLog, CsvFormat) {
  TraceLog log;
  log.record(7, "gw", "admit", 3);
  const std::string csv = log.to_csv();
  EXPECT_NE(csv.find("cycle,source,event,value\n"), std::string::npos);
  EXPECT_NE(csv.find("7,gw,admit,3\n"), std::string::npos);
}

TEST(TraceLog, BoundedCapacityDropsAndCounts) {
  TraceLog log(2);
  log.record(1, "a", "x");
  log.record(2, "a", "x");
  log.record(3, "a", "x");
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_TRUE(log.truncated());
}

TEST(TraceLog, CsvMarksTruncation) {
  TraceLog log(2);
  log.record(1, "a", "x", 0);
  log.record(4, "a", "x", 0);
  log.record(9, "a", "x", 0);
  log.record(9, "a", "x", 0);
  ASSERT_TRUE(log.truncated());
  const std::string csv = log.to_csv();
  // Marker row: last retained cycle, synthetic source/event, dropped count.
  EXPECT_NE(csv.find("4,trace,truncated,2\n"), std::string::npos);
  // The marker is the final line so the CSV stays cycle-sorted.
  const auto pos = csv.rfind("4,trace,truncated,2\n");
  EXPECT_EQ(pos + std::string("4,trace,truncated,2\n").size(), csv.size());
}

TEST(TraceLog, CsvOmitsMarkerWhenComplete) {
  TraceLog log(8);
  log.record(1, "a", "x", 0);
  EXPECT_FALSE(log.truncated());
  EXPECT_EQ(log.to_csv().find("truncated"), std::string::npos);
}

// The gateway/accelerator event protocol on a real run: for every block,
// admit -> (reconfig.start -> ctx.switch -> reconfig.done)? ->
// block.delivered -> block.done, in cycle order.
class TracedPassthrough final : public accel::StreamKernel {
 public:
  void push(CQ16 in, std::vector<CQ16>& out) override { out.push_back(in); }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {};
  }
  void restore_state(std::span<const std::int32_t>) override {}
  void reset() override {}
  [[nodiscard]] std::size_t state_words() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "pass"; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override {
    return std::make_unique<TracedPassthrough>();
  }
};

TEST(TraceIntegration, GatewayProtocolOrdering) {
  TraceLog log;
  System sys(4);
  CFifo& in0 = sys.add_fifo("in0", 64);
  CFifo& in1 = sys.add_fifo("in1", 64);
  CFifo& out0 = sys.add_fifo("out0", 256, 0, 0);
  CFifo& out1 = sys.add_fifo("out1", 256, 0, 0);
  auto& accel = sys.add<AcceleratorTile>("acc", sys.ring(), 1, 1, 2);
  accel.register_context(0, std::make_unique<TracedPassthrough>());
  accel.register_context(1, std::make_unique<TracedPassthrough>());
  accel.set_upstream(0, 1);
  accel.set_downstream(3, 2, 2);
  accel.set_trace(&log);
  auto& exit = sys.add<ExitGateway>("exit", sys.ring(), 3, 1, 2);
  exit.set_upstream(1, 1);
  exit.set_trace(&log);
  auto& entry = sys.add<EntryGateway>("entry", sys.ring(), 0, 2, 1, 1, 2);
  entry.set_chain({&accel});
  entry.set_exit(&exit);
  exit.set_entry(&entry);
  entry.set_trace(&log);
  entry.add_stream({0, "s0", 16, 16, &in0, &out0, 20});
  entry.add_stream({1, "s1", 16, 16, &in1, &out1, 20});
  std::vector<Flit> payload(64);
  std::iota(payload.begin(), payload.end(), Flit{1});
  sys.add<SourceTile>("src0", in0, payload, 16);
  sys.add<SourceTile>("src1", in1, payload, 16);
  sys.run(64 * 16 + 4000);

  // 4 blocks per stream; streams alternate, so every admit reconfigures.
  EXPECT_EQ(log.of("admit").size(), 8u);
  EXPECT_EQ(log.of("reconfig.start").size(), 8u);
  EXPECT_EQ(log.of("reconfig.done").size(), 8u);
  EXPECT_EQ(log.of("ctx.switch").size(), 8u);
  EXPECT_EQ(log.of("block.delivered").size(), 8u);
  EXPECT_EQ(log.of("block.done").size(), 8u);

  // Cycle-ordered, and each reconfig.done lands R=20 cycles after its start.
  const auto starts = log.of("reconfig.start");
  const auto dones = log.of("reconfig.done");
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(dones[i].cycle - starts[i].cycle, 20);
    EXPECT_EQ(dones[i].value, starts[i].value);  // same stream
  }
  // Global ordering is monotone in cycles.
  for (std::size_t i = 1; i < log.events().size(); ++i)
    EXPECT_LE(log.events()[i - 1].cycle, log.events()[i].cycle);
}

// --- Chrome trace-event exporter ---------------------------------------

TraceLog sample_log() {
  TraceLog log;
  log.record(10, "entry", "admit", 0);
  log.record(12, "entry", "reconfig.start", 0);
  log.record(12, "acc", "ctx.switch", 0);
  log.record(32, "entry", "reconfig.done", 0);
  log.record(80, "exit", "block.delivered", 0);
  log.record(82, "entry", "block.done", 0);
  log.record(90, "entry", "fault.config_bus", 7);
  return log;
}

TEST(ChromeTrace, SerializedFormIsWellFormedJson) {
  const TraceLog log = sample_log();
  const std::string text = obs::chrome_trace_json(log);
  const std::optional<json::Value> parsed = json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->find("traceEvents"), nullptr);
  EXPECT_FALSE(parsed->at("traceEvents").as_array().empty());
}

TEST(ChromeTrace, EveryComponentGetsANamedTrack) {
  const json::Value doc = obs::chrome_trace_doc(sample_log());
  std::map<std::int64_t, std::string> track_names;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "thread_name") {
      track_names[e.at("tid").as_int()] = e.at("args").at("name").as_string();
    }
  }
  // tid 0 is the counters track; entry/acc/exit each get their own.
  EXPECT_EQ(track_names.at(0), "counters");
  std::map<std::string, int> seen;
  for (const auto& [tid, name] : track_names) ++seen[name];
  EXPECT_EQ(seen.at("entry"), 1);
  EXPECT_EQ(seen.at("acc"), 1);
  EXPECT_EQ(seen.at("exit"), 1);
}

TEST(ChromeTrace, InstantsAreMonotonePerTrack) {
  const json::Value doc = obs::chrome_trace_doc(sample_log());
  std::map<std::int64_t, std::int64_t> last_ts;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "i") continue;
    const std::int64_t tid = e.at("tid").as_int();
    const std::int64_t ts = e.at("ts").as_int();
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, ts);
    }
    last_ts[tid] = ts;
  }
  EXPECT_FALSE(last_ts.empty());
}

TEST(ChromeTrace, ReconfigWindowBecomesDurationEvent) {
  const json::Value doc = obs::chrome_trace_doc(sample_log());
  bool found = false;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    found = true;
    EXPECT_EQ(e.at("name").as_string(), "reconfig");
    EXPECT_EQ(e.at("ts").as_int(), 12);
    EXPECT_EQ(e.at("dur").as_int(), 20);
  }
  EXPECT_TRUE(found);
}

TEST(ChromeTrace, ModeChangeWindowBecomesDurationEvent) {
  // A mode change spans the reconfigurations inside it; each pair becomes
  // its own bar on its source's track.
  TraceLog log;
  log.record(100, "ctrl", "modechange.start", 2);
  log.record(130, "entry", "reconfig.start", 2);
  log.record(150, "entry", "reconfig.done", 2);
  log.record(170, "ctrl", "modechange.done", 2);
  const json::Value doc = obs::chrome_trace_doc(log);
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> bars;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    bars[e.at("name").as_string()] = {e.at("ts").as_int(),
                                      e.at("dur").as_int()};
    EXPECT_EQ(e.at("args").at("stream").as_int(), 2);
  }
  ASSERT_EQ(bars.size(), 2u);
  EXPECT_EQ(bars.at("modechange"), std::make_pair(std::int64_t{100},
                                                  std::int64_t{70}));
  EXPECT_EQ(bars.at("reconfig"), std::make_pair(std::int64_t{130},
                                                std::int64_t{20}));
}

TEST(ChromeTrace, CountersTrackBlocksAndFaults) {
  const json::Value doc = obs::chrome_trace_doc(sample_log());
  std::int64_t blocks = 0;
  std::int64_t faults = 0;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "C") continue;
    if (e.at("name").as_string() == "blocks.done")
      blocks = e.at("args").at("value").as_int();
    if (e.at("name").as_string() == "faults")
      faults = e.at("args").at("value").as_int();
  }
  EXPECT_EQ(blocks, 1);
  EXPECT_EQ(faults, 1);
}

TEST(ChromeTrace, TruncatedLogEmitsGlobalTruncationInstant) {
  // PR6 backfill + satellite fix: the CSV export has carried a truncation
  // marker row since the TraceLog cap landed; the Chrome export must mark a
  // clipped trace the same way or a Perfetto user would read a partial
  // trace as complete.
  TraceLog log(2);
  log.record(1, "a", "x", 0);
  log.record(4, "a", "x", 0);
  log.record(9, "a", "x", 0);
  ASSERT_TRUE(log.truncated());
  const json::Value doc = obs::chrome_trace_doc(log);
  bool found = false;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("name").as_string() != "trace.truncated") continue;
    found = true;
    EXPECT_EQ(e.at("ph").as_string(), "i");
    EXPECT_EQ(e.at("s").as_string(), "g");  // global: spans every track
    // Stamped at the last RETAINED cycle (the clip point), dropped count in
    // args — mirroring the CSV marker row exactly.
    EXPECT_EQ(e.at("ts").as_int(), 4);
    EXPECT_EQ(e.at("args").at("dropped").as_int(), 1);
  }
  EXPECT_TRUE(found);
}

TEST(ChromeTrace, CompleteLogHasNoTruncationEvent) {
  const json::Value doc = obs::chrome_trace_doc(sample_log());
  for (const json::Value& e : doc.at("traceEvents").as_array())
    EXPECT_NE(e.at("name").as_string(), "trace.truncated");
}

}  // namespace
}  // namespace acc::sim
