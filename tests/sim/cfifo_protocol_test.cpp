#include "../support/cfifo_protocol.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/cfifo.hpp"

namespace acc::sim {
namespace {

TEST(CFifoProtocol, BasicHandshake) {
  CFifoProtocol f("t", 4, /*latency=*/3);
  EXPECT_EQ(f.producer_space(0), 4);
  EXPECT_EQ(f.consumer_fill(0), 0);
  f.write(0, 11);
  // The consumer sees nothing until the write-counter update lands.
  EXPECT_EQ(f.consumer_fill(2), 0);
  EXPECT_EQ(f.consumer_fill(3), 1);
  EXPECT_EQ(f.read(3), 11u);
  // The producer regains the slot only after the read counter arrives.
  EXPECT_EQ(f.producer_space(3), 3);
  EXPECT_EQ(f.producer_space(6), 4);
}

TEST(CFifoProtocol, ZeroLatencyIsPlainFifo) {
  CFifoProtocol f("t", 2, 0);
  f.write(0, 1);
  f.write(0, 2);
  EXPECT_FALSE(f.can_write(0));
  EXPECT_EQ(f.read(0), 1u);
  EXPECT_TRUE(f.can_write(0));
  EXPECT_EQ(f.read(0), 2u);
}

TEST(CFifoProtocol, UnsafeOperationsThrow) {
  CFifoProtocol f("t", 1, 5);
  EXPECT_THROW((void)f.read(0), precondition_error);
  f.write(0, 9);
  EXPECT_THROW(f.write(0, 10), precondition_error);
  // Data exists but the counter is still in flight: read must refuse.
  EXPECT_THROW((void)f.read(4), precondition_error);
  EXPECT_EQ(f.read(5), 9u);
}

TEST(CFifoProtocol, ViewsAreConservativeNeverUnsafe) {
  // Both sides' beliefs never exceed ground truth in the unsafe direction.
  SplitMix64 rng(0xCF1F);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t cap = rng.uniform(1, 8);
    const Cycle lat = rng.uniform(0, 9);
    CFifoProtocol f("t", cap, lat);
    std::deque<Flit> model;  // golden FIFO
    Flit seq = 0;
    for (Cycle now = 0; now < 400; ++now) {
      EXPECT_LE(f.consumer_fill(now), f.true_fill());
      EXPECT_LE(f.producer_space(now), cap - f.true_fill());
      if (rng.chance(0.5) && f.can_write(now)) {
        f.write(now, seq);
        model.push_back(seq);
        ++seq;
      }
      if (rng.chance(0.5) && f.can_read(now)) {
        ASSERT_FALSE(model.empty());
        EXPECT_EQ(f.read(now), model.front());
        model.pop_front();
      }
    }
  }
}

// Protocol-vs-behavioural-model equivalence: with matching latencies the
// two C-FIFO models admit the same schedule of operations and deliver the
// same data (the behavioural CFifo is a faithful abstraction).
TEST(CFifoProtocol, AgreesWithBehaviouralModel) {
  SplitMix64 rng(0xE0);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t cap = rng.uniform(1, 6);
    const Cycle lat = rng.uniform(0, 6);
    CFifoProtocol proto("p", cap, lat);
    CFifo behav("b", cap, lat, lat);
    Flit seq = 100;
    for (Cycle now = 0; now < 300; ++now) {
      EXPECT_EQ(proto.can_write(now), behav.can_push(now)) << "t=" << now;
      EXPECT_EQ(proto.can_read(now), behav.can_pop(now)) << "t=" << now;
      if (rng.chance(0.45) && proto.can_write(now)) {
        proto.write(now, seq);
        behav.push(now, seq);
        ++seq;
      }
      if (rng.chance(0.45) && proto.can_read(now)) {
        EXPECT_EQ(proto.read(now), behav.pop(now)) << "t=" << now;
      }
    }
  }
}

TEST(CFifoProtocol, SustainsFullThroughputWhenCapacityCoversLatency) {
  // Classic C-FIFO sizing rule: capacity >= round-trip latency lets the
  // producer stream at one write per cycle indefinitely.
  const Cycle lat = 4;
  CFifoProtocol f("t", 2 * lat + 1, lat);
  std::int64_t writes = 0;
  std::int64_t reads = 0;
  for (Cycle now = 0; now < 200; ++now) {
    if (f.can_write(now)) {
      f.write(now, 0);
      ++writes;
    }
    if (f.can_read(now)) {
      (void)f.read(now);
      ++reads;
    }
  }
  EXPECT_GE(writes, 195);  // ~1 per cycle after startup
  EXPECT_GE(reads, 190);
}

}  // namespace
}  // namespace acc::sim
