// The growable ring buffer that holds C-FIFO and ring token storage. The
// simulator relies on exactly the properties pinned here: FIFO order across
// growth and wraparound, power-of-two growth, and move semantics that leave
// the source empty and reusable.
#include "common/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <utility>

namespace acc {
namespace {

TEST(RingBuffer, FifoOrderAcrossGrowthMatchesDeque) {
  // Differential check against std::deque through a push/pop pattern that
  // forces several growths with a wrapped live window.
  RingBuffer<std::int64_t> rb;
  std::deque<std::int64_t> ref;
  std::int64_t next = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i <= round % 7; ++i) {
      rb.push_back(next);
      ref.push_back(next);
      ++next;
    }
    for (int i = 0; i < round % 5 && !ref.empty(); ++i) {
      ASSERT_EQ(rb.front(), ref.front());
      rb.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(rb.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(rb[i], ref[i]);
    if (!ref.empty()) {
      ASSERT_EQ(rb.back(), ref.back());
    }
  }
}

TEST(RingBuffer, WrapsWithoutGrowthWhenDrained) {
  RingBuffer<int> rb;
  for (int i = 0; i < 8; ++i) rb.push_back(i);  // first growth: cap 8
  const std::size_t cap = rb.capacity();
  for (int round = 0; round < 100; ++round) {
    rb.pop_front();
    rb.push_back(100 + round);
  }
  EXPECT_EQ(rb.capacity(), cap);  // steady state recycles the same block
  EXPECT_EQ(rb.size(), 8u);
}

TEST(RingBuffer, MoveTransfersStorage) {
  RingBuffer<int> rb;
  for (int i = 0; i < 5; ++i) rb.push_back(i);
  RingBuffer<int> moved(std::move(rb));
  ASSERT_EQ(moved.size(), 5u);
  EXPECT_EQ(moved.front(), 0);
  EXPECT_EQ(moved.back(), 4);
  RingBuffer<int> assigned;
  assigned.push_back(99);
  assigned = std::move(moved);
  ASSERT_EQ(assigned.size(), 5u);
  EXPECT_EQ(assigned[2], 2);
}

TEST(RingBuffer, ClearResetsWithoutReleasingCapacity) {
  RingBuffer<int> rb;
  for (int i = 0; i < 20; ++i) rb.push_back(i);
  const std::size_t cap = rb.capacity();
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.capacity(), cap);
  rb.push_back(7);
  EXPECT_EQ(rb.front(), 7);
}

TEST(RingBuffer, MovedFromBufferIsEmptyAndReusable) {
  RingBuffer<int> rb;
  for (int i = 0; i < 12; ++i) rb.push_back(i);
  RingBuffer<int> moved(std::move(rb));
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.capacity(), 0u);
  for (int i = 0; i < 20; ++i) rb.push_back(100 + i);
  ASSERT_EQ(rb.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(rb.front(), 100 + i);
    rb.pop_front();
  }
  EXPECT_EQ(moved.size(), 12u);
  EXPECT_EQ(moved.back(), 11);
}

TEST(RingBuffer, CapacityDoublesFromEight) {
  // Index masking needs a power-of-two capacity: 8, then doubling.
  RingBuffer<int> rb;
  EXPECT_EQ(rb.capacity(), 0u);
  rb.push_back(0);
  EXPECT_EQ(rb.capacity(), 8u);
  for (int i = 1; i < 9; ++i) rb.push_back(i);
  EXPECT_EQ(rb.capacity(), 16u);
  for (int i = 9; i < 17; ++i) rb.push_back(i);
  EXPECT_EQ(rb.capacity(), 32u);
  for (int i = 0; i < 17; ++i) EXPECT_EQ(rb[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace acc
