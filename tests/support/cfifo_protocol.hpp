// Faithful model of the C-FIFO software synchronization protocol
// (Gangwal/Nieuwland/Lippens, ISSS'01 — ref [12] of the paper).
//
// Unlike the behavioural CFifo (cfifo.hpp), which abstracts the protocol
// into visibility lags, this class models the actual algorithm:
//   - the data array lives in the CONSUMER's memory;
//   - the producer keeps a local write counter and a shadow of the read
//     counter; the consumer keeps a local read counter and a shadow of the
//     write counter;
//   - after writing data, the producer POSTS its write counter to the
//     consumer's shadow; after reading, the consumer POSTS its read counter
//     to the producer's shadow (posted writes over the interconnect, here
//     modelled with a fixed delivery latency);
//   - each side decides from its LOCAL counter + SHADOW only, so decisions
//     are conservative but never unsafe, with NO hardware flow control —
//     exactly why the paper's processor tiles can stream over a
//     posted-write-only interconnect.
//
// Test-only reference: the equivalence test (tests/sim/
// cfifo_protocol_test.cpp) checks that the production CFifo is a faithful
// abstraction of this protocol: same capacity, never less conservative than
// the true occupancy, and FIFO-exact data delivery.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "sim/flit.hpp"
#include "sim/ring.hpp"

namespace acc::sim {

class CFifoProtocol {
 public:
  CFifoProtocol(std::string name, std::int64_t capacity,
                Cycle counter_latency = 4)
      : name_(std::move(name)), capacity_(capacity), latency_(counter_latency) {
    ACC_EXPECTS(capacity >= 1);
    ACC_EXPECTS(counter_latency >= 0);
  }

  // ---- producer side ----
  /// Space the producer can prove free: capacity - (local write counter -
  /// shadow read counter).
  [[nodiscard]] std::int64_t producer_space(Cycle now) {
    deliver_updates(now);
    return capacity_ - (write_count_ - read_shadow_at_producer_);
  }
  [[nodiscard]] bool can_write(Cycle now) { return producer_space(now) > 0; }
  /// Write one sample (posted write of data + write-counter update).
  void write(Cycle now, Flit value) {
    ACC_EXPECTS_MSG(can_write(now),
                    "C-FIFO '" + name_ + "' write without provable space");
    // Posted data write lands in consumer memory; the counter update follows
    // it on the in-order interconnect, so once the consumer's shadow shows
    // this write, the data is guaranteed present.
    data_.push_back(value);
    ++write_count_;
    write_updates_.emplace_back(now + latency_, write_count_);
  }

  // ---- consumer side ----
  /// Samples the consumer can prove present: shadow write counter - local
  /// read counter (data is valid once the counter update arrived, because
  /// the counter is posted AFTER the data on an in-order interconnect).
  [[nodiscard]] std::int64_t consumer_fill(Cycle now) {
    deliver_updates(now);
    return write_shadow_at_consumer_ - read_count_;
  }
  [[nodiscard]] bool can_read(Cycle now) { return consumer_fill(now) > 0; }
  [[nodiscard]] Flit read(Cycle now) {
    ACC_EXPECTS_MSG(can_read(now),
                    "C-FIFO '" + name_ + "' read without provable data");
    ACC_CHECK(!data_.empty());
    const Flit v = data_.front();
    data_.pop_front();
    ++read_count_;
    read_updates_.emplace_back(now + latency_, read_count_);
    return v;
  }

  // ---- introspection ----
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t true_fill() const {
    return write_count_ - read_count_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  void deliver_updates(Cycle now) {
    while (!write_updates_.empty() && write_updates_.front().first <= now) {
      write_shadow_at_consumer_ = write_updates_.front().second;
      write_updates_.pop_front();
    }
    while (!read_updates_.empty() && read_updates_.front().first <= now) {
      read_shadow_at_producer_ = read_updates_.front().second;
      read_updates_.pop_front();
    }
  }

  std::string name_;
  std::int64_t capacity_;
  Cycle latency_;

  // Ground truth counters (each local to its own side).
  std::int64_t write_count_ = 0;
  std::int64_t read_count_ = 0;
  // Shadows: the other side's last DELIVERED counter value.
  std::int64_t write_shadow_at_consumer_ = 0;
  std::int64_t read_shadow_at_producer_ = 0;
  // In-flight counter updates: (delivery time, value).
  std::deque<std::pair<Cycle, std::int64_t>> write_updates_;
  std::deque<std::pair<Cycle, std::int64_t>> read_updates_;
  // The data array in consumer memory (index = counter mod capacity).
  std::deque<Flit> data_;
};

}  // namespace acc::sim
