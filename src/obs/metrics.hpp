// Deterministic metrics registry for the MPSoC simulator (the observability
// counterpart to PR4's static-analysis layer; see docs/observability.md).
//
// Three primitives — counters, gauges and fixed-bucket histograms — behind
// stable string IDs. Components pre-register handles once at wiring time
// (the only place a map lookup happens) and update through the handle on
// the hot path: one null check plus one or two integer stores, no
// allocation, no lookup. A component that was never given a registry holds
// null handles, and every update compiles down to a predictable
// not-taken branch — the opt-out path costs nothing measurable.
//
// Determinism contract: every update is driven by a simulation EVENT (a
// push, a pop, an injection, an admission, a fault trigger), never by "one
// tick happened". Events occur at identical cycles under both steppers
// (kDense / kWakeList) — that is the equivalence property the stepper
// suite proves — so a snapshot of the registry is bit-identical
// across steppers and, because each simulation owns its registry, across
// --jobs values. tests/obs/metrics_equivalence_test.cpp locks this down.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace acc::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* metric_kind_name(MetricKind kind);

/// Storage for one metric. Handles point at a cell; cells live in a deque
/// so registration never invalidates previously returned handles.
struct MetricCell {
  MetricKind kind = MetricKind::kCounter;
  std::string id;
  /// Counter: running total. Gauge: last set value.
  std::int64_t value = 0;
  /// Gauge/histogram: maximum ever set/observed (0 before any sample).
  std::int64_t max = 0;
  /// Histogram only: upper bucket bounds (strictly increasing); counts has
  /// bounds.size() + 1 entries, the last being the overflow bucket.
  std::vector<std::int64_t> bounds;
  std::vector<std::int64_t> counts;
  std::int64_t count = 0;  // histogram: number of observations
  std::int64_t sum = 0;    // histogram: sum of observed values
};

/// Monotone counter handle. Null handle = no-op.
class Counter {
 public:
  Counter() = default;
  void add(std::int64_t n = 1) {
    if (cell_ != nullptr) cell_->value += n;
  }
  [[nodiscard]] bool enabled() const { return cell_ != nullptr; }
  /// The running total (0 when detached).
  [[nodiscard]] std::int64_t value() const {
    return cell_ != nullptr ? cell_->value : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(MetricCell* cell) : cell_(cell) {}
  MetricCell* cell_ = nullptr;
};

/// Last-value gauge that also tracks its maximum. Null handle = no-op.
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) {
    if (cell_ == nullptr) return;
    cell_->value = v;
    if (v > cell_->max) cell_->max = v;
  }
  [[nodiscard]] bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(MetricCell* cell) : cell_(cell) {}
  MetricCell* cell_ = nullptr;
};

/// Fixed-bucket histogram handle. Bucket search is a short linear scan over
/// the pre-registered bounds (observability histograms here have <= 8
/// buckets; a binary search would cost more in branches than it saves).
class Histogram {
 public:
  Histogram() = default;
  void observe(std::int64_t v) {
    if (cell_ == nullptr) return;
    std::size_t b = 0;
    while (b < cell_->bounds.size() && v > cell_->bounds[b]) ++b;
    ++cell_->counts[b];
    ++cell_->count;
    cell_->sum += v;
    if (v > cell_->max) cell_->max = v;
  }
  [[nodiscard]] bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(MetricCell* cell) : cell_(cell) {}
  MetricCell* cell_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register a metric under a unique stable ID (cold path; wiring time
  /// only). Duplicate IDs are precondition errors — two components must
  /// never share a cell by accident.
  Counter counter(std::string id);
  Gauge gauge(std::string id);
  /// `bounds` are strictly increasing upper bucket bounds; an implicit
  /// overflow bucket catches everything beyond the last bound.
  Histogram histogram(std::string id, std::vector<std::int64_t> bounds);

  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  /// Read access for report builders; nullptr when the ID is unknown.
  [[nodiscard]] const MetricCell* find(std::string_view id) const;

  /// Canonical snapshot, one line per metric, sorted by ID. Two registries
  /// with equal snapshots observed bit-identical event streams — this is
  /// the string the differential suite compares.
  [[nodiscard]] std::string snapshot_text() const;
  /// The same snapshot as a JSON object keyed by metric ID (std::map keeps
  /// the key order canonical) — embedded in RunReport documents.
  [[nodiscard]] json::Value snapshot_json() const;

 private:
  MetricCell* insert(MetricKind kind, std::string id);

  std::deque<MetricCell> cells_;  // stable addresses for handles
  std::map<std::string, MetricCell*, std::less<>> index_;
};

/// Convenience: registration that tolerates a null registry (the opt-out
/// path of every component's set_metrics).
[[nodiscard]] inline Counter make_counter(MetricsRegistry* reg,
                                          std::string id) {
  return reg != nullptr ? reg->counter(std::move(id)) : Counter{};
}
[[nodiscard]] inline Gauge make_gauge(MetricsRegistry* reg, std::string id) {
  return reg != nullptr ? reg->gauge(std::move(id)) : Gauge{};
}
[[nodiscard]] inline Histogram make_histogram(MetricsRegistry* reg,
                                              std::string id,
                                              std::vector<std::int64_t> b) {
  return reg != nullptr ? reg->histogram(std::move(id), std::move(b))
                        : Histogram{};
}

/// Quartile-style occupancy bounds for a buffer of `capacity` slots:
/// {cap/4, cap/2, 3cap/4, cap}, deduplicated for tiny capacities. Derived
/// from the capacity alone, so the bucket layout is deterministic.
[[nodiscard]] std::vector<std::int64_t> occupancy_bounds(
    std::int64_t capacity);

/// Power-of-two ladder {lo, 2lo, 4lo, ...} with `count` entries — the
/// default latency-style bucket layout (admission waits, service times).
[[nodiscard]] std::vector<std::int64_t> pow2_bounds(std::int64_t lo,
                                                    int count);

}  // namespace acc::obs
