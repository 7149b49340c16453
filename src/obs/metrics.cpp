#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace acc::obs {

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

MetricCell* MetricsRegistry::insert(MetricKind kind, std::string id) {
  ACC_EXPECTS_MSG(!id.empty(), "metric ID must not be empty");
  ACC_EXPECTS_MSG(index_.find(id) == index_.end(),
                  "duplicate metric ID '" + id + "'");
  cells_.emplace_back();
  MetricCell* cell = &cells_.back();
  cell->kind = kind;
  cell->id = id;
  index_.emplace(std::move(id), cell);
  return cell;
}

Counter MetricsRegistry::counter(std::string id) {
  return Counter(insert(MetricKind::kCounter, std::move(id)));
}

Gauge MetricsRegistry::gauge(std::string id) {
  return Gauge(insert(MetricKind::kGauge, std::move(id)));
}

Histogram MetricsRegistry::histogram(std::string id,
                                     std::vector<std::int64_t> bounds) {
  ACC_EXPECTS_MSG(!bounds.empty(), "histogram needs at least one bound");
  for (std::size_t i = 1; i < bounds.size(); ++i)
    ACC_EXPECTS_MSG(bounds[i] > bounds[i - 1],
                    "histogram bounds must be strictly increasing");
  MetricCell* cell = insert(MetricKind::kHistogram, std::move(id));
  cell->counts.assign(bounds.size() + 1, 0);
  cell->bounds = std::move(bounds);
  return Histogram(cell);
}

const MetricCell* MetricsRegistry::find(std::string_view id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : it->second;
}

std::string MetricsRegistry::snapshot_text() const {
  std::ostringstream os;
  // index_ iterates in ID order: the snapshot is canonical regardless of
  // registration order.
  for (const auto& [id, cell] : index_) {
    os << id << ' ' << metric_kind_name(cell->kind);
    switch (cell->kind) {
      case MetricKind::kCounter:
        os << ' ' << cell->value;
        break;
      case MetricKind::kGauge:
        os << " value=" << cell->value << " max=" << cell->max;
        break;
      case MetricKind::kHistogram: {
        os << " count=" << cell->count << " sum=" << cell->sum
           << " max=" << cell->max << " buckets=";
        for (std::size_t b = 0; b < cell->counts.size(); ++b) {
          if (b > 0) os << ',';
          if (b < cell->bounds.size())
            os << "le" << cell->bounds[b];
          else
            os << "inf";
          os << ':' << cell->counts[b];
        }
        break;
      }
    }
    os << '\n';
  }
  return os.str();
}

json::Value MetricsRegistry::snapshot_json() const {
  json::Object doc;
  for (const auto& [id, cell] : index_) {
    json::Object m;
    m["kind"] = metric_kind_name(cell->kind);
    switch (cell->kind) {
      case MetricKind::kCounter:
        m["value"] = cell->value;
        break;
      case MetricKind::kGauge:
        m["value"] = cell->value;
        m["max"] = cell->max;
        break;
      case MetricKind::kHistogram: {
        m["count"] = cell->count;
        m["sum"] = cell->sum;
        m["max"] = cell->max;
        json::Array buckets;
        for (std::size_t b = 0; b < cell->counts.size(); ++b) {
          json::Object bucket;
          if (b < cell->bounds.size())
            bucket["le"] = cell->bounds[b];
          else
            bucket["le"] = "inf";
          bucket["count"] = cell->counts[b];
          buckets.emplace_back(std::move(bucket));
        }
        m["buckets"] = std::move(buckets);
        break;
      }
    }
    doc[id] = std::move(m);
  }
  return doc;
}

std::vector<std::int64_t> occupancy_bounds(std::int64_t capacity) {
  ACC_EXPECTS(capacity >= 1);
  std::vector<std::int64_t> bounds = {capacity / 4, capacity / 2,
                                      (3 * capacity) / 4, capacity};
  bounds.erase(std::remove_if(bounds.begin(), bounds.end(),
                              [](std::int64_t b) { return b <= 0; }),
               bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

std::vector<std::int64_t> pow2_bounds(std::int64_t lo, int count) {
  ACC_EXPECTS(lo >= 1 && count >= 1 && count < 48);
  std::vector<std::int64_t> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) bounds.push_back(lo << i);
  return bounds;
}

}  // namespace acc::obs
