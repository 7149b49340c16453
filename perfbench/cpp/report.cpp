// Statistics, span recording and result plumbing (see bench.hpp).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "bench.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > 10 ? n - 11 : n - 1;
  t.value = v[idx];
  t.percentile = n > 10 ? 100.0 * static_cast<double>(n - 10) /
                              static_cast<double>(n)
                        : 100.0;
  return t;
}

void Result::mismatch(const std::string& what) {
  correct = false;
  notes.push_back("OUTPUT GATE MISMATCH: " + what);
}

double Result::value(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void DecisionMinima::add(const std::vector<double>& us) {
  if (best_.empty()) best_.assign(us.size(), std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < std::min(us.size(), best_.size()); ++i) {
    best_[i] = std::min(best_[i], us[i]);
  }
  ++reps_;
}

double DecisionMinima::total_us() const {
  double sum = 0.0;
  for (const double v : best_) sum += v;
  return sum;
}

void DecisionMinima::report(Result& res, const std::string& what) const {
  const Tail t = tail(best_);
  res.add("decide_p50_us", median(best_), "us");
  res.add("decide_tail_us", t.value, "us");
  char line[240];
  std::snprintf(line, sizeof line,
                "decisions: %s; fastest of %zu repetitions each; tail = "
                "p%.2f of %zu decisions (10 beyond it)",
                what.c_str(), reps_, t.percentile, t.samples);
  res.note(line);
}

void Attribution::print(Result& res) const {
  char line[200];
  std::snprintf(line, sizeof line,
                "per-layer attribution of %s (untraced wall %.2f ms):",
                workload_.c_str(), 1e3 * wall_s_);
  res.note(line);
  double covered = 0.0;
  for (const Term& t : terms_) {
    const double s = t.count * t.unit_ns * 1e-9;
    covered += s;
    std::snprintf(line, sizeof line,
                  "  %-26s %12.0f x %8.2f ns = %8.2f ms  %5.1f %%",
                  t.what.c_str(), t.count, t.unit_ns, 1e3 * s,
                  100.0 * s / wall_s_);
    res.note(line);
  }
  const double rest = wall_s_ - covered;
  std::snprintf(line, sizeof line,
                "  %-26s %35s = %8.2f ms  %5.1f %%", "unattributed remainder",
                "", 1e3 * rest, 100.0 * rest / wall_s_);
  res.note(line);
}

double registry_sum(const acc::obs::MetricsRegistry& reg,
                    const std::string& prefix, const std::string& suffix,
                    const std::string& field) {
  const acc::json::Value snap = reg.snapshot_json();
  double total = 0.0;
  for (const auto& [id, cell] : snap.as_object()) {
    if (id.size() < prefix.size() + suffix.size() ||
        id.compare(0, prefix.size(), prefix) != 0 ||
        id.compare(id.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    if (const acc::json::Value* v = cell.find(field)) {
      total += static_cast<double>(v->as_int());
    }
  }
  return total;
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

std::int32_t Tracer::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  acc::json::Array arr;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    acc::json::Object o;
    o["id"] = static_cast<std::int64_t>(i);
    o["name"] = s.name;
    o["start_ns"] = s.start_ns - t0;
    o["end_ns"] = s.end_ns - t0;
    o["parent"] = static_cast<std::int64_t>(s.parent);
    o["run"] = static_cast<std::int64_t>(s.run);
    arr.emplace_back(std::move(o));
  }
  acc::json::Object doc;
  doc["spans"] = std::move(arr);
  std::ofstream out(path);
  out << acc::json::Value(std::move(doc)).dump() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
