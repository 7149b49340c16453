// Shared infrastructure of the repository benchmark: options, host-time
// helpers, robust statistics, the metric list every workload fills, and
// the in-memory span recorder of the traced run.
//
// The benchmark measures the library from OUTSIDE: it times calls into the
// public functions of app/sim/accel/sharing/ilp/dataflow/ctrl/lint/radio
// and reads counters those modules already expose. Nothing here reaches
// into a module's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace acc::obs {
class MetricsRegistry;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced-size inputs and budgets (the smoke check of run.py).
  bool smoke = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string spans_path;
};

// ---------------------------------------------------------------- time --

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// --------------------------------------------------------------- stats --

/// Median (mean of the two middle values for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Linear-interpolation quantile, q in [0, 1]; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// The tail: the highest order statistic with at least ten samples beyond
/// it (sorted[n - 11]); the largest sample when n <= 10.
struct Tail {
  double value = 0.0;
  /// Percentile the value stands for, 100 * (n - 10) / n.
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// In-run host-time estimator: the fastest repetition. Host noise on a
/// shared VM comes in phases (other tenants' load slows this vCPU by up to
/// 2x for seconds at a time) and only ever makes a repetition SLOWER. Over
/// a 25 s run some repetitions always land between phases, so the minimum
/// follows the program's own cost; the median and even the lower decile
/// drift with the phases (see README.md). Every host-time metric of the
/// benchmark goes through this one estimator, at the finest repetition the
/// workload offers (a decode, a replay, a single query or decision).
[[nodiscard]] inline double fastest(const std::vector<double>& v) {
  return quantile(v, 0.0);
}

// ------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload's outcome: the final JSON line plus human-readable notes.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Output-gate failure: recorded, printed, and turns `correct` off.
  void mismatch(const std::string& what);
  /// Value of an already recorded metric; NaN when absent.
  [[nodiscard]] double value(const std::string& name) const;
};

/// Host latency of a fixed list of decisions that every repetition makes
/// again in the same order: each decision keeps its fastest latency over
/// the run, and decide_p50_us / decide_tail_us are the median and the tail
/// of those per-decision minima.
class DecisionMinima {
 public:
  /// One repetition: the latency of decision i at index i, microseconds.
  void add(const std::vector<double>& us);
  /// Sum of the per-decision minima, microseconds.
  [[nodiscard]] double total_us() const;
  /// Record decide_p50_us and decide_tail_us, and a note naming `what`
  /// was timed and the tail's percentile and sample count.
  void report(Result& res, const std::string& what) const;

 private:
  std::vector<double> best_;
  std::size_t reps_ = 0;
};

/// Per-layer attribution of one workload's host wall time: count x unit
/// cost per term, and the unattributed remainder.
class Attribution {
 public:
  Attribution(std::string workload, double wall_s)
      : workload_(std::move(workload)), wall_s_(wall_s) {}
  void term(std::string what, double count, double unit_ns) {
    terms_.push_back({std::move(what), count, unit_ns});
  }
  /// Append the attribution table to `res`'s notes.
  void print(Result& res) const;

 private:
  struct Term {
    std::string what;
    double count;
    double unit_ns;
  };
  std::string workload_;
  double wall_s_;
  std::vector<Term> terms_;
};

// --------------------------------------------------------------- spans --

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 = root
  std::int32_t run = 0;      // repetition the span belongs to
};

/// Host-time spans around every public call the benchmark makes. Disabled
/// outside the traced run (Scope is then two branches), kept in memory, and
/// written out once at the end.
class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Repetition the following spans belong to (0 = set-up and probes).
  void set_run(std::int32_t run) { run_ = run; }

  std::int32_t open(std::string name);
  void close(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Write {"spans": [...]} to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::int32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  explicit Scope(const char* name)
      : id_(Tracer::get().enabled() ? Tracer::get().open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) Tracer::get().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope(Scope&&) = delete;
  Scope& operator=(Scope&&) = delete;

 private:
  std::int32_t id_;
};

// ----------------------------------------------------------- workloads --

// End-to-end runs (tracing off).
[[nodiscard]] Result run_pal(const Options& opt);
[[nodiscard]] Result run_churn(const Options& opt);
[[nodiscard]] Result run_dse(const Options& opt);

// Traced runs: each adds its workload's per-layer counters to `res`; the
// selected workload also adds obs.trace_overhead_ratio and its attribution
// (which reads the unit costs run_layer_probes recorded first).
void trace_pal(const Options& opt, Result& res, bool selected);
void trace_churn(const Options& opt, Result& res, bool selected);
void trace_dse(const Options& opt, Result& res, bool selected);

/// Per-layer probes shared by every traced run (standalone kernels,
/// transport, stepper, analysis, lint and radio costs).
void run_layer_probes(const Options& opt, Result& res);

/// Sum of `field` ("value" or "sum") over the registry cells whose ID
/// starts with `prefix` and ends with `suffix`.
[[nodiscard]] double registry_sum(const acc::obs::MetricsRegistry& reg,
                                  const std::string& prefix,
                                  const std::string& suffix,
                                  const std::string& field);

/// Deterministic 64-bit FNV-1a accumulation (output digests).
[[nodiscard]] inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFU;
    h *= 1099511628211ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

}  // namespace perfbench
