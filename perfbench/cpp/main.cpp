// perfbench: the repository benchmark driver.
//
//   perfbench --workload pal_decode|churn_sessions|dse_sizing
//             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//             [--spans PATH]
//
// --trace 0 runs one workload with tracing off and reports its end-to-end
// metrics. --trace 1 is the separate traced run: the per-layer probes,
// then every workload's counters with the metrics registry attached, host
// spans around each public call, and the per-layer attribution of the
// selected workload. Human-readable lines go first; the LAST line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output gate held, 1 on a gate mismatch, 2 on a
// usage error, 3 when the library threw.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

constexpr const char* kWorkloads[] = {"pal_decode", "churn_sessions",
                                      "dse_sizing"};

bool known(const std::string& w) {
  for (const char* k : kWorkloads) {
    if (w == k) return true;
  }
  return false;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload pal_decode|churn_sessions|dse_sizing [--seed N]"
               " [--seconds S] [--trace 0|1] [--smoke] [--spans PATH]\n";
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_line(const Result& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}}";
}

Result traced_run(const Options& opt) {
  perfbench::Tracer& tracer = perfbench::Tracer::get();
  tracer.enable(true);
  Result res;
  perfbench::run_layer_probes(opt, res);
  perfbench::trace_pal(opt, res, opt.workload == "pal_decode");
  perfbench::trace_churn(opt, res, opt.workload == "churn_sessions");
  perfbench::trace_dse(opt, res, opt.workload == "dse_sizing");
  tracer.enable(false);
  res.attempted = static_cast<std::int64_t>(res.metrics.size());
  res.failed = res.correct ? 0 : 1;
  if (!opt.spans_path.empty()) {
    if (tracer.write(opt.spans_path)) {
      res.note("spans: " + std::to_string(tracer.spans().size()) +
               " written to " + opt.spans_path);
    } else {
      res.note("spans: could not write " + opt.spans_path);
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!known(opt.workload)) return usage(argv[0]);

  Result res;
  try {
    if (opt.trace) {
      res = traced_run(opt);
    } else if (opt.workload == "pal_decode") {
      res = perfbench::run_pal(opt);
    } else if (opt.workload == "churn_sessions") {
      res = perfbench::run_churn(opt);
    } else {
      res = perfbench::run_dse(opt);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 3;
  }

  for (const std::string& n : res.notes) std::cout << n << "\n";
  for (const perfbench::Metric& m : res.metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::cout << json_line(res) << std::endl;
  return res.correct ? 0 : 1;
}
