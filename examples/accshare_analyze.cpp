// accshare_analyze — the command-line front door of the analysis library.
//
//   usage: accshare_analyze [spec.json] [--out report.md] [--dump-spec]
//                           [--no-lint]
//
// Reads a shared-system specification (JSON; see sharing/serialize.hpp for
// the format), runs the full design analysis (Algorithm-1 block sizes via
// both solvers, Eq. 2-5 bounds, buffer sizing, the derived completion law)
// and prints a markdown report. The report ends with the CSDF model of the
// first stream (paper Fig. 5) as Graphviz dot; pipe that block into
// `dot -Tpng` to render it. Without arguments it analyzes the paper's PAL
// case-study system; --dump-spec prints the spec as a starting template.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "dataflow/dot.hpp"
#include "lint/linter.hpp"
#include "sharing/csdf_model.hpp"
#include "sharing/report.hpp"
#include "sharing/serialize.hpp"

namespace {

acc::sharing::SharedSystemSpec default_spec() {
  using namespace acc;
  sharing::SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1, 1};
  sys.chain.entry_cycles_per_sample = 15;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"ch1.start", Rational(28224, 1000000), 4100},
                 {"ch2.start", Rational(28224, 1000000), 4100},
                 {"ch1.end", Rational(3528, 1000000), 4100},
                 {"ch2.end", Rational(3528, 1000000), 4100}};
  return sys;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acc;

  std::string spec_path;
  std::string out_path;
  bool dump_spec = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--dump-spec") {
      dump_spec = true;
    } else if (arg == "--no-lint") {
      // handled by lint::startup_gate below
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: accshare_analyze [spec.json] [--out report.md] "
                   "[--dump-spec] [--no-lint]\n";
      return 0;
    } else {
      spec_path = arg;
    }
  }

  sharing::SharedSystemSpec sys;
  if (spec_path.empty()) {
    sys = default_spec();
    std::cout << "(no spec given: analyzing the built-in PAL case study; "
                 "use --dump-spec to print it as a template)\n\n";
  } else {
    std::ifstream f(spec_path);
    if (!f) {
      std::cerr << "cannot open " << spec_path << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    try {
      sys = sharing::spec_from_string(buf.str());
    } catch (const std::exception& e) {
      std::cerr << "bad spec: " << e.what() << "\n";
      return 1;
    }
  }

  if (dump_spec) {
    std::cout << sharing::spec_to_string(sys) << "\n";
    return 0;
  }

  // Static admissibility before the (much heavier) full analysis; a spec
  // that fails Eq. 2-4 preconditions would only produce nonsense bounds.
  lint::LintInput li;
  li.name = spec_path.empty() ? "pal-case-study" : spec_path;
  li.spec = sys;
  if (!lint::startup_gate(argc, argv, li, std::cerr)) return 2;

  // Buffer sizing on the full PAL-scale system is expensive (blocks of
  // ~10k); skip it for large blocks, the report notes the omission.
  sharing::ReportOptions opt;
  const sharing::SystemReport rep = [&] {
    sharing::SystemReport r = sharing::analyze_system(
        sys, sharing::ReportOptions{{}, {}, /*size_buffers=*/false});
    if (r.schedulable) {
      std::int64_t max_eta = 0;
      for (const auto& s : r.streams) max_eta = std::max(max_eta, s.eta);
      if (max_eta <= 512) {
        opt.size_buffers = true;
        return sharing::analyze_system(sys, opt);
      }
    }
    return r;
  }();

  // The CSDF temporal-analysis model behind these numbers (paper Fig. 5),
  // for the first stream at a tiny block so the graph stays readable.
  sharing::CsdfModelOptions model_opt;
  model_opt.eta = 3;
  model_opt.alpha0 = 6;
  model_opt.alpha3 = 6;
  model_opt.producer_period = sys.streams[0].mu.reciprocal().floor();
  model_opt.consumer_period = model_opt.producer_period;
  const sharing::CsdfStreamModel model =
      sharing::build_csdf_stream_model(sys, 0, model_opt);
  df::DotOptions dopt;
  dopt.name = "fig5_csdf_" + sys.streams[0].name;
  const std::string md = rep.to_markdown(sys) +
                         "\n## CSDF model (Fig. 5) of " +
                         sys.streams[0].name + " at eta=3, Graphviz dot\n\n" +
                         "```dot\n" + df::to_dot(model.graph, dopt) + "```\n";
  if (out_path.empty()) {
    std::cout << md;
  } else {
    std::ofstream out(out_path);
    out << md;
    std::cout << "report written to " << out_path << "\n";
  }
  return rep.schedulable ? 0 : 2;
}
