// Golden schemas for the machine-readable bench documents (BENCH_*.json).
// The bench binaries write through write_bench_doc, which validates first,
// and the test suite validates documents built in-process, so a drifting
// producer breaks both the bench and ctest instead of silently shipping a
// malformed artifact.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"

namespace acc {

/// Validate a BENCH_faults.json document (see app/fault_campaign.hpp).
/// Returns one human-readable problem per schema breach; empty = valid.
[[nodiscard]] std::vector<std::string> validate_bench_faults(
    const json::Value& doc);

/// Validate a BENCH_sim.json document (see app/sim_bench.hpp). Beyond key
/// presence/kinds this also enforces the semantic invariants every valid
/// run must satisfy: runs[] holds exactly a "dense" and a "wake_list" row,
/// in that order, and $.equivalent is true (the steppers are cycle-exact
/// by contract — a document recording a divergence is itself malformed).
[[nodiscard]] std::vector<std::string> validate_bench_sim(
    const json::Value& doc);

/// Validate a BENCH_admission.json document (see app/admission_churn.hpp).
/// Beyond key presence/kinds this enforces the control-plane invariants a
/// valid campaign must satisfy: steppers[] holds exactly a "dense" and a
/// "wake-list" row, $.equivalent is true, and the summary's accept/reject
/// split sums to the join count.
[[nodiscard]] std::vector<std::string> validate_bench_admission(
    const json::Value& doc);

/// Validate a RunReport document (see obs/run_report.hpp). Enforces the
/// margin arithmetic (margin == bound - observed, or == bound when nothing
/// was observed) and a non-empty streams table on top of key/kind checks.
[[nodiscard]] std::vector<std::string> validate_run_report(
    const json::Value& doc);

/// One of the validate_bench_* functions above.
using BenchValidator = std::vector<std::string> (*)(const json::Value&);

/// Check `doc` with `validate`, then write it pretty-printed to `path`.
/// `problems` holds the caller's own checks beyond the schema. A document
/// with any problem is not written, so a diverged run cannot overwrite a
/// committed one. Returns false, after reporting on stderr, when a check
/// fails or the file cannot be written; prints "wrote PATH" otherwise.
[[nodiscard]] bool write_bench_doc(const json::Value& doc,
                                   BenchValidator validate,
                                   const std::string& path,
                                   std::vector<std::string> problems = {});

}  // namespace acc
