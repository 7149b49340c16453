// Golden schemas for the machine-readable bench documents (BENCH_*.json).
// The bench binaries validate before writing and the test suite validates
// documents built in-process, so a drifting producer breaks both the bench
// and ctest instead of silently shipping a malformed artifact.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"

namespace acc {

/// Validate a BENCH_dse.json document (see sharing/bench_doc.hpp).
/// Returns one human-readable problem per schema breach; empty = valid.
[[nodiscard]] std::vector<std::string> validate_bench_dse(
    const json::Value& doc);

/// Validate a BENCH_faults.json document (see app/fault_campaign.hpp).
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

}  // namespace acc
