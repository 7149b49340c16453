#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs a workload.

    python3 perfbench/run.py --workload pal_decode --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seconds S]   # every workload, one table
    python3 perfbench/run.py --smoke               # reduced sizes, validated

Run it from the repository root (any directory works; paths are resolved
from this file). The first call configures and builds the library modules
under src/ plus the driver in perfbench/cpp into .bench_build/ (about a
minute on four cores); later calls only rebuild what changed.

--trace 0 prints the workload's end-to-end metrics, --trace 1 the traced
run's per-layer metrics (and writes its host spans to
.bench_build/spans-<workload>-<seed>.json). Human-readable lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The metric names and units are checked
against BENCHMARK.json, and every value must be a finite number. The exit
status is 0 only when the build succeeded, every output gate held and the
document is valid.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})")


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(doc, expected):
    """Problems with one result document (empty list = valid)."""
    problems = []
    if not isinstance(doc, dict) or set(doc) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    if not isinstance(doc["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(doc["attempted"], int) and doc["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = doc["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, unexpected {extra}")
    for name, m in metrics.items():
        value = m.get("value") if isinstance(m, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {expected[name]!r}")
    return problems


def run_one(spec, workload, seed, seconds, trace, smoke):
    """Run the driver once; returns (exit_code, human_lines, result_doc)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}-{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, [], None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines:
        return proc.returncode or 1, [], None
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        return proc.returncode or 1, lines, None
    problems = validate(doc, expected_metrics(spec, trace))
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)
    code = proc.returncode if proc.returncode else (1 if problems else 0)
    return code, lines[:-1], (None if problems else doc)


def print_table(rows):
    for workload, doc in rows:
        print(f"== {workload}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']}")
        for name, m in doc["metrics"].items():
            print(f"   {name:36s} {m['value']:>16.6g} {m['unit']}")


def run_all(spec, seconds, smoke):
    """Every workload end to end (and, with --smoke, one traced run each)."""
    rows, code = [], 0
    for w in spec["workloads"]:
        for trace in ((False, True) if smoke else (False,)):
            rc, _, doc = run_one(spec, w["name"], 1, seconds, trace, smoke)
            label = w["name"] + (" (traced)" if trace else "")
            if doc is None or rc != 0:
                print(f"perfbench: {label} failed (exit {rc})", file=sys.stderr)
                code = 1
            if doc is not None:
                rows.append((label, doc))
    print_table(rows)
    print(json.dumps({"ok": code == 0, "runs": len(rows)}))
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes: every workload, traced and not, validated")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not (args.all or args.smoke) and args.workload not in names:
        fail(f"--workload must be one of {names}")
    build()

    if args.all or args.smoke:
        seconds = args.seconds if args.seconds is not None else (
            1 if args.smoke else spec["run_seconds"])
        return run_all(spec, seconds, args.smoke)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    code, lines, doc = run_one(spec, args.workload, args.seed, seconds,
                               bool(args.trace), False)
    for line in lines:
        print(line)
    if doc is None:
        print(f"perfbench: {args.workload}: no valid result", file=sys.stderr)
        return code or 1
    print(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
