#!/usr/bin/env python3
"""Build and run one hamlet benchmark workload.

    python3 perfbench/run.py --workload grid-highcap --seed 1 --seconds 20 --trace 0

Run from the root of a hamlet checkout. The first run configures and
builds perfbench/ (which builds the library from src/hamlet) into
.bench_build/perfbench; later runs only rebuild what changed. Every run
then runs the benchmark's own unit tests (perfbench_test) and stops if
they fail, before the workload starts. The last
line of stdout is the result object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The line before it is the detail object with the host and
config fingerprint. Each result is also saved under
.bench_build/perfbench/results/, and a traced run writes its spans to
.bench_build/perfbench/traces/. Workloads and metrics: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("grid-highcap", "mc-reponexr", "serve-socket")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds hamlet_perf and perfbench_test and runs
    the tests; all output to stderr."""
    if not (ROOT / "src" / "hamlet" / "CMakeLists.txt").is_file():
        fail(f"no hamlet sources under {ROOT / 'src' / 'hamlet'}")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "hamlet_perf",
                  "perfbench_test", "-j", jobs])
    steps.append([str(BUILD / "perfbench_test")])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"step failed ({done.returncode}): {' '.join(cmd)}")
    return BUILD / "hamlet_perf"


def commit():
    """The checkout's commit, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where there is no git metadata."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR, ROOT / "cmake"):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default-seed output tables as the "
                         "new reference instead of checking them")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    (BUILD / "traces").mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference-dir", str(BENCH_DIR / "reference"),
           "--commit", commit(), "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / "traces" / f"{name}.jsonl")]
    if args.write_reference:
        cmd.append("--write-reference")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stdout)
        fail(f"hamlet_perf exited {done.returncode}")
    try:
        detail = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        sys.stderr.write(done.stdout)
        fail(f"unparseable result: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    detail["result"] = result
    (BUILD / "results" / f"{name}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(done.stdout, end="")


if __name__ == "__main__":
    main()
