#!/usr/bin/env python3
"""Run every hamlet bench binary and aggregate timings into one JSON file.

Invoked by the `bench_run_all` CMake target as

    run_all.py --mode smoke --output BENCH_results.json --bench <bin>...

but also usable standalone against an existing build tree:

    bench/run_all.py --mode quick --output /tmp/r.json --bench build/bench/bench_*

Each bench runs with HAMLET_BENCH_MODE set to --mode; the report records
per-bench wall time, exit code, and captured stdout tail, keyed by the
paper figure/table the binary reproduces, so later perf PRs can diff
`BENCH_results.json` across commits. The report also records the threading
context (HAMLET_THREADS and the host core count) since bench wall times
are only comparable at equal parallelism. Pass --baseline <old.json> to
print per-bench speedups against a previous report and embed them as
`speedup_vs_baseline`; the CMake `bench_run_all` target passes the
committed bench/BENCH_baseline.json automatically when it exists (see
HAMLET_BENCH_BASELINE), so CI artifacts record the perf delta.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

# Wall times below this are rounding noise (seconds are rounded to 1 ms);
# dividing by them turns the informational speedup column into inf or a
# ZeroDivisionError, so such comparisons are reported as null instead.
MIN_COMPARABLE_SECONDS = 1e-3

# Stable marker printed by bench::PrintSvmCacheStats (SVM-heavy benches):
#   [svm-cache] hits=123 misses=45 hit_rate=0.7321 fits=9 iters=1200 \
#       shrinks=3 unshrinks=2
# (hit_rate=n/a when no SVM fit ran inside the bench's stats scope).
# The full schema is documented in docs/BENCH_SCHEMA.md.
SVM_CACHE_RE = re.compile(
    r"^\[svm-cache\] hits=(\d+) misses=(\d+) hit_rate=(n/a|[0-9.]+) "
    r"fits=(\d+) iters=(\d+) shrinks=(\d+) unshrinks=(\d+)$")


# Stable marker printed by bench_serving_throughput, one line per model
# family served through a Save/Load round trip:
#   [serving] model=dt-gini rows=6000 runs=3 seconds=0.000133 \
#       preds_per_sec=44958974.9 p50_us=43.9 p99_us=47.5 errors=0
# The full schema is documented in docs/BENCH_SCHEMA.md.
SERVING_RE = re.compile(
    r"^\[serving\] model=([A-Za-z0-9._-]+) rows=(\d+) runs=(\d+) "
    r"seconds=([0-9.]+) preds_per_sec=([0-9.]+) "
    r"p50_us=([0-9.]+) p99_us=([0-9.]+) errors=(\d+)$")

# Stable marker printed by bench::PrintPackedStats (the match-counting
# benches: 1-NN and the SVM families):
#   [packed] backend=native builds=12 rows=7200 words_per_row=2.00 \
#       evals=48000 eval_words=96000
# (words_per_row=n/a when nothing was packed inside the stats scope).
# The full schema is documented in docs/BENCH_SCHEMA.md.
PACKED_RE = re.compile(
    r"^\[packed\] backend=(swar|native) builds=(\d+) rows=(\d+) "
    r"words_per_row=(n/a|[0-9.]+) evals=(\d+) eval_words=(\d+)$")

# Baselines from reports older than this schema lack the packed-code
# counters (v7), the serving `errors` counter (pre-v6), the `serving`
# block itself (pre-v5), or the smo/svm_cache semantics (pre-v4) — and
# pre-v7 wall times predate the packed match-counting hot loops, so they
# are not comparable run-for-run; speedups against them are nulled out.
MIN_BASELINE_SCHEMA = 7


class SvmCacheParseError(ValueError):
    """A bench printed an [svm-cache] line this script cannot parse."""


class ServingParseError(ValueError):
    """A bench printed a [serving] line this script cannot parse."""


class PackedParseError(ValueError):
    """A bench printed a [packed] line this script cannot parse."""


def parse_packed(output: str):
    """Extracts the packed-code counters a bench printed, if any.

    Returns a dict, or None when the bench printed no [packed] line at
    all. A line that STARTS with the marker but does not match the
    schema raises PackedParseError, for the same fail-loudly reason as
    parse_svm_cache.
    """
    parsed = None
    for line in output.splitlines():
        if not line.startswith("[packed]"):
            continue
        match = PACKED_RE.fullmatch(line.rstrip())
        if match is None:
            raise PackedParseError(
                f"unparseable [packed] line: {line.rstrip()!r} "
                f"(expected: {PACKED_RE.pattern!r}; "
                "see docs/BENCH_SCHEMA.md)")
        parsed = match
    if parsed is None:
        return None
    words_per_row = parsed.group(4)
    return {
        "backend": parsed.group(1),
        "builds": int(parsed.group(2)),
        "rows": int(parsed.group(3)),
        "words_per_row": (None if words_per_row == "n/a"
                          else float(words_per_row)),
        "evals": int(parsed.group(5)),
        "eval_words": int(parsed.group(6)),
    }


def parse_serving(output: str):
    """Extracts the per-family serving stats a bench printed, if any.

    Returns a list of per-model dicts in print order, or None when the
    bench printed no [serving] line at all. A line that STARTS with the
    marker but does not match the schema raises ServingParseError, for
    the same fail-loudly reason as parse_svm_cache.
    """
    models = []
    for line in output.splitlines():
        if not line.startswith("[serving]"):
            continue
        match = SERVING_RE.fullmatch(line.rstrip())
        if match is None:
            raise ServingParseError(
                f"unparseable [serving] line: {line.rstrip()!r} "
                f"(expected: {SERVING_RE.pattern!r}; "
                "see docs/BENCH_SCHEMA.md)")
        models.append({
            "model": match.group(1),
            "rows": int(match.group(2)),
            "runs": int(match.group(3)),
            "model_seconds": float(match.group(4)),
            "preds_per_sec": float(match.group(5)),
            "p50_us": float(match.group(6)),
            "p99_us": float(match.group(7)),
            "errors": int(match.group(8)),
        })
    return models or None


def parse_svm_cache(output: str):
    """Extracts the cache + SMO counters a bench printed, if any.

    Returns (svm_cache, smo) dicts, or (None, None) when the bench
    printed no [svm-cache] line at all. A line that STARTS with the
    marker but does not match the schema raises SvmCacheParseError:
    silently recording nulls would hide a reporting-format regression
    from every downstream consumer of BENCH_results.json.
    """
    parsed = None
    for line in output.splitlines():
        if not line.startswith("[svm-cache]"):
            continue
        match = SVM_CACHE_RE.fullmatch(line.rstrip())
        if match is None:
            raise SvmCacheParseError(
                f"unparseable [svm-cache] line: {line.rstrip()!r} "
                f"(expected: {SVM_CACHE_RE.pattern!r}; "
                "see docs/BENCH_SCHEMA.md)")
        parsed = match
    if parsed is None:
        return None, None
    hits, misses = int(parsed.group(1)), int(parsed.group(2))
    total = hits + misses
    svm_cache = {
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / total, 4) if total else None,
    }
    smo = {
        "fits": int(parsed.group(4)),
        "iterations": int(parsed.group(5)),
        "shrink_events": int(parsed.group(6)),
        "unshrink_events": int(parsed.group(7)),
    }
    return svm_cache, smo


def run_one(path: str, mode: str, timeout_s: int) -> dict:
    name = os.path.basename(path)
    env = dict(os.environ, HAMLET_BENCH_MODE=mode)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [path],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=timeout_s,
        )
        exit_code = proc.returncode
        output = proc.stdout
    except subprocess.TimeoutExpired as exc:
        # TimeoutExpired.stdout is bytes even when text=True.
        partial = exc.stdout or b""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        exit_code = -1
        output = partial + f"\n[timeout after {timeout_s}s]"
    except OSError as exc:
        exit_code = -1
        output = f"[failed to launch: {exc}]"
    seconds = time.monotonic() - start

    tail = output.splitlines()[-12:]
    figure = name[len("bench_"):] if name.startswith("bench_") else name
    # Fail fast on a malformed [svm-cache] line from a SUCCESSFUL bench:
    # a schema drift between bench_util.h and this parser must break the
    # run loudly, not record nulls that look like "this bench has no SVM
    # stats". A timed-out or crashed bench can legitimately leave a
    # truncated line behind; that case is already reported through
    # ok=false / exit_code, so keep its partial results.
    try:
        svm_cache, smo = parse_svm_cache(output)
    except SvmCacheParseError as exc:
        if exit_code == 0:
            sys.exit(f"[run_all] error: bench {name}: {exc}")
        svm_cache, smo = None, None
    # Same contract for [serving] lines (bench_serving_throughput).
    try:
        serving = parse_serving(output)
    except ServingParseError as exc:
        if exit_code == 0:
            sys.exit(f"[run_all] error: bench {name}: {exc}")
        serving = None
    # Same contract for [packed] lines (1-NN / SVM benches).
    try:
        packed = parse_packed(output)
    except PackedParseError as exc:
        if exit_code == 0:
            sys.exit(f"[run_all] error: bench {name}: {exc}")
        packed = None
    return {
        "name": name,
        "figure": figure,
        "seconds": round(seconds, 3),
        "exit_code": exit_code,
        "ok": exit_code == 0,
        # Kernel-row cache + SMO solver counters (SVM-heavy benches print
        # them; null for benches that don't) so CI artifacts track cache
        # effectiveness and iteration counts across commits.
        "svm_cache": svm_cache,
        "smo": smo,
        # Per-family serving throughput through a model-format round trip
        # (bench_serving_throughput prints it; null for other benches).
        "serving": serving,
        # Packed-code layer counters: active backend, build/eval volume
        # (the 1-NN and SVM benches print them; null elsewhere).
        "packed": packed,
        "stdout_tail": tail,
    }


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        epilog="The output schema (currently version 7) is documented in "
               "docs/BENCH_SCHEMA.md, alongside the HAMLET_BENCH_MODE / "
               "HAMLET_BENCH_BASELINE knobs.")
    ap.add_argument("--mode", default="smoke",
                    choices=["smoke", "quick", "full"])
    ap.add_argument("--output", required=True,
                    help="path of the aggregated JSON report")
    ap.add_argument("--timeout", type=int, default=900,
                    help="per-bench timeout in seconds")
    ap.add_argument("--baseline",
                    help="previous BENCH_results.json to compute per-bench "
                         "speedups against")
    ap.add_argument("--bench", nargs="+", required=True,
                    help="bench binaries to run")
    args = ap.parse_args()

    baseline_seconds = {}
    if args.baseline:
        # A stale or unreadable baseline must not fail the bench run: the
        # speedup columns are informational, the timings are the payload.
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
            # A baseline from an older schema is not comparable bench-for-
            # bench (pre-v7 reports predate the packed match-counting hot
            # loops): warn and null the speedup columns rather than report
            # ratios against a different workload. Refresh the committed
            # baseline with bench/refresh_baseline.py.
            schema = baseline.get("schema_version")
            if not isinstance(schema, int) or schema < MIN_BASELINE_SCHEMA:
                print(f"[run_all] warning: baseline {args.baseline} has "
                      f"schema_version {schema!r} < {MIN_BASELINE_SCHEMA}; "
                      "speedups will be null (refresh it with "
                      "bench/refresh_baseline.py)", file=sys.stderr)
                args.baseline = None
            else:
                baseline_seconds = {b["name"]: b["seconds"]
                                    for b in baseline.get("benches", [])}
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            print(f"[run_all] warning: ignoring baseline {args.baseline}: "
                  f"{exc}", file=sys.stderr)
            args.baseline = None

    results = []
    for path in args.bench:
        print(f"[run_all] {os.path.basename(path)} ...",
              flush=True)
        result = run_one(path, args.mode, args.timeout)
        status = "ok" if result["ok"] else f"FAILED ({result['exit_code']})"
        base = baseline_seconds.get(result["name"])
        if base is not None:
            # Zero/near-zero wall times (possible for the fastest benches
            # in smoke mode) make the ratio meaningless: record null
            # rather than inf or a ZeroDivisionError.
            if (isinstance(base, (int, float))
                    and base >= MIN_COMPARABLE_SECONDS
                    and result["seconds"] >= MIN_COMPARABLE_SECONDS):
                result["speedup_vs_baseline"] = round(
                    base / result["seconds"], 3)
                status += f", {result['speedup_vs_baseline']}x vs baseline"
            else:
                result["speedup_vs_baseline"] = None
                status += ", speedup not comparable"
        cache = result["svm_cache"]
        if cache and cache["hit_rate"] is not None:
            status += f", cache hit rate {cache['hit_rate']}"
        print(f"[run_all]   {status} in {result['seconds']}s", flush=True)
        results.append(result)

    report = {
        # v7: per-bench `packed` block (backend + packed-code build/eval
        # counters from the simd match-counting layer), and baselines
        # older than v7 are rejected with null speedups because their
        # wall times predate the packed hot loops. v6 added the serving
        # `errors` counter; v5 the `serving` block; v4 `smo` next to
        # `svm_cache`. speedup_vs_baseline may be null when either wall
        # time is too small to compare. See docs/BENCH_SCHEMA.md.
        "schema_version": 7,
        "suite": "hamlet-bench",
        "mode": args.mode,
        # Wall times are only comparable at equal parallelism, so pin the
        # threading context alongside them (unset = hardware concurrency).
        "hamlet_threads": os.environ.get("HAMLET_THREADS"),
        "host_cores": os.cpu_count(),
        "baseline": args.baseline,
        "num_benches": len(results),
        "num_failed": sum(1 for r in results if not r["ok"]),
        "total_seconds": round(sum(r["seconds"] for r in results), 3),
        "benches": results,
    }
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"[run_all] wrote {args.output}: {report['num_benches']} benches, "
          f"{report['num_failed']} failed, {report['total_seconds']}s total "
          f"(HAMLET_THREADS={report['hamlet_threads'] or 'default'}, "
          f"{report['host_cores']} cores)")
    if baseline_seconds:
        compared = [r for r in results
                    if r.get("speedup_vs_baseline") is not None]
        total_base = sum(baseline_seconds[r["name"]] for r in compared)
        total_now = sum(r["seconds"] for r in compared)
        if compared and total_now >= MIN_COMPARABLE_SECONDS:
            overall = total_base / total_now
            print(f"[run_all] overall speedup vs {args.baseline}: "
                  f"{overall:.3f}x over {len(compared)} benches")
    return 1 if report["num_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
