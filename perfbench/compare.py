#!/usr/bin/env python3
"""Compare two saved benchmark results, refusing different fingerprints.

    python3 perfbench/compare.py BASE.json NEW.json

BASE and NEW are files that perfbench/run.py saved under
.bench_build/perfbench/results/. The comparison is refused (exit 2) when
the two runs differ in workload, trace mode, or any fingerprint field
other than the code identity (commit, source digest). Those fields are
the host (nproc, CPU model), the build (type, compiler) and the
effective HAMLET_* knobs. A baseline from a 1-core host cannot then
report a speed-up on a 4-core one. Otherwise it prints each metric with
NEW / BASE.
"""

import json
import sys

CODE_IDENTITY = {"commit", "source_digest"}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(p)) for p in sys.argv[1:])
    problems = []
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            problems.append(f"{key}: {base[key]} vs {new[key]}")
    fb, fn = base["fingerprint"], new["fingerprint"]
    for key in sorted((set(fb) | set(fn)) - CODE_IDENTITY):
        if fb.get(key) != fn.get(key):
            problems.append(f"fingerprint {key}: {fb.get(key)!r} vs {fn.get(key)!r}")
    if problems:
        print("refusing to compare runs with different fingerprints:")
        for p in problems:
            print(f"  {p}")
        return 2
    mb, mn = base["result"]["metrics"], new["result"]["metrics"]
    print(f"{base['workload']} (trace {base['trace']}): "
          f"{fb.get('commit')} -> {fn.get('commit')}")
    for name in mb:
        if name not in mn:
            continue
        b, n = mb[name]["value"], mn[name]["value"]
        ratio = f"{n / b:.3f}x" if b else "n/a"
        print(f"  {name:28s} {b:>14.6g} -> {n:>14.6g} {mb[name]['unit']:7s} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
