#!/usr/bin/env python3
"""Project lint for hamlet: repo-specific invariants no stock tool checks.

Rules
-----
  env-docs        Every knob read in src/ must appear in the README
                  environment-variable table, and every table row must
                  have a live read (doc drift in either direction fails).
                  A read is a common/env.h helper call that names the
                  variable as a string literal (UnsignedFromEnv,
                  ChoiceFromEnv or StringFromEnv("HAMLET_FOO", ...)) or
                  a getenv("HAMLET_FOO") call.
  determinism     No raw std::thread construction, rand()/srand(),
                  std::random_device, or wall-clock reads
                  (std::chrono::system_clock, time(), gettimeofday,
                  clock_gettime(CLOCK_REALTIME)) in src/ outside the
                  allowlist below. hamlet's reproducibility contract says
                  randomness flows from seeded generators and parallelism
                  flows through common/parallel; a stray rand() or thread
                  breaks bit-identical reruns silently. steady_clock is
                  fine (timing measurements, not schedule decisions).
  unordered-iter  No range-for over an unordered_map/unordered_set in
                  src/: iteration order is unspecified, so anything
                  derived from it (output lines, aggregates in float
                  arithmetic, serialized bytes) can differ run to run.
  test-reg        Every tests/*_test.cc must be registered in
                  tests/CMakeLists.txt — an unregistered suite compiles
                  green in nobody's build and rots.
  fp-contract     No fused multiply-add and no fast-math. In src/: a
                  target/target_clones attribute naming fma (or an
                  arch=, which implies it), an _mm*_fmadd/fmsub-family
                  intrinsic, std::fma or __builtin_fma. In the root
                  CMakeLists.txt and the CMake files under src/ and
                  cmake/: -ffast-math, -Ofast, -mfma, -march=,
                  -ffp-contract=fast or -funsafe-math-optimizations.
                  hamlet's results are pinned bit for bit (the MLP's
                  vectorised loops keep every sum's operand order); a
                  fused or reassociated sum changes the bits.
  status-discard  No `(void)` discard of a `.Fit(`/`->Fit(` or
                  `Apply*(` call in bench/ or examples/. Those calls
                  return a Status; a discarded failure lets a bench or
                  example print numbers from an unfitted model and still
                  exit 0. Check it, print it and exit non-zero instead.
  kernel-math     `KernelFromMatches(` appears only in
                  src/hamlet/ml/svm/kernel.cc (checked in src/, bench/,
                  examples/, tests/ and perfbench/). It is the one site
                  of the SVM kernel float math; everything else reads
                  kernel values from a KernelValuesByMatches table built
                  once per fit or model, which keeps per-pair exp/pow out
                  of the hot loops.
  env-read        `getenv(` appears in src/ only in
                  src/hamlet/common/env.cc. Every knob is read through
                  the common/env.h helpers, so every knob has one
                  grammar and one invalid-value warning.
  simd-home       x86 intrinsics (`_mm*_` calls, `__m128`/`__m256`/
                  `__m512` types, an `<*intrin.h>` include) and ISA
                  target attributes (`target("avx2")`, `target("sse4.2")`,
                  `target("popcnt")`, ...) appear in src/ only under
                  src/hamlet/simd/. That directory holds every kernel
                  with a scalar twin, a CPU-picked dispatch and a parity
                  test; ISA code anywhere else has none of the three.
  counter-home    A namespace-scope `std::atomic<uint64_t> g_...`
                  definition (or a std::array of them) appears in src/
                  only in src/hamlet/common/counters.cc. Every
                  process-wide work count is a Counter of that one
                  registry, read by one Snapshot and scoped by one
                  subtraction; a second hand-written counter needs its
                  own reader, delta and reset. Member atomics (indented,
                  inside a class) and the header's `extern` declaration
                  define no new counter and stay quiet.
  predict-home    A `Predict(const DataView` or `PredictAll(const
                  DataView` declaration or definition appears in src/
                  only in src/hamlet/ml/classifier.{h,cc}. Learners
                  score row-major codes through ml::CodeClassifier's one
                  PredictCodes hook, which writes both view paths once;
                  a hand-written view path is a second scoring path that
                  parity tests must pin. Call sites pass a view and do
                  not match.
  remap-home      `ReplaceColumn(` appears in src/, bench/ and examples/
                  only in src/hamlet/data/dataset.{h,cc} and
                  src/hamlet/core/fk_compression.cc. FK compression and
                  FK smoothing both rewrite a column through a
                  core::DomainMapping, and core::ApplyMapping is the one
                  place that checks the map against the column's domain
                  before rewriting it; a second column rewrite is a
                  second, unchecked remap path.
  int-parse       No C integer parsers in src/ code: strtol, strtoll,
                  strtoul, strtoull, atoi, atol, atoll and the std::sto*
                  family (comments and strings pass). They accept signs,
                  whitespace and base prefixes, and they clamp or wrap on
                  overflow; src/ parses digits with ParseDigitRun and
                  ParseUnsigned (common/stringx.h), one grammar and one
                  overflow rule for request lines, knobs and flags.
  bench-clock     No clock reads and no timing harness in bench/:
                  `steady_clock`, `system_clock`, `high_resolution_clock`,
                  `clock_gettime(` or a google-benchmark include
                  (`<benchmark/...>`). Bench stdout is a golden-pinned spec of
                  deterministic work, so a timing printed there can
                  never be checked; perfbench/ is the one source of
                  timings.

Waivers: append `// hamlet-lint: allow(<rule>)` to the offending line,
or `# hamlet-lint: allow(<rule>)` in a CMake file (rule is one of:
determinism, unordered-iter, fp-contract). env-docs and test-reg are
cross-file properties with no meaningful per-line waiver, a discarded
Status has no legitimate use in status-discard's scope, and a second
kernel-math, env-read, counter-home, predict-home or remap-home site,
ISA code outside simd/, a C integer parser in src/, or a clock in bench/
is exactly what those rules exist to stop.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
Run from anywhere: paths resolve relative to the repo root (parent of
this script's directory). `--root DIR` overrides, for the self-test.
"""

import argparse
import os
import re
import sys

# std::thread is allowed only where the threading layer itself lives:
# the pool, and the socket front-end (acceptor + reader threads are its
# documented design; see net_server.h).
DETERMINISM_ALLOWLIST = {
    "src/hamlet/common/parallel.cc",
    "src/hamlet/serve/net/net_server.h",
    "src/hamlet/serve/net/net_server.cc",
    "src/hamlet/serve/hamlet_serve_main.cc",
}

WAIVER_RE = re.compile(r"//\s*hamlet-lint:\s*allow\(([a-z-]+)\)")
CMAKE_WAIVER_RE = re.compile(r"#\s*hamlet-lint:\s*allow\(([a-z-]+)\)")

ENV_SITE_RE = re.compile(r'(?:getenv\s*\(\s*|FromEnv\s*\(\s*)"(HAMLET_[A-Z0-9_]+)"')
ENV_DOC_RE = re.compile(r"^\|\s*`(HAMLET_[A-Z0-9_]+)`\s*\|")

DETERMINISM_PATTERNS = [
    (re.compile(r"\bstd::thread\b"), "std::thread",
     "spawn through common/parallel so HAMLET_THREADS governs it"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()",
     "use a seeded SplitMix64/engine so reruns are bit-identical"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device",
     "nondeterministic seed source; thread the seed from config"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock",
     "wall clock; use steady_clock for intervals"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|&)"), "time()",
     "wall clock; use steady_clock for intervals"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday",
     "wall clock; use steady_clock for intervals"),
    (re.compile(r"\bclock_gettime\s*\(\s*CLOCK_REALTIME"),
     "clock_gettime(CLOCK_REALTIME)",
     "wall clock; use steady_clock for intervals"),
]

# fp-contract, C++ side. The attribute check reads string contents (the
# ISA list is a string literal); the others read code only.
FMA_ATTRIBUTE_RE = re.compile(
    r'\btarget(?:_clones)?\s*\(\s*"[^)]*(?:\bfma\b|\barch=)')
FMA_CODE_PATTERNS = [
    (re.compile(r"\b_mm\w*_fn?m(?:add|sub)\w*"), "an FMA intrinsic"),
    (re.compile(r"\bstd::fma[fl]?\b"), "std::fma"),
    (re.compile(r"\b__builtin_fma\w*"), "__builtin_fma"),
]
# fp-contract, CMake side.
FP_FLAG_RE = re.compile(
    r"(?<![\w-])(-ffast-math|-Ofast|-mfma|-march=\S*|-ffp-contract=fast|"
    r"-funsafe-math-optimizations)\b")

UNORDERED_ITER_RE = re.compile(
    r"for\s*\(.*:\s*\w[\w\->\.\[\]\(\)]*unordered_(?:map|set)|"
    r"for\s*\(.*:\s*[^)]*\bunordered_\w+<[^)]*\)")

# Range-for whose sequence expression mentions a variable we saw declared
# as an unordered container in the same file. Two-pass: collect declared
# names, then flag `for (... : name)`.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)\s*[;{=(]")

TEST_REG_RE = re.compile(r"([A-Za-z0-9_]+_test\.cc)")

STATUS_DISCARD_RE = re.compile(
    r"\(\s*void\s*\)\s*[^;]*?(?:(?:\.|->)Fit|\bApply\w*)\s*\(")
STATUS_DISCARD_DIRS = ("bench", "examples")

# One-home rules: a pattern that may appear only in its home files. Each
# entry is (rule, pattern, the home files, directories scanned, fix hint).
ONE_HOME_RULES = [
    ("kernel-math", re.compile(r"\bKernelFromMatches\s*\("),
     ("src/hamlet/ml/svm/kernel.cc",),
     ("src", "bench", "examples", "tests", "perfbench"),
     "KernelFromMatches outside %s; read kernel values from a "
     "KernelValuesByMatches table"),
    ("env-read", re.compile(r"getenv\s*\("),
     ("src/hamlet/common/env.cc",), ("src",),
     "getenv outside %s; read knobs through the common/env.h helpers"),
    # Namespace scope = column 0: hamlet does not indent namespace bodies.
    ("counter-home",
     re.compile(r"^(?:(?:static|inline|constinit|thread_local)\s+)*"
                r"(?:std::array<\s*)?std::atomic<\s*(?:std::)?uint64_t\s*>"
                r"(?:\s*,[^>]*>)?\s+g_\w*"),
     ("src/hamlet/common/counters.cc",), ("src",),
     "namespace-scope counter atomic outside %s; add a Counter to "
     "common/counters.h and count with counters::Add"),
    # A declaration or definition takes a `const DataView&`; a call site
    # passes a view, so it does not match.
    ("predict-home",
     re.compile(r"\bPredict(?:All)?\s*\(\s*const\s+"
                r"(?:hamlet::)?DataView\b"),
     ("src/hamlet/ml/classifier.h", "src/hamlet/ml/classifier.cc"),
     ("src",),
     "a view scoring path outside %s; derive the learner from "
     "ml::CodeClassifier and implement PredictCodes"),
    ("remap-home", re.compile(r"\bReplaceColumn\s*\("),
     ("src/hamlet/data/dataset.h", "src/hamlet/data/dataset.cc",
      "src/hamlet/core/fk_compression.cc"), ("src", "bench", "examples"),
     "a column rewrite outside %s; build a core::DomainMapping and "
     "call core::ApplyMapping"),
]


# simd-home: ISA-specific code, allowed in src/ only under SIMD_HOME.
SIMD_HOME = "src/hamlet/simd/"
SIMD_CODE_PATTERNS = [
    (re.compile(r"\b_mm\d*_\w+"), "an x86 intrinsic"),
    (re.compile(r"\b__m(?:64|128|256|512)[di]?\b"), "an x86 vector type"),
]
SIMD_RAW_PATTERNS = [
    (re.compile(r"#\s*include\s*<\w*intrin\.h>"), "an intrinsics header"),
    (re.compile(r'\btarget(?:_clones)?\s*\(\s*"[^)]*'
                r'\b(?:avx\w*|sse\w*|popcnt|bmi\w*|lzcnt)'),
     "an ISA target attribute"),
]

# bench-clock: timing code, rejected anywhere under bench/. The clock
# names are matched in code (comments and strings removed); the include
# of any google-benchmark header is matched with its name intact.
BENCH_CLOCK_CODE_PATTERNS = [
    (re.compile(r"\b(?:steady|system|high_resolution)_clock\b"),
     "a std::chrono clock"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime"),
]
# int-parse: C/C++ library integer parsers, matched in code only.
INT_PARSE_RE = re.compile(
    r"\b(?:strto(?:l|ll|ul|ull)|ato(?:i|l|ll)|"
    r"std::sto(?:i|l|ll|ul|ull|f|d|ld))\s*\(")

BENCH_CLOCK_RAW_RE = re.compile(
    r'#\s*include\s*[<"]benchmark/')


def strip_line_comment(line):
    """Drops a // comment but keeps string literals (a `//` inside a
    string does not start a comment)."""
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            return line[:i]
        i += 1
    return line


def strip_comments_and_strings(line):
    """Removes string/char literals and // comments so pattern hits in
    documentation or messages don't count. Keeps the waiver comment
    readable by operating on a copy. Block comments are handled by the
    caller's state flag."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append('""' if quote == '"' else "''")
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def read_code(path):
    """Returns (raw lines, code lines with comments and strings removed,
    code lines with only comments removed) for a C++ file; block
    comments are tracked across lines."""
    lines = open(path, encoding="utf-8").read().splitlines()
    stripped_lines = []
    uncommented_lines = []
    in_block_comment = False
    for raw in lines:
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                stripped_lines.append("")
                uncommented_lines.append("")
                continue
            line = line[end + 2:]
            in_block_comment = False
        # Remove complete /* ... */ spans, then detect an opener.
        line = re.sub(r"/\*.*?\*/", "", line)
        start = line.find("/*")
        if start >= 0:
            line = line[:start]
            in_block_comment = True
        stripped_lines.append(strip_comments_and_strings(line))
        uncommented_lines.append(strip_line_comment(line))
    return lines, stripped_lines, uncommented_lines


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []

    def add(self, path, lineno, rule, msg):
        self.findings.append((path, lineno, rule, msg))

    def rel(self, path):
        return os.path.relpath(path, self.root).replace(os.sep, "/")

    def source_files(self, subdir, exts=(".h", ".cc")):
        base = os.path.join(self.root, subdir)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)

    # -- env-docs ------------------------------------------------------
    def check_env_docs(self):
        sites = {}  # var -> first "file:line"
        for path in self.source_files("src"):
            rel = self.rel(path)
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    for var in ENV_SITE_RE.findall(line):
                        sites.setdefault(var, "%s:%d" % (rel, lineno))
        documented = set()
        readme = os.path.join(self.root, "README.md")
        if os.path.exists(readme):
            with open(readme, encoding="utf-8") as f:
                for line in f:
                    m = ENV_DOC_RE.match(line.strip())
                    if m:
                        documented.add(m.group(1))
        for var in sorted(set(sites) - documented):
            self.add(sites[var], 0, "env-docs",
                     "%s is read here but missing from the README "
                     "environment-variable table" % var)
        for var in sorted(documented - set(sites)):
            self.add("README.md", 0, "env-docs",
                     "%s is documented in the README table but no "
                     "getenv/FromEnv site in src/ reads it" % var)

    # -- determinism + unordered-iter (per-line scans) -----------------
    def check_source_rules(self):
        for path in self.source_files("src"):
            rel = self.rel(path)
            decl_names = set()
            lines, stripped_lines, uncommented_lines = read_code(path)
            for code in stripped_lines:
                for name in UNORDERED_DECL_RE.findall(code):
                    decl_names.add(name)
            iter_res = [
                re.compile(r"for\s*\(\s*[^;)]*:\s*" + re.escape(name) +
                           r"\s*\)")
                for name in decl_names
            ]
            for lineno, (raw, code, uncommented) in enumerate(
                    zip(lines, stripped_lines, uncommented_lines), 1):
                waiver = WAIVER_RE.search(raw)
                waived = waiver.group(1) if waiver else None
                if waived != "fp-contract":
                    hits = [what for pat, what in FMA_CODE_PATTERNS
                            if pat.search(code)]
                    if FMA_ATTRIBUTE_RE.search(uncommented):
                        hits.append("a target attribute enabling FMA")
                    for what in hits:
                        self.add(rel, lineno, "fp-contract",
                                 "%s in src/: fused multiply-add changes "
                                 "rounding and breaks the bit-identity "
                                 "pins" % what)
                if rel not in DETERMINISM_ALLOWLIST and waived != \
                        "determinism":
                    for pat, what, why in DETERMINISM_PATTERNS:
                        if pat.search(code):
                            self.add(rel, lineno, "determinism",
                                     "%s in src/ (%s)" % (what, why))
                if waived != "unordered-iter":
                    hit = UNORDERED_ITER_RE.search(code) or any(
                        r.search(code) for r in iter_res)
                    if hit:
                        self.add(
                            rel, lineno, "unordered-iter",
                            "range-for over an unordered container: "
                            "iteration order is unspecified; sort first "
                            "or waive with "
                            "// hamlet-lint: allow(unordered-iter)")

    # -- fp-contract (CMake side) -------------------------------------
    def cmake_files(self):
        top = os.path.join(self.root, "CMakeLists.txt")
        if os.path.exists(top):
            yield top
        for subdir in ("src", "cmake"):
            for path in self.source_files(subdir,
                                          exts=("CMakeLists.txt", ".cmake")):
                yield path

    def check_cmake_fp_flags(self):
        for path in self.cmake_files():
            rel = self.rel(path)
            with open(path, encoding="utf-8") as f:
                for lineno, raw in enumerate(f, 1):
                    waiver = CMAKE_WAIVER_RE.search(raw)
                    if waiver and waiver.group(1) == "fp-contract":
                        continue
                    code = raw.split("#", 1)[0]
                    for flag in FP_FLAG_RE.findall(code):
                        self.add(rel, lineno, "fp-contract",
                                 "%s in a CMake file: it licenses fused or "
                                 "reassociated floating-point math, which "
                                 "breaks the bit-identity pins" % flag)

    # -- status-discard ------------------------------------------------
    def check_status_discard(self):
        for subdir in STATUS_DISCARD_DIRS:
            for path in self.source_files(subdir, exts=(".h", ".cc", ".cpp")):
                rel = self.rel(path)
                _, stripped_lines, _ = read_code(path)
                for lineno, code in enumerate(stripped_lines, 1):
                    if STATUS_DISCARD_RE.search(code):
                        self.add(rel, lineno, "status-discard",
                                 "(void) discards the Status of a Fit/"
                                 "Apply call; check it, print it and "
                                 "exit non-zero")

    # -- kernel-math + env-read + counter-home + predict-home ----------
    def check_one_home_rules(self):
        for rule, pattern, homes, dirs, hint in ONE_HOME_RULES:
            for subdir in dirs:
                for path in self.source_files(subdir,
                                              exts=(".h", ".cc", ".cpp")):
                    rel = self.rel(path)
                    if rel in homes:
                        continue
                    _, stripped_lines, _ = read_code(path)
                    for lineno, code in enumerate(stripped_lines, 1):
                        if pattern.search(code):
                            self.add(rel, lineno, rule,
                                     hint % ", ".join(homes))

    # -- simd-home -----------------------------------------------------
    def check_simd_home(self):
        for path in self.source_files("src"):
            rel = self.rel(path)
            if rel.startswith(SIMD_HOME):
                continue
            _, stripped_lines, uncommented_lines = read_code(path)
            for lineno, (code, uncommented) in enumerate(
                    zip(stripped_lines, uncommented_lines), 1):
                hits = [what for pat, what in SIMD_CODE_PATTERNS
                        if pat.search(code)]
                hits += [what for pat, what in SIMD_RAW_PATTERNS
                         if pat.search(uncommented)]
                for what in hits:
                    self.add(rel, lineno, "simd-home",
                             "%s outside %s; put ISA code in a simd/ "
                             "kernel with a scalar version and a parity "
                             "test" % (what, SIMD_HOME))

    # -- int-parse -----------------------------------------------------
    def check_int_parse(self):
        for path in self.source_files("src"):
            rel = self.rel(path)
            _, stripped_lines, _ = read_code(path)
            for lineno, code in enumerate(stripped_lines, 1):
                for m in INT_PARSE_RE.finditer(code):
                    name = re.sub(r"\s*\($", "", m.group(0))
                    self.add(rel, lineno, "int-parse",
                             "%s in src/; parse digits with ParseDigitRun "
                             "or ParseUnsigned (common/stringx.h)" % name)

    # -- bench-clock ---------------------------------------------------
    def check_bench_clock(self):
        for path in self.source_files("bench", exts=(".h", ".cc", ".cpp")):
            rel = self.rel(path)
            _, stripped_lines, uncommented_lines = read_code(path)
            for lineno, (code, uncommented) in enumerate(
                    zip(stripped_lines, uncommented_lines), 1):
                hits = [what for pat, what in BENCH_CLOCK_CODE_PATTERNS
                        if pat.search(code)]
                if BENCH_CLOCK_RAW_RE.search(uncommented):
                    hits.append("the google-benchmark harness")
                for what in hits:
                    self.add(rel, lineno, "bench-clock",
                             "%s in bench/; print deterministic work "
                             "counts and take timings from perfbench/"
                             % what)

    # -- test-reg ------------------------------------------------------
    def check_test_registration(self):
        tests_dir = os.path.join(self.root, "tests")
        cml = os.path.join(tests_dir, "CMakeLists.txt")
        if not os.path.isdir(tests_dir):
            return
        registered = set()
        if os.path.exists(cml):
            with open(cml, encoding="utf-8") as f:
                registered = set(TEST_REG_RE.findall(f.read()))
        for name in sorted(os.listdir(tests_dir)):
            if name.endswith("_test.cc") and name not in registered:
                self.add("tests/" + name, 0, "test-reg",
                         "test suite is not registered in "
                         "tests/CMakeLists.txt; it builds in nobody's "
                         "tree")

    def run(self):
        self.check_env_docs()
        self.check_source_rules()
        self.check_cmake_fp_flags()
        self.check_status_discard()
        self.check_one_home_rules()
        self.check_simd_home()
        self.check_int_parse()
        self.check_bench_clock()
        self.check_test_registration()
        return self.findings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repo root (default: parent of this script's directory)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")) and not os.path.isdir(
            os.path.join(root, "tests")):
        print("hamlet_lint: %s has neither src/ nor tests/" % root,
              file=sys.stderr)
        return 2
    findings = Linter(root).run()
    for path, lineno, rule, msg in findings:
        loc = "%s:%d" % (path, lineno) if lineno else path
        print("%s: [%s] %s" % (loc, rule, msg))
    if findings:
        print("hamlet_lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("hamlet_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
