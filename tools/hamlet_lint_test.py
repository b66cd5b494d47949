#!/usr/bin/env python3
"""Self-test for hamlet_lint.py: builds throwaway repo fixtures with one
seeded violation per rule and asserts the linter (a) fires on each,
(b) stays quiet on the clean fixture, and (c) honors waiver comments and
the determinism allowlist. Run via ctest (label: lint) or directly."""

import os
import shutil
import subprocess
import sys
import tempfile

LINT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "hamlet_lint.py")

README_WITH = """# fixture
| variable | default | meaning |
|---|---|---|
| `HAMLET_FIXTURE_VAR` | unset | documented and read |
"""

README_EXTRA_ROW = README_WITH + \
    "| `HAMLET_GHOST_VAR` | unset | documented but never read |\n"

KNOB_CC = 'auto n = UnsignedFromEnv("HAMLET_FIXTURE_VAR", 1, 8);\n'


class Fixture:
    """One throwaway repo root under a shared temp dir."""

    def __init__(self, base, name):
        self.root = os.path.join(base, name)
        os.makedirs(os.path.join(self.root, "src", "hamlet"))
        os.makedirs(os.path.join(self.root, "tests"))

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return self

    def lint(self):
        proc = subprocess.run(
            [sys.executable, LINT, "--root", self.root],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


FAILURES = []


def check(label, cond, detail=""):
    tag = "ok" if cond else "FAIL"
    print("%-52s %s" % (label, tag))
    if not cond:
        FAILURES.append(label + ("\n" + detail if detail else ""))


def main():
    base = tempfile.mkdtemp(prefix="hamlet_lint_test.")
    try:
        # Clean fixture: documented env var + its read site, a registered
        # test, orderly code. Expect exit 0.
        clean = (Fixture(base, "clean")
                 .write("README.md", README_WITH)
                 .write("src/hamlet/a.cc", KNOB_CC)
                 .write("tests/a_test.cc", "int main() {}\n")
                 .write("tests/CMakeLists.txt", "add_executable(t a_test.cc)"))
        code, out = clean.lint()
        check("clean fixture passes", code == 0, out)

        # env-docs, drift in both directions.
        undoc = (Fixture(base, "undoc")
                 .write("README.md", "# no table\n")
                 .write("src/hamlet/a.cc", KNOB_CC))
        code, out = undoc.lint()
        check("undocumented knob read fires",
              code == 1 and "HAMLET_FIXTURE_VAR" in out and "env-docs" in out,
              out)

        ghost = (Fixture(base, "ghost")
                 .write("README.md", README_EXTRA_ROW)
                 .write("src/hamlet/a.cc", KNOB_CC))
        code, out = ghost.lint()
        check("stale README row fires",
              code == 1 and "HAMLET_GHOST_VAR" in out, out)

        # A getenv with a literal name in env.cc counts as a read too.
        direct = (Fixture(base, "direct")
                  .write("README.md", README_WITH)
                  .write("src/hamlet/common/env.cc",
                         'const char* v = std::getenv("HAMLET_FIXTURE_VAR");\n'))
        code, out = direct.lint()
        check("getenv site in env.cc counts as a read", code == 0, out)

        # env-read: getenv outside common/env.cc fires, waiver or not;
        # env.cc itself, comments and strings stay quiet.
        for name, snippet in [
            ("plain", "const char* v = std::getenv(name);\n"),
            ("waived", "const char* v = getenv(name);"
                       "  // hamlet-lint: allow(env-read)\n"),
            ("secure", "const char* v = secure_getenv(name);\n"),
        ]:
            fix = Fixture(base, "envread_" + name)
            fix.write("src/hamlet/serve/a.cc", snippet)
            code, out = fix.lint()
            check("env-read fires on %s getenv" % name,
                  code == 1 and "env-read" in out and
                  "src/hamlet/serve/a.cc" in out, out)

        envread_quiet = (Fixture(base, "envread_quiet")
                         .write("src/hamlet/common/env.cc",
                                "const char* v = std::getenv(name);\n")
                         .write("src/hamlet/a.cc",
                                "// never std::getenv(name) here\n"
                                'const char* s = "getenv(";\n'
                                "auto n = UnsignedFromEnv(name, 1, 8);\n"))
        code, out = envread_quiet.lint()
        check("env.cc, comments, strings and helpers pass", code == 0, out)

        # counter-home: a namespace-scope g_ counter atomic outside
        # common/counters.cc fires, waiver or not.
        counter_fire = (Fixture(base, "counterhome_fire")
                        .write("src/hamlet/ml/svm/smo.cc",
                               "namespace {\n"
                               "std::atomic<uint64_t> g_smo_fits{0};\n"
                               "static std::atomic<std::uint64_t> g_x;"
                               "  // hamlet-lint: allow(counter-home)\n"
                               "std::array<std::atomic<uint64_t>, 3> g_y;\n"
                               "}  // namespace\n"))
        code, out = counter_fire.lint()
        check("counter-home fires on namespace-scope atomics",
              code == 1 and out.count("[counter-home]") == 3 and
              "src/hamlet/ml/svm/smo.cc:2:" in out and
              "src/hamlet/ml/svm/smo.cc:3:" in out, out)

        # The registry itself, its extern declaration, member atomics,
        # prose and code outside src/ stay quiet.
        counter_quiet = (Fixture(base, "counterhome_quiet")
                         .write("src/hamlet/common/counters.cc",
                                "std::array<std::atomic<uint64_t>, 12> "
                                "g_counts{};\n")
                         .write("src/hamlet/common/counters.h",
                                "extern std::array<std::atomic<uint64_t>, "
                                "12> g_counts;\n")
                         .write("src/hamlet/serve/net/net_server.h",
                                "class NetServer {\n"
                                "  std::atomic<uint64_t> next_conn_id_{0};\n"
                                "  std::atomic<uint64_t> g_requests_{0};\n"
                                "};\n"
                                "// std::atomic<uint64_t> g_old{0};\n")
                         .write("tests/a_test.cc",
                                "std::atomic<uint64_t> g_seen{0};\n")
                         .write("tests/CMakeLists.txt",
                                "add_executable(t a_test.cc)"))
        code, out = counter_quiet.lint()
        check("counters.cc, extern, members and tests/ pass", code == 0,
              out)

        # determinism: each banned construct, plus comment/string/waiver/
        # allowlist suppression.
        for snippet, what in [
            ("std::thread t([]{});\n", "std::thread"),
            ("int r = rand();\n", "rand"),
            ("std::random_device rd;\n", "random_device"),
            ("auto t = std::chrono::system_clock::now();\n", "system_clock"),
            ("long s = time(nullptr);\n", "time()"),
        ]:
            fix = Fixture(base, "det_" + what.strip("std:()"))
            fix.write("src/hamlet/a.cc", snippet)
            code, out = fix.lint()
            check("determinism fires on %s" % what,
                  code == 1 and "determinism" in out, out)

        quiet = (Fixture(base, "det_quiet")
                 .write("src/hamlet/a.cc",
                        "// std::thread in a comment is fine\n"
                        "/* rand() in a block comment too */\n"
                        'const char* s = "std::random_device";\n'))
        code, out = quiet.lint()
        check("comments and strings do not fire", code == 0, out)

        waived = (Fixture(base, "det_waived")
                  .write("src/hamlet/a.cc",
                         "std::thread t([]{});"
                         "  // hamlet-lint: allow(determinism)\n"))
        code, out = waived.lint()
        check("determinism waiver suppresses", code == 0, out)

        allowed = (Fixture(base, "det_allowlist")
                   .write("src/hamlet/common/parallel.cc",
                          "std::thread t([]{});\n"))
        code, out = allowed.lint()
        check("allowlisted file may use std::thread", code == 0, out)

        # unordered-iter: direct range-for over a declared unordered
        # container fires; a sorted copy does not; waiver suppresses.
        uiter = (Fixture(base, "uiter")
                 .write("src/hamlet/a.cc",
                        "std::unordered_map<int, int> counts;\n"
                        "for (const auto& kv : counts) Emit(kv);\n"))
        code, out = uiter.lint()
        check("unordered iteration fires",
              code == 1 and "unordered-iter" in out, out)

        uiter_ok = (Fixture(base, "uiter_ok")
                    .write("src/hamlet/a.cc",
                           "std::unordered_map<int, int> counts;\n"
                           "std::vector<int> keys = SortedKeys(counts);\n"
                           "for (int k : keys) Emit(k);\n"))
        code, out = uiter_ok.lint()
        check("iterating a sorted copy passes", code == 0, out)

        uiter_waived = (Fixture(base, "uiter_waived")
                        .write("src/hamlet/a.cc",
                               "std::unordered_set<int> seen;\n"
                               "for (int k : seen) Count(k);"
                               "  // hamlet-lint: allow(unordered-iter)\n"))
        code, out = uiter_waived.lint()
        check("unordered-iter waiver suppresses", code == 0, out)

        # fp-contract, C++ side: each way of asking for FMA fires; a
        # plain ISA target, prose in comments and a waiver stay quiet.
        for snippet, what in [
            ('__attribute__((target("avx2,fma"))) void F();\n',
             "target fma"),
            ('__attribute__((target_clones("fma", "default"))) void F();\n',
             "target_clones fma"),
            ('__attribute__((target("arch=haswell"))) void F();\n',
             "target arch"),
            ("__m256d r = _mm256_fmadd_pd(a, b, c);\n", "fmadd intrinsic"),
            ("__m128d r = _mm_fnmsub_pd(a, b, c);\n", "fnmsub intrinsic"),
            ("double r = std::fma(a, b, c);\n", "std::fma"),
            ("double r = __builtin_fma(a, b, c);\n", "__builtin_fma"),
            ('#pragma GCC optimize("fast-math")\n', "optimize fast-math"),
            ('#pragma GCC optimize("fp-contract=fast")\n',
             "optimize fp-contract"),
            ('#pragma GCC optimize("O3", "-ffast-math")\n',
             "optimize second option"),
            ('__attribute__((optimize("Ofast"))) void F();\n',
             "optimize attribute"),
            ("#pragma STDC FP_CONTRACT ON\n", "STDC FP_CONTRACT ON"),
            ("#pragma clang fp contract(fast)\n", "clang fp contract"),
        ]:
            fix = Fixture(base, "fma_" + what.replace(" ", "_").strip(":_"))
            fix.write("src/hamlet/a.cc", snippet)
            code, out = fix.lint()
            check("fp-contract fires on %s" % what,
                  code == 1 and "fp-contract" in out, out)

        fma_quiet = (Fixture(base, "fma_quiet")
                     .write("src/hamlet/simd/a.cc",
                            '__attribute__((target("avx2,popcnt"))) '
                            "void F();\n"
                            "// never std::fma or target(\"fma\") here\n"
                            "double r = a * b + c;  // no FMA, no fast-math\n"
                            "double s = std::fmax(a, b);\n"
                            '#pragma GCC optimize("O2")\n'
                            '__attribute__((optimize("no-fast-math"))) '
                            "void G();\n"
                            "#pragma STDC FP_CONTRACT OFF\n"
                            "#pragma clang fp contract(off)\n"
                            '// #pragma GCC optimize("fast-math") is out\n'))
        code, out = fma_quiet.lint()
        check("plain targets, safe pragmas and FMA prose pass", code == 0,
              out)

        fma_waived = (Fixture(base, "fma_waived")
                      .write("src/hamlet/a.cc",
                             "double r = std::fma(a, b, c);"
                             "  // hamlet-lint: allow(fp-contract)\n"))
        code, out = fma_waived.lint()
        check("fp-contract waiver suppresses (C++)", code == 0, out)

        # fp-contract, CMake side: flagged flags in cmake/, src/ and the
        # root CMakeLists.txt; harmless flags, comments and a waiver pass.
        for rel, flag in [
            ("cmake/Flags.cmake", "-ffast-math"),
            ("cmake/Flags.cmake", "-Ofast"),
            ("src/hamlet/CMakeLists.txt", "-mfma"),
            ("src/hamlet/CMakeLists.txt", "-march=native"),
            ("CMakeLists.txt", "-ffp-contract=fast"),
            ("cmake/Flags.cmake", "-funsafe-math-optimizations"),
        ]:
            fix = Fixture(base, "fpflag_" + flag.strip("-").split("=")[0])
            fix.write(rel, "target_compile_options(t PRIVATE %s)\n" % flag)
            code, out = fix.lint()
            check("fp-contract fires on %s in %s" % (flag, rel),
                  code == 1 and "fp-contract" in out and flag in out, out)

        flags_quiet = (Fixture(base, "fpflag_quiet")
                       .write("cmake/Flags.cmake",
                              "# never -ffast-math or -march=native here\n"
                              "target_compile_options(t PRIVATE "
                              "-ffp-contract=off -fno-math-errno -O2)\n"
                              "target_compile_options(u PRIVATE -Ofast)"
                              "  # hamlet-lint: allow(fp-contract)\n"))
        code, out = flags_quiet.lint()
        check("safe flags, comments and CMake waiver pass", code == 0, out)

        # status-discard: a (void)-discarded Fit/Apply* Status in bench/
        # or examples/ fires; a checked call, a comment, a discard of
        # another call, and the same discard under src/ stay quiet.
        for rel, snippet, what in [
            ("bench/a.cc", "(void)tree.Fit(views.train);\n", "bench .Fit"),
            ("examples/a.cpp", "(void) model->Fit(train);\n",
             "example ->Fit"),
            ("examples/a.cpp",
             "(void)core::ApplySmoothing(d, col, map.value());\n",
             "example Apply*"),
        ]:
            fix = Fixture(base, "discard_" + what.replace(" ", "_")
                          .replace(".", "").replace("->", "")
                          .replace("*", ""))
            fix.write(rel, snippet)
            code, out = fix.lint()
            check("status-discard fires on %s" % what,
                  code == 1 and "status-discard" in out and rel in out, out)

        discard_quiet = (Fixture(base, "discard_quiet")
                         .write("examples/a.cpp",
                                "if (!tree.Fit(train).ok()) return 1;\n"
                                "// never (void)tree.Fit(train);\n"
                                "(void)star.AppendFact({1}, {2}, 0);\n")
                         .write("src/hamlet/a.cc",
                                "(void)tree.Fit(train);\n"))
        code, out = discard_quiet.lint()
        check("checked calls, comments, other discards pass", code == 0, out)

        # int-parse: each C integer parser fires in src/ code; the same
        # names in comments and strings, a longer identifier, strtod,
        # and a call outside src/ stay quiet.
        for what, snippet in [
            ("strtol", "long v = strtol(p, &end, 10);\n"),
            ("strtoll", "auto v = std::strtoll(p, nullptr, 10);\n"),
            ("strtoul", "auto v = strtoul (p, nullptr, 10);\n"),
            ("strtoull", "auto v = std::strtoull(p, &end, 10);\n"),
            ("atoi", "int v = atoi(s);\n"),
            ("atol", "long v = std::atol(s);\n"),
            ("atoll", "auto v = atoll(s);\n"),
            ("std::stoi", "int v = std::stoi(s);\n"),
            ("std::stoull", "auto v = std::stoull(s, nullptr, 16);\n"),
            ("std::stod", "double v = std::stod(s);\n"),
        ]:
            fix = Fixture(base, "intparse_" + what.replace(":", "_"))
            fix.write("src/hamlet/serve/a.cc", snippet)
            code, out = fix.lint()
            check("int-parse fires on %s" % what,
                  code == 1 and "[int-parse] %s in src/" % what in out and
                  "src/hamlet/serve/a.cc:1:" in out, out)

        intparse_quiet = (Fixture(base, "intparse_quiet")
                          .write("src/hamlet/a.cc",
                                 "// strtoull(p, &end, 10) saturates\n"
                                 "/* atoi(s) */\n"
                                 'const char* m = "std::stoi(s)";\n'
                                 "auto v = my_atoi(s) + xstrtoull(s);\n"
                                 "double d = std::strtod(p, nullptr);\n"
                                 "auto r = ParseDigitRun(s);\n")
                          .write("perfbench/main.cc",
                                 "auto v = std::strtoull(p, nullptr, 10);\n")
                          .write("tests/parse_oracle.h",
                                 "auto v = std::strtoull(p, &end, 10);\n"))
        code, out = intparse_quiet.lint()
        check("int-parse: comments, strings, lookalikes, non-src pass",
              code == 0, out)

        # bench-clock: a clock read or the google-benchmark include in
        # bench/ fires; the same names in comments and strings, and a
        # clock outside bench/, stay quiet.
        for what, snippet in [
            ("steady_clock",
             "auto t0 = std::chrono::steady_clock::now();\n"),
            ("system_clock", "auto t = std::chrono::system_clock::now();\n"),
            ("high_resolution_clock",
             "using C = std::chrono::high_resolution_clock;\n"),
            ("clock_gettime", "clock_gettime(CLOCK_MONOTONIC, &ts);\n"),
            ("google-benchmark", "#include <benchmark/" "benchmark.h>\n"),
        ]:
            fix = Fixture(base, "bclock_" + what.replace(".", "_"))
            fix.write("bench/bench_a.cc", snippet)
            code, out = fix.lint()
            check("bench-clock fires on %s" % what,
                  code == 1 and "bench-clock" in out and
                  "bench/bench_a.cc" in out, out)

        bclock_quiet = (Fixture(base, "bclock_quiet")
                        .write("bench/bench_a.cc",
                               "// timings: perfbench, not steady_clock\n"
                               "/* no <benchmark/...> include here */\n"
                               'const char* s = "clock_gettime(";\n')
                        .write("src/hamlet/a.cc",
                               "auto t = std::chrono::steady_clock::now();\n"))
        code, out = bclock_quiet.lint()
        check("bench-clock: comments, strings, src/ clocks pass", code == 0,
              out)

        # kernel-math: KernelFromMatches( outside ml/svm/kernel.cc fires
        # in src/ and tests/; its home, prose, strings and the table
        # builder stay quiet.
        for rel in ["src/hamlet/ml/svm/svm.cc", "tests/svm_test.cc"]:
            fix = Fixture(base, "kmath_" + rel.split("/")[0])
            fix.write(rel, "double k = KernelFromMatches(cfg, m, d);\n")
            code, out = fix.lint()
            check("kernel-math fires in %s" % rel,
                  code == 1 and "kernel-math" in out and rel in out, out)

        kmath_quiet = (Fixture(base, "kmath_quiet")
                       .write("src/hamlet/ml/svm/kernel.cc",
                              "table[m] = KernelFromMatches(config, m, d);\n")
                       .write("src/hamlet/ml/svm/svm.cc",
                              "// table[m] = KernelFromMatches(config, m, d)\n"
                              'const char* s = "KernelFromMatches(";\n'
                              "auto t = KernelValuesByMatches(config, d);\n"))
        code, out = kmath_quiet.lint()
        check("kernel.cc, comments, strings and the table pass", code == 0,
              out)

        # predict-home: a view Predict/PredictAll declaration or
        # definition outside ml/classifier.{h,cc} fires, waiver or not.
        phome_fire = (Fixture(base, "predicthome_fire")
                      .write("src/hamlet/ml/tree/decision_tree.h",
                             "  uint8_t Predict(const DataView& view, "
                             "size_t i) const override;\n"
                             "  std::vector<uint8_t> PredictAll("
                             "const DataView& v) const override;"
                             "  // hamlet-lint: allow(predict-home)\n")
                      .write("src/hamlet/ml/knn/one_nn.cc",
                             "std::vector<uint8_t> OneNearestNeighbor::"
                             "PredictAll(const hamlet::DataView& view) "
                             "const {\n")
                      .write("src/hamlet/ml/nb/backward_selection.h",
                             "  uint8_t Predict(const DataView& view, "
                             "size_t i) const override;\n")
                      .write("src/hamlet/ml/nb/backward_selection.cc",
                             "std::vector<uint8_t> BackwardSelection"
                             "Classifier::PredictAll(const DataView& view) "
                             "const {\n")
                      # Split after the open parenthesis.
                      .write("src/hamlet/ml/knn/one_nn.h",
                             "  std::vector<uint8_t> PredictAll(\n"
                             "      const DataView& view) const override;\n"))
        code, out = phome_fire.lint()
        check("predict-home fires on view predict paths",
              code == 1 and out.count("[predict-home]") == 6 and
              "src/hamlet/ml/knn/one_nn.h:1:" in out and
              "src/hamlet/ml/tree/decision_tree.h:1:" in out and
              "src/hamlet/ml/tree/decision_tree.h:2:" in out and
              "src/hamlet/ml/knn/one_nn.cc:1:" in out and
              "src/hamlet/ml/nb/backward_selection.h:1:" in out and
              "src/hamlet/ml/nb/backward_selection.cc:1:" in out, out)

        # Its two homes, call sites (they pass a view), prose, strings
        # and code outside src/ stay quiet.
        decl = "uint8_t Predict(const DataView& view, size_t i) const;\n"
        phome_quiet = (Fixture(base, "predicthome_quiet")
                       .write("src/hamlet/ml/classifier.h", decl)
                       .write("src/hamlet/ml/classifier.cc", decl)
                       .write("src/hamlet/ml/metrics.cc",
                              "const auto p = model.PredictAll(view);\n"
                              "out[i] = model_->Predict(sub, 0);\n"
                              "const auto q = model.PredictAll(\n"
                              "    view);\n"
                              "// PredictAll(const DataView& view) here\n"
                              'const char* s = "Predict(const DataView";\n')
                       .write("tests/parity_util.h", decl))
        code, out = phome_quiet.lint()
        check("predict-home: homes, calls, prose and tests pass",
              code == 0, out)

        # remap-home: a ReplaceColumn( call outside data/dataset.{h,cc}
        # and core/fk_compression.cc fires in src/, bench/ and
        # examples/, waiver or not.
        rhome_fire = (Fixture(base, "remaphome_fire")
                      .write("src/hamlet/core/fk_smoothing.cc",
                             "return data.ReplaceColumn(col, codes, m);\n")
                      .write("bench/bench_a.cc",
                             "(void)d.ReplaceColumn (c, std::move(v), 4);"
                             "  // hamlet-lint: allow(remap-home)\n")
                      .write("examples/a.cpp",
                             "if (!d.ReplaceColumn(0, v, 2).ok()) return 1;\n"))
        code, out = rhome_fire.lint()
        check("remap-home fires on column rewrites",
              code == 1 and out.count("[remap-home]") == 3 and
              "src/hamlet/core/fk_smoothing.cc:1:" in out and
              "bench/bench_a.cc:1:" in out and "examples/a.cpp:1:" in out,
              out)

        # Its three homes, prose, strings, tests and perfbench stay quiet.
        call = "return data.ReplaceColumn(col, std::move(codes), m);\n"
        rhome_quiet = (Fixture(base, "remaphome_quiet")
                       .write("src/hamlet/data/dataset.h",
                              "Status ReplaceColumn(size_t col);\n")
                       .write("src/hamlet/data/dataset.cc", call)
                       .write("src/hamlet/core/fk_compression.cc", call)
                       .write("bench/bench_a.cc",
                              "// ApplyMapping calls ReplaceColumn(col)\n"
                              'const char* s = "ReplaceColumn(";\n'
                              "ASSERT_TRUE(ApplyMapping(d, 0, map).ok());\n")
                       .write("tests/parity_util.h", call)
                       .write("perfbench/a.cc", call))
        code, out = rhome_quiet.lint()
        check("remap-home: homes, prose, strings, tests pass", code == 0,
              out)

        # simd-home: ISA code outside src/hamlet/simd/ fires, waiver or
        # not (intrinsics, x86 builtins, GNU vector types, CPU feature
        # queries, ISA targets, popcounts); the same code under simd/,
        # prose, strings, a plain target, names that only contain
        # vector_size or popcount and code outside src/ stay quiet.
        for what, snippet in [
            ("intrinsic", "auto v = _mm256_add_pd(a, b);\n"),
            ("sse intrinsic", "int m = _mm_movemask_ps(x);\n"),
            ("vector type", "__m256d acc;\n"),
            ("integer vector type", "__m128i idx;\n"),
            ("intrinsics header", "#include <immintrin.h>\n"),
            ("x86intrin header", "#include <x86intrin.h>\n"),
            ("avx2 target", '__attribute__((target("avx2"))) void F();\n'),
            ("popcnt target",
             '__attribute__((target("popcnt"))) int G();\n'),
            ("gnu vector type",
             "typedef double V4 __attribute__((vector_size(32)));\n"),
            ("spelled gnu vector type",
             "typedef int V8 __attribute__((__vector_size__ (32)));\n"),
            ("cpu feature query",
             'static const bool k = __builtin_cpu_supports("avx2");\n'),
            ("cpu model query",
             'bool z = __builtin_cpu_is("znver3");\n'),
            ("x86 builtin", "long c = __builtin_ia32_popcntq(x);\n"),
            ("popcount builtin", "int c = __builtin_popcountll(x);\n"),
            ("32-bit popcount builtin",
             "int c = __builtin_popcount(x & m);\n"),
            ("std popcount", "int c = std::popcount(x ^ y);\n"),
            ("waived intrinsic", "auto v = _mm_add_pd(a, b);"
                                 "  // hamlet-lint: allow(simd-home)\n"),
        ]:
            fix = Fixture(base, "simdhome_" + what.replace(" ", "_"))
            fix.write("src/hamlet/ml/svm/a.cc", snippet)
            code, out = fix.lint()
            check("simd-home fires on %s" % what,
                  code == 1 and "simd-home" in out and
                  "src/hamlet/ml/svm/a.cc" in out, out)

        simd_quiet = (Fixture(base, "simdhome_quiet")
                      .write("src/hamlet/simd/k.cc",
                             "#include <immintrin.h>\n"
                             '__attribute__((target("avx2"))) void F() {\n'
                             "  __m256d v = _mm256_setzero_pd();\n}\n"
                             "typedef double V4 "
                             "__attribute__((vector_size(32)));\n"
                             'bool k = __builtin_cpu_supports("avx2");\n'
                             "long c = __builtin_ia32_popcntq(x);\n"
                             "int p = __builtin_popcountll(x);\n"
                             "int q = std::popcount(x);\n")
                      .write("src/hamlet/ml/a.cc",
                             "// an _mm256_add_pd or __m256d in prose\n"
                             'const char* s = "_mm_add_pd(";\n'
                             "double mm_total = x_mm_y;\n"
                             '__attribute__((target("default"))) void G();\n'
                             "// __builtin_cpu_supports, vector_size(32) and\n"
                             "// __builtin_ia32_popcntq in prose\n"
                             'const char* t = "vector_size(16)";\n'
                             "size_t my_vector_size = v.size();\n"
                             "// __builtin_popcountll and std::popcount in "
                             "prose\n"
                             'const char* u = "std::popcount(x)";\n'
                             "size_t popcount_total = my_popcount(x);\n")
                      .write("tests/k_test.cc",
                             "__m256d v = _mm256_setzero_pd();\n"
                             'bool k = __builtin_cpu_supports("avx2");\n')
                      .write("tests/CMakeLists.txt",
                             "add_executable(t k_test.cc)"))
        code, out = simd_quiet.lint()
        check("simd/, prose, strings and non-ISA targets pass", code == 0,
              out)

        # test-reg: an unregistered tests/*_test.cc fires.
        unreg = (Fixture(base, "unreg")
                 .write("tests/orphan_test.cc", "int main() {}\n")
                 .write("tests/CMakeLists.txt", "# nothing registered\n"))
        code, out = unreg.lint()
        check("unregistered test suite fires",
              code == 1 and "test-reg" in out and "orphan_test.cc" in out,
              out)

        # Bogus root is a usage error, not a silent pass.
        proc = subprocess.run(
            [sys.executable, LINT, "--root",
             os.path.join(base, "does_not_exist")],
            capture_output=True, text=True)
        check("nonexistent root is exit 2", proc.returncode == 2,
              proc.stdout + proc.stderr)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    if FAILURES:
        print("\n%d self-test failure(s):" % len(FAILURES), file=sys.stderr)
        for f in FAILURES:
            print("  - " + f, file=sys.stderr)
        return 1
    print("\nhamlet_lint self-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
