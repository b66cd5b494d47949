#!/usr/bin/env python3
"""Self-test for check_isa_confinement.py on canned objdump text: the
simd/ AVX2 kernels (named, in the anonymous namespace, a clone) pass,
xmm-only code is not listed, and a wide-register function anywhere else
is reported. Run via ctest (label: lint) or directly."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_isa_confinement as isa  # noqa: E402

DISASSEMBLY = """
In archive build/src/hamlet/libhamlet.a:

smo_scan.cc.o:     file format elf64-x86-64


Disassembly of section .text:

00000000000002a0 <hamlet::simd::detail::SmoScanAvx2(hamlet::simd::SmoActiveView const&, hamlet::simd::SmoRefresh const*)>:
 2a0:\tvmovupd (%rdi),%ymm0
 2a4:\tvmaxpd %ymm1,%ymm0,%ymm0
 2a8:\tret

0000000000000300 <hamlet::simd::detail::SmoScanScalar(hamlet::simd::SmoActiveView const&, hamlet::simd::SmoRefresh const*)>:
 300:\tmovsd  (%rdi),%xmm0
 304:\tcall   2a0 <hamlet::simd::detail::SmoScanAvx2(hamlet::simd::SmoActiveView const&, hamlet::simd::SmoRefresh const*)>
 309:\tret

mlp_kernels.cc.o:     file format elf64-x86-64

00000000000016a0 <hamlet::simd::detail::(anonymous namespace)::SparseForwardAvx2(double const*, double const*, unsigned int const*, unsigned long, unsigned long, double*)>:
 16a0:\tvaddpd (%rsi),%ymm2,%ymm2
 16a4:\tvzeroupper
00000000000017f0 <hamlet::simd::detail::(anonymous namespace)::DenseForwardAvx2(double const*, double const*, double const*, unsigned long, unsigned long, unsigned long, bool, double*) [clone .cold]>:
 17f0:\tvxorpd %ymm0,%ymm0,%ymm0
"""

STRAY = """
one_nn.cc.o:     file format elf64-x86-64

0000000000000100 <hamlet::ml::OneNearestNeighbor::NearestIndexOfCodes(unsigned int const*) const>:
 100:\tvpxor  (%rdx),%ymm1,%ymm0
 104:\tvpand  %ymm2,%ymm0,%ymm0
 108:\tret

0000000000000200 <hamlet::simd::detail::MatchCountsPopcount(hamlet::simd::PackedLayout const&, unsigned long const*, unsigned long const*, int const*, unsigned long, unsigned int*)>:
 200:\tvmovdqu64 (%rsi),%zmm3
0000000000000300 <hamlet::simd::SmoScanAvx2Helper(int)>:
 300:\tvmovdqu (%rsi),%ymm3
"""

FAILURES = []


def check(label, cond, detail=""):
    print("%-52s %s" % (label, "ok" if cond else "FAIL"))
    if not cond:
        FAILURES.append(label + ("\n" + detail if detail else ""))


def main():
    counts = isa.wide_register_functions(DISASSEMBLY)
    names = list(counts)
    check("lists exactly the three wide-register functions",
          len(names) == 3, repr(names))
    check("counts each wide-register instruction",
          list(counts.values()) == [2, 1, 1], repr(counts))
    check("xmm-only code and call operands are not listed",
          not any("Scalar" in name for name in names), repr(names))
    check("simd/ AVX2 kernels, anonymous or cloned, pass",
          isa.offenders(counts) == [], repr(isa.offenders(counts)))

    stray = isa.wide_register_functions(STRAY)
    bad = isa.offenders(stray)
    check("ymm in a learner is reported",
          any("NearestIndexOfCodes" in name for name in bad), repr(bad))
    check("zmm in a non-Avx2 simd function is reported",
          any("MatchCountsPopcount" in name for name in bad), repr(bad))
    check("an Avx2 name outside simd::detail is reported",
          any("SmoScanAvx2Helper" in name for name in bad), repr(bad))
    check("every stray function is reported", len(bad) == 3, repr(bad))

    check("missing archive is exit 2",
          isa.main(["check_isa_confinement.py",
                    os.path.join(os.sep, "nonexistent", "libhamlet.a")]) == 2)

    if FAILURES:
        print("\n%d self-test failure(s):" % len(FAILURES), file=sys.stderr)
        for f in FAILURES:
            print("  - " + f, file=sys.stderr)
        return 1
    print("\ncheck_isa_confinement self-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
