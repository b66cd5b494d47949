#!/usr/bin/env python3
"""Checks that the library's wide-vector code stays in its simd/ kernels.

Disassembles libhamlet.a with `objdump -d -C --no-show-raw-insn` and
lists every function that touches a 256- or 512-bit register (%ymm or
%zmm). Each one must be a `hamlet::simd::detail::...Avx2` function: the
AVX2 builds in src/hamlet/simd/, which run only after the CPU reports
AVX2 and each have a baseline twin and a parity test. Any other function
with wide registers means the compiler (or a stray intrinsic) put AVX
code on a path that a CPU without AVX can take.

Usage:
  python3 tools/check_isa_confinement.py [build/src/hamlet/libhamlet.a]

Prints one line per wide-register function (its count of wide-register
instructions, then its name) and exits 0 when all of them are allowed,
1 when one is not, and 2 when the archive cannot be disassembled.
"""

import re
import shutil
import subprocess
import sys

DEFAULT_ARCHIVE = "build/src/hamlet/libhamlet.a"

# `0000000000000760 <demangled name>:` opens a function's listing.
FUNCTION_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
WIDE_REGISTER_RE = re.compile(r"%[yz]mm\d+")
# An AVX2 kernel of simd/, named or in simd/'s anonymous namespace; a
# lambda or a compiler clone of one is part of it.
ALLOWED_RE = re.compile(
    r"^hamlet::simd::detail::(?:\(anonymous namespace\)::)?\w*Avx2\b")


def wide_register_functions(disassembly):
    """Maps each function with a %ymm/%zmm operand to the number of its
    instructions that have one, in first-seen order."""
    counts = {}
    function = None
    for line in disassembly.splitlines():
        header = FUNCTION_RE.match(line)
        if header:
            function = header.group(1)
            continue
        if function is not None and WIDE_REGISTER_RE.search(line):
            counts[function] = counts.get(function, 0) + 1
    return counts


def offenders(counts):
    """The functions of `counts` that may not hold wide-register code."""
    return [name for name in counts if not ALLOWED_RE.match(name)]


def disassemble(archive):
    objdump = shutil.which("objdump")
    if objdump is None:
        raise RuntimeError("objdump not found on PATH")
    proc = subprocess.run(
        [objdump, "-d", "-C", "--no-show-raw-insn", archive],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("objdump failed on %s:\n%s" %
                           (archive, proc.stderr.strip()))
    return proc.stdout


def main(argv):
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    archive = argv[1] if len(argv) == 2 else DEFAULT_ARCHIVE
    try:
        disassembly = disassemble(archive)
    except RuntimeError as err:
        print("check_isa_confinement: %s" % err, file=sys.stderr)
        return 2
    counts = wide_register_functions(disassembly)
    for name, count in counts.items():
        print("%5d  %s" % (count, name))
    bad = offenders(counts)
    if bad:
        print("\n%d function(s) use %%ymm/%%zmm outside the simd/ AVX2 "
              "kernels:" % len(bad), file=sys.stderr)
        for name in bad:
            print("  " + name, file=sys.stderr)
        return 1
    print("check_isa_confinement: %d AVX function(s), all "
          "hamlet::simd::detail::...Avx2" % len(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
