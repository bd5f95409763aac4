#!/usr/bin/env python3
"""Symbol census: the src/ functions that no program reaches.

Builds every non-test target at -O0 with one section per function and
links it with --gc-sections, so a program keeps exactly the library
functions it can reach.  The census then takes the strong (`nm` type T)
symbols of the src/ static libraries and strikes every one that survives
in some program.  What is left is code that only the unit tests keep
alive.

The programs are every executable under the build's bench/, examples/
and cli/, plus perfbench/ledger.cpp compiled unchanged against the same
libraries.  -O0 matters: at -O2 a function inlined into every caller in
its own file loses its out-of-line copy and would read as unreached.
Header-only and inline code (weak symbols) is outside the census.

The gate fails when an unreached symbol is missing from the allowlist
(tools/symbol_census_allowlist.txt), and when an allowlist entry is stale:
reached by a program, or no longer defined.  Each allowlist entry is one
demangled name, exactly as this script prints it, under a comment that
gives the reason it stays.

    tools/symbol_census.py              # configure + build build-census, gate
    tools/symbol_census.py BUILD_DIR    # another build directory
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST = REPO / "tools" / "symbol_census_allowlist.txt"
FLAGS = "-O0 -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"
PROGRAM_DIRS = ("bench", "examples", "cli")


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def build(build_dir):
    run(["cmake", "-B", str(build_dir), "-S", str(REPO),
         "-DBUILD_TESTING=OFF", "-DCMAKE_BUILD_TYPE=None",
         f"-DCMAKE_CXX_FLAGS={FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"],
        stdout=subprocess.DEVNULL)
    # The build never deletes the program of a target the tree no longer
    # has, and such a leftover would count what it links as reached: drop
    # every program, so the build relinks exactly the current ones.
    for p in programs(build_dir):
        p.unlink()
    run(["cmake", "--build", str(build_dir), f"-j{os.cpu_count() or 1}"],
        stdout=subprocess.DEVNULL)


def libraries(build_dir):
    libs = sorted((build_dir / "src").glob("*/libdufp_*.a"))
    if not libs:
        sys.exit(f"census: no src/ libraries under {build_dir}")
    return libs


def build_ledger(build_dir, libs):
    """perfbench/ledger.cpp, unchanged, against the census libraries."""
    compiler = "c++"
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            compiler = line.split("=", 1)[1]
    out = build_dir / "census" / "perfbench_ledger"
    out.parent.mkdir(exist_ok=True)
    run([compiler, "-std=c++20", *FLAGS.split(), "-fPIC",
         '-DPERFBENCH_BUILD_TYPE="census"', f"-I{REPO / 'src'}",
         str(REPO / "perfbench" / "ledger.cpp"), "-o", str(out), LINK_FLAGS,
         "-Wl,--start-group", *map(str, libs), "-Wl,--end-group",
         "-pthread"])
    return out


def programs(build_dir):
    found = []
    for d in PROGRAM_DIRS:
        for p in sorted((build_dir / d).iterdir()):
            if p.is_file() and os.access(p, os.X_OK):
                with open(p, "rb") as f:
                    if f.read(4) == b"\x7fELF":
                        found.append(p)
    return found


def nm(path, *flags):
    out = run(["nm", "--defined-only", *flags, str(path)],
              capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) == 3:
            yield parts[1], parts[2]


def demangle(names):
    out = run(["c++filt"], input="\n".join(names) + "\n",
              capture_output=True, text=True).stdout.splitlines()
    return dict(zip(names, out))


def read_allowlist():
    """Entries in file order; each must sit under a reason comment."""
    entries, reason, errors = [], False, []
    for n, raw in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            reason = False
        elif line.startswith("#"):
            reason = True
        else:
            if not reason:
                errors.append(f"line {n}: entry without a reason: {line}")
            entries.append(line)
    return entries, errors


def census(build_dir, extra_programs):
    """Every strong symbol's demangled name -> library, the unreached
    subset of that, the program count, and the strong and unreached
    symbol counts (constructor and destructor variants counted apart)."""
    libs = libraries(build_dir)
    defined = {}
    for lib in libs:
        for kind, sym in nm(lib, "-g"):
            if kind == "T":
                defined[sym] = lib.name
    reached = set()
    bins = programs(build_dir) + list(extra_programs)
    for binary in bins:
        reached.update(sym for _, sym in nm(binary))
    names = demangle(sorted(defined))
    every = {names[s]: lib for s, lib in defined.items()}
    # A constructor or destructor's variants (C1/C2, D0/D1/D2) share one
    # demangled name; it is reached if any variant is.
    live = {names[s] for s in defined if s in reached}
    unreached = {n: lib for n, lib in every.items() if n not in live}
    dead_symbols = sum(names[s] in unreached for s in defined)
    return every, unreached, len(bins), len(defined), dead_symbols


def main(argv):
    build_dir = Path(argv[1]).resolve() if len(argv) > 1 else \
        REPO / "build-census"
    build(build_dir)
    ledger = build_ledger(build_dir, libraries(build_dir))
    every, unreached, nbins, nsyms, dead = census(build_dir, [ledger])
    allow, errors = read_allowlist()
    for name in sorted(set(unreached) - set(allow)):
        errors.append(f"unreached, not allowlisted: {name}"
                      f"  [{unreached[name]}]")
    for name in allow:
        if name not in every:
            errors.append(f"stale allowlist entry, no such symbol: {name}")
        elif name not in unreached:
            errors.append(f"stale allowlist entry, reached by a program: "
                          f"{name}")
    print(f"census: {nsyms} strong symbols ({len(every)} names) in src/ "
          f"libraries, {nbins} programs; {dead} symbols "
          f"({len(unreached)} names) unreached, {len(allow)} allowlisted")
    for e in errors:
        print(f"census: {e}")
    if errors:
        print(f"census: FAIL ({len(errors)} problems)")
        return 1
    print("census: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
