#!/usr/bin/env python3
"""Reachability audit: exported library functions no shipped binary contains.

The tree is built at -O0 with -ffunction-sections and every binary is
linked with -Wl,--gc-sections, so a binary keeps only the functions
reachable from its main() and its static initialisers (plus every
virtual function of a vtable it keeps).  A function that a library
archive exports but no shipped binary contains is code that production
never runs.

Shipped binaries: rascal_cli, every example, every plain bench binary
(the google-benchmark micro-benchmarks time alternatives and ship no
behaviour) and the e2e_bench harness, built from e2ebench/ as its own
CMake project with the same flags.

Scanned archives: every librascal_*.a except rascal_check.  src/check/
is the oracle layer; tests are its callers by design.

Every unreached function must be in allowlist.txt with the one
reason a library function outside src/check/ may go unreached:
    reference: Suite.Test   the test compares a production path against it
The audit fails on an unreached function missing from the allowlist, on
an allowlisted function that is now reached or no longer exported, and
on any other reason or one that names no test under tests/.  The
allowlist only shrinks: delete unreached code rather than listing it;
a test that needs a function only as API uses the production API
instead.

Usage:
    python3 tools/reachability/audit.py build [BUILD_DIR]
        Configure and build the audit tree (default build-audit/), then
        run the check.
    python3 tools/reachability/audit.py check --archive A... --binary B...
        Check already-built archives and binaries against the allowlist.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parent.parent
DEFAULT_ALLOWLIST = HERE / "allowlist.txt"

# One section per function at -O0, so --gc-sections drops exactly the
# functions nothing reachable references.
AUDIT_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
EXCLUDED_ARCHIVES = {"librascal_check.a"}

NM_LINE = re.compile(r"^[0-9a-fA-F]*\s+([A-Za-z])\s+(.+)$")
CODE_TYPES = set("TtWwi")
REASON = re.compile(r"^reference: (\S+)$")


def nm_symbols(nm, path, types):
    """Demangled names of the defined symbols of `path` whose nm type
    letter is in `types`.  Constructor/destructor variants share one
    demangled name, so they collapse into one function."""
    out = subprocess.run([nm, "--defined-only", "--demangle", str(path)],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    names = set()
    for line in out.splitlines():
        m = NM_LINE.match(line)
        if m and m.group(1) in types:
            names.add(m.group(2).strip())
    return names


def read_allowlist(path):
    """{symbol: reason} from `symbol  # reason` lines."""
    entries = {}
    errors = []
    for n, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        symbol, sep, reason = line.rpartition("#")
        symbol, reason = symbol.strip(), reason.strip()
        if not sep or not symbol:
            errors.append(f"{path.name}:{n}: expected 'SYMBOL  # REASON'")
        elif symbol in entries:
            errors.append(f"{path.name}:{n}: duplicate entry {symbol}")
        else:
            entries[symbol] = reason
    return entries, errors


def test_names(source_root):
    """Suite.Name of every TEST/TEST_F/TEST_P under tests/."""
    pattern = re.compile(r"\bTEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)")
    names = set()
    for path in (source_root / "tests").rglob("*.cpp"):
        for suite, name in pattern.findall(path.read_text()):
            names.add(f"{suite}.{name}")
    return names


def check(archives, binaries, allowlist_path, source_root, nm="nm"):
    exported = set()
    for archive in archives:
        exported |= nm_symbols(nm, archive, {"T"})
    reached = set()
    for binary in binaries:
        reached |= nm_symbols(nm, binary, CODE_TYPES)
    unreached = sorted(exported - reached)

    allowed, errors = read_allowlist(allowlist_path)
    tests = test_names(source_root)
    for symbol, reason in sorted(allowed.items()):
        m = REASON.match(reason)
        if not m:
            errors.append(f"bad reason '{reason}' for {symbol}")
        elif m.group(1) not in tests:
            errors.append(f"reason names no test under tests/: '{reason}' "
                          f"for {symbol}")
        if symbol not in exported:
            errors.append(f"allowlisted but no longer exported: {symbol}")
        elif symbol in reached:
            errors.append(f"allowlisted but now reached: {symbol}")
    for symbol in unreached:
        if symbol not in allowed:
            errors.append(f"unreached and not allowlisted: {symbol}")

    print(f"reachability: {len(exported)} exported functions in "
          f"{len(archives)} archives; {len(unreached)} in none of "
          f"{len(binaries)} binaries")
    for symbol in unreached:
        print(f"{symbol}  # {allowed.get(symbol, '?')}")
    for error in errors:
        print(f"error: {error}")
    if errors:
        print("reachability: FAILED (delete the unreached code, or drop "
              "stale entries from the allowlist; it only shrinks)")
        return 1
    print("reachability: OK, the unreached set equals the allowlist")
    return 0


def cmake_names(path, function):
    """First argument of every `function(NAME ...)` call in `path`,
    paired with the whole call text."""
    text = path.read_text()
    return [(m.group(1), m.group(0)) for m in
            re.finditer(rf"\b{function}\((\w+)[^)]*\)", text)]


def build(build_dir, source_root):
    jobs = os.environ.get("CMAKE_BUILD_PARALLEL_LEVEL", str(os.cpu_count()))
    e2e_dir = build_dir / "e2ebench"

    def run(*cmd):
        print("+ " + " ".join(str(c) for c in cmd), flush=True)
        subprocess.run([str(c) for c in cmd], check=True)

    libraries = [name for cml in sorted(source_root.glob("src/*/CMakeLists.txt"))
                 for name, _ in cmake_names(cml, "rascal_add_library")]
    examples = [name for name, _ in cmake_names(
        source_root / "examples/CMakeLists.txt", "rascal_add_example")]
    benches = [name for name, call in cmake_names(
        source_root / "bench/CMakeLists.txt", "rascal_add_bench")
        if "benchmark::benchmark" not in call]

    run("cmake", "-S", source_root, "-B", build_dir, *AUDIT_FLAGS)
    run("cmake", "--build", build_dir, "-j", jobs, "--target", "rascal_cli",
        *libraries, *examples, *benches)
    run("cmake", "-S", source_root / "e2ebench", "-B", e2e_dir, *AUDIT_FLAGS)
    run("cmake", "--build", e2e_dir, "-j", jobs, "--target", "e2e_bench")

    # Only the libraries the source tree still declares: a reused build
    # directory keeps the archives of deleted ones.
    archives = [p for p in sorted(build_dir.glob("src/*/librascal_*.a"))
                if p.name not in EXCLUDED_ARCHIVES
                and p.name[len("lib"):-len(".a")] in libraries]
    binaries = ([build_dir / "tools/rascal_cli"] +
                [build_dir / "examples" / n for n in examples] +
                [build_dir / "bench" / n for n in benches] +
                [e2e_dir / "e2e_bench"])
    return archives, binaries


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build", help="build the audit tree, then check")
    b.add_argument("build_dir", nargs="?", default="build-audit")
    c = sub.add_parser("check", help="check built archives and binaries")
    c.add_argument("--archive", nargs="+", required=True)
    c.add_argument("--binary", nargs="+", required=True)
    for p in (b, c):
        p.add_argument("--allowlist", default=str(DEFAULT_ALLOWLIST))
        p.add_argument("--source-root", default=str(SOURCE_ROOT))
        p.add_argument("--nm", default="nm")
    args = ap.parse_args()

    source_root = pathlib.Path(args.source_root).resolve()
    if args.command == "build":
        archives, binaries = build(pathlib.Path(args.build_dir).resolve(),
                                   source_root)
    else:
        archives, binaries = args.archive, args.binary
    return check(archives, binaries, pathlib.Path(args.allowlist),
                 source_root, args.nm)


if __name__ == "__main__":
    sys.exit(main())
