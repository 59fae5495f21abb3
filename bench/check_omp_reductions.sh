#!/usr/bin/env bash
# Fails on any OpenMP floating-point accumulation that can change its
# rounding from run to run.
#
# An OpenMP `reduction(+ : x)` clause or an `omp atomic` update combines the
# per-thread contributions in whatever order the threads finish, so a sum of
# doubles is no longer bit-identical run to run -- the exact engine lost its
# kill-and-resume bit-identity at 4 threads that way.  The deterministic
# idioms live in src/util/parallel.hpp (and per-thread partials summed in a
# fixed order at the call sites), so this check flags every OpenMP pragma in
# src/ outside that header that carries a `reduction(` clause or is an
# `omp atomic`, unless the pragma is on the allowlist below.  Integer
# reductions are order-independent and may be allowlisted; floating-point
# ones may not.
#
# Pragmas continued with a trailing backslash are joined before matching,
# and comments are skipped, so prose that mentions reduction(+) never trips
# the check.
#
# Usage:  bench/check_omp_reductions.sh [repo-root]

set -euo pipefail

REPO_ROOT="$(cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}" && pwd)"

python3 - "${REPO_ROOT}" <<'PY'
import pathlib
import re
import sys

root = pathlib.Path(sys.argv[1])

# (path relative to the repo root, pragma with whitespace collapsed).
# Every entry must be an integer reduction: order-independent, so exact.
ALLOWLIST = {
    # topo_changed is a bool |-reduction, reused a std::size_t counter.
    ("src/tb/bond_table.cpp",
     "#pragma omp parallel for schedule(static) reduction(| : topo_changed) "
     "reduction(+ : reused)"),
}
EXEMPT = {"src/util/parallel.hpp"}
PRAGMA = re.compile(r"^\s*#\s*pragma\s+omp\b")
FLAGGED = re.compile(r"\breduction\s*\(|\batomic\b")


def strip_comments(line, in_block):
    """Drop /* */ and // comments from one line; returns (code, in_block)."""
    out = []
    i = 0
    while i < len(line):
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i, in_block = end + 2, False
        elif line.startswith("/*", i):
            in_block = True
            i += 2
        elif line.startswith("//", i):
            break
        else:
            out.append(line[i])
            i += 1
    return "".join(out), in_block


def pragmas(path):
    """Yield (first line number, joined pragma text) for every OpenMP pragma."""
    in_block = False
    pending = None  # [start line, accumulated text] while a pragma continues
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        code, in_block = strip_comments(raw, in_block)
        if pending is None:
            if not PRAGMA.match(code):
                continue
            pending = [lineno, ""]
        text = code.rstrip()
        continued = text.endswith("\\")
        pending[1] += " " + (text[:-1] if continued else text)
        if not continued:
            yield pending[0], " ".join(pending[1].split())
            pending = None
    if pending is not None:
        yield pending[0], " ".join(pending[1].split())


violations = []
checked = 0
for path in sorted((root / "src").rglob("*")):
    if path.suffix not in {".cpp", ".hpp", ".h", ".cc"}:
        continue
    rel = path.relative_to(root).as_posix()
    if rel in EXEMPT:
        continue
    for lineno, text in pragmas(path):
        checked += 1
        if FLAGGED.search(text) and (rel, text) not in ALLOWLIST:
            violations.append(f"{rel}:{lineno}: {text}")

print(f"OpenMP pragmas checked under src/: {checked} "
      f"(allowlisted integer reductions: {len(ALLOWLIST)})")
if violations:
    print("error: OpenMP reduction/atomic outside src/util/parallel.hpp "
          "(sum per-thread partials in a fixed order instead):")
    for v in violations:
        print(f"  {v}")
    sys.exit(1)
print("ok: no unlisted reduction( or omp atomic pragmas")
PY
