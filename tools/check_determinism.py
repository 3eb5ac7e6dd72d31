#!/usr/bin/env python3
"""Determinism-contract linter: nondeterminism sources fail CI, not a soak run.

Everything concurrent in this codebase must be bitwise-identical to its serial
counterpart (docs/architecture.md, "Determinism contract"). The runtime
identity tests enforce that on the hardware they run on; this linter enforces
the *sources* of nondeterminism statically, so a violation is caught on a
1-core CI box even when it could only misbehave on 64 cores.

Rules (docs/static-analysis.md has the rationale table):

  banned-source        rand() and std::random_device anywhere under src/:
                       unseeded state. Use common::Rng streams instead.
  clock-outside-obs    Wall/steady-clock ::now() reads outside src/obs/.
                       Clocks feed timing-dependent behavior; the one
                       sanctioned read is the timing-plane shim
                       obs/clock.hpp (docs/observability.md), so simulation
                       code uses tick counters and everything wall-clock
                       goes through the explicitly nondeterministic plane.
  unordered-iteration  Iterating a std::unordered_{map,set} yields a
                       hash-seed- and insertion-order-dependent sequence. In
                       files that emit ControlEvents or accounting totals,
                       even *declaring* one needs a justification; elsewhere,
                       only iteration over one is flagged (membership tests
                       are order-free).
  raw-thread           std::thread / std::jthread / std::async outside
                       core/threadpool: ad-hoc concurrency bypasses the
                       pool's chunking contract that the identity tests pin.
  rng-bypass           Direct Rng construction inside pooled code paths
                       (src/control/, src/core/): per-worker streams must
                       come from Rng::fork stream spaces keyed on stable ids,
                       never from locally invented seeds.
  pool-below-core      core/threadpool.hpp includes or ThreadPool names
                       outside src/core/, src/control/ and src/obs/: nothing
                       below core owns threads (docs/architecture.md), so
                       the layers under it stay serial and never reach up.

Escape hatch: a `// det-ok: <reason>` comment on the flagged line or the line
above suppresses the finding. The reason is mandatory and should state the
ordering/independence argument (e.g. "membership-only, never iterated").

Usage:
  tools/check_determinism.py              # lint src/, exit 1 on findings
  tools/check_determinism.py --self-test  # prove each rule fires on its
                                          # fixture and stays quiet on the
                                          # clean twin (run by ctest)
  tools/check_determinism.py --root DIR   # lint an arbitrary tree (fixtures)
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tools" / "determinism_fixtures"

DET_OK = re.compile(r"//\s*det-ok:\s*(\S.*)")
LINE_COMMENT = re.compile(r"//.*$")

BANNED_SOURCE = re.compile(r"(?<![\w:])rand\s*\(|std::random_device")
CLOCK_SOURCE = re.compile(
    r"(?:system_clock|steady_clock|high_resolution_clock)::now\s*\("
)
UNORDERED_DECL = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b")
UNORDERED_VAR = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;({=]"
)
RAW_THREAD = re.compile(r"std::(?:jthread\b|async\b|thread\b(?!::))")
RNG_CONSTRUCT = re.compile(r"(?<![\w.:])Rng\s+\w+\s*[({]|(?<![\w.:])Rng\s*[({]")
POOL_USE = re.compile(r'#\s*include\s*"core/threadpool\.hpp"|\bThreadPool\b')

# Files allowed to own these primitives: the pool owns std::thread, the Rng
# implementation owns raw construction, the timing plane owns the clock.
THREAD_OWNERS = ("core/threadpool.hpp", "core/threadpool.cpp")
RNG_OWNERS = ("common/rng.hpp", "common/rng.cpp")
CLOCK_OWNER_DIR = "obs/"
# Pooled code paths where an Rng must come from a fork stream space.
POOLED_DIRS = ("control/", "core/")
# The layers allowed to hold the worker pool: core owns it, control fans
# bodies, episodes and chambers out over it, obs folds its counters.
POOL_DIRS = ("core/", "control/", "obs/")
# Event emitters / accounting surfaces get the strict unordered rule.
EVENT_MARKERS = re.compile(r"\bControlEvent\b|\bemit_event\b|\baccounting\b")


def is_suppressed(lines: list[str], idx: int) -> bool:
    """det-ok with a reason on the flagged line or the line above."""
    if DET_OK.search(lines[idx]):
        return True
    return idx > 0 and DET_OK.search(lines[idx - 1]) is not None


def strip_comment(line: str) -> str:
    return LINE_COMMENT.sub("", line)


def lint_file(path: Path, rel: str) -> list[tuple[str, int, str, str]]:
    """Returns (rule, 1-based line, rel path, excerpt) findings."""
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.split("\n")
    findings = []
    emits_events = EVENT_MARKERS.search(text) is not None or rel.startswith(
        "control/"
    )
    pooled = any(rel.startswith(d) for d in POOLED_DIRS)
    may_pool = any(rel.startswith(d) for d in POOL_DIRS)

    unordered_vars: set[str] = set()
    for i, raw in enumerate(lines):
        line = strip_comment(raw)
        if not line.strip():
            continue

        if BANNED_SOURCE.search(line) and not is_suppressed(lines, i):
            findings.append(("banned-source", i + 1, rel, raw.strip()))

        if (
            CLOCK_SOURCE.search(line)
            and not rel.startswith(CLOCK_OWNER_DIR)
            and not is_suppressed(lines, i)
        ):
            findings.append(("clock-outside-obs", i + 1, rel, raw.strip()))

        if rel not in THREAD_OWNERS and RAW_THREAD.search(line):
            if not is_suppressed(lines, i):
                findings.append(("raw-thread", i + 1, rel, raw.strip()))

        if UNORDERED_DECL.search(line):
            for m in UNORDERED_VAR.finditer(line):
                unordered_vars.add(m.group(1))
            if emits_events and not is_suppressed(lines, i):
                findings.append(("unordered-iteration", i + 1, rel, raw.strip()))

        if unordered_vars:
            it = re.search(
                r"for\s*\([^)]*:\s*(\w+)\s*\)|(\w+)\s*\.\s*begin\s*\(", line
            )
            if it:
                name = it.group(1) or it.group(2)
                if name in unordered_vars and not is_suppressed(lines, i):
                    findings.append(
                        ("unordered-iteration", i + 1, rel, raw.strip())
                    )

        if not may_pool and POOL_USE.search(line) and not is_suppressed(lines, i):
            findings.append(("pool-below-core", i + 1, rel, raw.strip()))

        if pooled and rel not in RNG_OWNERS and RNG_CONSTRUCT.search(line):
            # Type/alias declarations are not constructions.
            is_decl = re.match(r"\s*(?:struct|class|using|typedef)\b", line)
            if not is_decl and ".fork" not in line and not is_suppressed(lines, i):
                findings.append(("rng-bypass", i + 1, rel, raw.strip()))

    return findings


def lint_tree(root: Path) -> list[tuple[str, int, str, str]]:
    findings = []
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h"):
            continue
        rel = str(path.relative_to(root)).replace("\\", "/")
        findings.extend(lint_file(path, rel))
    return findings


def self_test() -> int:
    """Each violations/ fixture declares the rules it must trip via
    `// expect: <rule>` headers; clean/ fixtures must produce nothing."""
    failures = []
    vio_dir = FIXTURES / "violations"
    for fixture in sorted(vio_dir.glob("*.cpp")) + sorted(vio_dir.glob("*.hpp")):
        text = fixture.read_text(encoding="utf-8")
        expected = set(re.findall(r"//\s*expect:\s*([\w-]+)", text))
        rel = re.search(r"//\s*as-path:\s*(\S+)", text)
        rel_path = rel.group(1) if rel else fixture.name
        got = {rule for rule, _, _, _ in lint_file(fixture, rel_path)}
        if got != expected:
            failures.append(
                f"{fixture.name}: expected rules {sorted(expected)}, got {sorted(got)}"
            )
    clean_dir = FIXTURES / "clean"
    for fixture in sorted(clean_dir.glob("*.cpp")) + sorted(clean_dir.glob("*.hpp")):
        text = fixture.read_text(encoding="utf-8")
        rel = re.search(r"//\s*as-path:\s*(\S+)", text)
        rel_path = rel.group(1) if rel else fixture.name
        got = lint_file(fixture, rel_path)
        if got:
            failures.append(f"{fixture.name}: expected clean, got {got}")
    if failures:
        print(f"check_determinism --self-test: {len(failures)} failure(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    n = len(list(vio_dir.glob("*.[ch]pp"))) + len(list(clean_dir.glob("*.[ch]pp")))
    print(f"check_determinism --self-test: {n} fixtures behave as declared")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, default=REPO / "src")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root)
    if findings:
        print(f"check_determinism: {len(findings)} violation(s):")
        for rule, line, rel, excerpt in findings:
            print(f"  [{rule}] {rel}:{line}: {excerpt}")
        print(
            "fix the nondeterminism source, or annotate the line with "
            "`// det-ok: <ordering argument>` (docs/static-analysis.md)"
        )
        return 1
    print("check_determinism: src tree clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
