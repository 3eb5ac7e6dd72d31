#!/usr/bin/env python3
"""Docs consistency check: stale docs fail CI, not a reader.

Over README.md and every docs/*.md this verifies that
  1. every relative markdown link [text](target) resolves to a real file
     (anchors are stripped; http(s)/mailto links are skipped);
  2. every backtick code span that names a repo file (src/..., docs/...,
     examples/..., bench/..., tests/..., tools/..., .github/..., or a bare
     *.md/*.json/*.sh at the root) exists;
  3. every backtick code span that names a C++ symbol path (foo::Bar,
     chip::DefectMap, Replanner::park, ...) still exists in the sources:
     each `::`-component must appear as an identifier somewhere under src/,
     tests/, bench/ or examples/;
  4. every backtick code span that is a bare snake_case identifier (lower
     case, containing `_`: a config field, a metric column, a binary name)
     still appears as an identifier in a file under src/, tests/, bench/,
     examples/, perfbench/, tools/ or .github/, or in CMakeLists.txt, or is
     the name of such a file (with or without its suffix). This script is
     left out, so its own fixtures vouch for nothing;
  5. every backtick code span that is a dotted metric name (snake_case
     components joined by dots, with an optional `[x]` index suffix:
     `service.free_advances[c]`, `obs.trace_overhead`) is registered: its
     text without the suffix appears in a string literal in a file under
     src/, bench/, perfbench/ or tools/ (this script left out), or it splits
     at a dot into two literals that compose it at run time, a prefix and a
     `.suffix` (`"chamber"` + `".replans"`) or a `prefix.` and a suffix
     (`"event."` + `"admission_shed"`).

Exit code 0 = clean, 1 = stale references (each one listed).

  tools/check_docs.py              # check README.md and docs/*.md
  tools/check_docs.py --self-test  # prove rules 4 and 5 pass a current
                                   # fixture and flag a stale one
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
SOURCE_DIRS = ["src", "tests", "bench", "examples"]
NAME_DIRS = SOURCE_DIRS + ["perfbench", "tools", ".github"]
NAME_FILES = ["CMakeLists.txt"]
PATH_PREFIXES = ("src/", "docs/", "examples/", "bench/", "tests/", "tools/", ".github/")
ROOT_FILE_SUFFIXES = (".md", ".json", ".sh", ".py", ".yml")
LITERAL_DIRS = ["src", "bench", "perfbench", "tools"]
# A dotted span ending in one of these names a file, not a metric.
FILE_SUFFIXES = ("cpp", "hpp", "h", "md", "json", "jsonl", "py", "sh", "yml", "txt", "csv")

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCED_BLOCK = re.compile(r"^```.*?^```", re.S | re.M)
CODE_SPAN = re.compile(r"`([^`\n]+)`")
SYMBOL = re.compile(r"^~?[A-Za-z_][A-Za-z0-9_]*(::~?[A-Za-z_][A-Za-z0-9_]*)+$")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
SNAKE = re.compile(r"^[a-z][a-z0-9]*(?:_[a-z0-9]+)+$")
DOTTED = re.compile(r"^([a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+)(?:\[[a-z0-9_]+\])?$")
DOTTED_TOKEN = re.compile(r"(?<![A-Za-z0-9_.])[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+(?![A-Za-z0-9_.])")
STRING_LITERAL = re.compile(r'"((?:[^"\\\n]|\\.)*)"|\'((?:[^\'\\\n]|\\.)*)\'')


def source_corpus() -> str:
    chunks = []
    for d in SOURCE_DIRS:
        for path in sorted((REPO / d).rglob("*")):
            if path.suffix in (".hpp", ".cpp", ".h"):
                chunks.append(path.read_text(encoding="utf-8", errors="replace"))
    return "\n".join(chunks)


def name_corpus(root: Path) -> set[str]:
    """Rule 4's corpus: every identifier in any file under NAME_DIRS or in
    NAME_FILES, plus every such file's name and suffix-less stem. This
    script's text is left out, its name is not."""
    files = [root / f for f in NAME_FILES if (root / f).is_file()]
    for d in NAME_DIRS:
        files.extend(p for p in sorted((root / d).rglob("*"))
                     if p.is_file() and "__pycache__" not in p.parts)
    me = Path(__file__).resolve()
    names: set[str] = set()
    for path in files:
        if path.resolve() != me:
            names.update(IDENTIFIER.findall(path.read_text(encoding="utf-8", errors="replace")))
        names.update((path.name, path.stem))
    return names


def literal_corpus(root: Path) -> set[str]:
    """Rule 5's corpus: the text of every string literal in a file under
    LITERAL_DIRS, plus every dotted token inside one. This script's text is
    left out."""
    me = Path(__file__).resolve()
    literals: set[str] = set()
    for d in LITERAL_DIRS:
        for path in sorted((root / d).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts or path.resolve() == me:
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for m in STRING_LITERAL.finditer(text):
                lit = m.group(1) if m.group(1) is not None else m.group(2)
                literals.add(lit)
                literals.update(DOTTED_TOKEN.findall(lit))
    return literals


def registered(name: str, literals: set[str]) -> bool:
    """Rule 5: `name` is a literal, or a literal prefix and a literal suffix
    compose it with the dot on exactly one side."""
    if name in literals:
        return True
    for i, ch in enumerate(name):
        if ch != ".":
            continue
        head, tail = name[:i], name[i + 1:]
        if ((head in literals and "." + tail in literals)
                or (head + "." in literals and tail in literals)):
            return True
    return False


def check_text(text: str, rel: str, doc_dir: Path, identifiers: set[str],
               names: set[str], literals: set[str]) -> list[str]:
    errors = []
    # Fenced code blocks are shell/ASCII art, not references; strip them so
    # the inline-span parser cannot pair a fence with a later inline tick.
    text = FENCED_BLOCK.sub("", text)

    for m in MD_LINK.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc_dir / path).resolve()
        if not resolved.exists():
            errors.append(f"{rel}: broken link `{target}`")

    for m in CODE_SPAN.finditer(text):
        span = m.group(1).strip()
        # File references.
        candidate = span.split(":", 1)[0]  # allow `src/foo.cpp:12`
        if "*" not in candidate and (
            candidate.startswith(PATH_PREFIXES)
            or ("/" not in candidate and candidate.endswith(ROOT_FILE_SUFFIXES))
        ):
            if not (REPO / candidate).exists():
                errors.append(f"{rel}: referenced file `{candidate}` does not exist")
            continue
        # Symbol references: every :: component must still be an identifier
        # somewhere in the sources.
        if SYMBOL.match(span):
            for part in span.replace("~", "").split("::"):
                if part not in identifiers:
                    errors.append(
                        f"{rel}: symbol `{span}` — identifier `{part}` "
                        "not found in the sources"
                    )
                    break
            continue
        # Bare snake_case names (config fields, metric columns, binaries).
        if SNAKE.match(span) and span not in names:
            errors.append(f"{rel}: name `{span}` not found in the tree")
        # Dotted metric names.
        dotted = DOTTED.match(span)
        if (dotted and span.rsplit(".", 1)[1] not in FILE_SUFFIXES
                and not registered(dotted.group(1), literals)):
            errors.append(f"{rel}: metric `{span}` is registered nowhere")
    return errors


def self_test() -> int:
    """Rules 4 and 5 over a fixture tree: a doc naming only current names is
    clean, a doc naming a deleted field, a renamed column and metrics that
    no literal under src/, bench/, perfbench/ or tools/ registers is flagged
    once per stale span."""
    tree = {
        "src/control/engine.cpp": "std::size_t frames_sensed = 0;  // Supervisor::step",
        "src/obs/fold.cpp": ('reg.gauge("service.free_advances", c);\n'
                             'reg.gauge(base + ".replans", c);\n'
                             'RuntimeGauges(reg, "chamber", c);\n'
                             'reg.counter(std::string("event.") + to_string(kind));\n'
                             'case Kind::kShed: return "admission_shed";\n'),
        "bench/bench_control.cpp": 'state.counters["basin_share"] = 1.0;',
        "tests/test_control.cpp": 'reg.gauge("service.test_only", 0);',
        "tools/run_benches.sh": 'echo "library_build_type"',
        "perfbench/src/layers.cpp": 'const char* kNames = "obs.trace_overhead,obs.span_coverage";',
    }
    passing = ("The report's `frames_sensed`, the `basin_share` column of "
               "`bench_control`, `test_control`, `library_build_type`, "
               "`Supervisor::step`, and `plain`, `_tracked`, "
               "`MALLOC_TRIM_THRESHOLD_` or `BIOCHIP_LONGFUZZ=10`, which rule "
               "4 leaves alone. The gauges `service.free_advances[c]`, "
               "`obs.trace_overhead` and `obs.span_coverage`, composed "
               "`chamber.replans[c]` and `event.admission_shed`, and "
               "`engine.cpp`, which rule 5 leaves alone.\n")
    stale = ("`frames_per_tick` frames, the `exact_share` column, "
             "`frames_sensed` again, `service.no_such_gauge[c]`, "
             "`obs.made_up_share`, `service.test_only`, `chamber.exact_advances` "
             "and `event.shed`.\n")
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in tree.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text, encoding="utf-8")
        names = name_corpus(root)
        literals = literal_corpus(root)
    identifiers = {"Supervisor", "step"}
    got = check_text(passing, "passing.md", REPO, identifiers, names, literals)
    if got:
        failures.append(f"passing fixture flagged: {got}")
    got = check_text(stale, "stale.md", REPO, identifiers, names, literals)
    want = ["stale.md: name `frames_per_tick` not found in the tree",
            "stale.md: name `exact_share` not found in the tree",
            "stale.md: metric `service.no_such_gauge[c]` is registered nowhere",
            "stale.md: metric `obs.made_up_share` is registered nowhere",
            "stale.md: metric `service.test_only` is registered nowhere",
            "stale.md: metric `chamber.exact_advances` is registered nowhere",
            "stale.md: metric `event.shed` is registered nowhere"]
    if got != want:
        failures.append(f"stale fixture: expected {want}, got {got}")
    if failures:
        print(f"check_docs --self-test: {len(failures)} failure(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print("check_docs --self-test: both fixtures behave as declared")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true")
    if ap.parse_args().self_test:
        return self_test()
    identifiers = set(IDENTIFIER.findall(source_corpus()))
    names = name_corpus(REPO)
    literals = literal_corpus(REPO)
    errors = []
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"missing required doc: {doc.relative_to(REPO)}")
            continue
        errors.extend(check_text(doc.read_text(encoding="utf-8"),
                                 str(doc.relative_to(REPO)), doc.parent,
                                 identifiers, names, literals))
    if errors:
        print(f"check_docs: {len(errors)} stale reference(s):")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_docs: {len(DOC_FILES)} docs clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
