#!/usr/bin/env python3
"""Compare two google-benchmark result sets against their noise band.

Each side is a BENCH_*.json file or a directory of them (bench/run_benches.sh
writes BENCH_field_solver.json, BENCH_physics_engine.json and
BENCH_control.json at the repo root). Rows are matched by file name and run
name; two single files are matched by run name alone.

Every row is reduced from its repetitions (google-benchmark's iteration
rows; its mean/median/stddev/cv aggregate rows are not read). For every row
on both sides it prints the old and new median real time, the ratio
new / old, the wider of the two sides' coefficients of variation (CV) and
OLD's interquartile range over its median (the repository benchmark's
spread rule). A ratio further from 1 than both reads `faster` or `slower`,
one inside either `~`. A side recorded as one run has no spread; a row with
no spread on either side reads `no spread`.

The timing verdict is advisory: on the pooled bench_control rows one binary
run against itself has read further apart than this band (docs/perf.md).
The deterministic counters (delivered_frac, cells_per_hour, p50_ticks,
p99_ticks, shed_frac, makespan, moves and every *_per_frame) repeat exactly
for a given build and seed, so they are compared exactly: each difference is listed under
"moved counters", and only these set the exit status (1).

Usage:
  tools/bench_diff.py OLD NEW
  tools/bench_diff.py --self-test   # check the arithmetic on built-in
                                    # fixtures (run by ctest)
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

EXACT_COUNTERS = ("delivered_frac", "cells_per_hour", "p50_ticks", "p99_ticks", "shed_frac",
                  "makespan", "moves")
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def deterministic(counter: str) -> bool:
    return counter in EXACT_COUNTERS or counter.endswith("_per_frame")


@dataclass
class Row:
    times_ns: list[float]       # real time of each repetition
    counters: dict[str, float]  # the first repetition's deterministic counters

    @property
    def median_ns(self) -> float:
        return statistics.median(self.times_ns)

    @property
    def cv(self) -> float | None:
        """stddev / mean of the real time; None for one run."""
        if len(self.times_ns) < 2:
            return None
        return statistics.stdev(self.times_ns) / statistics.mean(self.times_ns)

    @property
    def iqr(self) -> float | None:
        """Interquartile range over the median (quartiles interpolated
        between order statistics: the 2nd and 4th of 5 runs); None for one
        run."""
        if len(self.times_ns) < 2:
            return None
        q1, _, q3 = statistics.quantiles(self.times_ns, n=4, method="inclusive")
        return (q3 - q1) / self.median_ns


def rows(benchmarks: list[dict]) -> dict[str, Row]:
    """One Row per run name, from its iteration rows."""
    out: dict[str, Row] = {}
    for b in benchmarks:
        if b.get("run_type", "iteration") != "iteration":
            continue
        row = out.setdefault(b.get("run_name", b["name"]),
                             Row([], {k: v for k, v in b.items() if deterministic(k)}))
        row.times_ns.append(b["real_time"] * NS_PER_UNIT[b["time_unit"]])
    return out


def load_set(path: Path) -> dict[tuple[str, str], Row]:
    """Rows keyed (file name, run name); the file name is "" for a single
    file, so two single files match by run name."""
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        benchmarks = json.loads(f.read_text(encoding="utf-8")).get("benchmarks", [])
        tag = f.name if path.is_dir() else ""
        for name, row in rows(benchmarks).items():
            out[(tag, name)] = row
    return out


def fmt_time(ns: float) -> str:
    for unit in ("s", "ms", "us"):
        if ns >= NS_PER_UNIT[unit]:
            return f"{ns / NS_PER_UNIT[unit]:.3f} {unit}"
    return f"{ns:.1f} ns"


def fmt_share(share: float | None) -> str:
    return f"{100.0 * share:.1f}%" if share is not None else "-"


def verdict(ratio: float, band: float | None) -> str:
    if band is None:
        return "no spread"
    if abs(ratio - 1.0) <= band:
        return "~"
    return "slower" if ratio > 1.0 else "faster"


def diff(old: dict[tuple[str, str], Row],
         new: dict[tuple[str, str], Row]) -> tuple[list[str], list[str]]:
    """The report lines, and the moved-counter lines alone."""
    lines = [f"{'row':<52} {'old':>12} {'new':>12} {'ratio':>7} {'cv':>7} {'old iqr':>7}  verdict"]
    moved = []
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        label = " ".join(k for k in key if k)
        ratio = b.median_ns / a.median_ns if a.median_ns > 0 else float("inf")
        cv = max((x for x in (a.cv, b.cv) if x is not None), default=None)
        band = max((x for x in (cv, a.iqr) if x is not None), default=None)
        lines.append(f"{label:<52} {fmt_time(a.median_ns):>12} {fmt_time(b.median_ns):>12} "
                     f"{ratio:>7.3f} {fmt_share(cv):>7} {fmt_share(a.iqr):>7}  "
                     f"{verdict(ratio, band)}")
        for counter in sorted(a.counters.keys() & b.counters.keys()):
            if a.counters[counter] != b.counters[counter]:
                moved.append(f"{label} {counter}: {a.counters[counter]!r} -> "
                             f"{b.counters[counter]!r}")
    lines.append(f"moved counters: {len(moved)}")
    lines.extend(f"  {m}" for m in moved)
    for side, only in (("OLD", old.keys() - new.keys()), ("NEW", new.keys() - old.keys())):
        lines.extend(f"only in {side}: {' '.join(k for k in key if k)}" for key in sorted(only))
    return lines, moved


def self_test() -> int:
    """OLD mixes 5-repetition rows with single (pre-repetition) runs; NEW
    has 5 repetitions per row plus aggregate rows whose values must be
    ignored."""
    failures = []

    def reps(name: str, times: list[float], unit: str = "ms", **counters) -> list[dict]:
        return [{"name": name, "run_name": name, "run_type": "iteration",
                 "repetition_index": i, "real_time": t, "time_unit": unit,
                 "ticks_per_s": 100.0 + i, **counters} for i, t in enumerate(times)]

    def aggregates(name: str) -> list[dict]:
        return [{"name": f"{name}_{kind}", "run_name": name, "run_type": "aggregate",
                 "aggregate_name": kind, "real_time": 999.0, "time_unit": "ms",
                 "delivered_frac": 0.5} for kind in ("mean", "median", "stddev", "cv")]

    old_set = [
        *reps("bm_episode", [10.0, 9.0, 11.0, 10.5, 9.5], delivered_frac=0.75),
        *reps("bm_sense", [1900.0, 2000.0, 2100.0, 2000.0, 2000.0], "us"),
        *reps("bm_stream", [5.0], p50_ticks=16.0, bg_per_frame=3.0),
        *reps("bm_one", [1.0]),
        *reps("bm_gone", [1.0]),
    ]
    new_set = [
        *reps("bm_episode", [10.9, 10.8, 11.0, 10.9, 10.9], delivered_frac=1.0),
        *aggregates("bm_episode"),
        *reps("bm_sense", [2.6, 2.5, 2.7, 2.6, 2.6]),
        *aggregates("bm_sense"),
        *reps("bm_stream", [4.0, 4.1, 3.9, 4.0, 4.0], p50_ticks=16.0, bg_per_frame=3.0),
        *reps("bm_one", [1.0]),
        *reps("bm_added", [1.0, 1.0]),
    ]
    old_rows, new_rows = rows(old_set), rows(new_set)
    episode = old_rows["bm_episode"]
    if (episode.median_ns != 10e6 or abs(episode.cv - 0.625 ** 0.5 / 10.0) > 1e-12
            or abs(episode.iqr - 0.1) > 1e-12):
        failures.append(f"repetitions reduced to median {episode.median_ns}, "
                        f"cv {episode.cv}, iqr {episode.iqr}")
    if len(new_rows["bm_episode"].times_ns) != 5 or new_rows["bm_episode"].median_ns > 11e6:
        failures.append("aggregate rows were read as repetitions")
    if new_rows["bm_episode"].counters != {"delivered_frac": 1.0}:
        failures.append(f"counters {new_rows['bm_episode'].counters} are not the "
                        "repetitions' deterministic ones")
    if old_rows["bm_stream"].cv is not None or old_rows["bm_stream"].iqr is not None:
        failures.append("a single run has a spread")

    with tempfile.TemporaryDirectory() as tmp:
        for side, benchmarks in (("old", old_set), ("new", new_set)):
            (Path(tmp) / side).mkdir()
            (Path(tmp) / side / "BENCH_control.json").write_text(
                json.dumps({"benchmarks": benchmarks}), encoding="utf-8")
        old, new = load_set(Path(tmp) / "old"), load_set(Path(tmp) / "new")
        single = load_set(Path(tmp) / "old" / "BENCH_control.json")
    if ("BENCH_control.json", "bm_stream") not in old or ("", "bm_stream") not in single:
        failures.append(f"set keys {sorted(old)} / {sorted(single)}")

    lines, moved = diff(old, new)
    expect = {
        # outside the wider CV (7.9%), inside OLD's interquartile range (10%)
        1: "BENCH_control.json bm_episode 10.000 ms 10.900 ms 1.090 7.9% 10.0% ~",
        2: "BENCH_control.json bm_one 1.000 ms 1.000 ms 1.000 - - no spread",
        # OLD's interquartile range is 0: the wider CV (3.5%) is the band
        3: "BENCH_control.json bm_sense 2.000 ms 2.600 ms 1.300 3.5% 0.0% slower",
        # OLD is a single run: NEW's CV alone is the band
        4: "BENCH_control.json bm_stream 5.000 ms 4.000 ms 0.800 1.8% - faster",
        5: "moved counters: 1",
        6: "BENCH_control.json bm_episode delivered_frac: 0.75 -> 1.0",
        7: "only in OLD: BENCH_control.json bm_gone",
        8: "only in NEW: BENCH_control.json bm_added",
    }
    for n, want in expect.items():
        got = lines[n] if n < len(lines) else "<missing>"
        if got.split() != want.split():
            failures.append(f"line {n}: {got!r} != {want!r}")
    if len(moved) != 1:
        failures.append(f"moved counters {moved}")
    if diff(new, new)[1]:
        failures.append("a set differs from itself")

    if failures:
        print(f"bench_diff --self-test: {len(failures)} failure(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print("bench_diff --self-test: medians, spreads, verdicts and counter moves match")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path, nargs="?", help="BENCH_*.json file or directory")
    ap.add_argument("new", type=Path, nargs="?", help="BENCH_*.json file or directory")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.old is None or args.new is None:
        ap.error("OLD and NEW are required")
    lines, moved = diff(load_set(args.old), load_set(args.new))
    print("\n".join(lines))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
