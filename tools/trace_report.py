#!/usr/bin/env python3
"""Summarize a Chrome-trace phase-span file from the telemetry layer.

Reads the PREFIX.trace.json an `obs::Observer` writes (complete "X" spans:
driver phases on tid 0, per-chamber control phases on tid = chamber + 1) and
prints per-phase wall-clock totals — count, total/mean/max span duration and
share — as two tables: the driver lane, and the chamber lanes. The driver's
`chambers` span encloses the chamber-lane spans of the same tick, so the two
lanes are never summed together; each table's shares are of its own total.
The report is headed by the driver-lane wall time (the driver's phases tile
each tick, so their sum is the traced loop's wall time). The timing plane is
explicitly nondeterministic (docs/observability.md), so these numbers are
for profiling and regression eyeballing, never for simulation assertions.

Usage:
  tools/trace_report.py PREFIX.trace.json [--by-lane]
  tools/trace_report.py --self-test   # check both tables on the committed
                                      # fixture trace (run by ctest)
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "trace_fixtures" / "two_lanes.trace.json"

# phase -> [count, total us, max us]
Totals = dict[str, list[float]]


def summarize(events: list[dict], by_lane: bool) -> tuple[Totals, Totals, set[int]]:
    """Per-phase totals of the driver lane and of the chamber lanes, plus the
    set of ticks the spans carry. `by_lane` keys chamber phases per lane."""
    driver: Totals = defaultdict(lambda: [0, 0.0, 0.0])
    chambers: Totals = defaultdict(lambda: [0, 0.0, 0.0])
    ticks = set()
    for e in events:
        if e.get("ph") != "X":
            continue
        tid = e.get("tid", 0)
        key = e["name"]
        if tid != 0 and by_lane:
            key = f"{key} (lane {tid - 1})"
        stat = (driver if tid == 0 else chambers)[key]
        stat[0] += 1
        stat[1] += e.get("dur", 0.0)
        stat[2] = max(stat[2], e.get("dur", 0.0))
        tick = e.get("args", {}).get("tick")
        if isinstance(tick, int):
            ticks.add(tick)
    return driver, chambers, ticks


def table(title: str, totals: Totals) -> list[str]:
    grand = sum(stat[1] for stat in totals.values()) or 1.0
    lines = [f"{title:<28} {'count':>8} {'total ms':>10} {'mean us':>9} "
             f"{'max us':>9} {'share':>7}"]
    for name, (count, total, peak) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        lines.append(
            f"{name:<28} {int(count):>8} {total / 1000.0:>10.2f} "
            f"{total / count:>9.1f} {peak:>9.1f} {100.0 * total / grand:>6.1f}%"
        )
    return lines


def report(name: str, events: list[dict], by_lane: bool) -> list[str]:
    driver, chambers, ticks = summarize(events, by_lane)
    spans = sum(int(s[0]) for s in driver.values()) + sum(
        int(s[0]) for s in chambers.values())
    wall = sum(stat[1] for stat in driver.values())
    lines = [f"{name}: {spans} spans, {len(ticks)} ticks, "
             f"driver-lane wall time {wall / 1000.0:.2f} ms"]
    lines += table("driver lane", driver)
    if chambers:
        lines += [""] + table("chamber lanes", chambers)
    return lines


def self_test() -> int:
    """The fixture: 2 ticks; driver spans faults 100 + chambers 600 + fold
    300 us per tick; two chamber lanes with physics 400/300 and sense
    100/200 us per tick. Neither table may see the other lane's spans."""
    events = json.loads(FIXTURE.read_text(encoding="utf-8"))["traceEvents"]
    failures = []
    driver, chambers, ticks = summarize(events, by_lane=False)
    expect_driver = {"faults": [2, 200.0, 100.0], "chambers": [2, 1200.0, 600.0],
                     "fold": [2, 600.0, 300.0]}
    expect_chambers = {"physics": [4, 1400.0, 400.0], "sense": [4, 600.0, 200.0]}
    if dict(driver) != expect_driver:
        failures.append(f"driver totals {dict(driver)} != {expect_driver}")
    if dict(chambers) != expect_chambers:
        failures.append(f"chamber totals {dict(chambers)} != {expect_chambers}")
    if ticks != {1, 2}:
        failures.append(f"ticks {sorted(ticks)} != [1, 2]")
    _, by_lane, _ = summarize(events, by_lane=True)
    if sorted(by_lane) != ["physics (lane 0)", "physics (lane 1)",
                           "sense (lane 0)", "sense (lane 1)"]:
        failures.append(f"--by-lane keys {sorted(by_lane)}")

    lines = report(FIXTURE.name, events, by_lane=False)
    expect_lines = {
        0: f"{FIXTURE.name}: 14 spans, 2 ticks, driver-lane wall time 2.00 ms",
        2: "chambers                            2       1.20     600.0     600.0   60.0%",
        3: "fold                                2       0.60     300.0     300.0   30.0%",
        4: "faults                              2       0.20     100.0     100.0   10.0%",
        7: "physics                             4       1.40     350.0     400.0   70.0%",
        8: "sense                               4       0.60     150.0     200.0   30.0%",
    }
    for n, want in expect_lines.items():
        got = lines[n] if n < len(lines) else "<missing>"
        if got != want:
            failures.append(f"line {n}: {got!r} != {want!r}")

    if failures:
        print(f"trace_report --self-test: {len(failures)} failure(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print("trace_report --self-test: both tables match the fixture")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trace", type=Path, nargs="?", help="Chrome-trace JSON file")
    ap.add_argument(
        "--by-lane",
        action="store_true",
        help="break chamber phases out per lane instead of aggregating",
    )
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.trace is None:
        ap.error("a trace file is required")

    obj = json.loads(args.trace.read_text(encoding="utf-8"))
    events = obj.get("traceEvents", [])
    if not events:
        print(f"{args.trace}: no spans recorded")
        return 1
    print("\n".join(report(args.trace.name, events, args.by_lane)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
