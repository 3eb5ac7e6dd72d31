#!/usr/bin/env python3
"""Schema validator for the telemetry exporters (docs/observability.md).

Validates the three artifacts an `obs::Observer` writes for a run prefix:

  PREFIX.metrics.jsonl   one counting+execution-plane snapshot per line:
                         {"schema":"biochip.metrics.v1","tick":T,"metrics":[...]}
                         Ticks must be nondecreasing (the final snapshot may
                         repeat the last periodic tick) and the metric set —
                         the ordered (name, index, kind, plane) tuples — must
                         be identical on every line: drivers pre-register the
                         full catalog, so the snapshot shape never drifts.
  PREFIX.trace.json      Chrome-trace JSON: complete "X" phase spans with
                         microsecond ts/dur, tid = lane + 1 (0 = the serial
                         driver), args.tick. Load it at chrome://tracing.
  PREFIX.summary.json    {"context":{schema,label,tick},"metrics":[...]} —
                         the BENCH_*.json-style final state.

Usage:
  tools/check_obs.py PREFIX [--require-phases faults,arrivals,...]
Exit 1 with a findings list on any schema violation (run by the obs smoke
test and the CI streaming-smoke job).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "biochip.metrics.v1"
KINDS = {"counter", "gauge", "histogram"}
PLANES = {"counting", "execution"}


def check_metric(m: object, where: str, errors: list[str]) -> tuple | None:
    """Validate one metric entry; returns its shape tuple on success."""
    if not isinstance(m, dict):
        errors.append(f"{where}: metric entry is not an object")
        return None
    for key in ("name", "index", "kind", "plane"):
        if key not in m:
            errors.append(f"{where}: metric missing '{key}'")
            return None
    if m["kind"] not in KINDS:
        errors.append(f"{where}: unknown kind '{m['kind']}'")
        return None
    if m["plane"] not in PLANES:
        errors.append(f"{where}: unknown plane '{m['plane']}'")
        return None
    name = f"{where}: {m['name']}[{m['index']}]"
    if m["kind"] == "histogram":
        bounds, buckets = m.get("bounds"), m.get("buckets")
        if not isinstance(bounds, list) or not isinstance(buckets, list):
            errors.append(f"{name}: histogram needs bounds + buckets arrays")
        elif len(buckets) != len(bounds) + 1:
            errors.append(
                f"{name}: {len(buckets)} buckets for {len(bounds)} bounds "
                "(want bounds + overflow)"
            )
        elif bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            errors.append(f"{name}: bounds not strictly ascending")
        elif any(not isinstance(b, int) or b < 0 for b in buckets):
            errors.append(f"{name}: bucket counts must be non-negative ints")
    else:
        if "value" not in m:
            errors.append(f"{name}: missing 'value'")
        elif m["kind"] in ("counter",) and (
            not isinstance(m["value"], int) or m["value"] < 0
        ):
            errors.append(f"{name}: counter value must be a non-negative int")
    return (m["name"], m["index"], m["kind"], m["plane"])


def check_snapshot(obj: object, where: str, errors: list[str]) -> tuple | None:
    """Validate one snapshot; returns (tick, shape) on success."""
    if not isinstance(obj, dict):
        errors.append(f"{where}: snapshot is not an object")
        return None
    if obj.get("schema") != SCHEMA:
        errors.append(f"{where}: schema is {obj.get('schema')!r}, want {SCHEMA!r}")
        return None
    if not isinstance(obj.get("tick"), int):
        errors.append(f"{where}: tick is not an int")
        return None
    metrics = obj.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        errors.append(f"{where}: metrics must be a non-empty array")
        return None
    shape = []
    for m in metrics:
        s = check_metric(m, where, errors)
        if s is not None:
            shape.append(s)
    return obj["tick"], tuple(shape)


def check_metrics_jsonl(path: Path, errors: list[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        errors.append(f"{path.name}: empty")
        return
    last_tick, shape = None, None
    for n, line in enumerate(lines, 1):
        where = f"{path.name}:{n}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"{where}: invalid JSON ({e})")
            continue
        res = check_snapshot(obj, where, errors)
        if res is None:
            continue
        tick, line_shape = res
        if last_tick is not None and tick < last_tick:
            errors.append(f"{where}: tick {tick} < previous {last_tick}")
        last_tick = tick
        if shape is None:
            shape = line_shape
        elif line_shape != shape:
            errors.append(
                f"{where}: metric set differs from line 1 "
                "(snapshot shape must not drift)"
            )


def check_trace(path: Path, require_phases: list[str], errors: list[str]) -> None:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        errors.append(f"{path.name}: invalid JSON ({e})")
        return
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append(f"{path.name}: traceEvents must be a non-empty array")
        return
    seen = set()
    for n, e in enumerate(events):
        where = f"{path.name}: traceEvents[{n}]"
        if e.get("ph") != "X":
            errors.append(f"{where}: ph must be 'X' (complete spans only)")
            continue
        if not isinstance(e.get("name"), str) or not e["name"]:
            errors.append(f"{where}: missing span name")
            continue
        if not isinstance(e.get("tid"), int) or e["tid"] < 0:
            errors.append(f"{where}: tid must be a non-negative lane + 1")
        for key in ("ts", "dur"):
            if not isinstance(e.get(key), (int, float)) or e[key] < 0:
                errors.append(f"{where}: {key} must be a non-negative number")
        if not isinstance(e.get("args", {}).get("tick"), int):
            errors.append(f"{where}: args.tick must be an int")
        seen.add(e["name"])
    for phase in require_phases:
        if phase not in seen:
            errors.append(f"{path.name}: required phase '{phase}' has no span")


def check_summary(path: Path, errors: list[str]) -> None:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        errors.append(f"{path.name}: invalid JSON ({e})")
        return
    ctx = obj.get("context")
    if not isinstance(ctx, dict):
        errors.append(f"{path.name}: missing context object")
        return
    check_snapshot(
        {"schema": ctx.get("schema"), "tick": ctx.get("tick"),
         "metrics": obj.get("metrics")},
        path.name,
        errors,
    )
    if not isinstance(ctx.get("label"), str) or not ctx["label"]:
        errors.append(f"{path.name}: context.label must be a non-empty string")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("prefix", help="artifact prefix (PREFIX.metrics.jsonl etc.)")
    ap.add_argument(
        "--require-phases",
        default="",
        help="comma-separated span names the trace must contain",
    )
    args = ap.parse_args()

    errors: list[str] = []
    checked = 0
    for suffix, check in (
        (".metrics.jsonl", check_metrics_jsonl),
        (
            ".trace.json",
            lambda p, e: check_trace(
                p, [s for s in args.require_phases.split(",") if s], e
            ),
        ),
        (".summary.json", check_summary),
    ):
        path = Path(args.prefix + suffix)
        if not path.exists():
            errors.append(f"{path.name}: missing")
            continue
        check(path, errors)
        checked += 1

    if errors:
        print(f"check_obs: {len(errors)} violation(s):")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_obs: {checked} artifact(s) schema-valid for {args.prefix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
