#!/usr/bin/env python3
"""Validates a `diffcode metrics --metrics-json` snapshot.

Checks the invariants the pipeline promises (DESIGN.md, "Observability"):

  1. schema: version 2 with counters/gauges/spans sections;
  2. partition: mine.code_changes == mine.mined + mine.skipped, and
     mine.skipped equals the sum of its per-kind breakdown;
  3. funnel: filter.total >= after_fsame >= after_fadd >= after_frem
     >= after_fdup (Figure 6 only ever narrows);
  4. span sanity: count >= 1 implies min_ns <= max_ns <= sum_ns;
  5. histogram sanity (v2, via cilib.histogram_errors): per span, the
     p50..p999 quantiles are non-decreasing bucket edges, the sparse
     `buckets` cumulative distribution is strictly increasing in both
     edge and count, its final cumulative count equals the span count,
     and max_ns lies within the last hit bucket.

With a second argument, also validates a `diffcode mine --trace-out`
Chrome trace-event export:

  6. the trace is a well-formed JSON array of objects with name/ph/
     pid/tid/ts fields and ph in {B, E, i};
  7. per (pid, tid) lane, timestamps never decrease in array order;
  8. per lane, B/E events nest: every B has a matching E (same name,
     LIFO order) and no E arrives without an open B;
  9. one plane: every span name that opens a B event is a snapshot
     span whose count is at least its number of B events (closing a
     span records its histogram sample whether or not sampling kept
     its trace events).

Exit code 0 on success, 1 with a message per violation otherwise.
Usage: check_metrics_snapshot.py <snapshot.json> [trace.json]
"""

import json
import sys

import cilib

FUNNEL = [
    "filter.total",
    "filter.after_fsame",
    "filter.after_fadd",
    "filter.after_frem",
    "filter.after_fdup",
]

SKIP_KINDS = ["lex", "parse", "analysis-budget", "dag-budget", "panic"]


def check(snapshot):
    errors = []

    if snapshot.get("version") != 2:
        errors.append(f"unsupported snapshot version: {snapshot.get('version')!r}")
    counters = snapshot.get("counters", {})
    spans = snapshot.get("spans", {})
    for section in ("counters", "gauges", "spans"):
        if not isinstance(snapshot.get(section), dict):
            errors.append(f"missing or malformed section: {section}")

    # Partition: every processed change is either mined or skipped.
    processed = counters.get("mine.code_changes")
    mined = counters.get("mine.mined")
    skipped = counters.get("mine.skipped")
    if None in (processed, mined, skipped):
        errors.append("missing mine.{code_changes,mined,skipped} counters")
    elif processed != mined + skipped:
        errors.append(
            f"partition violated: mine.code_changes={processed} != "
            f"mine.mined={mined} + mine.skipped={skipped}"
        )
    if skipped is not None:
        by_kind = sum(counters.get(f"mine.skipped.{kind}", 0) for kind in SKIP_KINDS)
        if by_kind != skipped:
            errors.append(
                f"quarantine breakdown sums to {by_kind}, "
                f"but mine.skipped={skipped}"
            )

    # Funnel: each filter stage passes a subset of its input.
    missing = [stage for stage in FUNNEL if stage not in counters]
    if missing:
        errors.append(f"missing funnel counters: {', '.join(missing)}")
    else:
        for above, below in zip(FUNNEL, FUNNEL[1:]):
            if counters[above] < counters[below]:
                errors.append(
                    f"funnel not monotone: {above}={counters[above]} < "
                    f"{below}={counters[below]}"
                )

    # Span aggregates must be internally consistent, and the v2
    # histogram fields must describe exactly the same samples.
    for name, span in sorted(spans.items()):
        errors.extend(cilib.histogram_errors(name, span))
        count = span.get("count", 0)
        if count == 0:
            continue
        lo, hi, total = span.get("min_ns", 0), span.get("max_ns", 0), span.get("sum_ns", 0)
        if not (lo <= hi <= total):
            errors.append(
                f"span {name}: expected min <= max <= sum, "
                f"got min={lo} max={hi} sum={total}"
            )
        if hi * count < total:
            errors.append(f"span {name}: sum={total} exceeds count*max={hi * count}")

    return errors


def check_trace(events):
    errors = []
    if not isinstance(events, list):
        return [f"trace is not a JSON array: {type(events).__name__}"]
    stacks = {}  # (pid, tid) -> list of open B names
    last_ts = {}  # (pid, tid) -> last timestamp seen
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"trace[{i}]: not an object")
            continue
        missing = [key for key in ("name", "ph", "pid", "tid", "ts") if key not in event]
        if missing:
            errors.append(f"trace[{i}]: missing fields: {', '.join(missing)}")
            continue
        ph = event["ph"]
        if ph not in ("B", "E", "i"):
            errors.append(f"trace[{i}]: unknown phase {ph!r}")
            continue
        lane = (event["pid"], event["tid"])
        ts = event["ts"]
        if not isinstance(ts, (int, float)):
            errors.append(f"trace[{i}]: non-numeric ts {ts!r}")
            continue
        if lane in last_ts and ts < last_ts[lane]:
            errors.append(
                f"trace[{i}]: ts went backwards in lane pid={lane[0]} "
                f"tid={lane[1]}: {last_ts[lane]} -> {ts}"
            )
        last_ts[lane] = ts
        stack = stacks.setdefault(lane, [])
        if ph == "B":
            stack.append(event["name"])
        elif ph == "E":
            if not stack:
                errors.append(
                    f"trace[{i}]: E {event['name']!r} with no open B "
                    f"in lane pid={lane[0]} tid={lane[1]}"
                )
            elif stack[-1] != event["name"]:
                errors.append(
                    f"trace[{i}]: E {event['name']!r} does not match "
                    f"open B {stack[-1]!r} in lane pid={lane[0]} tid={lane[1]}"
                )
                stack.pop()
            else:
                stack.pop()
    for lane, stack in sorted(stacks.items()):
        if stack:
            errors.append(
                f"lane pid={lane[0]} tid={lane[1]}: {len(stack)} B event(s) "
                f"never closed: {', '.join(stack)}"
            )
    return errors


def check_trace_spans(snapshot, events):
    """Every traced span must also be a snapshot histogram with at least
    as many samples as the trace has begin events for it."""
    begins = {}
    for event in events:
        if event.get("ph") == "B":
            begins[event["name"]] = begins.get(event["name"], 0) + 1
    spans = snapshot.get("spans", {})
    errors = []
    for name, n_begin in sorted(begins.items()):
        if name not in spans:
            errors.append(f"trace span {name!r} ({n_begin} B event(s)) has no snapshot span")
        elif spans[name].get("count", 0) < n_begin:
            errors.append(
                f"trace span {name!r}: snapshot count {spans[name].get('count', 0)} "
                f"< {n_begin} B event(s)"
            )
    return errors


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    snapshot = cilib.read_json(sys.argv[1])
    errors = check(snapshot)
    if len(sys.argv) == 3:
        try:
            trace = cilib.read_json(sys.argv[2])
        except json.JSONDecodeError as e:
            trace, trace_errors = None, [f"trace is not well-formed JSON: {e}"]
        else:
            trace_errors = check_trace(trace)
            if not trace_errors:
                trace_errors = check_trace_spans(snapshot, trace)
        errors.extend(trace_errors)
        if not trace_errors:
            lanes = len({(e["pid"], e["tid"]) for e in trace})
            print(f"trace OK: {len(trace)} event(s) across {lanes} lane(s)")
    counters = snapshot.get("counters", {})
    ok = (
        "snapshot OK: "
        f"{counters.get('mine.code_changes', 0)} processed = "
        f"{counters.get('mine.mined', 0)} mined + "
        f"{counters.get('mine.skipped', 0)} skipped; funnel "
        + " >= ".join(str(counters.get(stage, 0)) for stage in FUNNEL)
    )
    return cilib.report("INVARIANT", errors, ok)


if __name__ == "__main__":
    sys.exit(main())
