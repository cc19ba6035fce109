"""Shared helpers for the CI gate scripts (check_*.py).

Every gate follows the same shape: load captured stdout/JSON artifacts,
accumulate violation messages, print them uniformly, exit non-zero when
any fired. The byte-compare and cache-hit-rate checks were copied
between gates before this module existed; they live here now so all
gates fail with the same diff context.
"""

import json

# Minimum warm-run cache hit rate every warm gate enforces.
MIN_HIT_RATE = 0.95

# Lines of surrounding context shown around the first divergence.
CONTEXT_LINES = 3


def read_text(path):
    with open(path) as f:
        return f.read()


def read_json(path):
    with open(path) as f:
        return json.load(f)


def first_divergence(expected_text, actual_text):
    """Returns a human-readable description of where two captures first
    differ, with CONTEXT_LINES of surrounding context from both sides,
    or None when the texts are byte-identical."""
    if expected_text == actual_text:
        return None
    expected = expected_text.splitlines()
    actual = actual_text.splitlines()
    line = None
    for i, (e, a) in enumerate(zip(expected, actual), start=1):
        if e != a:
            line = i
            break
    if line is None:
        # One capture is a strict prefix of the other.
        line = min(len(expected), len(actual)) + 1
    lo = max(0, line - 1 - CONTEXT_LINES)
    hi = line + CONTEXT_LINES

    def excerpt(lines, label):
        out = [f"  {label}:"]
        for n, text in enumerate(lines[lo:hi], start=lo + 1):
            marker = ">" if n == line else " "
            out.append(f"  {marker} {n:4} | {text}")
        if not lines[lo:hi]:
            out.append("    (no lines here)")
        return out

    detail = [
        f"first divergence at line {line} "
        f"(expected {len(expected)} line(s), got {len(actual)})"
    ]
    detail += excerpt(expected, "expected")
    detail += excerpt(actual, "actual")
    return "\n".join(detail)


def compare_texts(expected_text, actual_text, what):
    """One error message (with failing-diff context) when two captures
    are not byte-identical, else an empty list."""
    detail = first_divergence(expected_text, actual_text)
    if detail is None:
        return []
    return [f"{what} is not byte-identical\n{detail}"]


def cache_counters(counters, prefix):
    """(hits, misses, stale, lookups) for a `<prefix>.hit`-style
    counter family."""
    hits = counters.get(f"{prefix}.hit", 0)
    misses = counters.get(f"{prefix}.miss", 0)
    stale = counters.get(f"{prefix}.stale_version", 0)
    return hits, misses, stale, hits + misses + stale


def hit_rate_errors(counters, prefix, enabling_flag, min_rate=MIN_HIT_RATE):
    """The standard warm-run hit-rate check over a `<prefix>.*` counter
    family. Returns (errors, hits, misses, stale)."""
    hits, misses, stale, lookups = cache_counters(counters, prefix)
    errors = []
    if lookups == 0:
        errors.append(
            f"warm run recorded no {prefix} lookups (was {enabling_flag} passed?)"
        )
    else:
        rate = hits / lookups
        if rate < min_rate:
            errors.append(
                f"warm {prefix} hit rate {rate:.1%} below {min_rate:.0%} "
                f"(hit={hits} miss={misses} stale_version={stale})"
            )
    return errors, hits, misses, stale


def full_replay_errors(counters, enabling_flag):
    """The warm-run check over an input the cold run already mined:
    every change replays (cache.miss == cache.stale_version == 0, a hit
    rate of 1.0) and nothing is written back (cache.flushed_entries ==
    0). A replay that wrongly rejected a valid payload would recompute
    it, print the same stdout, and fail only here. Returns (errors,
    hits, misses, stale)."""
    errors, hits, misses, stale = hit_rate_errors(
        counters, "cache", enabling_flag, min_rate=1.0
    )
    flushed = counters.get("cache.flushed_entries", 0)
    if flushed:
        errors.append(
            f"warm run flushed {flushed} cache entries; over an unchanged "
            "input it must write none"
        )
    return errors, hits, misses, stale


# The v2 snapshot's quantile keys, in the order they must not decrease.
SPAN_QUANTILES = ["p50_ns", "p90_ns", "p95_ns", "p99_ns", "p999_ns"]


def histogram_errors(name, span):
    """Validates the version-2 histogram fields of one snapshot span.

    Checks: quantile keys present and non-decreasing; `buckets` is a
    sparse cumulative distribution of [upper_edge_ns, samples_le_edge]
    pairs with strictly increasing edges and strictly increasing
    cumulative counts (only hit buckets appear); the last cumulative
    count equals the span's `count`; `max_ns` lies at or below the last
    edge; every reported quantile is one of the bucket edges (quantiles
    are inclusive upper edges of hit buckets, never interpolated).
    """
    errors = []
    count = span.get("count", 0)
    missing = [key for key in SPAN_QUANTILES + ["buckets"] if key not in span]
    if missing:
        return [f"span {name}: missing v2 histogram fields: {', '.join(missing)}"]
    quantiles = [span[key] for key in SPAN_QUANTILES]
    if any(a > b for a, b in zip(quantiles, quantiles[1:])):
        errors.append(f"span {name}: quantiles not monotone: {quantiles}")
    buckets = span["buckets"]
    if not isinstance(buckets, list) or any(
        not (isinstance(pair, list) and len(pair) == 2) for pair in buckets
    ):
        errors.append(f"span {name}: buckets is not a list of [edge, cum] pairs")
        return errors
    edges = [pair[0] for pair in buckets]
    cums = [pair[1] for pair in buckets]
    if any(a >= b for a, b in zip(edges, edges[1:])):
        errors.append(f"span {name}: bucket edges not strictly increasing: {edges}")
    if any(a >= b for a, b in zip(cums, cums[1:])):
        errors.append(
            f"span {name}: cumulative counts not strictly increasing: {cums}"
        )
    if count == 0:
        if buckets:
            errors.append(f"span {name}: count=0 but buckets non-empty: {buckets}")
        return errors
    if not buckets:
        errors.append(f"span {name}: count={count} but no buckets recorded")
        return errors
    if cums[-1] != count:
        errors.append(
            f"span {name}: last cumulative count {cums[-1]} != count {count}"
        )
    if span.get("max_ns", 0) > edges[-1]:
        errors.append(
            f"span {name}: max_ns={span.get('max_ns')} above the last "
            f"bucket edge {edges[-1]}"
        )
    edge_set = set(edges)
    stray = [q for q in quantiles if q not in edge_set]
    if stray:
        errors.append(
            f"span {name}: quantile(s) {stray} are not bucket edges "
            f"(quantiles must be inclusive upper edges of hit buckets)"
        )
    return errors


def report(gate, errors, ok_message, out=None):
    """Prints violations (or the success line) uniformly and returns
    the process exit code."""
    import sys

    out = out or sys.stderr
    for error in errors:
        print(f"{gate} GATE VIOLATED: {error}", file=out)
    if not errors:
        print(ok_message)
    return 1 if errors else 0
