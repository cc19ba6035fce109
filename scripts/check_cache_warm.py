#!/usr/bin/env python3
"""Validates a cold-vs-warm `diffcode mine --cache-dir` pair.

CI runs `diffcode mine` twice against the same cache directory and
passes both stdout captures plus the warm run's `--metrics-json`
snapshot here. The gate enforces the cache's two acceptance criteria:

  1. byte-identical output: the warm run's stdout must equal the cold
     run's exactly (the report is deterministic by construction — any
     divergence means a cached outcome replayed differently);
  2. full replay: the warm run re-mines the corpus the cold run mined,
     so every change must replay from the cache (cache.miss ==
     cache.stale_version == 0) and nothing may be written back
     (cache.flushed_entries == 0).

Exit code 0 on success, 1 with a message per violation otherwise.
Usage: check_cache_warm.py <cold_stdout> <warm_stdout> <warm_metrics.json>
"""

import sys

import cilib


def check(cold_text, warm_text, snapshot):
    errors = cilib.compare_texts(
        cold_text, warm_text, "warm run output (vs the cold run)"
    )

    counters = snapshot.get("counters", {})
    rate_errors, hits, misses, stale = cilib.full_replay_errors(counters, "--cache-dir")
    errors += rate_errors

    lookups = hits + misses + stale
    processed = counters.get("mine.code_changes", 0)
    if lookups and processed and lookups != processed:
        errors.append(
            f"cache lookups ({lookups}) != processed changes ({processed}): "
            "some changes bypassed the cache"
        )

    return errors, hits, misses, stale


def main():
    if len(sys.argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cold_text = cilib.read_text(sys.argv[1])
    warm_text = cilib.read_text(sys.argv[2])
    snapshot = cilib.read_json(sys.argv[3])
    errors, hits, misses, stale = check(cold_text, warm_text, snapshot)
    lookups = hits + misses + stale
    ok = (
        f"cache warm run OK: output byte-identical, "
        f"{hits}/{lookups} hits ({hits / lookups:.1%}), "
        f"{misses} miss(es), {stale} stale"
        if lookups
        else ""
    )
    return cilib.report("CACHE", errors, ok)


if __name__ == "__main__":
    sys.exit(main())
