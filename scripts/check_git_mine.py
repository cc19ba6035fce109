#!/usr/bin/env python3
"""Validates the deterministic git-fixture mine (`diffcode mine --repo`).

CI builds the fixture repository with scripts/make_fixture_repo.sh
(fixed author/committer identities and dates -> reproducible hashes),
mines it twice against one cache directory, and passes the captures
here. The gate enforces the real-git ingestion acceptance criteria:

  1. golden stdout: the cold run's stdout must be byte-identical to
     the committed golden (tests/golden/git_mine.txt) — commit
     enumeration, rename following, quarantine accounting, and the
     result digest are all pinned;
  2. warm determinism: the warm run's stdout must equal the cold
     run's byte-for-byte;
  3. warm full replay: re-mining an unchanged repository replays every
     cached outcome instead of re-analyzing (cache.miss ==
     cache.stale_version == 0) and writes nothing back
     (cache.flushed_entries == 0);
  4. rename-aware extraction: the walk followed at least one rename
     to its pre-image (gitsrc.renames_followed >= 1) and extracted
     pre/post pairs (gitsrc.pairs >= 1);
  5. budget quarantine: the oversized fixture blob degraded into a
     typed skip (gitsrc.skipped.oversized >= 1) instead of aborting.

Exit code 0 on success, 1 with a message per violation otherwise.
Usage: check_git_mine.py <golden> <cold_stdout> <warm_stdout> <warm_metrics.json>
"""

import sys

import cilib


def check(golden_text, cold_text, warm_text, snapshot):
    errors = cilib.compare_texts(
        golden_text, cold_text, "cold --repo mine stdout (vs the committed golden)"
    )
    errors += cilib.compare_texts(
        cold_text, warm_text, "warm --repo mine stdout (vs the cold run)"
    )

    counters = snapshot.get("counters", {})
    rate_errors, hits, misses, stale = cilib.full_replay_errors(counters, "--cache-dir")
    errors += rate_errors

    if counters.get("gitsrc.pairs", 0) < 1:
        errors.append("walk extracted no pre/post pairs (gitsrc.pairs == 0)")
    if counters.get("gitsrc.renames_followed", 0) < 1:
        errors.append(
            "walk followed no renames (gitsrc.renames_followed == 0); "
            "the fixture contains a rename+edit commit"
        )
    if counters.get("gitsrc.skipped.oversized", 0) < 1:
        errors.append(
            "the oversized fixture blob was not quarantined "
            "(gitsrc.skipped.oversized == 0)"
        )
    walked = counters.get("gitsrc.commits_walked", 0)
    if walked < 25:
        errors.append(f"walk covered only {walked} commit(s); fixture has ~30")

    return errors, hits, misses, stale


def main():
    if len(sys.argv) != 5:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden_text = cilib.read_text(sys.argv[1])
    cold_text = cilib.read_text(sys.argv[2])
    warm_text = cilib.read_text(sys.argv[3])
    snapshot = cilib.read_json(sys.argv[4])
    errors, hits, misses, stale = check(golden_text, cold_text, warm_text, snapshot)
    lookups = hits + misses + stale
    ok = (
        f"git fixture mine OK: stdout matches golden, warm run byte-identical, "
        f"{hits}/{lookups} hits ({hits / lookups:.1%}), "
        f"{misses} miss(es), {stale} stale"
        if lookups
        else ""
    )
    return cilib.report("GITSRC", errors, ok)


if __name__ == "__main__":
    sys.exit(main())
