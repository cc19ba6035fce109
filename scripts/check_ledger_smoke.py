#!/usr/bin/env python3
"""Validates a smoke run of the performance ledger (`perfbench/run.py`).

CI runs every ledger workload once, traced, and passes each run's
captured stdout here. The ledger's last stdout line is one JSON result;
a traced run also fails on its own when a span or counter the workload
attributes time to went missing, and every workload checks its outputs
(e.g. served `/check` equals one-shot `diffcode check`). The gate
enforces, for each capture:

  1. the last line parses as the ledger's JSON result;
  2. "correct" is true: every output the workload checked was right;
  3. "failed" is 0: no operation failed.

A non-zero exit of the ledger itself fails the CI step before this gate
runs. No performance figure is checked: CI hosts are too noisy for
that, and the benchmark compares runs on one host.

Exit code 0 on success, 1 with a message per violation otherwise.
Usage: check_ledger_smoke.py <ledger_stdout>...
"""

import json
import sys

import cilib


def check(name, text):
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{name}: the last stdout line is not the ledger's JSON result"]
    errors = []
    if result.get("correct") is not True:
        errors.append(f"{name}: \"correct\" is {result.get('correct')!r}")
    if result.get("failed") != 0:
        errors.append(
            f"{name}: {result.get('failed')!r} of {result.get('attempted')!r} "
            "operation(s) failed"
        )
    return errors


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    for path in sys.argv[1:]:
        errors += check(path, cilib.read_text(path))
    ok = f"ledger smoke OK: {len(sys.argv) - 1} workload(s) correct, no failed operations"
    return cilib.report("LEDGER", errors, ok)


if __name__ == "__main__":
    sys.exit(main())
