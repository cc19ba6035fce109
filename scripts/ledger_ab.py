#!/usr/bin/env python3
"""A/B comparison of two checkouts on one performance-ledger workload.

Runs the benchmark command BENCHMARK.json names (`perfbench/run.py`)
with `--trace 0` in a parent and a change checkout, pair by pair,
alternating which side runs first. Each side builds into its own
`<checkout>/.bench_build` (the ledger's default target directory, set
explicitly so an inherited CARGO_TARGET_DIR cannot make both sides share
one build). Pair i uses seed i mod len(--seeds) on both sides.

For each end-to-end metric BENCHMARK.json declares, it then prints each
side's median [Q1-Q3], how many pairs the change won (direction from the
metric's `better`; ties count for neither), the gap between the medians
against the parent's interquartile range, whether the claim rule holds
(the change wins at least nine tenths of the pairs and its median is
better by more than the parent's IQR), and how far the change's median
moved against the metric's regression bound.

With `--json <path>` it also writes that comparison as a performance
record: per metric, both sides' median and quartiles and their per-pair
values, the change's wins, the claim verdict and the change's move
against the bound, plus the host (CPU count, CPU model, kernel). The
record holds one entry per workload: a run adds or replaces its
workload's entry in an existing file from the same host, and refuses a
file from another host.

Exit code 0 when every run was correct with no failed operation; 1 when
any run reported `correct: false` or a failed operation, exited non-zero,
or printed no JSON result; 2 on bad arguments. The script only reads
BENCHMARK.json and perfbench/, and writes only the `--json` file.

Usage:
  ledger_ab.py --parent <dir> --change <dir> --workload <name>
               --pairs <n> --seconds <s> --seeds <n>[,<n>...] [--json <path>]
  ledger_ab.py --self-test
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end(checkout):
    """The end-to-end metric declarations and the benchmark command of
    `checkout`'s BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["command"]


def parse_result(stdout):
    """The ledger's JSON result: its last stdout line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("last line is not a ledger result")
    return result


def run_errors(label, result):
    """Violations of the correctness rule in one run's result."""
    errors = []
    if result.get("correct") is not True:
        errors.append(f"{label}: \"correct\" is {result.get('correct')!r}")
    if result.get("failed") != 0:
        errors.append(
            f"{label}: {result.get('failed')!r} of {result.get('attempted')!r} operation(s) failed"
        )
    return errors


def run_side(checkout, command, workload, seed, seconds):
    """One ledger run in `checkout`; returns (result or None, errors)."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    argv += ["--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(os.path.abspath(checkout), ".bench_build"))
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    label = f"{checkout} seed {seed}"
    if done.returncode != 0:
        tail = done.stderr.strip()[-400:]
        return None, [f"{label}: exited {done.returncode}: {tail}"]
    try:
        result = parse_result(done.stdout)
    except ValueError as e:
        return None, [f"{label}: {e}"]
    return result, run_errors(label, result)


def quartiles(values):
    """(Q1, median, Q3) of a non-empty sample (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(metric, parent, change):
    """The A/B verdict for one metric over paired samples (pair i of
    `parent` ran next to pair i of `change`)."""
    lower = metric["better"] == "lower"
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = p_med - c_med if lower else c_med - p_med
    iqr = p_q3 - p_q1
    worse = -gap / p_med if p_med else 0.0
    return {
        "name": metric["name"],
        "unit": metric["unit"],
        "better": metric["better"],
        "parent_runs": list(parent),
        "change_runs": list(change),
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "iqr": iqr,
        "claim": wins * 10 >= 9 * len(parent) and gap > iqr,
        "worse": worse,
        "within_bound": worse <= metric["bound"],
        "bound": metric["bound"],
    }


def num(x):
    return f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def render(verdict):
    def side(q):
        return f"{num(q[1])} [{num(q[0])}-{num(q[2])}]"

    v = verdict
    return (
        f"{v['name']:<11} {v['unit']:<4} parent {side(v['parent']):<24} "
        f"change {side(v['change']):<24} wins {v['wins']}/{v['pairs']:<3} "
        f"gap {num(v['gap'])} vs IQR {num(v['iqr'])}: claim {'holds' if v['claim'] else 'not met'}; "
        f"median {-v['worse']:+.1%} better, bound {v['bound']:.0%} "
        f"{'ok' if v['within_bound'] else 'EXCEEDED'}"
    )


def summarize(metrics, pairs):
    """Verdicts for every metric over completed (parent, change) pairs."""
    verdicts = []
    for metric in metrics:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        verdicts.append(compare(metric, parent, change))
    return verdicts


def host():
    """The machine the pairs ran on."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), model
            )
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_model": model, "kernel": platform.release()}


def workload_record(seeds, seconds, verdicts):
    """One workload's entry in the `--json` performance record."""

    def side(q, runs):
        return {"q1": q[0], "median": q[1], "q3": q[2], "runs": runs}

    metrics = {}
    for v in verdicts:
        metrics[v["name"]] = {
            "unit": v["unit"],
            "better": v["better"],
            "parent": side(v["parent"], v["parent_runs"]),
            "change": side(v["change"], v["change_runs"]),
            "wins": v["wins"],
            "pairs": v["pairs"],
            "gap": v["gap"],
            "parent_iqr": v["iqr"],
            "claim": v["claim"],
            "worse_by": v["worse"],
            "bound": v["bound"],
            "within_bound": v["within_bound"],
        }
    pairs = verdicts[0]["pairs"] if verdicts else 0
    return {"pairs": pairs, "seeds": seeds, "seconds": seconds, "metrics": metrics}


def load_record(path, machine):
    """The record at `path` to add a workload to, or a new one. Raises
    ValueError when `path` holds a record from another host: one record
    describes one machine."""
    if not os.path.exists(path):
        return {"host": machine, "workloads": {}}
    with open(path) as f:
        rec = json.load(f)
    if rec.get("host") != machine:
        raise ValueError(f"{path} was recorded on another host: {rec.get('host')!r}")
    return rec


def write_record(path, rec):
    with open(path, "w") as f:
        json.dump(rec, f, indent=2)
        f.write("\n")


def self_test():
    """Checks the verdict arithmetic and the run checks on canned lines."""
    metrics, _ = end_to_end(REPO)
    names = [m["name"] for m in metrics]

    def line(values, correct=True, failed=0):
        return json.dumps({
            "correct": correct,
            "attempted": 100,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": "x"} for n, v in zip(names, values)},
        })

    # op_p50 clearly better, op_p90 better in 8/10, work_per_s better
    # in every pair, setup_s worse than its bound.
    pairs = []
    for i in range(10):
        parent = line([225 + i, 300 + i, 40 - i * 0.1, 1.0])
        change = line([120 + i, 300 + i - (5 if i < 8 else -5), 80 + i, 1.4])
        pairs.append((parse_result("build noise\n" + parent), parse_result(change)))
    by_name = {v["name"]: v for v in summarize(metrics, pairs)}
    checks = [
        (by_name["op_p50_ms"]["wins"] == 10, "op_p50 wins"),
        (by_name["op_p50_ms"]["claim"], "op_p50 claim"),
        (by_name["op_p90_ms"]["wins"] == 8, "op_p90 wins"),
        (not by_name["op_p90_ms"]["claim"], "op_p90 8/10 is no claim"),
        (by_name["op_p90_ms"]["within_bound"], "op_p90 within bound"),
        (by_name["work_per_s"]["wins"] == 10 and by_name["work_per_s"]["claim"], "higher is better"),
        (not by_name["setup_s"]["within_bound"], "setup_s exceeds its bound"),
        (not by_name["setup_s"]["claim"], "setup_s no claim"),
        (quartiles([3.0]) == (3.0, 3.0, 3.0), "one-sample quartiles"),
        (quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0), "quartiles"),
        (run_errors("ok", json.loads(line([1, 1, 1, 1]))) == [], "clean run"),
        (len(run_errors("bad", json.loads(line([1, 1, 1, 1], correct=False)))) == 1, "incorrect run"),
        (len(run_errors("bad", json.loads(line([1, 1, 1, 1], failed=2)))) == 1, "failed ops"),
    ]
    # A gap inside the parent's spread is no claim even at 10/10 wins.
    spread = [(parse_result(line([100 + 10 * i, 1, 1, 1])), parse_result(line([99 + 10 * i, 1, 1, 1])))
              for i in range(10)]
    checks.append((not summarize(metrics, spread)[0]["claim"], "gap within IQR"))
    for text in ["", "not json", '{"correct": true}']:
        try:
            parse_result(text)
            checks.append((False, f"rejects {text!r}"))
        except ValueError:
            pass
    # The --json record round-trips through a file, carries the
    # verdicts, gathers workloads and refuses to mix hosts.
    machine = host()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.json")
        for workload in ("repo_remine", "recluster"):
            rec = load_record(path, machine)
            rec["workloads"][workload] = workload_record([3, 4], 20.0, summarize(metrics, pairs))
            write_record(path, rec)
        with open(path) as f:
            rec = json.load(f)
        try:
            load_record(path, dict(machine, nproc=machine["nproc"] + 1))
            checks.append((False, "refuses a record from another host"))
        except ValueError:
            pass
    entry = rec["workloads"]["repo_remine"]
    p50 = entry["metrics"]["op_p50_ms"]
    checks += [
        (sorted(rec["workloads"]) == ["recluster", "repo_remine"], "record gathers workloads"),
        (entry["pairs"] == 10 and entry["seeds"] == [3, 4] and entry["seconds"] == 20.0, "record header"),
        (list(entry["metrics"]) == names, "record has every metric"),
        (p50["parent"]["median"] == 229.5 and p50["change"]["median"] == 124.5, "record medians"),
        (p50["parent"]["q1"] < p50["parent"]["median"] < p50["parent"]["q3"], "record quartiles"),
        (p50["parent"]["runs"] == [225 + i for i in range(10)], "record per-pair values"),
        (p50["wins"] == 10 and p50["claim"] is True, "record claim"),
        (entry["metrics"]["op_p90_ms"]["claim"] is False, "record no claim"),
        (entry["metrics"]["setup_s"]["within_bound"] is False, "record bound exceeded"),
        (abs(entry["metrics"]["setup_s"]["worse_by"] - 0.4) < 1e-9, "record move against the bound"),
        (p50["better"] == "lower" and p50["bound"] == 0.25, "record declaration"),
        (rec["host"] == machine and machine["nproc"] >= 1, "record host"),
        (all(machine[k] for k in ("cpu_model", "kernel")), "host description"),
    ]
    failures = [name for ok, name in checks if not ok]
    for name in failures:
        print(f"SELF-TEST FAILED: {name}", file=sys.stderr)
    if not failures:
        print(f"ledger_ab self-test OK: {len(checks)} check(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seeds")
    parser.add_argument("--json", metavar="PATH", help="also write the comparison as a JSON record")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    required = ("parent", "change", "workload", "pairs", "seconds", "seeds")
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing or args.pairs < 1:
        parser.print_usage(sys.stderr)
        print(f"missing or bad: {', '.join(missing) or '--pairs'}", file=sys.stderr)
        return 2
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics, command = end_to_end(args.change)
    if args.json:
        try:
            rec = load_record(args.json, host())
        except (OSError, ValueError) as e:
            print(f"--json: {e}", file=sys.stderr)
            return 2
    pairs, errors = [], []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            checkout = getattr(args, side)
            results[side], run_errs = run_side(checkout, command, args.workload, seed, args.seconds)
            errors += run_errs
        if results["parent"] and results["change"]:
            pairs.append((results["parent"], results["change"]))
            first = metrics[0]["name"]
            print(
                f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): {first} "
                f"{results['parent']['metrics'][first]['value']:.4g} -> "
                f"{results['change']['metrics'][first]['value']:.4g}",
                file=sys.stderr,
            )
    print(f"{args.workload}: {len(pairs)} pair(s), seeds {args.seeds}, {args.seconds:g} s per run")
    if pairs:
        verdicts = summarize(metrics, pairs)
        for verdict in verdicts:
            print(render(verdict))
        if args.json:
            rec["workloads"][args.workload] = workload_record(seeds, args.seconds, verdicts)
            write_record(args.json, rec)
    for e in errors:
        print(f"RUN ERROR: {e}", file=sys.stderr)
    return 1 if errors or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
