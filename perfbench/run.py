#!/usr/bin/env python3
"""Performance ledger for diffcode: four workloads, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds `diffcode` and `diffcode-serve` from source with
`cargo build --release` (into `$CARGO_TARGET_DIR`, default `.bench_build`),
derives every input from `--seed`, sets the workload up several times and
reports the median set-up time, then drives the program through its public
surface (the CLI and the HTTP service) for `--seconds` seconds, checks that
every output is correct, and prints one JSON object as its last stdout line.

Workloads (see BENCHMARK.json for why each exists). Their input shapes come
from the repository rather than being picked here:

  paper_cold   the paper's whole funnel (mine, filter, cluster, elicit) as
               one `diffcode mine` process per seeded corpus, empty caches
  repo_remine  `diffcode mine --repo` with a warm result cache over git
               histories in the corpus generator's project shape (see
               javagen.MODULE_ODDS): git ingestion plus cache replay
  serve_mix    closed-loop clients against `diffcode serve`: one client,
               then as many as the server's default worker count (4). Each
               client repeats the CI serve smoke's parity sequence on a
               change it has not sent before: /mine cold (a cache miss),
               the same /mine warm (a hit), then /check of the new source
  recluster    a seeded corpus grows by a fifth, the ratio of the CI
               cluster-cache gate (1000 -> 1200 projects), here 120 -> 144;
               the warm re-run replays the mining cache and computes only
               the new distance cells

With `--trace 0` the metrics are the end-to-end ones (operation latency
median and 90th percentile, work per second, set-up time). With `--trace 1`
the ops of every second pass over a workload's inputs also write the
program's metrics snapshot and Chrome trace (`--metrics-json`,
`--trace-out`; for the server, its `/status` page), so the traced and the
untraced ops cover the same inputs. The metrics are then the per-layer
numbers read from them: counters, span histograms and per-span self times,
and the tracing overhead, traced minus untraced time of the same input.
Each workload measures the layers it names in `LAYERS`; a span or counter
those layers need that no traced op recorded fails the run. Every
per-layer metric is printed, so the ones a workload does not name read 0.

Scratch files live under `.bench_work/` in the current directory and are
removed on exit; every process started is waited for.
"""

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import javagen  # noqa: E402

CLI_TIMEOUT_S = 60
GIT_ENV = {"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1"}
PROCESSED_RE = re.compile(r"processed (\d+) code change\(s\): (\d+) mined, (\d+) skipped")
TRACE_LINE_RE = re.compile(r"^trace: \d+ event\(s\) written to .*\n", re.M)
DRAIN_RE = re.compile(
    r"drained: accepted (\d+) = completed (\d+) \+ shed (\d+) \+ failed (\d+)"
)

PER_LAYER = {
    "op_traced_p50_ms": "ms",
    "mine_change_p50_us": "us",
    "mine_change_p99_us": "us",
    "corpus_generate_ms": "ms",
    "git_ingest_ms": "ms",
    "parse_ms": "ms",
    "analysis_ms": "ms",
    "dag_diff_ms": "ms",
    "change_self_ms": "ms",
    "filter_ms": "ms",
    "cluster_ms": "ms",
    "outside_spans_ms": "ms",
    "trace_overhead_ms": "ms",
    "serve_mine_p50_us": "us",
    "serve_mine_p99_us": "us",
    "serve_check_p50_us": "us",
    "changes_per_op": "count",
    "cache_hits_per_op": "count",
    "cache_misses_per_op": "count",
    "analysis_steps_per_op": "count",
    "cluster_cells_computed_per_op": "count",
    "cluster_cells_reused_per_op": "count",
    "requests_shed": "count",
}

# Metrics every traced `diffcode mine` workload measures.
MINE_LAYERS = (
    "op_traced_p50_ms",
    "trace_overhead_ms",
    "mine_change_p50_us",
    "mine_change_p99_us",
    "change_self_ms",
    "filter_ms",
    "outside_spans_ms",
    "changes_per_op",
)


class BenchError(Exception):
    """An operation failed or produced a wrong output."""


def quantile(values, q):
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def build():
    """Builds `diffcode` and the `diffcode-serve` binary that `diffcode
    serve` runs; returns the `diffcode` path. Exits 1 on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "-q", "-p", "diffcode", "-p", "serve"]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"build failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"build failed with exit code {done.returncode}")
    release = os.path.join(target, "release")
    return os.path.abspath(os.path.join(release, "diffcode"))


def run_cli(argv, cwd=None):
    """Runs one CLI process; returns (seconds, stdout). Raises BenchError."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            argv,
            cwd=cwd,
            env=dict(os.environ, **GIT_ENV),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{argv[1]} timed out") from e
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {done.returncode}: {done.stderr.strip()[-400:]}")
    return elapsed, done.stdout


def processed(stdout):
    """The `processed N ...` accounting line; checks N = mined + skipped."""
    m = PROCESSED_RE.search(stdout)
    if not m:
        raise BenchError("mine output lacks its accounting line")
    total, mined, skipped = map(int, m.groups())
    if total != mined + skipped or mined == 0 or "result digest: " not in stdout:
        raise BenchError(f"mine accounting is off: {m.group(0)}")
    return total


def span_hist(snapshot, name):
    """Per-bucket (upper_ns, count) pairs of one span's histogram."""
    span = snapshot["spans"].get(name)
    if not span:
        return []
    out, prev = [], 0
    for upper, cumulative in span["buckets"]:
        out.append((upper, cumulative - prev))
        prev = cumulative
    return out


def hist_quantile(buckets, q):
    """Quantile (bucket upper bound, ns) of merged per-bucket counts."""
    merged = {}
    for upper, count in buckets:
        merged[upper] = merged.get(upper, 0) + count
    total = sum(merged.values())
    if total == 0:
        return 0.0
    rank, seen = q * total, 0
    for upper in sorted(merged):
        seen += merged[upper]
        if seen >= rank:
            return float(upper)
    return float(max(merged))


def span_sum_ms(snapshot, *names):
    return sum(snapshot["spans"].get(n, {}).get("sum_ns", 0) for n in names) / 1e6


def self_times_ms(events):
    """Self time per span name of a Chrome trace: each span's duration
    minus the part its child spans cover."""
    totals, stacks = {}, {}
    for e in events:
        stack = stacks.setdefault(e["tid"], [])
        if e["ph"] == "B":
            stack.append([e["name"], e["ts"], 0.0])
        elif e["ph"] == "E" and stack:
            name, begin, children = stack.pop()
            duration = e["ts"] - begin
            totals[name] = totals.get(name, 0.0) + (duration - children) / 1e3
            if stack:
                stack[-1][2] += duration
    return totals


class Workload:
    """One workload: `setup` prepares inputs (timed, repeated), `op(i)`
    runs one user-visible operation on input `i % INPUTS` and returns
    (seconds, work units), and `verify` runs the correctness checks that
    need more than one op."""

    INPUTS = 1
    SETUP_REPEATS = 3
    # The per-layer metrics this workload measures, and the spans and
    # counters some traced op must have recorded for them.
    LAYERS = ()
    SPANS = ()
    COUNTERS = ()

    def __init__(self, exe, seed, work, trace):
        self.exe = exe
        self.seed = seed
        self.work = work
        self.trace = trace
        self.snapshots = []
        self.untraced_ms = {}

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def fresh(self, *parts):
        p = self.path(*parts)
        shutil.rmtree(p, ignore_errors=True)
        return p

    def mine(self, args, expect=None, i=None):
        """One timed `diffcode mine`. Ops pass their index `i`: in trace
        mode the ops of every second pass over the inputs also write the
        metrics snapshot and the Chrome trace, parsed outside the timed
        window, and the other passes time the untraced op. Set-up calls
        pass no index and are not recorded."""
        argv = [self.exe, "mine", "--threads", "1"] + args
        traced = self.trace and i is not None and (i // self.INPUTS) % 2 == 1
        if traced:
            argv += ["--metrics-json", self.path("metrics.json")]
            argv += ["--trace-out", self.path("trace.json")]
        seconds, stdout = run_cli(argv)
        # The trace line names a file in the work directory; it is no
        # mining output.
        stdout = TRACE_LINE_RE.sub("", stdout)
        changes = processed(stdout)
        if expect is not None and stdout != expect:
            raise BenchError(f"mine {' '.join(args[:4])} output differs from its reference")
        if traced:
            with open(self.path("metrics.json")) as f:
                snapshot = json.load(f)
            with open(self.path("trace.json")) as f:
                snapshot["self_ms"] = self_times_ms(json.load(f))
            snapshot["op_ms"] = seconds * 1e3
            snapshot["input"] = i % self.INPUTS
            self.snapshots.append(snapshot)
        elif i is not None:
            self.untraced_ms.setdefault(i % self.INPUTS, []).append(seconds * 1e3)
        return seconds, changes, stdout

    def measure(self, seconds):
        """Closed loop of single ops until the deadline. Returns (op
        latencies, work per busy second, attempted, failed, errors)."""
        latencies, work, attempted, errors = [], 0, 0, []
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            attempted += 1
            try:
                elapsed, units = self.op(attempted - 1)
            except BenchError as e:
                errors.append(str(e))
                continue
            latencies.append(elapsed)
            work += units
        return latencies, work / max(sum(latencies), 1e-9), attempted, len(errors), errors

    def verify(self):
        pass

    def close(self):
        pass

    def layers(self):
        """Per-layer metrics from the traced ops' snapshots. Op times are
        compared input by input with the untraced ops of the same input."""
        snaps = [s for s in self.snapshots if s["input"] in self.untraced_ms]
        if not snaps:
            raise BenchError("no input ran both traced and untraced; give the run more seconds")
        spans = set().union(*(set(s["spans"]) | set(s["self_ms"]) for s in snaps))
        counters = set().union(*(s["counters"] for s in snaps))
        missing = [n for n in self.SPANS if n not in spans]
        missing += [n for n in self.COUNTERS if n not in counters]
        if missing:
            raise BenchError(f"no traced op recorded {', '.join(missing)}")
        untraced = {k: statistics.median(v) for k, v in self.untraced_ms.items()}
        change = [b for s in snaps for b in span_hist(s, "mine.change")]

        def per_op(counter):
            return statistics.fmean(s["counters"].get(counter, 0) for s in snaps)

        def med_ms(*names):
            return statistics.median(span_sum_ms(s, *names) for s in snaps)

        def self_ms(*names):
            return statistics.median(sum(s["self_ms"].get(n, 0.0) for n in names) for s in snaps)

        # Spans the metrics snapshot holds but the Chrome trace does not.
        registry_only = ("corpus.generate", "gitsrc.log", "gitsrc.catfile.batch")
        values = {
            "op_traced_p50_ms": statistics.median(s["op_ms"] for s in snaps),
            "trace_overhead_ms": statistics.median(s["op_ms"] - untraced[s["input"]] for s in snaps),
            "mine_change_p50_us": hist_quantile(change, 0.50) / 1e3,
            "mine_change_p99_us": hist_quantile(change, 0.99) / 1e3,
            "corpus_generate_ms": med_ms("corpus.generate"),
            "git_ingest_ms": med_ms("gitsrc.log", "gitsrc.catfile.batch"),
            "parse_ms": self_ms("parse"),
            "analysis_ms": self_ms("analysis"),
            "dag_diff_ms": self_ms("dags.diff"),
            "change_self_ms": self_ms("mine.change", "analyze.old", "analyze.new"),
            "filter_ms": self_ms("filter.apply"),
            "cluster_ms": self_ms("elicit", "cluster.matrix", "cluster.agglomerate", "elicit.cut"),
            # Process start, cache open/replay and flush: the untraced op
            # time of an input that no program span of its traced op covers.
            "outside_spans_ms": statistics.median(
                untraced[s["input"]] - sum(s["self_ms"].values()) - span_sum_ms(s, *registry_only)
                for s in snaps
            ),
            "changes_per_op": per_op("mine.code_changes"),
            "cache_hits_per_op": per_op("cache.hit"),
            "cache_misses_per_op": per_op("cache.miss"),
            "analysis_steps_per_op": per_op("analysis.steps"),
            "cluster_cells_computed_per_op": per_op("cluster.cache.miss"),
            "cluster_cells_reused_per_op": per_op("cluster.cache.hit"),
        }
        return {k: values[k] for k in self.LAYERS}


class PaperCold(Workload):
    """Cold one-shot runs of the whole funnel. The ops cycle through 24
    seeded corpora of 40 projects, the size EXPERIMENTS.md measures cold
    against warm mining on, so no one corpus sets the median, and every
    repeat of a corpus must print byte-identical output. Set-up mines the
    first four corpora with two threads; the single-threaded ops must
    match."""

    INPUTS = 24
    PROJECTS = 40
    PARALLEL_REFERENCES = 4
    LAYERS = MINE_LAYERS + (
        "corpus_generate_ms",
        "parse_ms",
        "analysis_ms",
        "dag_diff_ms",
        "cluster_ms",
        "cache_misses_per_op",
        "analysis_steps_per_op",
        "cluster_cells_computed_per_op",
    )
    SPANS = ("mine.change", "corpus.generate", "parse", "analysis", "dags.diff", "filter.apply", "cluster.matrix")
    COUNTERS = ("mine.code_changes", "cache.miss", "analysis.steps", "cluster.cache.miss")

    def args(self, i):
        args = ["--seed", str(self.seed * 1000 + i % self.INPUTS), "--projects", str(self.PROJECTS)]
        return args + ["--cache-dir", self.fresh("mc"), "--cluster-cache-dir", self.fresh("cc")]

    def setup(self):
        self.reference = {}
        for c in range(self.PARALLEL_REFERENCES):
            stdout = run_cli([self.exe, "mine", "--threads", "2"] + self.args(c))[1]
            processed(stdout)
            self.reference[c] = stdout

    def op(self, i):
        seconds, changes, stdout = self.mine(self.args(i), self.reference.get(i % self.INPUTS), i)
        self.reference.setdefault(i % self.INPUTS, stdout)
        return seconds, changes

    def verify(self):
        if not any("cluster digest: " in out for out in self.reference.values()):
            raise BenchError("paper_cold: no corpus reached the clustering stage")


class RepoRemine(Workload):
    """Warm re-mines of twelve generated git histories, cycled, each in
    the corpus generator's project shape. Set-up writes each history with
    `git fast-import` and primes its result cache with a cold mine, whose
    output every warm re-mine must repeat."""

    INPUTS = 12
    LAYERS = MINE_LAYERS + ("git_ingest_ms", "cache_hits_per_op")
    SPANS = ("mine.change", "gitsrc.log", "gitsrc.catfile.batch", "filter.apply")
    COUNTERS = ("mine.code_changes", "cache.hit")

    def setup(self):
        env = dict(os.environ, **GIT_ENV)
        self.inputs = []
        for r in range(self.INPUTS):
            repo = self.fresh(f"repo{r}")
            stream = javagen.project_history(javagen.seeded(self.seed, "repo", r))
            subprocess.run(["git", "init", "-q", "-b", "main", repo], check=True, env=env)
            subprocess.run(
                ["git", "-C", repo, "fast-import", "--quiet"], input=stream, check=True, env=env
            )
            args = ["--repo", repo, "--cache-dir", self.fresh(f"mc{r}")]
            args += ["--cluster-cache-dir", self.fresh(f"cc{r}")]
            self.inputs.append((args, self.mine(args)[2]))

    def op(self, i):
        args, reference = self.inputs[i % self.INPUTS]
        seconds, changes, _ = self.mine(args, reference, i)
        return seconds, changes


class Recluster(Workload):
    """A warm re-run after the corpus grows by a fifth, over eight seeded
    corpora, cycled. Set-up primes both caches of each corpus with a cold
    run; each op restores them (untimed) and mines the grown corpus."""

    INPUTS = 8
    PROJECTS = 120
    GROWN = 144
    LAYERS = MINE_LAYERS + (
        "corpus_generate_ms",
        "parse_ms",
        "analysis_ms",
        "dag_diff_ms",
        "cluster_ms",
        "cache_hits_per_op",
        "cache_misses_per_op",
        "analysis_steps_per_op",
        "cluster_cells_computed_per_op",
        "cluster_cells_reused_per_op",
    )
    SPANS = ("mine.change", "corpus.generate", "parse", "analysis", "dags.diff", "filter.apply", "cluster.matrix")
    COUNTERS = ("mine.code_changes", "cache.hit", "cache.miss", "cluster.cache.hit", "cluster.cache.miss")

    def args(self, c, projects, mc, cc):
        args = ["--seed", str(self.seed * 1000 + c), "--projects", str(projects)]
        return args + ["--cache-dir", mc, "--cluster-cache-dir", cc]

    def setup(self):
        for c in range(self.INPUTS):
            self.mine(self.args(c, self.PROJECTS, self.fresh(f"mc{c}"), self.fresh(f"cc{c}")))
        self.reference = {}

    def op(self, i):
        c = i % self.INPUTS
        mc, cc = self.fresh("mc"), self.fresh("cc")
        shutil.copytree(self.path(f"mc{c}"), mc)
        shutil.copytree(self.path(f"cc{c}"), cc)
        seconds, changes, stdout = self.mine(self.args(c, self.GROWN, mc, cc), self.reference.get(c), i)
        self.reference.setdefault(c, stdout)
        return seconds, changes

    def verify(self):
        # warm == cold: a cold run of each grown corpus prints the same.
        for c, reference in self.reference.items():
            argv = [self.exe, "mine", "--threads", "1"]
            argv += self.args(c, self.GROWN, self.fresh("mc"), self.fresh("cc"))
            if run_cli(argv)[1] != reference:
                raise BenchError(f"recluster: warm grown corpus {c} differs from a cold run")


class ServeMix(Workload):
    """Closed-loop clients against a resident server with a result cache:
    one client for the first half of the run, then as many clients as the
    server has workers by default. Each client repeats the CI serve
    smoke's cold/warm parity sequence on a change it has not sent before:
    /mine (a cache miss), the same /mine again (a hit that must return
    the same tuples), then /check of the new source, so the three kinds
    of request come in equal shares. Set-up boots the server on an empty
    cache. A sample of the served /check reports must equal the one-shot
    `diffcode check` report of the same source."""

    CONCURRENCY = (1, 4)
    SETUP_REPEATS = 9
    VERIFY_CHECKS = 8
    LAYERS = (
        "serve_mine_p50_us",
        "serve_mine_p99_us",
        "serve_check_p50_us",
        "cache_hits_per_op",
        "cache_misses_per_op",
        "requests_shed",
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.proc = None
        self.lock = threading.Lock()
        self.checked = []

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=json.dumps(body).encode() if body is not None else None)
            resp = conn.getresponse()
            raw = resp.read()
        finally:
            conn.close()
        if resp.status != 200:
            raise BenchError(f"{method} {path}: HTTP {resp.status}: {raw[:200]!r}")
        return raw

    def boot(self):
        self.log = self.path("serve.log")
        if os.path.exists(self.log):
            os.remove(self.log)
        self.proc = subprocess.Popen(
            [self.exe, "serve", "--addr", "127.0.0.1:0",
             "--cache-dir", self.fresh("mc"), "--log-file", self.log],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        m = re.search(r"listening on http://127\.0\.0\.1:(\d+)$", line.strip())
        if not m:
            raise BenchError(f"bad server handshake line {line!r}")
        self.port = int(m.group(1))

    def stop(self):
        """SIGTERM drain; returns the drain accounting (accepted,
        completed, shed, failed)."""
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("server did not drain after SIGTERM")
        m = DRAIN_RE.search(out)
        if proc.returncode != 0 or not m:
            raise BenchError(f"server exit {proc.returncode}, output {out!r}")
        return tuple(map(int, m.groups()))

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None

    def setup(self):
        self.boot()

    def client(self, phase, k, deadline, results):
        rng = javagen.seeded(self.seed, "client", phase, k)
        n = 0
        while time.monotonic() < deadline:
            old, new = javagen.change_pair(rng, "bench", f"Change{phase}x{k}x{n}")
            n += 1
            change = {"old": old, "new": new}
            cold = None
            for kind, path, body in (
                ("miss", "/mine", change),
                ("hit", "/mine", change),
                ("check", "/check", {"source": new}),
            ):
                if time.monotonic() >= deadline:
                    break
                start = time.perf_counter()
                try:
                    reply = json.loads(self.request("POST", path, body))
                    elapsed = time.perf_counter() - start
                    cold = self.check_reply(kind, reply, cold)
                except (BenchError, OSError, ValueError) as e:
                    results.append((kind, None, str(e)))
                    break
                results.append((kind, elapsed, None))
                if kind == "check":
                    with self.lock:
                        if len(self.checked) < self.VERIFY_CHECKS:
                            self.checked.append((new, reply["report"]))

    @staticmethod
    def check_reply(kind, reply, cold):
        """Checks one reply; returns the cold /mine tuples."""
        if kind == "check":
            if not isinstance(reply.get("report"), str) or not reply["report"]:
                raise BenchError("/check returned no report")
            return cold
        if reply.get("verdict") != "mined" or reply.get("cache") != kind:
            raise BenchError(f"/mine {kind}: verdict {reply.get('verdict')} cache {reply.get('cache')}")
        if kind == "hit" and reply.get("tuples") != cold:
            raise BenchError("/mine: warm verdict differs from cold")
        return reply.get("tuples")

    def measure(self, seconds):
        results = []
        start = time.perf_counter()
        for phase, clients in enumerate(self.CONCURRENCY):
            deadline = time.monotonic() + seconds / len(self.CONCURRENCY)
            threads = [
                threading.Thread(target=self.client, args=(phase, k, deadline, results))
                for k in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        wall = time.perf_counter() - start
        status = json.loads(self.request("GET", "/status")) if self.trace else None
        accepted, completed, shed, failed = self.stop()
        with open(self.log) as f:
            access = sum(1 for line in f if '"event":"serve.access"' in line)
        errors = [e for _, _, e in results if e]
        failures = len(errors)
        # Every request the clients sent, and the /status read, is one
        # accepted request with one access record.
        sent = len(results) + (status is not None)
        if accepted != completed + shed + failed or failed or access != accepted or (
            not errors and accepted != sent
        ):
            errors.append(
                f"drain accounting: accepted {accepted} completed {completed} "
                f"shed {shed} failed {failed}, {access} access records, {sent} sent"
            )
        ok = [kind for kind, _, e in results if e is None]
        if status is not None:
            self.serve_layers = self.status_layers(status, ok, shed, errors)
        latencies = [s for _, s, e in results if e is None]
        return latencies, len(latencies) / wall, len(results), failures, errors

    @staticmethod
    def status_layers(status, ok, shed, errors):
        """Per-layer metrics from the server's own `/status` page."""
        ends, cache = status["endpoints"], status["cache"]
        if "mine" not in ends or "check" not in ends or not cache:
            raise BenchError("/status lacks the mine or check endpoint or the cache")
        mines = sum(1 for kind in ok if kind != "check")
        hits = sum(1 for kind in ok if kind == "hit")
        if not errors and (cache["hits"], cache["misses"]) != (hits, mines - hits):
            errors.append(f"/status cache {cache['hits']} hit(s) {cache['misses']} miss(es), "
                          f"clients saw {hits} and {mines - hits}")
        return {
            "serve_mine_p50_us": ends["mine"]["p50_ns"] / 1e3,
            "serve_mine_p99_us": ends["mine"]["p99_ns"] / 1e3,
            "serve_check_p50_us": ends["check"]["p50_ns"] / 1e3,
            "cache_hits_per_op": cache["hits"] / max(1, mines),
            "cache_misses_per_op": cache["misses"] / max(1, mines),
            "requests_shed": shed,
        }

    def verify(self):
        # served == one-shot: `diffcode check` prints the same report. It
        # exits 1 when the source violates a rule.
        for n, (source, report) in enumerate(self.checked):
            path = self.path(f"Check{n}.java")
            with open(path, "w") as f:
                f.write(source)
            try:
                done = subprocess.run([self.exe, "check", path], capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired as e:
                raise BenchError("check timed out") from e
            if done.returncode not in (0, 1) or done.stdout != report:
                raise BenchError(f"serve_mix: served /check report {n} differs from `diffcode check`")

    def layers(self):
        return self.serve_layers


WORKLOADS = {
    "paper_cold": PaperCold,
    "repo_remine": RepoRemine,
    "serve_mix": ServeMix,
    "recluster": Recluster,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    exe = build()
    work = os.path.abspath(os.path.join(".bench_work", f"{args.workload}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](exe, args.seed, work, bool(args.trace))
    try:
        setups = []
        for _ in range(workload.SETUP_REPEATS):
            # Ends what the previous set-up started, outside the timing.
            workload.close()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        latencies, rate, attempted, failed, errors = workload.measure(args.seconds)
        if not errors:
            try:
                workload.verify()
            except BenchError as e:
                errors.append(str(e))
        layers = workload.layers() if args.trace and latencies else {}
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"{args.workload}: {e}", file=sys.stderr)
        return 1
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(".bench_work") and not os.listdir(".bench_work"):
            os.rmdir(".bench_work")
    for e in errors[:10]:
        print(f"{args.workload}: {e}", file=sys.stderr)
    if not latencies:
        print(f"{args.workload}: no operation succeeded", file=sys.stderr)
        return 1

    if args.trace:
        # Every per-layer metric is printed; those the workload does not
        # measure read 0.
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(layers)
        metrics = {k: {"value": float(v), "unit": PER_LAYER[k]} for k, v in values.items()}
    else:
        metrics = {
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": quantile(latencies, 0.90) * 1e3, "unit": "ms"},
            "work_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(
        f"{args.workload}: {len(latencies)} op(s) ok of {attempted}, "
        f"{len(setups)} set-up(s), seed {args.seed}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
