#!/usr/bin/env python3
"""End-to-end smoke gate for `diffcode serve`.

Boots the resident service on an ephemeral port, walks every endpoint,
and checks the acceptance criteria a unit test can't see from inside
the process:

  1. startup handshake: the first stdout line names the bound address;
  2. all five endpoints answer: /healthz, /readyz, /mine, /check,
     /explain/<fingerprint>, /metrics;
  3. verdict parity: mining the same change cold then warm returns the
     identical fingerprint/verdict/tuples (the warm one from the
     cache), i.e. a served verdict never depends on cache state;
  4. malformed input gets a clean 4xx, not a dropped connection, and a
     /mine body carrying `classes` is refused with a 400;
  5. /mine-repo walks the git fixture (scripts/make_fixture_repo.sh,
     served from --repo-root) twice: both walks report the pairs,
     mined and quarantined counts of `diffcode mine --repo` on the same
     fixture, and every change of the second walk is a cache hit;
  6. /status reports live accounting and a per-endpoint latency table
     with non-zero percentiles once traffic has flowed, and no longer
     carries a cluster_cache field (GET /cluster/stats is gone: 404);
  7. /trace/capture returns a well-formed Chrome-trace array covering
     the recent requests as serve.access instants, and rejects
     malformed queries with a 400;
  8. SIGTERM drains: exit code 0 and a final accounting line whose
     partition `accepted = completed + shed + failed` balances;
  9. the stderr access log is valid JSON-lines: exactly one
     serve.access record per accepted request, with the documented
     schema, whose outcome partition cross-checks against the drain
     accounting line; plus serve.boot and serve.drained lifecycle
     records; and every request the capture holds has the access
     record with its request_id, status and outcome (the capture and
     the log export one event).

Exit code 0 on success, 1 with a message per violation otherwise.
Usage: check_serve_smoke.py <path-to-diffcode-binary>
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import cilib

STARTUP_TIMEOUT_S = 30
DRAIN_TIMEOUT_S = 30
PROCESSED_RE = re.compile(
    r"^processed (\d+) code change\(s\): (\d+) mined, (\d+) skipped$", re.M
)
FIXTURE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "make_fixture_repo.sh")
DRAIN_RE = re.compile(
    r"drained: accepted (\d+) = completed (\d+) \+ shed (\d+) \+ failed (\d+); "
    r"flushed (\d+) cache entries"
)

FIGURE2_OLD = """class F2 { void m() throws Exception {
    javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("AES");
} }"""
FIGURE2_NEW = """class F2 { void m() throws Exception {
    javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("AES/GCM/NoPadding");
} }"""


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def request_json(port, method, path, body=None):
    status, raw = request(port, method, path, body)
    return status, json.loads(raw)


ACCESS_KEYS = (
    "request_id",
    "method",
    "path",
    "endpoint",
    "status",
    "latency_ns",
    "bytes",
    "outcome",
)


def one_shot_counts(diffcode, repo):
    """(processed, mined, skipped) from `diffcode mine --repo`'s
    accounting line."""
    out = subprocess.run(
        [diffcode, "mine", "--repo", repo], capture_output=True, text=True, check=True
    ).stdout
    m = PROCESSED_RE.search(out)
    if not m:
        raise SystemExit(f"no accounting line in `mine --repo` stdout: {out!r}")
    return tuple(map(int, m.groups()))


def check_fixture_walks(port, expected):
    """Walks the fixture twice through /mine-repo: each walk must report
    `expected` = (pairs, mined, quarantined), and every change of the
    second walk must be a cache hit."""
    errors = []
    for walk in ("cold", "warm"):
        status, body = request_json(port, "POST", "/mine-repo", {"repo": "fixture-repo"})
        if status != 200:
            errors.append(f"/mine-repo ({walk}): expected 200, got {status} {body}")
            continue
        got = (body.get("pairs"), body.get("mined"), body.get("mine_quarantined"))
        if got != expected:
            errors.append(
                f"/mine-repo ({walk}): (pairs, mined, mine_quarantined) = {got}, "
                f"but `mine --repo` processed/mined/skipped {expected}"
            )
        caches = [change.get("cache") for change in body.get("changes", [])]
        if len(caches) != expected[0]:
            errors.append(f"/mine-repo ({walk}): {len(caches)} change(s) for {expected[0]} pair(s)")
        if walk == "warm" and any(cache != "hit" for cache in caches):
            errors.append(f"/mine-repo (warm): every change must hit, got {caches}")
        print(
            f"serve smoke: /mine-repo {walk} walk: {len(caches)} change(s), "
            f"{caches.count('miss')} miss, {caches.count('hit')} hit"
        )
    return errors


def check_access_log(stderr, accepted, completed, shed, failed, captured):
    """Validates the structured stderr log against the drain accounting
    and the trace capture.

    With the default `--log-format json`, every stderr line is one JSON
    record. Access records (`event == "serve.access"`) must appear once
    per accepted request with the full schema, and their outcome
    partition must reproduce the drain line exactly:
    `ok + deadline == completed`, `shed == shed`, `panic == failed`.
    Each `captured` serve.access instant's args must match the access
    record with the same request_id on status and outcome.
    """
    errors = []
    outcomes = {"ok": 0, "deadline": 0, "shed": 0, "panic": 0}
    events = {}
    by_id = {}
    for line in stderr.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"access log: non-JSON stderr line {line!r}: {e}")
            continue
        event = rec.get("event")
        events[event] = events.get(event, 0) + 1
        for key in ("ts_ms", "level", "event"):
            if key not in rec:
                errors.append(f"access log: record missing {key}: {line!r}")
        if event != "serve.access":
            continue
        for key in ACCESS_KEYS:
            if key not in rec:
                errors.append(f"access log: serve.access missing {key}: {line!r}")
        by_id[rec.get("request_id")] = rec
        outcome = rec.get("outcome")
        if outcome in outcomes:
            outcomes[outcome] += 1
        else:
            errors.append(f"access log: unknown outcome {outcome!r}: {line!r}")
    n_access = events.get("serve.access", 0)
    if n_access != accepted:
        errors.append(
            f"access log: {n_access} serve.access record(s) for "
            f"{accepted} accepted request(s)"
        )
    if outcomes["ok"] + outcomes["deadline"] != completed:
        errors.append(
            f"access log: ok={outcomes['ok']} + deadline={outcomes['deadline']} "
            f"!= completed={completed}"
        )
    if outcomes["shed"] != shed:
        errors.append(f"access log: shed={outcomes['shed']} != drained shed={shed}")
    if outcomes["panic"] != failed:
        errors.append(f"access log: panic={outcomes['panic']} != drained failed={failed}")
    if events.get("serve.boot", 0) != 1:
        errors.append(f"access log: expected one serve.boot event, got {events.get('serve.boot', 0)}")
    if events.get("serve.drained", 0) != 1:
        errors.append(
            f"access log: expected one serve.drained event, got {events.get('serve.drained', 0)}"
        )
    for args in captured:
        rec = by_id.get(args.get("request_id"))
        if rec is None:
            errors.append(f"capture: request {args.get('request_id')} has no access record")
            continue
        for key in ("status", "outcome"):
            if args.get(key) != rec.get(key):
                errors.append(
                    f"capture: request {args.get('request_id')} {key} "
                    f"{args.get(key)!r} != access record {rec.get(key)!r}"
                )
    if not errors:
        print(
            f"serve smoke: access log OK with {n_access} record(s), "
            f"{len(captured)} cross-checked against the capture "
            f"(ok={outcomes['ok']} deadline={outcomes['deadline']} "
            f"shed={outcomes['shed']} panic={outcomes['panic']})"
        )
    return errors


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    diffcode = sys.argv[1]
    errors = []

    captured = []
    with tempfile.TemporaryDirectory(prefix="serve_smoke_") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        repo_root = os.path.join(tmp, "repos")
        fixture = os.path.join(repo_root, "fixture-repo")
        os.makedirs(repo_root)
        subprocess.run(["bash", FIXTURE_SCRIPT, fixture], check=True, stdout=subprocess.DEVNULL)
        one_shot = one_shot_counts(diffcode, fixture)
        proc = subprocess.Popen(
            [
                diffcode, "serve", "--addr", "127.0.0.1:0",
                "--cache-dir", cache_dir, "--repo-root", repo_root,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # 1. Startup handshake: first line names the bound port.
            line = proc.stdout.readline().strip()
            m = re.search(r"listening on http://127\.0\.0\.1:(\d+)$", line)
            if not m:
                raise SystemExit(f"bad startup handshake line: {line!r}")
            port = int(m.group(1))
            print(f"serve smoke: server up on port {port}")

            # 2. Liveness + readiness.
            status, body = request(port, "GET", "/healthz")
            if status != 200 or body.strip() != b"ok":
                errors.append(f"/healthz: expected 200 ok, got {status} {body!r}")
            status, body = request(port, "GET", "/readyz")
            if status != 200:
                errors.append(f"/readyz: expected 200 while serving, got {status}")

            # 3. Cold mine, then warm: identical verdict, warm from cache.
            change = {"old": FIGURE2_OLD, "new": FIGURE2_NEW}
            status, cold = request_json(port, "POST", "/mine", change)
            if status != 200:
                errors.append(f"/mine (cold): expected 200, got {status}")
            elif cold.get("verdict") != "mined":
                errors.append(f"/mine (cold): expected a mined verdict, got {cold}")
            status, warm = request_json(port, "POST", "/mine", change)
            if status != 200:
                errors.append(f"/mine (warm): expected 200, got {status}")
            else:
                if warm.get("cache") != "hit":
                    errors.append(f"/mine (warm): expected a cache hit, got {warm.get('cache')}")
                for key in ("fingerprint", "verdict", "tuples", "skip"):
                    if cold.get(key) != warm.get(key):
                        errors.append(
                            f"/mine parity: {key} differs cold vs warm: "
                            f"{cold.get(key)!r} != {warm.get(key)!r}"
                        )

            # 4. /explain journals both verdicts for the fingerprint.
            fingerprint = cold.get("fingerprint", "")
            status, explained = request_json(port, "GET", f"/explain/{fingerprint}")
            if status != 200 or explained.get("found", 0) < 2:
                errors.append(f"/explain/{fingerprint}: expected >=2 records, got {status} {explained}")
            status, _ = request(port, "GET", "/explain/ffffffffffffffff")
            if status != 404:
                errors.append(f"/explain (unknown): expected 404, got {status}")

            # 5. /check runs the rule checker.
            status, checked = request_json(
                port, "POST", "/check", {"source": FIGURE2_OLD}
            )
            if status != 200 or "report" not in checked:
                errors.append(f"/check: expected 200 with a report, got {status} {checked}")

            # 6. Malformed input: clean 4xx, not a dropped connection.
            status, _ = request(port, "POST", "/mine", {"old": 42})
            if status != 400:
                errors.append(f"/mine (malformed): expected 400, got {status}")
            status, refused = request_json(port, "POST", "/mine", dict(change, classes=["Cipher"]))
            if status != 400 or "classes" not in refused.get("error", ""):
                errors.append(f"/mine (classes): expected a 400 naming the field, got {status} {refused}")

            # 6b. The git fixture, walked twice through /mine-repo.
            errors.extend(check_fixture_walks(port, one_shot))

            # 7. /metrics exposes the serve counters in Prometheus text.
            status, metrics = request(port, "GET", "/metrics")
            text = metrics.decode()
            for needle in ("diffcode_serve_accepted", "diffcode_serve_mine_requests"):
                if needle not in text:
                    errors.append(f"/metrics: missing {needle}")
            if status != 200:
                errors.append(f"/metrics: expected 200, got {status}")

            # 8. /status: live introspection with per-endpoint
            # percentiles (non-zero after the traffic above).
            status, page = request_json(port, "GET", "/status")
            if status != 200:
                errors.append(f"/status: expected 200, got {status}")
            else:
                if page.get("draining") is not False:
                    errors.append(f"/status: draining should be false, got {page.get('draining')}")
                if "cluster_cache" in page:
                    errors.append("/status: the removed cluster_cache field is back")
                accepted_live = page.get("requests", {}).get("accepted", 0)
                if accepted_live < 8:
                    errors.append(
                        f"/status: requests.accepted={accepted_live} below the "
                        "traffic already sent"
                    )
                endpoints = page.get("endpoints", {})
                for endpoint in ("all", "mine", "healthz"):
                    row = endpoints.get(endpoint)
                    if not row:
                        errors.append(f"/status: endpoints.{endpoint} missing")
                        continue
                    for key in ("p50_ns", "p95_ns", "p99_ns"):
                        if not row.get(key, 0) > 0:
                            errors.append(
                                f"/status: endpoints.{endpoint}.{key} must be "
                                f"non-zero, got {row.get(key)}"
                            )

            # The server keeps no cluster cache: its stats route is gone.
            status, gone = request_json(port, "GET", "/cluster/stats")
            if status != 404 or gone.get("error") != "unknown path":
                errors.append(f"/cluster/stats: expected the unknown-path 404, got {status} {gone}")

            # 9. /trace/capture: a Chrome-trace array of recent events.
            status, raw = request(port, "GET", "/trace/capture?events=64")
            if status != 200:
                errors.append(f"/trace/capture: expected 200, got {status}")
            else:
                try:
                    trace = json.loads(raw)
                except json.JSONDecodeError as e:
                    errors.append(f"/trace/capture: invalid JSON: {e}")
                    trace = []
                if not isinstance(trace, list):
                    errors.append(f"/trace/capture: expected a JSON array, got {type(trace).__name__}")
                else:
                    bad = [
                        e for e in trace
                        if not isinstance(e, dict)
                        or any(k not in e for k in ("name", "ph", "pid", "tid", "ts"))
                        or e["ph"] != "i"
                    ]
                    if bad:
                        errors.append(f"/trace/capture: malformed event(s): {bad[:3]}")
                    captured = [
                        e.get("args", {}) for e in trace
                        if isinstance(e, dict) and e.get("name") == "serve.access"
                    ]
                    if not captured:
                        errors.append("/trace/capture: no serve.access events captured")
            status, _ = request(port, "GET", "/trace/capture?events=nope")
            if status != 400:
                errors.append(f"/trace/capture (malformed query): expected 400, got {status}")

            # 10. SIGTERM: graceful drain, exit 0, balanced accounting.
            proc.send_signal(signal.SIGTERM)
            try:
                stdout, stderr = proc.communicate(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise SystemExit("server did not drain within the deadline after SIGTERM")
            if proc.returncode != 0:
                errors.append(
                    f"exit code after SIGTERM: expected 0, got {proc.returncode}; "
                    f"stderr: {stderr.strip()!r}"
                )
            m = DRAIN_RE.search(stdout)
            if not m:
                errors.append(f"missing drain accounting line in stdout: {stdout!r}")
            else:
                accepted, completed, shed, failed, flushed = map(int, m.groups())
                if accepted != completed + shed + failed:
                    errors.append(
                        f"accounting partition violated: {accepted} != "
                        f"{completed} + {shed} + {failed}"
                    )
                if failed != 0:
                    errors.append(f"smoke traffic must not fail requests: failed={failed}")
                if flushed < 1:
                    errors.append("the mined verdict was never flushed to the cache log")
                print(
                    f"serve smoke: drained with accepted={accepted} "
                    f"completed={completed} shed={shed} failed={failed} flushed={flushed}"
                )
                errors.extend(
                    check_access_log(stderr, accepted, completed, shed, failed, captured)
                )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    return cilib.report(
        "SERVE",
        errors,
        "ok: serve smoke passed (endpoints, warm-cache parity, fixture walks, "
        "/status percentiles, trace capture, structured access log, SIGTERM drain)",
    )


if __name__ == "__main__":
    sys.exit(main())
