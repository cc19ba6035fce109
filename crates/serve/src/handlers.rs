//! The endpoints of the resident service, all listed in one route table.
//!
//! | route | answers |
//! |---|---|
//! | `POST /mine` | one `(old, new)` change → mined/quarantined verdict |
//! | `POST /mine-repo` | a cloned repo under `--repo-root` → walk + mine |
//! | `POST /check` | snippet(s) → rule violations |
//! | `GET /explain/<fingerprint>` | the ring-buffered verdict journal |
//! | `GET /metrics` | the registry in Prometheus text format |
//! | `GET /status` | uptime, accounting, cache hit rates, percentiles |
//! | `GET /trace/capture?events=N` | Chrome-trace snapshot of recent requests |
//! | `GET /healthz`, `GET /readyz` | liveness / drain-aware readiness |
//!
//! `/mine` and `/mine-repo` share one served-mining path
//! (`mine_corpus`): `/mine` mines a one-change corpus and `/mine-repo`
//! the corpus its walk ingested, both with [`diffcode::DiffCode::mine`]
//! — the loop a one-shot `diffcode mine` runs — and render each tuple
//! with [`diffcode::cli::write_usage_digest`], the text `result digest`
//! hashes, so a served verdict is byte-comparable to a mining run's.
//! Each request builds its own [`diffcode::DiffCode`], so no analysis
//! outlives the request; repeats across requests are the mining
//! cache's job. The request deadline stops mining between changes: what
//! was mined is still cached, and the request answers 408. The
//! pipeline's own fuel budgets do the heavy robustness lifting: a 10 MB
//! "Java file" or pathologically nested source quarantines the
//! *change* (a clean JSON verdict with provenance), never the worker.
//!
//! Handlers record into the request's own recorder, never the shared
//! one: the server merges it once, when the request finishes.

use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::ring::ExplainRecord;
use crate::server::Shared;
use corpus::Corpus;
use diffcode::{DiffCode, Verdict};
use obs::Recorder;
use std::sync::PoisonError;
use std::time::Instant;

/// How a route's path matches a request target.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PathMatch {
    /// The whole target.
    Exact(&'static str),
    /// The target up to an optional `?query`.
    Query(&'static str),
    /// Any target under this prefix.
    Prefix(&'static str),
}

/// One route-table row: the endpoint's latency span name is its label
/// under `serve.request.`, spelled out once at compile time so the
/// record path never formats it.
macro_rules! route {
    ($method:literal, $path:expr, $label:literal) => {
        ($method, $path, $label, concat!("serve.request.", $label))
    };
}

/// The single route table — `(method, path, endpoint label, latency
/// span)` — that dispatch, the `405` answers, and the per-endpoint
/// latency histograms all derive from.
pub(crate) const ROUTES: [(&str, PathMatch, &str, &str); 9] = [
    route!("POST", PathMatch::Exact("/mine"), "mine"),
    route!("POST", PathMatch::Exact("/mine-repo"), "mine_repo"),
    route!("POST", PathMatch::Exact("/check"), "check"),
    route!("GET", PathMatch::Exact("/metrics"), "metrics"),
    route!("GET", PathMatch::Exact("/status"), "status"),
    route!("GET", PathMatch::Exact("/healthz"), "healthz"),
    route!("GET", PathMatch::Exact("/readyz"), "readyz"),
    route!("GET", PathMatch::Prefix("/explain/"), "explain"),
    route!("GET", PathMatch::Query("/trace/capture"), "trace_capture"),
];

/// The `(method, label, latency span)` of the route serving `path`,
/// whatever the request method.
pub(crate) fn route(path: &str) -> Option<(&'static str, &'static str, &'static str)> {
    ROUTES
        .iter()
        .find(|(_, pattern, _, _)| match *pattern {
            PathMatch::Exact(p) => path == p,
            PathMatch::Query(p) => path.split('?').next() == Some(p),
            PathMatch::Prefix(p) => path.starts_with(p),
        })
        .map(|&(method, _, label, span)| (method, label, span))
}

/// Routes one request. Always returns a response; panics escape to the
/// per-request `catch_unwind` in the server loop. `rec` is the request's
/// own recorder. `request_id` is the admission-assigned id the access
/// record carries — handlers thread it into explain-ring records so
/// verdicts join to request records. `deadline` is the request's
/// deadline, which `/mine`, `/mine-repo` and `/check` also apply to
/// their compute.
pub(crate) fn handle(
    req: &Request,
    shared: &Shared,
    rec: &mut Recorder,
    request_id: u64,
    deadline: Instant,
) -> Response {
    if shared.config.chaos_hooks {
        if let Some(ms) = req
            .header("x-chaos-sleep-ms")
            .and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(std::time::Duration::from_millis(ms.min(10_000)));
        }
        if req.header("x-chaos-panic").is_some() {
            panic!("chaos fault injection: X-Chaos-Panic header present");
        }
    }

    let Some((method, label, _)) = route(&req.path) else {
        return err_json(404, "unknown path");
    };
    if req.method != method {
        return err_json(405, "method not allowed for this path");
    }
    match label {
        "mine" => mine(req, shared, rec, request_id, deadline),
        "mine_repo" => mine_repo(req, shared, rec, request_id, deadline),
        "check" => check(req, deadline),
        "metrics" => metrics(shared),
        "status" => status(shared),
        "healthz" => Response::text(200, "ok"),
        "readyz" => {
            if shared.draining() {
                Response::text(503, "draining")
            } else {
                Response::text(200, "ready")
            }
        }
        "explain" => explain(&req.path, shared),
        "trace_capture" => trace_capture(&req.path, shared),
        _ => err_json(404, "unknown path"),
    }
}

fn err_json(status: u16, message: &str) -> Response {
    let body = Json::Obj(vec![("error".to_owned(), Json::Str(message.to_owned()))]);
    Response::json(status, body.render())
}

/// Parses the request body as a JSON object.
fn body_json(req: &Request) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| err_json(400, "request body is not UTF-8"))?;
    json::parse(text).map_err(|e| err_json(400, &format!("request body: {e}")))
}

/// Mines `corpus` with [`DiffCode::mine`] through the shared cache,
/// stopping between changes once `deadline` has passed. What was mined
/// is absorbed into the cache and flushed either way, so a retry replays
/// it. Unless the deadline stopped it, journals each change's verdict in
/// the `/explain` ring and returns the verdicts as journaled, in corpus
/// order. Only the verdicts the ring keeps — the last `ring_capacity` —
/// have their tuple texts rendered and a record pushed; each earlier one
/// only takes its sequence number, and is returned without tuples (a
/// `/mine-repo` body lists none). The pipeline's metrics and the cache
/// flush's count go into `rec`.
fn mine_corpus(
    shared: &Shared,
    rec: &mut Recorder,
    request_id: u64,
    corpus: &Corpus,
    deadline: Instant,
) -> Option<Vec<ExplainRecord>> {
    // Default limits, depth and classes: the configuration the server
    // opened its cache with, as a one-shot mining run does.
    let mut dc = DiffCode::new();
    dc.set_deadline(deadline);
    let result = match shared.cache.as_ref() {
        Some(lock) => {
            // Mining holds only a read lock: concurrent requests look
            // the cache up in parallel and batch their writes in
            // per-request shard logs, absorbed under a brief write lock
            // afterwards — same pattern as parallel mining.
            let (result, log) = {
                let cache = lock.read().unwrap_or_else(PoisonError::into_inner);
                let mut view = cache.view();
                let result = dc.mine(corpus, &[], Some(&mut view));
                (result, view.into_log())
            };
            let flushed = {
                let mut cache = lock.write().unwrap_or_else(PoisonError::into_inner);
                cache.absorb(log);
                cache.flush()
            };
            match flushed {
                Ok(n) => rec.inc("cache.flushed_entries", n as u64),
                Err(_) => rec.inc("serve.cache_flush_errors", 1),
            }
            result
        }
        None => dc.mine(corpus, &[], None),
    };
    // The pipeline's own counters and stage spans (mine.*, cache.*,
    // analysis spans, quarantine breakdown).
    rec.merge(dc.take_recorder());
    if result.verdicts.len() < corpus.code_changes().count() {
        return None;
    }

    let mut mined = result.changes.iter();
    let mut skips = result.quarantine.into_iter();
    let mut ring = shared.ring.lock().unwrap_or_else(PoisonError::into_inner);
    let kept_from = result.verdicts.len().saturating_sub(ring.capacity());
    let records = result.verdicts.into_iter().enumerate().map(|(i, v)| {
        let kept = i >= kept_from;
        let (verdict, tuples, skip) = match v.outcome {
            Verdict::Mined(n) => {
                let usages = mined.by_ref().take(n);
                let texts = if kept {
                    let text = |usage| {
                        let mut text = String::new();
                        diffcode::cli::write_usage_digest(&mut text, usage);
                        text
                    };
                    usages.map(text).collect()
                } else {
                    usages.for_each(drop);
                    Vec::new()
                };
                ("mined", texts, None)
            }
            Verdict::Quarantined(_) => {
                let skip = skips
                    .next()
                    .map(|r| (r.kind.name().to_owned(), r.error, r.excerpt));
                ("quarantined", Vec::new(), skip)
            }
        };
        let mut record = ExplainRecord {
            seq: 0,
            request_id,
            fingerprint: v.meta.fingerprint.clone(),
            verdict,
            cache: v.cache,
            tuples,
            skip,
        };
        record.seq = if kept {
            ring.push(record.clone())
        } else {
            ring.pass()
        };
        record
    });
    Some(records.collect())
}

/// `POST /mine`: `{"old": "...", "new": "..."}`, mined as a one-change
/// corpus whose provenance no response shows.
fn mine(
    req: &Request,
    shared: &Shared,
    rec: &mut Recorder,
    request_id: u64,
    deadline: Instant,
) -> Response {
    let body = match body_json(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(old) = body.get("old").and_then(Json::as_str) else {
        return err_json(400, "missing string field `old`");
    };
    let Some(new) = body.get("new").and_then(Json::as_str) else {
        return err_json(400, "missing string field `new`");
    };
    if body.get("classes").is_some() {
        return err_json(
            400,
            "unknown field `classes`: served mining mines every target class",
        );
    }
    let one_change = Corpus {
        projects: vec![corpus::Project {
            user: String::new(),
            name: String::new(),
            facts: corpus::ProjectFacts::default(),
            commits: vec![corpus::Commit {
                id: String::new(),
                author: String::new(),
                message: String::new(),
                changes: vec![corpus::FileChange {
                    path: String::new(),
                    old: Some(old.to_owned()),
                    new: Some(new.to_owned()),
                }],
            }],
        }],
    };

    let Some(mut verdicts) = mine_corpus(shared, rec, request_id, &one_change, deadline) else {
        return Response::text(408, "request deadline exceeded");
    };
    let served = verdicts.swap_remove(0);
    rec.inc("serve.mine_requests", 1);
    let skip = served.skip_json();
    let body = Json::Obj(vec![
        ("fingerprint".to_owned(), Json::Str(served.fingerprint)),
        ("verdict".to_owned(), Json::Str(served.verdict.to_owned())),
        ("cache".to_owned(), Json::Str(served.cache.to_owned())),
        ("seq".to_owned(), Json::Num(served.seq as f64)),
        (
            "tuples".to_owned(),
            Json::Arr(served.tuples.into_iter().map(Json::Str).collect()),
        ),
        ("skip".to_owned(), skip),
    ]);
    Response::json(200, body.render())
}

/// Validates the optional `rev_range` field: a malformed value is a
/// 400, never a silent default. Option-shaped ranges (leading `-`) are
/// rejected here — mirroring the check inside gitsrc itself — so a
/// request body can never smuggle a git option (e.g. `--output=<path>`)
/// into the `git log` argument list.
fn parse_rev_range(body: &Json) -> Result<Option<String>, &'static str> {
    match body.get("rev_range") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let Some(s) = v.as_str() else {
                return Err("`rev_range` must be a string");
            };
            if s.is_empty() || s.starts_with('-') {
                return Err("`rev_range` must be a revision range, not an option");
            }
            Ok(Some(s.to_owned()))
        }
    }
}

/// Validates the optional `max_commits` field: only non-negative whole
/// numbers pass (a negative, fractional, or NaN value would otherwise
/// saturate or truncate silently in the `f64 -> usize` cast).
fn parse_max_commits(body: &Json) -> Result<Option<usize>, &'static str> {
    match body.get("max_commits") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_num().filter(|n| *n >= 0.0 && n.fract() == 0.0) {
            Some(n) => Ok(Some(n as usize)),
            None => Err("`max_commits` must be a non-negative integer"),
        },
    }
}

/// `POST /mine-repo`: `{"repo": "<name under --repo-root>",
/// "rev_range": "A..B"?, "max_commits": N?}` — walks the named cloned
/// repository with [`gitsrc`] and mines every extracted pre/post pair
/// through the shared cache, so a repeated request over an unchanged
/// repository replays cached outcomes. Disabled unless the server was
/// started with `--repo-root`; the name is resolved strictly under
/// that root (plain path components only — no absolute paths, no
/// `..`). Each mined pair lands in the `/explain` ring like a `/mine`
/// verdict would.
fn mine_repo(
    req: &Request,
    shared: &Shared,
    rec: &mut Recorder,
    request_id: u64,
    deadline: Instant,
) -> Response {
    let Some(root) = shared.config.repo_root.as_ref() else {
        return err_json(
            404,
            "repository mining disabled (start with --repo-root <dir>)",
        );
    };
    let body = match body_json(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(name) = body.get("repo").and_then(Json::as_str) else {
        return err_json(400, "missing string field `repo`");
    };
    let rel = std::path::Path::new(name);
    let confined = !name.is_empty()
        && rel
            .components()
            .all(|c| matches!(c, std::path::Component::Normal(_)));
    if !confined {
        return err_json(400, "`repo` must be a relative name under the repo root");
    }
    let repo = root.join(rel);
    if !repo.is_dir() {
        return err_json(404, "no such repository under the repo root");
    }
    let rev_range = match parse_rev_range(&body) {
        Ok(v) => v,
        Err(msg) => return err_json(400, msg),
    };
    let max_commits = match parse_max_commits(&body) {
        Ok(v) => v,
        Err(msg) => return err_json(400, msg),
    };
    let opts = gitsrc::IngestOptions {
        rev_range,
        max_commits,
        limits: gitsrc::IngestLimits::DEFAULT,
    };
    let mut ingest_metrics = Recorder::new();
    let report = match gitsrc::ingest_repo(&repo, &opts, &mut ingest_metrics) {
        Ok(report) => report,
        // The repo exists but git could not walk it: the request is
        // unprocessable, the worker is fine.
        Err(e) => return err_json(422, &format!("ingestion failed: {e}")),
    };

    rec.merge(ingest_metrics);
    let Some(verdicts) = mine_corpus(shared, rec, request_id, &report.corpus, deadline) else {
        return Response::text(408, "request deadline exceeded");
    };
    rec.inc("serve.mine_repo_requests", 1);

    let mined = verdicts.iter().filter(|v| v.verdict == "mined").count();
    let stats = &report.stats;
    let body = Json::Obj(vec![
        ("repo".to_owned(), Json::Str(name.to_owned())),
        (
            "commits_walked".to_owned(),
            Json::Num(stats.commits_walked as f64),
        ),
        (
            "commits_ingested".to_owned(),
            Json::Num(stats.commits_ingested as f64),
        ),
        ("pairs".to_owned(), Json::Num(stats.pairs as f64)),
        (
            "renames_followed".to_owned(),
            Json::Num(stats.renames_followed as f64),
        ),
        ("additions".to_owned(), Json::Num(stats.additions as f64)),
        ("deletions".to_owned(), Json::Num(stats.deletions as f64)),
        (
            "ingest_quarantined".to_owned(),
            Json::Num(report.skips.len() as f64),
        ),
        ("mined".to_owned(), Json::Num(mined as f64)),
        (
            "mine_quarantined".to_owned(),
            Json::Num((verdicts.len() - mined) as f64),
        ),
        (
            "changes".to_owned(),
            Json::Arr(
                verdicts
                    .into_iter()
                    .map(|v| {
                        Json::Obj(vec![
                            ("fingerprint".to_owned(), Json::Str(v.fingerprint)),
                            ("verdict".to_owned(), Json::Str(v.verdict.to_owned())),
                            ("cache".to_owned(), Json::Str(v.cache.to_owned())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Response::json(200, body.render())
}

/// `POST /check`: `{"source": "..."}` or
/// `{"files": [{"name": "...", "source": "..."}]}`. Each file is
/// analyzed under the pipeline's default budgets; the request deadline
/// is checked between files, and an overrun answers 408 like a read
/// overrun. `unanalyzed` counts the files the check could not analyze.
fn check(req: &Request, deadline: Instant) -> Response {
    let body = match body_json(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let files: Vec<(String, String)> =
        if let Some(source) = body.get("source").and_then(Json::as_str) {
            vec![("request".to_owned(), source.to_owned())]
        } else if let Some(items) = body.get("files").and_then(Json::as_array) {
            let mut files = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let Some(source) = item.get("source").and_then(Json::as_str) else {
                    return err_json(400, "each file needs a string field `source`");
                };
                let name = item
                    .get("name")
                    .and_then(Json::as_str)
                    .map_or_else(|| format!("file{i}"), ToOwned::to_owned);
                files.push((name, source.to_owned()));
            }
            files
        } else {
            return err_json(400, "expected `source` or `files`");
        };
    if files.is_empty() {
        return err_json(400, "no files to check");
    }

    let Some(report) =
        diffcode::cli::render_check(&files, rules::ProjectContext::plain(), Some(deadline))
    else {
        return Response::text(408, "request deadline exceeded");
    };
    let body = Json::Obj(vec![
        (
            "violated_rules".to_owned(),
            Json::Num(report.violated as f64),
        ),
        ("files".to_owned(), Json::Num(files.len() as f64)),
        ("unanalyzed".to_owned(), Json::Num(report.unanalyzed as f64)),
        ("report".to_owned(), Json::Str(report.text)),
    ]);
    Response::json(200, body.render())
}

/// `GET /explain/<fingerprint-prefix>`.
fn explain(path: &str, shared: &Shared) -> Response {
    let prefix = path.trim_start_matches("/explain/");
    if prefix.is_empty() {
        return err_json(400, "expected /explain/<fingerprint-prefix>");
    }
    let ring = shared.ring.lock().unwrap_or_else(PoisonError::into_inner);
    let matches = ring.find(prefix);
    if matches.is_empty() {
        return err_json(
            404,
            "no served change matches that fingerprint prefix (the ring holds recent /mine verdicts only)",
        );
    }
    let body = Json::Obj(vec![
        ("found".to_owned(), Json::Num(matches.len() as f64)),
        (
            "records".to_owned(),
            Json::Arr(matches.iter().map(|r| r.to_json()).collect()),
        ),
    ]);
    Response::json(200, body.render())
}

/// `GET /metrics`: deterministic Prometheus text. Logger throughput is
/// snapshotted into gauges just before rendering, so scrape output
/// carries the current emitted/dropped counts.
fn metrics(shared: &Shared) -> Response {
    let emitted = shared.log.emitted();
    let dropped = shared.log.dropped();
    let text = shared.with_recorder(|r| {
        r.set_gauge("serve.log_emitted", emitted as f64);
        r.set_gauge("serve.log_dropped", dropped as f64);
        obs::to_prometheus_text(r)
    });
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: text.into_bytes(),
        retry_after: None,
    }
}

/// Hit-rate summary for a cache's `<prefix>.hit` / `.miss` /
/// `.stale_version` counters; `Null` before any lookup happened.
fn cache_rate_json(r: &Recorder, prefix: &str) -> Json {
    let hits = r.counter(&format!("{prefix}.hit"));
    let misses = r.counter(&format!("{prefix}.miss"));
    let stale = r.counter(&format!("{prefix}.stale_version"));
    let total = hits + misses + stale;
    let rate = if total == 0 {
        Json::Null
    } else {
        Json::Num(hits as f64 / total as f64)
    };
    Json::Obj(vec![
        ("hits".to_owned(), Json::Num(hits as f64)),
        ("misses".to_owned(), Json::Num(misses as f64)),
        ("stale".to_owned(), Json::Num(stale as f64)),
        ("hit_rate".to_owned(), rate),
    ])
}

/// `GET /status`: one JSON page of live runtime introspection —
/// uptime, the accounting partition, cache hit rates, logger
/// throughput, and the per-endpoint latency percentile table computed
/// from the recorder's log-linear histograms.
fn status(shared: &Shared) -> Response {
    let uptime_ms = shared.started.elapsed().as_millis().min(u64::MAX as u128) as u64;
    // Read before the recorder lock: `queue_len` takes the queue lock
    // (lock order on `Shared`).
    let queue_depth = shared.queue_len();
    let body = shared.with_recorder(|r| {
        let trace_events = r.trace().map_or(0, obs::TraceSink::len);
        let mut endpoints: Vec<(String, Json)> = Vec::new();
        for (name, hist) in r.spans() {
            let label = if name == "serve.request" {
                "all"
            } else if let Some(rest) = name.strip_prefix("serve.request.") {
                rest
            } else {
                continue;
            };
            let mut fields = vec![
                ("count".to_owned(), Json::Num(hist.count() as f64)),
                (
                    "mean_ns".to_owned(),
                    Json::Num(hist.sum_ns() as f64 / hist.count().max(1) as f64),
                ),
            ];
            for (key, q) in [
                ("p50_ns", 0.50),
                ("p90_ns", 0.90),
                ("p95_ns", 0.95),
                ("p99_ns", 0.99),
                ("p999_ns", 0.999),
            ] {
                fields.push((key.to_owned(), Json::Num(hist.quantile(q) as f64)));
            }
            fields.push(("max_ns".to_owned(), Json::Num(hist.max_ns() as f64)));
            endpoints.push((label.to_owned(), Json::Obj(fields)));
        }
        Json::Obj(vec![
            (
                "version".to_owned(),
                Json::Str(env!("CARGO_PKG_VERSION").to_owned()),
            ),
            ("uptime_ms".to_owned(), Json::Num(uptime_ms as f64)),
            ("draining".to_owned(), Json::Bool(shared.draining())),
            (
                "requests".to_owned(),
                Json::Obj(vec![
                    (
                        "accepted".to_owned(),
                        Json::Num(r.counter("serve.accepted") as f64),
                    ),
                    (
                        "completed".to_owned(),
                        Json::Num(r.counter("serve.completed") as f64),
                    ),
                    ("shed".to_owned(), Json::Num(r.counter("serve.shed") as f64)),
                    (
                        "failed".to_owned(),
                        Json::Num(r.counter("serve.failed") as f64),
                    ),
                ]),
            ),
            (
                "queue".to_owned(),
                Json::Obj(vec![
                    ("depth".to_owned(), Json::Num(queue_depth as f64)),
                    (
                        "capacity".to_owned(),
                        Json::Num(shared.config.queue_depth as f64),
                    ),
                ]),
            ),
            (
                "cache".to_owned(),
                if shared.cache.is_some() {
                    cache_rate_json(r, "cache")
                } else {
                    Json::Null
                },
            ),
            (
                "log".to_owned(),
                Json::Obj(vec![
                    ("emitted".to_owned(), Json::Num(shared.log.emitted() as f64)),
                    ("dropped".to_owned(), Json::Num(shared.log.dropped() as f64)),
                ]),
            ),
            (
                "trace".to_owned(),
                Json::Obj(vec![
                    ("events".to_owned(), Json::Num(trace_events as f64)),
                    (
                        "capacity".to_owned(),
                        Json::Num(shared.config.trace_capacity as f64),
                    ),
                ]),
            ),
            ("endpoints".to_owned(), Json::Obj(endpoints)),
        ])
    });
    Response::json(200, body.render())
}

/// `GET /trace/capture?events=N`: the most recent `N` events of the
/// bounded capture sink in Chrome trace-event JSON (default 256),
/// loadable in Perfetto / `chrome://tracing`.
fn trace_capture(path: &str, shared: &Shared) -> Response {
    let mut events = 256usize;
    if let Some((_, query)) = path.split_once('?') {
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            if key != "events" {
                return err_json(400, "unknown trace capture parameter (expected events=N)");
            }
            match value.parse::<usize>() {
                Ok(n) if n >= 1 => events = n,
                _ => return err_json(400, "`events` must be a positive integer"),
            }
        }
    }
    // The server's recorder always traces; an untraced one would hold
    // no events, which exports as the empty array.
    let json = shared.with_recorder(|r| {
        r.trace().map_or_else(
            || "[\n\n]\n".to_owned(),
            |trace| obs::to_chrome_json_tail(trace, events),
        )
    });
    Response::json(200, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{endpoint, ServeConfig};
    use diffcode::{MiningCache, PipelineLimits};
    use std::sync::RwLock;

    fn body(text: &str) -> Json {
        json::parse(text).unwrap()
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// A deadline no test request reaches.
    fn later() -> Instant {
        Instant::now() + std::time::Duration::from_secs(600)
    }

    #[test]
    fn check_counts_unanalyzed_files_and_answers_408_past_its_deadline() {
        let shared = Shared::new(ServeConfig::default(), None);
        let bomb = Json::Str(corpus::chaos::call_chain_bomb(80, 1)).render();
        let files = format!(
            r#"{{"files": [{{"name": "Bomb.java", "source": {bomb}}}, {{"name": "Ok.java", "source": "class Ok {{}}"}}]}}"#
        );
        let mut rec = Recorder::new();
        let resp = handle(
            &request("POST", "/check", &files),
            &shared,
            &mut rec,
            1,
            later(),
        );
        assert_eq!(resp.status, 200);
        let reply = body(std::str::from_utf8(&resp.body).unwrap());
        assert_eq!(reply.get("unanalyzed").and_then(Json::as_num), Some(1.0));
        assert_eq!(
            reply.get("violated_rules").and_then(Json::as_num),
            Some(0.0)
        );
        let report = reply.get("report").and_then(Json::as_str).unwrap();
        assert!(
            report.contains("warning: Bomb.java: analysis exceeded"),
            "{report}"
        );
        assert!(report.contains("(1 not analyzed)"), "{report}");

        let past = Instant::now();
        let resp = handle(
            &request("POST", "/check", &files),
            &shared,
            &mut rec,
            2,
            past,
        );
        assert_eq!(resp.status, 408);
        assert_eq!(resp.body, b"request deadline exceeded\n");
    }

    #[test]
    fn a_classes_field_answers_400_and_the_cache_keeps_every_class() {
        let dir = std::env::temp_dir().join(format!("serve-classes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MiningCache::open(&dir, &[], &PipelineLimits::DEFAULT).unwrap();
        let shared = Shared::new(ServeConfig::default(), Some(RwLock::new(cache)));
        let change = |transformation: &str, algorithm: &str| {
            Json::Str(format!(
                "class K {{ void m() throws Exception {{ \
                 javax.crypto.Cipher c = javax.crypto.Cipher.getInstance(\"{transformation}\"); \
                 java.security.MessageDigest d = \
                 java.security.MessageDigest.getInstance(\"{algorithm}\"); }} }}"
            ))
            .render()
        };
        let (old, new) = (change("AES", "MD5"), change("AES/GCM/NoPadding", "SHA-256"));
        let send = |body: String| {
            let resp = handle(
                &request("POST", "/mine", &body),
                &shared,
                &mut Recorder::new(),
                1,
                later(),
            );
            (resp.status, String::from_utf8(resp.body).unwrap())
        };

        let narrowed = format!(r#"{{"old": {old}, "new": {new}, "classes": ["Cipher"]}}"#);
        let (status, reply) = send(narrowed);
        assert_eq!(status, 400);
        assert!(reply.contains("`classes`"), "{reply}");

        let (status, reply) = send(format!(r#"{{"old": {old}, "new": {new}}}"#));
        assert_eq!(status, 200);
        let reply = body(&reply);
        assert_eq!(reply.get("cache").and_then(Json::as_str), Some("miss"));
        let classes: Vec<&str> = reply
            .get("tuples")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|t| t.as_str()?.split('|').next())
            .collect();
        assert_eq!(classes, ["Cipher", "MessageDigest"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_walk_longer_than_the_ring_journals_only_what_the_ring_keeps() {
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(2, 7));
        let n = corpus.code_changes().count();
        let small = ServeConfig {
            ring_capacity: 3,
            ..ServeConfig::default()
        };
        assert!(n > small.ring_capacity, "{n} changes");
        let first = corpus::Corpus {
            projects: vec![corpus.projects[0].clone()],
        };
        // The same two walks against a ring that keeps them all and one
        // that keeps three records.
        let walk = |config: ServeConfig| {
            let shared = Shared::new(config, None);
            let mut rec = Recorder::new();
            mine_corpus(&shared, &mut rec, 1, &first, later()).unwrap();
            let records = mine_corpus(&shared, &mut rec, 2, &corpus, later()).unwrap();
            let ring = shared.ring.lock().unwrap();
            let kept: Vec<ExplainRecord> = ring.find("").into_iter().cloned().collect();
            (records, kept)
        };
        let (all, all_kept) = walk(ServeConfig::default());
        let (records, kept) = walk(small);
        assert_eq!(all_kept.len(), first.code_changes().count() + n);

        // Every returned verdict has the sequence number, fingerprint,
        // verdict and cache status it has with the large ring; only the
        // records the small ring keeps carry their tuples.
        assert_eq!(records.len(), n);
        for (i, (record, full)) in records.iter().zip(&all).enumerate() {
            let summary = |r: &ExplainRecord| (r.seq, r.fingerprint.clone(), r.verdict, r.cache);
            assert_eq!(summary(record), summary(full), "record {i}");
            if i < n - 3 {
                assert!(record.tuples.is_empty(), "record {i} was rendered");
            } else {
                assert_eq!(record, full, "record {i}");
            }
        }
        assert!(all.iter().any(|r| !r.tuples.is_empty()), "no tuples");
        // The small ring holds exactly the large one's newest three.
        assert_eq!(kept, all_kept[..3]);
        assert_eq!(kept[0].seq as usize, first.code_changes().count() + n);
    }

    #[test]
    fn a_mine_past_its_deadline_answers_408() {
        let shared = Shared::new(ServeConfig::default(), None);
        let req = request(
            "POST",
            "/mine",
            r#"{"old": "class A {}", "new": "class A { int x; }"}"#,
        );
        let mut rec = Recorder::new();
        let resp = handle(&req, &shared, &mut rec, 1, Instant::now());
        assert_eq!(resp.status, 408);
        assert_eq!(rec.counter("mine.code_changes"), 0, "nothing was mined");
    }

    #[test]
    fn each_mine_request_analyzes_with_its_own_memo() {
        // No mining cache: nothing may carry analysis results from one
        // request to the next, so a repeat re-analyzes both sides.
        let shared = Shared::new(ServeConfig::default(), None);
        let req = request(
            "POST",
            "/mine",
            r#"{"old": "class A {}", "new": "class A { int x; }"}"#,
        );
        let mut rec = Recorder::new();
        for _ in 0..2 {
            assert_eq!(handle(&req, &shared, &mut rec, 1, later()).status, 200);
        }
        let (hits, misses) = (
            rec.counter("analyze.cache_hit"),
            rec.counter("analyze.cache_miss"),
        );
        assert_eq!(hits, 0, "no analysis memo outlives its request");
        assert_eq!(misses, 4, "each request analyzes its old and new source");
    }

    #[test]
    fn every_route_answers_its_method_and_405s_the_others() {
        let config = ServeConfig {
            repo_root: Some(std::env::temp_dir()),
            ..ServeConfig::default()
        };
        let shared = Shared::new(config, None);
        let send = |method: &str, path: &str, body: &str| {
            let mut rec = Recorder::new();
            handle(&request(method, path, body), &shared, &mut rec, 1, later()).status
        };
        // One body for every route: `/mine` (first in the table) mines
        // it, so `/explain/<its fingerprint>` finds a verdict; the
        // other POST routes answer 400 for the missing fields.
        let (old, new) = ("class A {}", "class A { int x; }");
        let mine_body = format!(r#"{{"old": "{old}", "new": "{new}"}}"#);
        for (method, pattern, label, span) in ROUTES {
            let path = match pattern {
                PathMatch::Exact(p) | PathMatch::Query(p) => p.to_owned(),
                PathMatch::Prefix(p) => format!("{p}{}", diffcode::change_fingerprint(old, new)),
            };
            assert_ne!(send(method, &path, &mine_body), 404, "{method} {path}");
            for other in ["GET", "POST", "PUT", "DELETE"] {
                if other != method {
                    assert_eq!(send(other, &path, ""), 405, "{other} {path}");
                }
            }
            assert_eq!(endpoint(&path), (label, span));
            assert_eq!(span, format!("serve.request.{label}"));
            assert_ne!(label, "other");
        }
        assert_eq!(send("GET", "/nowhere", ""), 404);
        assert_eq!(endpoint("/nowhere"), ("other", "serve.request.other"));
    }

    #[test]
    fn rev_range_accepts_ranges_and_rejects_option_shapes() {
        assert_eq!(parse_rev_range(&body("{}")), Ok(None));
        assert_eq!(parse_rev_range(&body(r#"{"rev_range": null}"#)), Ok(None));
        assert_eq!(
            parse_rev_range(&body(r#"{"rev_range": "v1..v2"}"#)),
            Ok(Some("v1..v2".to_owned()))
        );
        // Option-shaped or degenerate values must 400, not reach git.
        assert!(parse_rev_range(&body(r#"{"rev_range": "--output=/tmp/pwn"}"#)).is_err());
        assert!(parse_rev_range(&body(r#"{"rev_range": "-n1"}"#)).is_err());
        assert!(parse_rev_range(&body(r#"{"rev_range": ""}"#)).is_err());
        assert!(parse_rev_range(&body(r#"{"rev_range": 3}"#)).is_err());
    }

    #[test]
    fn max_commits_accepts_whole_numbers_only() {
        assert_eq!(parse_max_commits(&body("{}")), Ok(None));
        assert_eq!(
            parse_max_commits(&body(r#"{"max_commits": null}"#)),
            Ok(None)
        );
        assert_eq!(
            parse_max_commits(&body(r#"{"max_commits": 30}"#)),
            Ok(Some(30))
        );
        assert_eq!(
            parse_max_commits(&body(r#"{"max_commits": 0}"#)),
            Ok(Some(0))
        );
        // Negative, fractional, and non-numeric values must 400
        // instead of saturating/truncating through the usize cast.
        assert!(parse_max_commits(&body(r#"{"max_commits": -1}"#)).is_err());
        assert!(parse_max_commits(&body(r#"{"max_commits": 2.5}"#)).is_err());
        assert!(parse_max_commits(&body(r#"{"max_commits": "30"}"#)).is_err());
    }
}
