//! Chaos soak harness for the resident server, over real sockets.
//!
//! Pins the full robustness envelope end to end:
//!
//! - zero aborts: every hostile payload in `corpus::chaos::HttpMutator`
//!   gets a clean 4xx/timeout and the process survives;
//! - exact accounting: `accepted = completed + shed + failed` at rest;
//! - verdict parity: `/mine` answers byte-identical tuple digests to
//!   one-shot mining of the same change, and a `/mine-repo` walk
//!   answers the verdicts, tuples and skips of one-shot mining of the
//!   same history;
//! - warm cache: a repeated `/mine` is a cache hit under the deadline;
//! - load shedding: past the admission watermark, clients get `429` +
//!   `Retry-After`;
//! - graceful drain: shutdown answers what is queued and flushes the
//!   mining cache's append log;
//! - prompt accepts: a fresh connection is taken when it arrives, not
//!   at the accept loop's next shutdown tick;
//! - no lock-order deadlock: `/status` scrapes racing admissions drain
//!   exactly;
//! - compute bombs: every bomb request ends within its deadline plus one
//!   file's budget while honest traffic keeps answering.

use corpus::chaos::{
    call_chain_bomb, distinct_events, HttpFaultKind, HttpMutator, HttpPlan, HttpStep,
};
use diffcode::{MinedUsageChange, Verdict};
use proptest::prelude::*;
use serve::{Json, ServeConfig, ServeSummary, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn test_config(deadline_ms: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        cache_dir: None,
        deadline_ms,
        queue_depth: 64,
        drain_ms: 2_000,
        ring_capacity: 64,
        chaos_hooks: true,
        ..ServeConfig::default()
    }
}

fn spawn(config: ServeConfig) -> ServerHandle {
    Server::spawn(config).expect("server must start on an ephemeral port")
}

/// One full request/response exchange; returns (status, head, body).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, method, path, headers, body);
    read_response(&mut stream).expect("server must answer")
}

fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
}

/// Reads one `Connection: close` response to EOF. `None` if the server
/// closed without answering.
fn read_response(stream: &mut TcpStream) -> Option<(u16, String, Vec<u8>)> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?.to_owned();
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    Some((status, head, raw[head_end + 4..].to_vec()))
}

fn json_body(body: &[u8]) -> Json {
    serve::json::parse(std::str::from_utf8(body).expect("UTF-8 body")).expect("JSON body")
}

fn mine_body(old: &str, new: &str) -> Vec<u8> {
    Json::Obj(vec![
        ("old".to_owned(), Json::Str(old.to_owned())),
        ("new".to_owned(), Json::Str(new.to_owned())),
    ])
    .render()
    .into_bytes()
}

/// Replays one wire-level fault plan; swallows transport errors (the
/// server is expected to cut hostile connections). Returns the status
/// the server managed to deliver, if any.
fn replay(addr: SocketAddr, plan: &HttpPlan) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    for step in &plan.steps {
        match step {
            HttpStep::Send(bytes) => {
                if stream.write_all(bytes).is_err() {
                    break;
                }
            }
            HttpStep::Pause(pause) => std::thread::sleep(*pause),
            HttpStep::Close => {
                let _ = stream.shutdown(std::net::Shutdown::Write);
                break;
            }
        }
    }
    read_response(&mut stream).map(|(status, _, _)| status)
}

/// Shuts the server down and asserts the accounting partition on the
/// final summary (all client sockets are closed by the time tests call
/// this, so the summary is at rest by construction: shutdown drains the
/// queue and joins every worker before counting).
fn settle_and_shutdown(handle: ServerHandle) -> ServeSummary {
    let summary = handle.shutdown();
    assert_eq!(
        summary.accepted,
        summary.completed + summary.shed + summary.failed,
        "accepted = completed + shed + failed must hold at rest: {summary:?}",
    );
    summary
}

/// A one-project, one-commit corpus changing one file from `old` to
/// `new`: what `/mine` mines.
fn one_change_corpus(old: &str, new: &str) -> corpus::Corpus {
    corpus::Corpus {
        projects: vec![corpus::Project {
            user: "u".to_owned(),
            name: "p".to_owned(),
            facts: corpus::ProjectFacts::default(),
            commits: vec![corpus::Commit {
                id: "c".to_owned(),
                author: String::new(),
                message: String::new(),
                changes: vec![corpus::FileChange {
                    path: "F.java".to_owned(),
                    old: Some(old.to_owned()),
                    new: Some(new.to_owned()),
                }],
            }],
        }],
    }
}

/// The digest text one-shot mining gives one usage change.
fn digest_text(mined: &MinedUsageChange) -> String {
    let mut text = String::new();
    diffcode::cli::write_usage_digest(&mut text, mined);
    text
}

fn figure2_pair() -> (&'static str, &'static str) {
    (
        r#"class F2 { void m() throws Exception {
            javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("AES");
        } }"#,
        r#"class F2 { void m() throws Exception {
            javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("AES/GCM/NoPadding");
        } }"#,
    )
}

// ---------------------------------------------------------------------
// Chaos soak: hostile wire payloads, zero aborts, exact accounting
// ---------------------------------------------------------------------

#[test]
fn soak_chaos_payloads_never_kill_workers_and_accounting_balances() {
    let handle = spawn(test_config(200));
    let addr = handle.addr();

    // Interleave hostile plans with honest traffic from client threads.
    let n_chaos = 48u64;
    let plans: Vec<HttpPlan> = {
        let mut m = HttpMutator::new(0xD1FF).with_pause(Duration::from_millis(20));
        (0..n_chaos).map(|_| m.plan()).collect()
    };
    let mut sent_ok = 0u64;
    std::thread::scope(|scope| {
        for shard in plans.chunks(12) {
            scope.spawn(move || {
                for plan in shard {
                    if let Some(status) = replay(addr, plan) {
                        assert!(
                            (400..=408).contains(&status) || status == 413 || status == 431,
                            "hostile plan {:?} must get a clean 4xx, got {status}",
                            plan.kind,
                        );
                    }
                }
            });
        }
        // Honest requests riding along on the same server.
        let (old, new) = figure2_pair();
        for _ in 0..8 {
            let (status, _, body) = request(addr, "POST", "/mine", &[], &mine_body(old, new));
            assert_eq!(status, 200);
            let verdict = json_body(&body);
            assert_eq!(
                verdict.get("verdict").and_then(Json::as_str),
                Some("mined"),
                "honest traffic mines even under chaos"
            );
            sent_ok += 1;
        }
    });
    let (status, _, _) = request(addr, "GET", "/healthz", &[], b"");
    assert_eq!(status, 200, "server alive after the chaos barrage");
    sent_ok += 1;

    let summary = settle_and_shutdown(handle);
    assert_eq!(
        summary.accepted,
        n_chaos + sent_ok,
        "every connection was accepted and accounted"
    );
    assert_eq!(summary.failed, 0, "hostile *input* is never a 500");
    assert!(summary.completed >= sent_ok);
    // The failure modes were counted by kind.
    let recv_total: u64 = [
        "serve.recv_deadline",
        "serve.recv_head_too_large",
        "serve.recv_body_too_large",
        "serve.recv_malformed",
        "serve.recv_closed",
        "serve.recv_io",
    ]
    .iter()
    .map(|name| summary.recorder.counter(name))
    .sum();
    assert!(
        recv_total > 0,
        "chaos plans must register in the recv-error counters"
    );
}

// ---------------------------------------------------------------------
// Verdict parity + warm cache + /explain
// ---------------------------------------------------------------------

#[test]
fn mine_verdicts_match_one_shot_pipeline_and_warm_cache_hits() {
    let dir = std::env::temp_dir().join(format!("serve_soak_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = spawn(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..test_config(2_000)
    });
    let addr = handle.addr();

    let generated = corpus::generate(&corpus::GeneratorConfig::small(2, 7));
    let pairs: Vec<(String, String)> = generated
        .code_changes()
        .take(6)
        .map(|c| (c.old.to_owned(), c.new.to_owned()))
        .collect();
    assert!(!pairs.is_empty(), "the generator must yield code changes");

    let mut fingerprints = Vec::new();
    for (old, new) in &pairs {
        // One-shot reference verdict: the change mined as a one-change
        // corpus, uncached.
        let expected = diffcode::DiffCode::new().mine(&one_change_corpus(old, new), &[], None);
        let expected_tuples: Vec<String> = expected.changes.iter().map(digest_text).collect();

        let (status, _, body) = request(addr, "POST", "/mine", &[], &mine_body(old, new));
        assert_eq!(status, 200);
        let verdict = json_body(&body);
        let served: Vec<String> = verdict
            .get("tuples")
            .and_then(Json::as_array)
            .expect("tuples array")
            .iter()
            .filter_map(|t| t.as_str().map(ToOwned::to_owned))
            .collect();
        assert_eq!(
            served, expected_tuples,
            "served /mine verdict must be byte-identical to the one-shot pipeline's"
        );
        fingerprints.push(
            verdict
                .get("fingerprint")
                .and_then(Json::as_str)
                .expect("fingerprint")
                .to_owned(),
        );
    }

    // Warm cache: repeating the first pair is a hit under the deadline,
    // with the identical verdict.
    let (old, new) = &pairs[0];
    let started = Instant::now();
    let (status, _, body) = request(addr, "POST", "/mine", &[], &mine_body(old, new));
    assert_eq!(status, 200);
    let warm = json_body(&body);
    assert_eq!(warm.get("cache").and_then(Json::as_str), Some("hit"));
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "a warm hit answers well under the deadline"
    );

    // /explain serves the ring-buffered journal for a fingerprint.
    let fp = &fingerprints[0];
    let (status, _, body) = request(addr, "GET", &format!("/explain/{fp}"), &[], b"");
    assert_eq!(status, 200);
    let explained = json_body(&body);
    let records = explained
        .get("records")
        .and_then(Json::as_array)
        .expect("records");
    assert!(
        records.len() >= 2,
        "cold and warm verdicts are both journaled"
    );
    assert_eq!(records[0].get("cache").and_then(Json::as_str), Some("hit"));
    let (status, _, _) = request(addr, "GET", "/explain/ffffffffffffffff", &[], b"");
    assert_eq!(status, 404);

    let summary = settle_and_shutdown(handle);
    assert!(
        summary.recorder.counter("cache.hit") >= 1,
        "the warm request hit the resident cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Repository walks: served mining equals one-shot mining
// ---------------------------------------------------------------------

/// A scratch directory removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("serve_soak_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cipher_class(name: &str, transformation: &str) -> String {
    format!(
        "class {name} {{ byte[] run(byte[] data) throws Exception {{
            javax.crypto.Cipher c = javax.crypto.Cipher.getInstance(\"{transformation}\");
            return c.doFinal(data);
        }} }}"
    )
}

fn digest_class(name: &str, algorithm: &str) -> String {
    format!(
        "class {name} {{ byte[] hash(byte[] data) throws Exception {{
            java.security.MessageDigest d = java.security.MessageDigest.getInstance(\"{algorithm}\");
            return d.digest(data);
        }} }}"
    )
}

/// Writes a four-commit history at `dir` with fixed identities and
/// dates. Its code changes, in walk order: `A.java` and `B.java` fixed
/// in commit 2, `B.java` broken so it no longer lexes in commit 3, and
/// `A.java` edited again in commit 4.
fn write_history(dir: &std::path::Path) {
    std::fs::create_dir_all(dir).expect("create repo dir");
    let mut tick = 0;
    let mut git = |args: &[&str]| {
        tick += 1;
        let when = format!("2021-01-01T00:{tick:02}:00Z");
        let output = std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .env("GIT_AUTHOR_NAME", "Test Author")
            .env("GIT_AUTHOR_EMAIL", "author@test")
            .env("GIT_COMMITTER_NAME", "Test Committer")
            .env("GIT_COMMITTER_EMAIL", "committer@test")
            .env("GIT_AUTHOR_DATE", &when)
            .env("GIT_COMMITTER_DATE", &when)
            .env("GIT_CONFIG_GLOBAL", "/dev/null")
            .env("GIT_CONFIG_SYSTEM", "/dev/null")
            .output()
            .expect("spawn git");
        assert!(
            output.status.success(),
            "git {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    git(&["init", "-q", "-b", "main", "."]);
    let commits: [(&str, &[(&str, String)]); 4] = [
        (
            "add a cipher and a digest",
            &[
                ("A.java", cipher_class("A", "DES")),
                ("B.java", digest_class("B", "MD5")),
                ("README.md", "# history\n".to_owned()),
            ],
        ),
        (
            "retire DES and MD5",
            &[
                ("A.java", cipher_class("A", "AES/GCM/NoPadding")),
                ("B.java", digest_class("B", "SHA-256")),
            ],
        ),
        (
            "break the digest",
            &[(
                "B.java",
                "class B { String s = \"unterminated; }".to_owned(),
            )],
        ),
        (
            "tune the cipher",
            &[("A.java", cipher_class("A", "AES/CBC/PKCS5Padding"))],
        ),
    ];
    for (message, files) in commits {
        for (path, text) in files {
            std::fs::write(dir.join(path), text).expect("write a file");
        }
        git(&["add", "-A"]);
        git(&["commit", "-q", "--no-gpg-sign", "-m", message]);
    }
}

/// `(fingerprint, verdict, cache)` of each change a `/mine-repo` body
/// lists.
fn walked_changes(body: &Json) -> Vec<(String, String, String)> {
    let field = |change: &Json, key: &str| {
        change
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("change without `{key}`"))
            .to_owned()
    };
    body.get("changes")
        .and_then(Json::as_array)
        .expect("changes array")
        .iter()
        .map(|c| {
            (
                field(c, "fingerprint"),
                field(c, "verdict"),
                field(c, "cache"),
            )
        })
        .collect()
}

#[test]
fn served_repository_walk_equals_one_shot_mining() {
    let root = ScratchDir::new("walk");
    let repo = root.0.join("history");
    write_history(&repo);
    let handle = spawn(ServeConfig {
        cache_dir: Some(root.0.join("cache")),
        repo_root: Some(root.0.clone()),
        ..test_config(10_000)
    });
    let addr = handle.addr();
    let walk = || {
        let (status, _, body) = request(addr, "POST", "/mine-repo", &[], br#"{"repo": "history"}"#);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        json_body(&body)
    };

    // The one-shot reference: the same walk, mined without a cache.
    let opts = gitsrc::IngestOptions {
        limits: gitsrc::IngestLimits::DEFAULT,
        ..gitsrc::IngestOptions::default()
    };
    let report = gitsrc::ingest_repo(&repo, &opts, &mut obs::Recorder::new()).expect("ingest");
    let one_shot = diffcode::DiffCode::new().mine(&report.corpus, &[], None);
    let (mut expected, mut tuples, mut skips) = (Vec::new(), Vec::new(), Vec::new());
    let (mut mined, mut reports) = (one_shot.changes.iter(), one_shot.quarantine.iter());
    for verdict in &one_shot.verdicts {
        let fingerprint = verdict.meta.fingerprint.clone();
        match verdict.outcome {
            Verdict::Mined(n) => {
                expected.push((fingerprint, "mined".to_owned(), "miss".to_owned()));
                tuples.push(mined.by_ref().take(n).map(digest_text).collect());
                skips.push(None);
            }
            Verdict::Quarantined(_) => {
                let r = reports.next().expect("a report per quarantined change");
                expected.push((fingerprint, "quarantined".to_owned(), "miss".to_owned()));
                tuples.push(Vec::new());
                skips.push(Some((
                    r.kind.name().to_owned(),
                    r.error.clone(),
                    r.excerpt.clone(),
                )));
            }
        }
    }
    let walk_order: Vec<String> = report
        .corpus
        .code_changes()
        .map(|c| diffcode::change_fingerprint(c.old, c.new))
        .collect();
    let fingerprints: Vec<String> = expected.iter().map(|(fp, _, _)| fp.clone()).collect();
    assert_eq!(fingerprints, walk_order);
    assert_eq!(expected.len(), 4, "four code changes");
    assert_eq!(one_shot.stats.mined, 3);
    assert_eq!(one_shot.quarantine.len(), 1, "one change fails to lex");
    for (texts, skip) in tuples.iter().zip(&skips) {
        assert_eq!(
            texts.is_empty(),
            skip.is_some(),
            "each mined change has tuples"
        );
    }

    // Cold: every change misses, in the ingester's order, with the
    // one-shot verdict.
    let cold = walk();
    assert_eq!(walked_changes(&cold), expected);
    let count = |key: &str| cold.get(key).and_then(Json::as_num);
    assert_eq!(count("pairs"), Some(4.0));
    assert_eq!(count("mined"), Some(3.0));
    assert_eq!(count("mine_quarantined"), Some(1.0));

    // `/explain` serves each change's one-shot tuples or its skip.
    for (i, (fingerprint, _, _)) in expected.iter().enumerate() {
        let (status, _, body) = request(addr, "GET", &format!("/explain/{fingerprint}"), &[], b"");
        assert_eq!(status, 200);
        let explained = json_body(&body);
        let record = &explained
            .get("records")
            .and_then(Json::as_array)
            .expect("records")[0];
        let served: Vec<String> = record
            .get("tuples")
            .and_then(Json::as_array)
            .expect("tuples")
            .iter()
            .map(|t| t.as_str().expect("tuple text").to_owned())
            .collect();
        assert_eq!(served, tuples[i], "change {i}");
        let skip = record.get("skip").expect("skip");
        let served_skip = skip.get("kind").map(|kind| {
            let text = |v: Option<&Json>| v.and_then(Json::as_str).expect("skip text").to_owned();
            (
                text(Some(kind)),
                text(skip.get("error")),
                text(skip.get("excerpt")),
            )
        });
        assert_eq!(served_skip, skips[i], "change {i}");
    }

    // Warm: every change hits, and the body is otherwise the same.
    let warm = walk();
    let hits: Vec<_> = expected
        .iter()
        .map(|(fp, verdict, _)| (fp.clone(), verdict.clone(), "hit".to_owned()))
        .collect();
    assert_eq!(walked_changes(&warm), hits);
    let without_changes = |body: &Json| match body {
        Json::Obj(fields) => fields
            .iter()
            .filter(|(k, _)| k != "changes")
            .cloned()
            .collect(),
        _ => Vec::new(),
    };
    assert_eq!(without_changes(&warm), without_changes(&cold));

    settle_and_shutdown(handle);
}

/// `/mine-repo` stops mining between changes once its request deadline
/// has passed and answers 408, logged as a `deadline` outcome; the same
/// walk inside its deadline answers 200.
#[test]
fn mine_repo_past_its_deadline_answers_408() {
    let root = ScratchDir::new("walk_deadline");
    write_history(&root.0.join("history"));
    let handle = spawn(ServeConfig {
        repo_root: Some(root.0.clone()),
        ..test_config(1_000)
    });
    let addr = handle.addr();
    let body = br#"{"repo": "history"}"#;
    let late = [("X-Chaos-Sleep-Ms", "1100")];
    let (status, _, reply) = request(addr, "POST", "/mine-repo", &late, body);
    assert_eq!(status, 408, "{}", String::from_utf8_lossy(&reply));
    let (status, _, _) = request(addr, "POST", "/mine-repo", &[], body);
    assert_eq!(status, 200);

    let (status, _, capture) = request(addr, "GET", "/trace/capture", &[], b"");
    assert_eq!(status, 200);
    let capture = json_body(&capture);
    let walks: Vec<(f64, String)> = capture
        .as_array()
        .expect("a trace array")
        .iter()
        .filter_map(|event| event.get("args"))
        .filter(|args| args.get("path").and_then(Json::as_str) == Some("/mine-repo"))
        .map(|args| {
            let status = args.get("status").and_then(Json::as_num).expect("status");
            let outcome = args.get("outcome").and_then(Json::as_str).expect("outcome");
            (status, outcome.to_owned())
        })
        .collect();
    assert_eq!(
        walks,
        [(408.0, "deadline".to_owned()), (200.0, "ok".to_owned())]
    );
    settle_and_shutdown(handle);
}

// ---------------------------------------------------------------------
// Load shedding at the admission watermark
// ---------------------------------------------------------------------

#[test]
fn overload_sheds_with_429_and_retry_after() {
    let handle = spawn(ServeConfig {
        threads: 1,
        queue_depth: 1,
        ..test_config(5_000)
    });
    let addr = handle.addr();

    // Park the single worker on a slow request, then flood: with a
    // queue watermark of 1, most of the flood must shed immediately.
    let slow = std::thread::spawn(move || {
        request(addr, "GET", "/healthz", &[("X-Chaos-Sleep-Ms", "600")], b"")
    });
    std::thread::sleep(Duration::from_millis(150));

    // Send the whole flood before reading any response, so the queue
    // actually fills instead of draining between sequential requests.
    let mut flood: Vec<TcpStream> = Vec::new();
    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        send_request(&mut stream, "GET", "/healthz", &[], b"");
        flood.push(stream);
    }
    let mut shed_seen = 0u64;
    let mut retry_after_seen = false;
    for mut stream in flood {
        if let Some((status, head, _)) = read_response(&mut stream) {
            if status == 429 {
                shed_seen += 1;
                if head.to_ascii_lowercase().contains("retry-after:") {
                    retry_after_seen = true;
                }
            }
        }
    }
    assert!(shed_seen >= 1, "the watermark must shed under overload");
    assert!(retry_after_seen, "shed responses carry Retry-After");
    let (status, _, _) = slow.join().expect("slow client");
    assert_eq!(status, 200, "the slow request itself completes");

    let summary = settle_and_shutdown(handle);
    assert!(summary.shed >= shed_seen);
    assert!(summary.recorder.counter("serve.http_429") >= shed_seen);
}

// ---------------------------------------------------------------------
// Panic isolation: a poisoned request fails alone
// ---------------------------------------------------------------------

#[test]
fn handler_panic_is_a_500_and_the_worker_survives() {
    let handle = spawn(test_config(1_000));
    let addr = handle.addr();

    let (status, _, body) = request(addr, "GET", "/healthz", &[("X-Chaos-Panic", "1")], b"");
    assert_eq!(status, 500);
    let quarantine = json_body(&body);
    assert_eq!(
        quarantine
            .get("quarantine")
            .and_then(|q| q.get("kind"))
            .and_then(Json::as_str),
        Some("panic"),
        "a 500 carries quarantine provenance"
    );

    // The same worker pool keeps serving.
    let (status, _, _) = request(addr, "GET", "/healthz", &[], b"");
    assert_eq!(status, 200);
    let (old, new) = figure2_pair();
    let (status, _, _) = request(addr, "POST", "/mine", &[], &mine_body(old, new));
    assert_eq!(status, 200);

    let summary = settle_and_shutdown(handle);
    assert_eq!(summary.failed, 1, "exactly the panicking request failed");
}

// ---------------------------------------------------------------------
// Graceful drain: shutdown flushes the cache and closes the listener
// ---------------------------------------------------------------------

#[test]
fn shutdown_drains_and_flushes_the_cache_log() {
    let dir = std::env::temp_dir().join(format!("serve_drain_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = spawn(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..test_config(2_000)
    });
    let addr = handle.addr();

    let (status, _, _) = request(addr, "GET", "/readyz", &[], b"");
    assert_eq!(status, 200, "ready while serving");
    let (old, new) = figure2_pair();
    let (status, _, _) = request(addr, "POST", "/mine", &[], &mine_body(old, new));
    assert_eq!(status, 200);

    let summary = settle_and_shutdown(handle);
    assert!(TcpStream::connect(addr).is_err(), "listener closed");

    // The flushed log replays: a fresh cache open sees the entry.
    let cache = diffcode::MiningCache::open(&dir, &[], &diffcode::PipelineLimits::DEFAULT)
        .expect("the drained log must reopen cleanly");
    assert!(
        cache.store().stats().current_entries >= 1,
        "the /mine verdict was flushed to the append log"
    );
    assert!(
        summary.recorder.counter("cache.flushed_entries") >= 1,
        "flush accounting: {summary:?}"
    );
    // The drain's flush and final accounting are capture events too.
    let trace = summary.recorder.trace().expect("the server traces");
    let lifecycle: Vec<&str> = trace
        .events()
        .iter()
        .map(|e| trace.name(e.name))
        .filter(|name| ["serve.cache_flush", "serve.drained"].contains(name))
        .collect();
    assert_eq!(lifecycle, ["serve.cache_flush", "serve.drained"]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Observability: access-log partition, /status percentiles, /trace
// ---------------------------------------------------------------------

/// Every accepted connection produces exactly one structured access
/// record, and the records partition by outcome exactly like the
/// counters do: `accepted = (ok + deadline) + shed + panic`. The
/// capture and the log are two exporters of one event: each
/// `serve.access` capture instant has the access record with its
/// request id, field for field. `/status` serves non-zero latency
/// percentiles per endpoint and `/trace/capture` serves valid
/// Chrome-trace JSON.
#[test]
fn access_log_partitions_and_introspection_endpoints_work() {
    let log_path =
        std::env::temp_dir().join(format!("serve_soak_log_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let handle = spawn(ServeConfig {
        logger: obs::Logger::file(
            &log_path,
            16 * 1024 * 1024,
            obs::LogFormat::Json,
            obs::LogLevel::Info,
        )
        .expect("open the access log"),
        ..test_config(1_000)
    });
    let addr = handle.addr();

    let (old, new) = figure2_pair();
    for _ in 0..3 {
        let (status, _, _) = request(addr, "POST", "/mine", &[], &mine_body(old, new));
        assert_eq!(status, 200);
    }
    let (status, _, _) = request(addr, "GET", "/healthz", &[("X-Chaos-Panic", "1")], b"");
    assert_eq!(status, 500);

    // /status: live accounting plus the per-endpoint percentile table.
    let (status, _, body) = request(addr, "GET", "/status", &[], b"");
    assert_eq!(status, 200);
    let page = json_body(&body);
    assert!(
        matches!(page.get("draining"), Some(Json::Bool(false))),
        "not draining while serving"
    );
    let accepted = page
        .get("requests")
        .and_then(|r| r.get("accepted"))
        .and_then(Json::as_num)
        .expect("requests.accepted");
    assert!(accepted >= 4.0, "status sees the traffic: {accepted}");
    for endpoint in ["all", "mine", "healthz"] {
        let row = page
            .get("endpoints")
            .and_then(|e| e.get(endpoint))
            .unwrap_or_else(|| panic!("endpoints.{endpoint} missing"));
        assert!(
            row.get("count").and_then(Json::as_num).expect("count") >= 1.0,
            "endpoints.{endpoint}.count"
        );
        for key in ["p50_ns", "p90_ns", "p95_ns", "p99_ns", "p999_ns"] {
            let v = row
                .get(key)
                .and_then(Json::as_num)
                .unwrap_or_else(|| panic!("endpoints.{endpoint}.{key} missing"));
            assert!(v > 0.0, "endpoints.{endpoint}.{key} must be non-zero");
        }
    }

    // /trace/capture: a valid Chrome-trace snapshot of recent requests.
    let (status, _, body) = request(addr, "GET", "/trace/capture?events=50", &[], b"");
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&body).expect("UTF-8 trace");
    assert!(
        text.contains("serve.access"),
        "trace names requests: {text}"
    );
    serve::json::parse(text).expect("trace capture is valid JSON");
    let (status, _, _) = request(addr, "GET", "/trace/capture?events=zero", &[], b"");
    assert_eq!(status, 400, "malformed capture query is rejected");

    let summary = settle_and_shutdown(handle);

    // Drain ran Logger::sync, so the file is complete. Every line must
    // be valid JSON with the documented schema, and access records must
    // partition exactly like the counters.
    let text = std::fs::read_to_string(&log_path).expect("log file written");
    let (mut access, mut ok, mut shed, mut deadline, mut panicked) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut boots, mut lifecycle) = (0u64, 0u64);
    let mut by_id = std::collections::BTreeMap::new();
    for line in text.lines() {
        let rec = serve::json::parse(line).expect("every log line is one valid JSON record");
        for key in ["ts_ms", "level", "event"] {
            assert!(rec.get(key).is_some(), "record missing {key}: {line}");
        }
        match rec.get("event").and_then(Json::as_str).expect("event name") {
            "serve.access" => {
                access += 1;
                let id = rec.get("request_id").and_then(Json::as_num).expect("id") as u64;
                assert!(by_id.insert(id, rec.clone()).is_none(), "one record per id");
                for key in [
                    "request_id",
                    "method",
                    "path",
                    "endpoint",
                    "status",
                    "latency_ns",
                    "bytes",
                    "outcome",
                ] {
                    assert!(
                        rec.get(key).is_some(),
                        "access record missing {key}: {line}"
                    );
                }
                match rec.get("outcome").and_then(Json::as_str).expect("outcome") {
                    "ok" => ok += 1,
                    "shed" => shed += 1,
                    "deadline" => deadline += 1,
                    "panic" => panicked += 1,
                    other => panic!("unknown outcome {other}: {line}"),
                }
            }
            "serve.boot" => boots += 1,
            "serve.drain" | "serve.drained" | "serve.cache_flush" => lifecycle += 1,
            _ => {}
        }
    }
    assert_eq!(access, summary.accepted, "one access record per request");
    assert_eq!(ok + deadline, summary.completed, "completed partition");
    assert_eq!(shed, summary.shed, "shed partition");
    assert_eq!(panicked, summary.failed, "failed partition");
    assert_eq!(boots, 1, "exactly one boot event");
    assert!(lifecycle >= 2, "drain + drained events logged");
    assert_eq!(
        summary.recorder.gauge("serve.log_dropped"),
        Some(0.0),
        "nothing overflowed the log queue"
    );

    // The drained capture holds fewer events than its capacity, so it
    // keeps every event: one `serve.access` instant per accepted
    // request, each the same event as its access record.
    let trace = summary.recorder.trace().expect("the server traces");
    let named = |name: &str| {
        trace
            .events()
            .iter()
            .filter(|e| e.kind == obs::TraceKind::Instant && trace.name(e.name) == name)
            .collect::<Vec<_>>()
    };
    let captured = named("serve.access");
    assert_eq!(
        captured.len() as u64,
        summary.accepted,
        "one instant per request"
    );
    for event in captured {
        let number = |key: &str| trace.attr(event, key).and_then(obs::TraceValue::as_u64);
        let id = number("request_id").expect("captured request_id");
        let record = by_id
            .get(&id)
            .unwrap_or_else(|| panic!("no access record for {id}"));
        for key in ["method", "path", "endpoint", "outcome"] {
            assert_eq!(
                trace.attr_str(event, key),
                record.get(key).and_then(Json::as_str),
                "request {id}: {key}"
            );
        }
        for key in ["status", "latency_ns", "bytes"] {
            assert_eq!(
                number(key),
                record.get(key).and_then(Json::as_num).map(|n| n as u64),
                "request {id}: {key}"
            );
        }
    }
    for lifecycle in ["serve.boot", "serve.drain", "serve.drained"] {
        assert_eq!(named(lifecycle).len(), 1, "{lifecycle} captured once");
    }
    let _ = std::fs::remove_file(&log_path);
}

// ---------------------------------------------------------------------
// Property: any interleaving of ok/slow/panicking/oversized requests
// keeps the partition exact and /metrics deterministic
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ok,
    Slow,
    Panicking,
    Oversized,
}

fn kind() -> impl Strategy<Value = Kind> {
    prop_oneof![
        Just(Kind::Ok),
        Just(Kind::Slow),
        Just(Kind::Panicking),
        Just(Kind::Oversized),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn any_interleaving_keeps_accounting_exact(
        kinds in proptest::collection::vec(kind(), 1..10),
    ) {
        let handle = spawn(test_config(1_000));
        let addr = handle.addr();
        let mut expected_failed = 0u64;
        std::thread::scope(|scope| {
            for k in &kinds {
                let k = *k;
                scope.spawn(move || match k {
                    Kind::Ok => {
                        let (old, new) = figure2_pair();
                        let (status, _, _) =
                            request(addr, "POST", "/mine", &[], &mine_body(old, new));
                        assert_eq!(status, 200);
                    }
                    Kind::Slow => {
                        let (status, _, _) = request(
                            addr,
                            "GET",
                            "/healthz",
                            &[("X-Chaos-Sleep-Ms", "40")],
                            b"",
                        );
                        assert_eq!(status, 200);
                    }
                    Kind::Panicking => {
                        let (status, _, _) =
                            request(addr, "GET", "/healthz", &[("X-Chaos-Panic", "1")], b"");
                        assert_eq!(status, 500);
                    }
                    Kind::Oversized => {
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        let head = format!(
                            "POST /mine HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                            64 * 1024 * 1024
                        );
                        stream.write_all(head.as_bytes()).expect("write");
                        let (status, _, _) =
                            read_response(&mut stream).expect("413 must come back");
                        assert_eq!(status, 413);
                    }
                });
                if k == Kind::Panicking {
                    expected_failed += 1;
                }
            }
        });
        let summary = settle_and_shutdown(handle);
        prop_assert_eq!(summary.accepted, kinds.len() as u64);
        prop_assert_eq!(summary.failed, expected_failed);
        prop_assert_eq!(summary.shed, 0, "queue depth 64 never sheds here");
        // /metrics is deterministic: same registry state, same bytes.
        let once = obs::to_prometheus_text(&summary.recorder);
        let again = obs::to_prometheus_text(&summary.recorder);
        prop_assert_eq!(once, again);
    }
}

// ---------------------------------------------------------------------
// Accept latency: connections are taken on readiness, not on a tick
// ---------------------------------------------------------------------

/// Sequential requests on fresh connections, each sent after the
/// previous answer — the shape of a client that does not keep
/// connections alive. An accept loop that sleeps its 5 ms shutdown
/// tick whenever the backlog is empty makes every one of them wait
/// for the next tick (≥ 200 ms for 40); one that blocks on listener
/// readiness answers them in well under a millisecond each.
#[test]
fn fresh_connections_are_accepted_without_waiting_for_a_tick() {
    const REQUESTS: u32 = 40;
    const BUDGET: Duration = Duration::from_millis(100);
    let handle = spawn(test_config(1_000));
    let addr = handle.addr();

    // Best of three rounds, so a test running alongside on a busy
    // machine cannot fail this one; a tick-polled accept loop misses
    // the budget every round.
    let mut rounds = Vec::new();
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        for _ in 0..REQUESTS {
            let (status, _, _) = request(addr, "GET", "/healthz", &[], b"");
            assert_eq!(status, 200);
        }
        rounds.push(started.elapsed());
        if rounds.last().is_some_and(|round| *round < BUDGET) {
            break;
        }
    }
    assert!(
        rounds.iter().any(|round| *round < BUDGET),
        "{REQUESTS} sequential requests on fresh connections took {rounds:?}, \
         not under {BUDGET:?} in any round"
    );

    // Shutting an idle server down is observed within one tick and
    // drains an empty queue: well inside a second.
    std::thread::sleep(Duration::from_millis(20));
    let started = Instant::now();
    let summary = settle_and_shutdown(handle);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "idle shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(summary.accepted, u64::from(REQUESTS) * rounds.len() as u64);
}

// ---------------------------------------------------------------------
// Lock order: /status scrapes racing admissions never deadlock
// ---------------------------------------------------------------------

/// `/status` reads the queue depth and the registry while the accept
/// thread admits connections and sets the queue-depth gauge. If either
/// path took one of those locks while holding the other, the two would
/// deadlock under this load: clients would hit their read timeout, and
/// shutdown could never drain the wedged worker.
#[test]
fn status_scrapes_racing_admissions_drain_exactly() {
    const PER_CLIENT: usize = 3_334;
    let handle = spawn(test_config(2_000));
    let addr = handle.addr();

    std::thread::scope(|scope| {
        for path in ["/status", "/healthz"] {
            for _ in 0..3 {
                scope.spawn(move || {
                    for _ in 0..PER_CLIENT {
                        // `request` reads under a 10 s timeout and
                        // fails the test when no answer comes.
                        let (status, _, _) = request(addr, "GET", path, &[], b"");
                        assert_eq!(status, 200, "GET {path}");
                    }
                });
            }
        }
    });

    // Shutdown on a helper thread, so a wedged drain fails the test
    // instead of hanging it.
    let (done, summary) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = done.send(settle_and_shutdown(handle));
    });
    let summary = summary
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown must drain: a worker is wedged");
    waiter.join().expect("the shutdown thread sent its summary");
    assert_eq!(summary.accepted, 6 * PER_CLIENT as u64);
    assert_eq!(summary.completed, summary.accepted, "{summary:?}");
}

// ---------------------------------------------------------------------
// Compute bombs: the deadline plus one file's budget bounds a request
// ---------------------------------------------------------------------

/// The longest one file of any compute-bomb shape takes the budgeted
/// pipeline, measured in this process — so the bound below holds in a
/// debug build as in a release one.
fn one_file_time() -> Duration {
    let timed = |run: &dyn Fn()| {
        let started = Instant::now();
        run();
        started.elapsed()
    };
    let chain = |calls| {
        move || {
            let err = diffcode::DiffCode::new()
                .analyze_source(&call_chain_bomb(calls, 0))
                .unwrap_err();
            assert_eq!(err.kind(), diffcode::ErrorKind::AnalysisBudget);
        }
    };
    let events = || {
        let corpus = one_change_corpus("class Events {}", &distinct_events(20_000));
        let result = diffcode::DiffCode::new().mine(&corpus, &[], None);
        let outcomes: Vec<_> = result.verdicts.iter().map(|v| v.outcome).collect();
        assert_eq!(
            outcomes,
            [Verdict::Quarantined(diffcode::ErrorKind::DagBudget)],
            "{result:?}"
        );
    };
    timed(&chain(160))
        .max(timed(&chain(80)))
        .max(timed(&events))
}

/// Compute bombs arrive one at a time on one client while another
/// client sends honest `/mine` changes (each with a distinct source)
/// and honest `/check`s. Every bomb must end within the request
/// deadline plus one file's budget (plus a fixed allowance for the
/// transfer and scheduling), honest traffic must keep answering within
/// the deadline, and the access log must partition like the drain
/// summary — a compute overrun is a `deadline` outcome.
#[test]
fn compute_bombs_end_within_deadline_plus_one_file_budget() {
    const DEADLINE: Duration = Duration::from_millis(500);
    const ALLOWANCE: Duration = Duration::from_millis(500);
    let one_file = one_file_time();
    let bound = DEADLINE + one_file + ALLOWANCE;

    let log_path =
        std::env::temp_dir().join(format!("serve_bomb_log_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let handle = spawn(ServeConfig {
        logger: obs::Logger::file(
            &log_path,
            16 * 1024 * 1024,
            obs::LogFormat::Json,
            obs::LogLevel::Info,
        )
        .expect("open the access log"),
        ..test_config(DEADLINE.as_millis() as u64)
    });
    let addr = handle.addr();

    let (bomb_statuses, honest) = std::thread::scope(|scope| {
        let bombs = scope.spawn(move || {
            let mut m = HttpMutator::new(0xB0B);
            let mut statuses = Vec::new();
            for kind in [
                HttpFaultKind::CallChainBomb,
                HttpFaultKind::DistinctEvents,
                HttpFaultKind::MultiFileCheck,
            ] {
                let plan = m.plan_for(kind);
                let started = Instant::now();
                let status = replay(addr, &plan);
                let took = started.elapsed();
                assert!(
                    took <= bound,
                    "{kind:?} took {took:?}: over the deadline {DEADLINE:?} plus one \
                     file's {one_file:?} (and {ALLOWANCE:?})"
                );
                statuses.push((kind, status));
            }
            statuses
        });
        let mut m = HttpMutator::new(0x0E57);
        let check_body = Json::Obj(vec![(
            "source".to_owned(),
            Json::Str(figure2_pair().0.to_owned()),
        )])
        .render();
        let mut honest = 0u64;
        while !bombs.is_finished() || honest < 4 {
            let started = Instant::now();
            let plan = m.plan_for(HttpFaultKind::HonestFlood);
            assert_eq!(replay(addr, &plan), Some(200), "honest /mine");
            let (status, _, body) = request(addr, "POST", "/check", &[], check_body.as_bytes());
            assert_eq!(status, 200, "honest /check");
            assert_eq!(
                json_body(&body).get("unanalyzed").and_then(Json::as_num),
                Some(0.0)
            );
            let took = started.elapsed();
            assert!(
                took < DEADLINE,
                "honest traffic answers while bombs arrive: {took:?}"
            );
            honest += 2;
        }
        (bombs.join().expect("bomb client"), honest)
    });
    assert_eq!(
        bomb_statuses,
        vec![
            (HttpFaultKind::CallChainBomb, Some(200)),
            (HttpFaultKind::DistinctEvents, Some(200)),
            (HttpFaultKind::MultiFileCheck, Some(408)),
        ],
        "one bomb file is answered; twenty overrun the request deadline"
    );

    let summary = settle_and_shutdown(handle);
    assert_eq!(summary.accepted, 3 + honest);
    assert_eq!(summary.failed, 0);
    assert_eq!(
        summary.recorder.counter("analyze.cache_hit"),
        0,
        "distinct honest sources never hit the analysis memo"
    );
    let text = std::fs::read_to_string(&log_path).expect("log file written");
    let mut outcomes = std::collections::BTreeMap::new();
    for line in text.lines() {
        let rec = serve::json::parse(line).expect("one JSON record per line");
        if rec.get("event").and_then(Json::as_str) == Some("serve.access") {
            let outcome = rec.get("outcome").and_then(Json::as_str).expect("outcome");
            *outcomes.entry(outcome.to_owned()).or_insert(0u64) += 1;
        }
    }
    let count = |outcome: &str| outcomes.get(outcome).copied().unwrap_or(0);
    assert_eq!(count("deadline"), 1, "the overrun is a deadline outcome");
    assert_eq!(count("ok") + count("deadline"), summary.completed);
    assert_eq!(count("shed"), summary.shed);
    assert_eq!(count("panic"), summary.failed);
    assert_eq!(outcomes.values().sum::<u64>(), summary.accepted);
    let _ = std::fs::remove_file(&log_path);
}
