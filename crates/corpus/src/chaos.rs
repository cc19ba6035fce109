//! Seeded fault injection for robustness testing.
//!
//! The mining pipeline claims to be *total* — no input aborts it, only
//! skip-and-account. This module provides the adversarial inputs that
//! back the claim: a deterministic [`Mutator`] that corrupts a fraction
//! of a corpus's code changes with the classic fuzzer products
//! (truncation, byte flips, unbalanced braces, pathological nesting,
//! oversized tokens) plus an optional panic-injection marker, and
//! returns a [`FaultLog`] identifying exactly which changes were
//! touched — so a chaos test can assert that every *untouched* change
//! mines byte-identically to a fault-free run.
//!
//! For the resident server there is a second adversary: [`HttpMutator`]
//! emits deterministic *wire-level* fault plans ([`HttpPlan`]) — a
//! sequence of send/pause/close steps that a soak test replays over a
//! real socket to model truncated requests, oversized headers, lying
//! `Content-Length`s, slowloris drips, and raw garbage. Its compute
//! plans, which only [`HttpMutator::plan_for`] produces, are
//! well-formed requests whose sources are cheap to send and expensive
//! to analyze: the call-chain bomb ([`call_chain_bomb`]), one object
//! with thousands of distinct events ([`distinct_events`]), a
//! multi-file `/check` of distinct bombs, and a flood of distinct
//! honest sources that no memo can answer.

use crate::model::Corpus;
use obs::json::write_str;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Duration;

/// The kinds of corruption the mutator injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Cut the source off mid-token (simulates interrupted fetches).
    Truncate,
    /// Overwrite a handful of characters with ASCII garbage.
    ByteFlips,
    /// Append opening braces that never close.
    UnbalancedBraces,
    /// Splice in an expression nested thousands of parentheses deep —
    /// a stack-overflow trap for recursive parsers.
    DeepNesting,
    /// Splice in a single token far beyond any sane length — an
    /// allocation trap for lexers.
    HugeToken,
    /// Splice in the panic marker honored by the pipeline's
    /// fault-injection hook (`DIFFCODE_CHAOS_PANIC_MARKER`).
    PanicMarker,
}

/// One injected fault, keyed by the (project, commit, path) identity of
/// the code change it corrupted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// `user/project` of the touched change.
    pub project: String,
    /// Commit id of the touched change.
    pub commit: String,
    /// File path of the touched change.
    pub path: String,
    /// What was injected.
    pub kind: FaultKind,
    /// Which side was corrupted (`true` = the new version).
    pub new_side: bool,
}

/// Everything a chaos test needs to reason about an injection run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// All injected faults, in corpus order.
    pub faults: Vec<InjectedFault>,
    /// Code changes inspected (faulted or not).
    pub code_changes: usize,
}

impl FaultLog {
    /// `true` if the code change identified by (`project`, `commit`,
    /// `path`) was corrupted.
    pub fn touched(&self, project: &str, commit: &str, path: &str) -> bool {
        self.faults
            .iter()
            .any(|f| f.project == project && f.commit == commit && f.path == path)
    }
}

/// A deterministic, seeded corpus corruptor.
#[derive(Debug)]
pub struct Mutator {
    rng: StdRng,
    rate: f64,
    panic_marker: Option<String>,
}

impl Mutator {
    /// A mutator that corrupts each code change with probability
    /// `rate` (clamped to `[0, 1]`), deterministically from `seed`.
    pub fn new(seed: u64, rate: f64) -> Self {
        Mutator {
            rng: StdRng::seed_from_u64(seed),
            rate: rate.clamp(0.0, 1.0),
            panic_marker: None,
        }
    }

    /// Enables [`FaultKind::PanicMarker`] faults carrying `marker`.
    /// Without this, the mutator never injects panics (so accounting
    /// tests see only input-shaped faults).
    pub fn with_panic_marker(mut self, marker: impl Into<String>) -> Self {
        self.panic_marker = Some(marker.into());
        self
    }

    /// Corrupts ~`rate` of the corpus's code changes in place and
    /// returns the log of what was touched. Only changes with both an
    /// old and a new side are candidates (matching what mining
    /// processes); additions and deletions are left alone.
    pub fn inject(&mut self, corpus: &mut Corpus) -> FaultLog {
        let mut log = FaultLog::default();
        for project in &mut corpus.projects {
            let full_name = format!("{}/{}", project.user, project.name);
            for commit in &mut project.commits {
                for change in &mut commit.changes {
                    let (Some(old), Some(new)) = (&change.old, &change.new) else {
                        continue;
                    };
                    log.code_changes += 1;
                    if !self.rng.random_bool(self.rate) {
                        continue;
                    }
                    let new_side = self.rng.random_bool(0.7);
                    let victim = if new_side { new } else { old };
                    let (mutated, kind) = self.corrupt(victim);
                    if new_side {
                        change.new = Some(mutated);
                    } else {
                        change.old = Some(mutated);
                    }
                    log.faults.push(InjectedFault {
                        project: full_name.clone(),
                        commit: commit.id.clone(),
                        path: change.path.clone(),
                        kind,
                        new_side,
                    });
                }
            }
        }
        log
    }

    /// Applies one randomly chosen corruption to `source`.
    fn corrupt(&mut self, source: &str) -> (String, FaultKind) {
        let n_kinds = if self.panic_marker.is_some() { 6 } else { 5 };
        match self.rng.random_range(0..n_kinds) {
            0 => (self.truncate(source), FaultKind::Truncate),
            1 => (self.byte_flips(source), FaultKind::ByteFlips),
            2 => (self.unbalanced_braces(source), FaultKind::UnbalancedBraces),
            3 => (self.deep_nesting(), FaultKind::DeepNesting),
            4 => (self.huge_token(), FaultKind::HugeToken),
            _ => (self.panic_marker(source), FaultKind::PanicMarker),
        }
    }

    fn truncate(&mut self, source: &str) -> String {
        if source.is_empty() {
            return String::new();
        }
        let cut = self.rng.random_range(0..source.len());
        // Snap to a char boundary so the result stays valid UTF-8 —
        // we model interrupted transfers of text, not encoding errors.
        let cut = (0..=cut)
            .rev()
            .find(|i| source.is_char_boundary(*i))
            .unwrap_or(0);
        source[..cut].to_owned()
    }

    fn byte_flips(&mut self, source: &str) -> String {
        const GARBAGE: &[char] = &['\u{1}', '\u{7f}', '`', '\\', '"', '\'', '#', '$', '\u{b}'];
        let mut chars: Vec<char> = source.chars().collect();
        if chars.is_empty() {
            return "\u{1}\u{1}".to_owned();
        }
        let flips = 1 + self.rng.random_range(0..8usize);
        for _ in 0..flips {
            let at = self.rng.random_range(0..chars.len());
            let with = GARBAGE[self.rng.random_range(0..GARBAGE.len())];
            chars[at] = with;
        }
        chars.into_iter().collect()
    }

    fn unbalanced_braces(&mut self, source: &str) -> String {
        let n = 1 + self.rng.random_range(0..64usize);
        let mut out = String::with_capacity(source.len() + n);
        if self.rng.random_bool(0.5) {
            out.extend(std::iter::repeat_n('}', n));
            out.push_str(source);
        } else {
            out.push_str(source);
            out.extend(std::iter::repeat_n('{', n));
        }
        out
    }

    fn deep_nesting(&mut self) -> String {
        let depth = 10_000 + self.rng.random_range(0..2_000usize);
        let mut out = String::with_capacity(2 * depth + 64);
        out.push_str("class Chaos { int x = ");
        out.extend(std::iter::repeat_n('(', depth));
        out.push('1');
        out.extend(std::iter::repeat_n(')', depth));
        out.push_str("; }");
        out
    }

    fn huge_token(&mut self) -> String {
        // Half the time a megabyte-plus token (trips the source-size
        // budget), half the time ~128 KiB (fits the source budget but
        // trips the per-token budget).
        let len = if self.rng.random_bool(0.5) {
            1 << 21
        } else {
            1 << 17
        };
        let mut out = String::with_capacity(len + 64);
        out.push_str("class Chaos { int ");
        out.extend(std::iter::repeat_n('a', len));
        out.push_str(" = 1; }");
        out
    }

    fn panic_marker(&mut self, source: &str) -> String {
        let marker = self.panic_marker.as_deref().unwrap_or("");
        format!("{source}\n/* {marker} */\n")
    }
}

/// The kinds of wire-level abuse [`HttpMutator`] plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HttpFaultKind {
    /// A request line cut off mid-token, then the socket closes.
    TruncatedRequestLine,
    /// A header block far beyond any sane cap (a memory trap for
    /// servers that buffer headers unboundedly).
    OversizedHeaders,
    /// A `Content-Length` that is not a number at all.
    BogusContentLength,
    /// A `Content-Length` promising more bytes than are ever sent,
    /// then the socket closes (a hang trap for blocking reads).
    ShortBody,
    /// A well-formed request delivered one byte at a time with long
    /// pauses — the classic slowloris slow-drip.
    Slowloris,
    /// Bytes that are not HTTP at all.
    Garbage,
    /// An honest `Content-Length` that exceeds any sane body cap.
    HugeBody,
    /// `POST /check` of one 160-call [`call_chain_bomb`]: a 2 KB source
    /// whose unbudgeted analysis grows with the cube of the call count.
    CallChainBomb,
    /// `POST /mine` adding a [`distinct_events`] file with 20 000 calls
    /// on one object: cheap per event, quadratic if de-duplication
    /// scans.
    DistinctEvents,
    /// `POST /check` of 20 distinct 80-call bombs in one body: each
    /// file fits its own budget, the request must still meet its
    /// deadline.
    MultiFileCheck,
    /// `POST /mine` of a small honest change with a seeded, distinct
    /// constant, so no analysis memo or cache entry answers it.
    HonestFlood,
}

/// One class whose methods `a` → `b` → `d` → `e` each call the next one
/// `calls` times. The analyzer inlines every one of those calls, so an
/// unbudgeted analysis of method `a` executes `e` `calls³` times; `e`
/// uses `Cipher` in a way that violates rules R5 and R7. `tag` names the
/// class, so distinct tags give distinct sources.
pub fn call_chain_bomb(calls: usize, tag: u64) -> String {
    let body = |callee: &str| format!("{callee}();").repeat(calls);
    format!(
        "class Bomb{tag} {{\n    void a() {{ {} }}\n    void b() {{ {} }}\n    void d() {{ {} }}\n    \
         void e() throws Exception {{ javax.crypto.Cipher c = \
         javax.crypto.Cipher.getInstance(\"AES\", \"SunJCE\"); }}\n}}\n",
        body("b"),
        body("d"),
        body("e"),
    )
}

/// One method that calls `c.init(i)` on one `Cipher` for every `i` in
/// `0..calls`: `calls` distinct usage events on a single object.
pub fn distinct_events(calls: usize) -> String {
    let mut out = String::from(
        "class Events {\n    void m() throws Exception {\n        \
         javax.crypto.Cipher c = javax.crypto.Cipher.getInstance(\"AES\");\n",
    );
    for i in 0..calls {
        out.push_str(&format!("c.init({i});\n"));
    }
    out.push_str("    }\n}\n");
    out
}

/// A complete `POST` request with a JSON body, followed by a close.
fn post(path: &str, body: &str) -> Vec<HttpStep> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    vec![HttpStep::Send(req), HttpStep::Close]
}

/// One step of a wire-level fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpStep {
    /// Write these bytes to the socket.
    Send(Vec<u8>),
    /// Sleep before the next step (keeps the connection open, idle).
    Pause(Duration),
    /// Shut down the write half and stop sending.
    Close,
}

/// A deterministic sequence of socket operations modelling one
/// malformed client. The server under test must answer every plan with
/// a clean 4xx or a timeout — never a hung worker or an abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpPlan {
    /// What this plan models.
    pub kind: HttpFaultKind,
    /// The steps to replay, in order.
    pub steps: Vec<HttpStep>,
}

/// A deterministic, seeded generator of malformed-HTTP client plans.
#[derive(Debug)]
pub struct HttpMutator {
    rng: StdRng,
    pause: Duration,
}

impl HttpMutator {
    /// A mutator seeded with `seed`. Slowloris pauses default to 50 ms
    /// — long enough to trip a test-tuned read deadline, short enough
    /// to keep a soak run fast.
    pub fn new(seed: u64) -> Self {
        HttpMutator {
            rng: StdRng::seed_from_u64(seed),
            pause: Duration::from_millis(50),
        }
    }

    /// Overrides the pause used between slow-drip sends.
    pub fn with_pause(mut self, pause: Duration) -> Self {
        self.pause = pause;
        self
    }

    /// Produces the next wire-level fault plan. Successive calls cycle
    /// through the seven wire-level kinds in a seed-determined order
    /// with seed-determined parameters (lengths, cut points).
    pub fn plan(&mut self) -> HttpPlan {
        let kind = match self.rng.random_range(0..7u32) {
            0 => HttpFaultKind::TruncatedRequestLine,
            1 => HttpFaultKind::OversizedHeaders,
            2 => HttpFaultKind::BogusContentLength,
            3 => HttpFaultKind::ShortBody,
            4 => HttpFaultKind::Slowloris,
            5 => HttpFaultKind::Garbage,
            _ => HttpFaultKind::HugeBody,
        };
        self.plan_for(kind)
    }

    /// Produces a plan of a specific kind (parameters still seeded).
    pub fn plan_for(&mut self, kind: HttpFaultKind) -> HttpPlan {
        let steps = match kind {
            HttpFaultKind::TruncatedRequestLine => {
                let line = b"POST /mine HTTP/1.1\r\n";
                let cut = 1 + self.rng.random_range(0..line.len() - 1);
                vec![HttpStep::Send(line[..cut].to_vec()), HttpStep::Close]
            }
            HttpFaultKind::OversizedHeaders => {
                let mut req = b"GET /healthz HTTP/1.1\r\n".to_vec();
                let n = 256 + self.rng.random_range(0..64usize);
                for i in 0..n {
                    req.extend_from_slice(format!("X-Pad-{i}: ").as_bytes());
                    req.extend(std::iter::repeat_n(b'a', 512));
                    req.extend_from_slice(b"\r\n");
                }
                req.extend_from_slice(b"\r\n");
                vec![HttpStep::Send(req), HttpStep::Close]
            }
            HttpFaultKind::BogusContentLength => {
                let req = b"POST /mine HTTP/1.1\r\ncontent-length: banana\r\n\r\n".to_vec();
                vec![HttpStep::Send(req), HttpStep::Close]
            }
            HttpFaultKind::ShortBody => {
                let promised = 4_096 + self.rng.random_range(0..4_096usize);
                let sent = self.rng.random_range(0..64usize);
                let mut req = format!("POST /check HTTP/1.1\r\ncontent-length: {promised}\r\n\r\n")
                    .into_bytes();
                req.extend(std::iter::repeat_n(b'{', sent));
                vec![HttpStep::Send(req), HttpStep::Close]
            }
            HttpFaultKind::Slowloris => {
                let req = b"GET /metrics HTTP/1.1\r\n";
                let mut steps = Vec::with_capacity(2 * req.len());
                for byte in req {
                    steps.push(HttpStep::Send(vec![*byte]));
                    steps.push(HttpStep::Pause(self.pause));
                }
                // Never send the terminating blank line: the server's
                // read deadline has to cut the connection, not EOF.
                steps
            }
            HttpFaultKind::Garbage => {
                let n = 1 + self.rng.random_range(0..512usize);
                let bytes: Vec<u8> = (0..n).map(|_| self.rng.random_range(0..=255u8)).collect();
                vec![HttpStep::Send(bytes), HttpStep::Close]
            }
            HttpFaultKind::HugeBody => {
                let promised = 1 << 26; // 64 MiB: past any sane body cap.
                let req = format!("POST /mine HTTP/1.1\r\ncontent-length: {promised}\r\n\r\n")
                    .into_bytes();
                // Start sending the body so the server sees an honest
                // (if doomed) client, then give up.
                let chunk = vec![b'x'; 1_024];
                vec![HttpStep::Send(req), HttpStep::Send(chunk), HttpStep::Close]
            }
            HttpFaultKind::CallChainBomb => {
                let mut body = "{\"source\":".to_owned();
                write_str(&mut body, &call_chain_bomb(160, self.rng.random()));
                body.push('}');
                post("/check", &body)
            }
            HttpFaultKind::DistinctEvents => {
                let mut body = "{\"old\":\"class Events {}\",\"new\":".to_owned();
                write_str(&mut body, &distinct_events(20_000));
                body.push('}');
                post("/mine", &body)
            }
            HttpFaultKind::MultiFileCheck => {
                let first: u64 = self.rng.random();
                let mut body = "{\"files\":[".to_owned();
                for i in 0..20u64 {
                    let tag = first.wrapping_add(i);
                    if i > 0 {
                        body.push(',');
                    }
                    let _ = write!(body, "{{\"name\":\"Bomb{tag}.java\",\"source\":");
                    write_str(&mut body, &call_chain_bomb(80, tag));
                    body.push('}');
                }
                body.push_str("]}");
                post("/check", &body)
            }
            HttpFaultKind::HonestFlood => {
                let salt: u64 = self.rng.random();
                let version = |algorithm: &str| {
                    format!(
                        "class Honest {{ long salt = {salt}L; void m() throws Exception {{ \
                         javax.crypto.Cipher c = javax.crypto.Cipher.getInstance(\"{algorithm}\"); }} }}"
                    )
                };
                let mut body = "{\"old\":".to_owned();
                write_str(&mut body, &version("AES"));
                body.push_str(",\"new\":");
                write_str(&mut body, &version("AES/GCM/NoPadding"));
                body.push('}');
                post("/mine", &body)
            }
        };
        HttpPlan { kind, steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig};

    impl HttpFaultKind {
        /// Stable machine-readable name.
        fn name(&self) -> &'static str {
            match self {
                HttpFaultKind::TruncatedRequestLine => "truncated-request-line",
                HttpFaultKind::OversizedHeaders => "oversized-headers",
                HttpFaultKind::BogusContentLength => "bogus-content-length",
                HttpFaultKind::ShortBody => "short-body",
                HttpFaultKind::Slowloris => "slowloris",
                HttpFaultKind::Garbage => "garbage",
                HttpFaultKind::HugeBody => "huge-body",
                HttpFaultKind::CallChainBomb => "call-chain-bomb",
                HttpFaultKind::DistinctEvents => "distinct-events",
                HttpFaultKind::MultiFileCheck => "multi-file-check",
                HttpFaultKind::HonestFlood => "honest-flood",
            }
        }
    }

    #[test]
    fn injection_is_deterministic() {
        let pristine = generate(&GeneratorConfig::small(4, 9));
        let mut a = pristine.clone();
        let mut b = pristine.clone();
        let log_a = Mutator::new(42, 0.4).inject(&mut a);
        let log_b = Mutator::new(42, 0.4).inject(&mut b);
        assert_eq!(a, b);
        assert_eq!(log_a, log_b);
        assert!(!log_a.faults.is_empty());
        assert_ne!(a, pristine, "faults must actually corrupt something");
    }

    #[test]
    fn rate_controls_fault_volume() {
        let mut corpus = generate(&GeneratorConfig::small(4, 9));
        let none = Mutator::new(1, 0.0).inject(&mut corpus.clone());
        assert!(none.faults.is_empty());
        let all = Mutator::new(1, 1.0).inject(&mut corpus);
        assert_eq!(all.faults.len(), all.code_changes);
    }

    #[test]
    fn untouched_changes_keep_their_bytes() {
        let pristine = generate(&GeneratorConfig::small(4, 9));
        let mut faulted = pristine.clone();
        let log = Mutator::new(7, 0.5).inject(&mut faulted);
        for (p_old, p_new) in pristine.projects.iter().zip(&faulted.projects) {
            for (c_old, c_new) in p_old.commits.iter().zip(&p_new.commits) {
                for (ch_old, ch_new) in c_old.changes.iter().zip(&c_new.changes) {
                    if !log.touched(&p_old.full_name(), &c_old.id, &ch_old.path) {
                        assert_eq!(ch_old, ch_new);
                    }
                }
            }
        }
    }

    #[test]
    fn panic_marker_requires_opt_in() {
        let mut corpus = generate(&GeneratorConfig::small(4, 9));
        let log = Mutator::new(3, 1.0).inject(&mut corpus);
        assert!(
            log.faults.iter().all(|f| f.kind != FaultKind::PanicMarker),
            "no panic faults without with_panic_marker"
        );
        let mut corpus2 = generate(&GeneratorConfig::small(4, 9));
        let log2 = Mutator::new(3, 1.0)
            .with_panic_marker("@@CHAOS@@")
            .inject(&mut corpus2);
        assert!(log2.faults.iter().any(|f| f.kind == FaultKind::PanicMarker));
    }

    #[test]
    fn http_plans_are_deterministic_and_cover_all_kinds() {
        let plans_a: Vec<HttpPlan> = {
            let mut m = HttpMutator::new(99);
            (0..64).map(|_| m.plan()).collect()
        };
        let plans_b: Vec<HttpPlan> = {
            let mut m = HttpMutator::new(99);
            (0..64).map(|_| m.plan()).collect()
        };
        assert_eq!(plans_a, plans_b, "same seed, same plans");
        let mut kinds: Vec<&str> = plans_a.iter().map(|p| p.kind.name()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 7, "64 draws should hit all 7 kinds");
    }

    #[test]
    fn http_plan_shapes_match_their_kinds() {
        let mut m = HttpMutator::new(5).with_pause(Duration::from_millis(1));
        let trunc = m.plan_for(HttpFaultKind::TruncatedRequestLine);
        let HttpStep::Send(bytes) = &trunc.steps[0] else {
            panic!("truncated plan starts with a send");
        };
        assert!(bytes.len() < b"POST /mine HTTP/1.1\r\n".len());
        assert_eq!(trunc.steps.last(), Some(&HttpStep::Close));

        let slow = m.plan_for(HttpFaultKind::Slowloris);
        assert!(
            slow.steps
                .iter()
                .any(|s| matches!(s, HttpStep::Pause(p) if *p == Duration::from_millis(1))),
            "slowloris drips with the configured pause"
        );
        assert_ne!(
            slow.steps.last(),
            Some(&HttpStep::Close),
            "slowloris never hangs up; the server must"
        );

        let huge = m.plan_for(HttpFaultKind::HugeBody);
        let HttpStep::Send(head) = &huge.steps[0] else {
            panic!("huge-body plan starts with a send");
        };
        let head = String::from_utf8_lossy(head);
        assert!(head.contains(&format!("content-length: {}", 1 << 26)));
    }

    #[test]
    fn compute_plans_are_well_formed_posts() {
        let mut m = HttpMutator::new(8);
        for kind in [
            HttpFaultKind::CallChainBomb,
            HttpFaultKind::DistinctEvents,
            HttpFaultKind::MultiFileCheck,
            HttpFaultKind::HonestFlood,
        ] {
            let plan = m.plan_for(kind);
            let HttpStep::Send(req) = &plan.steps[0] else {
                panic!("{kind:?} starts with a send");
            };
            let req = std::str::from_utf8(req).expect("UTF-8 request");
            let (head, body) = req.split_once("\r\n\r\n").expect("head and body");
            assert!(head.starts_with("POST /"), "{head}");
            assert!(head.ends_with(&format!("content-length: {}", body.len())));
            assert!(body.starts_with('{') && body.ends_with('}'), "{kind:?}");
            assert_eq!(plan.steps.last(), Some(&HttpStep::Close));
        }
        let honest_a = m.plan_for(HttpFaultKind::HonestFlood);
        let honest_b = m.plan_for(HttpFaultKind::HonestFlood);
        assert_ne!(honest_a, honest_b, "every honest request is distinct");
    }

    #[test]
    fn bomb_sources_have_their_documented_shape() {
        let bomb = call_chain_bomb(160, 3);
        assert!(bomb.starts_with("class Bomb3 {"));
        assert_eq!(bomb.matches("e();").count(), 160);
        assert!(bomb.len() < 2_200, "{} bytes", bomb.len());
        let events = distinct_events(37_000);
        assert_eq!(events.matches("c.init(").count(), 37_000);
        assert!(events.len() < 1 << 20, "inside the parser's source cap");
        let mut quoted = String::new();
        write_str(&mut quoted, "a\"b\\c\n\u{1}");
        assert_eq!(quoted, "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn mutations_stay_valid_utf8_strings() {
        // String construction already guarantees UTF-8; this pins the
        // shapes: truncation shortens, braces lengthen, nesting and
        // token bombs are big.
        let mut m = Mutator::new(11, 1.0);
        let src = "class A { String s = \"héllo\"; }";
        assert!(m.truncate(src).len() <= src.len());
        assert!(m.unbalanced_braces(src).len() > src.len());
        assert!(m.deep_nesting().len() > 20_000);
        assert!(m.huge_token().len() > (1 << 17));
    }
}
