//! The resident server: listener, bounded admission queue, fixed
//! worker pool, per-request panic isolation, and graceful drain.
//!
//! Life of a connection:
//!
//! 1. The accept loop counts it `serve.accepted`, then either enqueues
//!    it or — past the queue watermark — sheds it on the spot with
//!    `429` + `Retry-After` (`serve.shed`). The listener is nonblocking
//!    and the loop is readiness-driven: between bursts the accept
//!    thread blocks in `poll(2)` until a connection is pending or one
//!    5 ms tick passes, so a new connection is taken at once and
//!    shutdown is still observed within one tick. (Non-Unix targets
//!    sleep the tick instead.)
//! 2. A worker pops it, reads the request under the per-request
//!    deadline ([`crate::http`]), and dispatches
//!    ([`crate::handlers`]) under the same deadline inside
//!    `catch_unwind`: a handler panic
//!    becomes a `500` with quarantine-style provenance and counts
//!    `serve.failed`; the worker survives. Everything else — including
//!    clean `4xx` rejections of malformed input — counts
//!    `serve.completed`.
//! 3. On shutdown (SIGINT/SIGTERM via [`diffcode::shutdown`], or a
//!    programmatic stop flag) the listener closes, queued connections
//!    drain under the drain deadline (whatever the deadline catches
//!    still queued is shed with `503`), the mining cache flushes its
//!    append log, and the counters are returned as a [`ServeSummary`].
//!
//! The accounting partition `accepted = completed + shed + failed`
//! holds exactly whenever the server is idle or stopped — it is checked
//! by the soak harness and rendered by `GET /metrics`.

use crate::handlers;
use crate::http::{self, HttpCaps, Response};
use crate::ring::ExplainRing;
use diffcode::quarantine::PipelineLimits;
use diffcode::MiningCache;
use obs::{AttrSet, LogLevel, Logger, Recorder};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Everything `diffcode serve` can tune.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads handling requests.
    pub threads: usize,
    /// Mining-cache directory; `None` serves without a cache.
    pub cache_dir: Option<PathBuf>,
    /// Directory of cloned repositories `POST /mine-repo` may walk;
    /// `None` (the default) disables the endpoint entirely. Requests
    /// name a repository relative to this root and can never escape it.
    pub repo_root: Option<PathBuf>,
    /// Per-request deadline, milliseconds. It bounds reading the
    /// request and, for `/check`, the compute: the check stops before
    /// its next file once the deadline has passed and answers 408.
    pub deadline_ms: u64,
    /// Admission-queue watermark: connections beyond this are shed.
    pub queue_depth: usize,
    /// Drain deadline at shutdown, milliseconds.
    pub drain_ms: u64,
    /// `/explain` ring capacity.
    pub ring_capacity: usize,
    /// HTTP size caps.
    pub caps: HttpCaps,
    /// Honors the `X-Chaos-Sleep-Ms` / `X-Chaos-Panic` test headers.
    /// Off in production; the soak harness turns it on.
    pub chaos_hooks: bool,
    /// The structured logger every request and lifecycle event goes
    /// through. Cloning shares the underlying writer, so the binary can
    /// keep a handle for its own boot/drain events. Disabled by default
    /// (library embedders opt in); the `diffcode-serve` binary enables
    /// a stderr JSON logger unless told otherwise.
    pub logger: Logger,
    /// How many trace events `GET /trace/capture` retains (oldest
    /// evicted first). The capture sink records one instant per
    /// finished request plus lifecycle markers, so memory stays
    /// bounded no matter how long the server runs.
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8091".to_owned(),
            threads: 4,
            cache_dir: None,
            repo_root: None,
            deadline_ms: 2_000,
            queue_depth: 64,
            drain_ms: 5_000,
            ring_capacity: 256,
            caps: HttpCaps::DEFAULT,
            chaos_hooks: false,
            logger: Logger::disabled(),
            trace_capacity: 2_048,
        }
    }
}

/// Final accounting returned when the server stops.
#[derive(Debug)]
pub struct ServeSummary {
    /// Connections accepted.
    pub accepted: u64,
    /// Requests answered (2xx and clean 4xx alike).
    pub completed: u64,
    /// Requests shed (429 at the watermark, 503 at drain).
    pub shed: u64,
    /// Requests failed (500: handler panic or internal error).
    pub failed: u64,
    /// Cache entries flushed over the server's lifetime (per-request
    /// flushes plus the final drain flush).
    pub flushed_entries: u64,
    /// The server's final recorder: every counter, gauge and latency
    /// histogram, plus the `/trace/capture` events.
    pub recorder: Recorder,
}

impl Default for ServeSummary {
    fn default() -> Self {
        ServeSummary {
            accepted: 0,
            completed: 0,
            shed: 0,
            failed: 0,
            flushed_entries: 0,
            recorder: Recorder::new(),
        }
    }
}

/// State shared by the accept loop, the workers, and the handlers.
///
/// **Lock order.** `queue`, `recorder`, `ring` and `drain_deadline`
/// are leaf locks: no path takes any other lock while holding one of
/// them. Read what you need under one lock, drop it, then take the
/// next — e.g. `GET /status` reads [`Shared::queue_len`] *before*
/// entering [`Shared::with_recorder`], and admission sets the
/// `serve.queue_depth` gauge only after the queue guard is dropped.
/// Two paths that take `queue` and `recorder` in opposite orders
/// deadlock under load, and the wedged recorder then stalls every
/// worker and the drain. Only the `cache` lock is held across other
/// locks, and it is always taken first.
pub(crate) struct Shared {
    /// The server configuration.
    pub config: ServeConfig,
    /// The single recorder: the metrics behind `GET /metrics` and
    /// `GET /status`, and the bounded capture trace behind
    /// `GET /trace/capture` (one instant per finished request,
    /// truncated to `config.trace_capacity` after each push).
    pub recorder: Mutex<Recorder>,
    /// The hot mining cache, when configured.
    pub cache: Option<RwLock<MiningCache>>,
    /// The `/explain` verdict journal.
    pub ring: Mutex<ExplainRing>,
    /// The structured logger (clone of `config.logger`).
    pub log: Logger,
    /// When the server started (uptime for `GET /status`).
    pub started: Instant,
    next_request_id: AtomicU64,
    queue: Mutex<VecDeque<Conn>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
}

/// One admitted connection waiting for a worker, tagged with the
/// request id and admission timestamp that thread through the access
/// log, the explain ring, and quarantine provenance.
struct Conn {
    stream: TcpStream,
    id: u64,
    accepted: Instant,
}

impl Shared {
    /// Fresh shared state: empty recorder (traced, for the capture),
    /// ring and queue, serving `cache`.
    pub(crate) fn new(config: ServeConfig, cache: Option<RwLock<MiningCache>>) -> Shared {
        Shared {
            ring: Mutex::new(ExplainRing::new(config.ring_capacity)),
            recorder: Mutex::new(Recorder::traced(1)),
            cache,
            log: config.logger.clone(),
            started: Instant::now(),
            next_request_id: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            config,
        }
    }

    /// `true` once shutdown has begun (readiness goes 503).
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Current admission-queue depth (for `GET /status`). Takes the
    /// queue lock, so never call it inside [`Shared::with_recorder`].
    pub(crate) fn queue_len(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Runs `f` on the locked recorder, recovering a poisoned lock
    /// (metrics are monotone counters; a panicked writer cannot leave
    /// them torn in a way that matters more than losing them). `f`
    /// must not take another lock of `Shared` (see the lock order).
    pub(crate) fn with_recorder<T>(&self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let mut guard = self.recorder.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }
}

/// A running server.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<ServeSummary>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the drain to finish.
    pub fn shutdown(self) -> ServeSummary {
        self.stop.store(true, Ordering::SeqCst);
        self.join()
    }

    /// Waits for the server to stop on its own (signal-triggered).
    /// If the server thread itself panicked there is no accounting to
    /// report and the default (all-zero) summary comes back.
    pub fn join(self) -> ServeSummary {
        self.thread.join().unwrap_or_default()
    }
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Binds `config.addr`, opens the cache (strict open: a corrupt
    /// mid-log fails loudly with the `cache verify` hint), and spawns
    /// the accept loop plus worker pool. Returns immediately.
    ///
    /// # Errors
    ///
    /// Bind failures and cache-open failures.
    pub fn spawn(config: ServeConfig) -> Result<ServerHandle, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("resolving bound address: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("configuring listener: {e}"))?;

        let cache = match &config.cache_dir {
            Some(dir) => Some(RwLock::new(
                // Same configuration as a one-shot `diffcode mine`
                // run, so served verdicts and mined ones share keys.
                MiningCache::open(dir, &[], &PipelineLimits::DEFAULT)
                    .map_err(|e| format!("opening cache at {}: {e}", dir.display()))?,
            )),
            None => None,
        };

        let shared = Arc::new(Shared::new(config, cache));

        shared
            .log
            .event(LogLevel::Info, "serve.boot")
            .str("addr", &addr.to_string())
            .u64("threads", shared.config.threads.max(1) as u64)
            .bool("cache", shared.cache.is_some())
            .str("version", env!("CARGO_PKG_VERSION"))
            .emit();
        trace_instant(&shared, "serve.boot", |a| {
            a.str("addr", addr.to_string());
        });

        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || run(listener, shared, &stop))
                .map_err(|e| format!("spawning server thread: {e}"))?
        };
        Ok(ServerHandle { addr, stop, thread })
    }
}

/// The longest the accept thread waits before re-checking the stop
/// flag and SIGTERM, and its backoff after a failed accept.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// Waits for a pending connection, bounded by a timeout. On Unix this
/// is `poll(2)` on the listener fd, declared std-only the way
/// `diffcode::shutdown` declares `signal(2)`.
#[cfg(unix)]
mod readiness {
    use std::ffi::c_int;
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    /// `struct pollfd`, the same layout on every Unix.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x1;

    // `nfds_t` is `unsigned long` on Linux (glibc and musl) and
    // illumos/Solaris, `unsigned int` on Android, Apple and the BSDs.
    #[cfg(any(target_os = "linux", target_os = "illumos", target_os = "solaris"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "illumos", target_os = "solaris")))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Returns once `listener` is readable or `timeout` has passed.
    /// Readiness, timeout and `EINTR` all mean the same to the caller:
    /// re-check the stop flag, then accept until `WouldBlock`. Any
    /// other `poll` failure sleeps the timeout, so the loop cannot spin.
    pub(super) fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
        let mut fds = PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is one valid, exclusively borrowed `pollfd` and
        // `nfds` is 1; the fd stays open for the call's duration.
        let ready = unsafe { poll(&mut fds, 1, ms) };
        if ready < 0 && std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            std::thread::sleep(timeout);
        }
    }
}

/// Without `poll(2)` the accept thread sleeps one tick between bursts.
#[cfg(not(unix))]
mod readiness {
    use std::net::TcpListener;
    use std::time::Duration;

    pub(super) fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
        std::thread::sleep(timeout);
    }
}

/// The accept loop + drain sequence (runs on the server thread).
fn run(listener: TcpListener, shared: Arc<Shared>, stop: &AtomicBool) -> ServeSummary {
    let workers: Vec<_> = (0..shared.config.threads.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect();

    while !stop.load(Ordering::SeqCst) && !diffcode::shutdown::requested() {
        match listener.accept() {
            Ok((stream, _peer)) => admit(&shared, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                readiness::wait_for_connection(&listener, ACCEPT_TICK);
            }
            // Other accept errors (e.g. EMFILE) leave the listener
            // readable, so they back off a full tick instead of spinning.
            Err(_) => thread::sleep(ACCEPT_TICK),
        }
    }
    drop(listener);

    // Drain: workers keep answering queued requests until the queue is
    // empty; whatever the drain deadline catches still queued is shed
    // with a fast 503 inside the workers.
    {
        let mut deadline = shared
            .drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *deadline = Some(Instant::now() + Duration::from_millis(shared.config.drain_ms));
    }
    shared.draining.store(true, Ordering::SeqCst);
    shared
        .log
        .event(LogLevel::Info, "serve.drain")
        .u64(
            "accepted",
            shared.with_recorder(|r| r.counter("serve.accepted")),
        )
        .u64("queued", shared.queue_len() as u64)
        .u64("drain_ms", shared.config.drain_ms)
        .emit();
    trace_instant(&shared, "serve.drain", |_| {});
    shared.queue_cv.notify_all();
    for handle in workers.into_iter().flatten() {
        let _ = handle.join();
    }

    // Flush the cache append log so a restart starts warm.
    let mut flushed = 0u64;
    if let Some(lock) = &shared.cache {
        let mut cache = lock.write().unwrap_or_else(PoisonError::into_inner);
        match cache.flush() {
            Ok(n) => flushed = n as u64,
            Err(_) => shared.with_recorder(|r| r.inc("serve.cache_flush_errors", 1)),
        }
        shared
            .log
            .event(LogLevel::Info, "serve.cache_flush")
            .str("cache", "mining")
            .u64("entries", flushed)
            .emit();
    }

    let summary = shared.with_recorder(|r| {
        r.inc("cache.flushed_entries", flushed);
        r.set_gauge("serve.log_emitted", shared.log.emitted() as f64);
        r.set_gauge("serve.log_dropped", shared.log.dropped() as f64);
        ServeSummary {
            accepted: r.counter("serve.accepted"),
            completed: r.counter("serve.completed"),
            shed: r.counter("serve.shed"),
            failed: r.counter("serve.failed"),
            flushed_entries: r.counter("cache.flushed_entries"),
            recorder: r.clone(),
        }
    });
    shared
        .log
        .event(LogLevel::Info, "serve.drained")
        .u64("accepted", summary.accepted)
        .u64("completed", summary.completed)
        .u64("shed", summary.shed)
        .u64("failed", summary.failed)
        .u64("flushed_entries", summary.flushed_entries)
        .emit();
    // Bounded wait: a wedged writer must not stall shutdown forever.
    shared.log.sync(Duration::from_secs(2));
    summary
}

/// Appends one instant to the recorder's bounded capture trace.
fn trace_instant(shared: &Shared, name: &str, fill: impl FnOnce(&mut AttrSet)) {
    shared.with_recorder(|r| capture_instant(r, shared.config.trace_capacity, name, fill));
}

/// Records one capture instant into `r`, keeping the newest `keep`.
fn capture_instant(r: &mut Recorder, keep: usize, name: &str, fill: impl FnOnce(&mut AttrSet)) {
    r.instant_with(name, fill);
    if let Some(trace) = r.trace_mut() {
        trace.truncate_oldest(keep.max(1));
    }
}

/// The endpoint label and per-endpoint latency span of a request path,
/// from the route table dispatch uses. Unknown paths collapse into
/// `other` so a URL-guessing client cannot grow the recorder without
/// bound.
pub(crate) fn endpoint(path: &str) -> (&'static str, &'static str) {
    handlers::route(path).map_or(("other", "serve.request.other"), |(_, label, span)| {
        (label, span)
    })
}

/// Emits the full per-request observability record: the latency into
/// the `serve.request` histograms (overall and per endpoint) and one
/// bounded capture instant, under one lock, plus one access-log line.
/// Every accepted connection — answered, shed, or panicked — lands
/// here exactly once, so access-log records partition the same way the
/// counters do.
#[allow(clippy::too_many_arguments)]
fn finish_request(
    shared: &Shared,
    id: u64,
    method: &str,
    path: &str,
    status: u16,
    latency: Duration,
    bytes: usize,
    outcome: &'static str,
) {
    let route = (path != "-").then(|| endpoint(path));
    let label = route.map_or("-", |(label, _)| label);
    let latency_ns = latency.as_nanos().min(u64::MAX as u128) as u64;
    shared.with_recorder(|r| {
        r.record_span("serve.request", latency);
        if let Some((_, span)) = route {
            r.record_span(span, latency);
        }
        capture_instant(r, shared.config.trace_capacity, "serve.request", |a| {
            a.u64("request_id", id)
                .str("endpoint", label)
                .u64("status", u64::from(status))
                .u64("latency_ns", latency_ns)
                .str("outcome", outcome);
        });
    });
    let level = match outcome {
        "ok" => LogLevel::Info,
        "panic" => LogLevel::Error,
        _ => LogLevel::Warn,
    };
    shared
        .log
        .event(level, "serve.access")
        .u64("request_id", id)
        .str("method", method)
        .str("path", path)
        .str("endpoint", label)
        .u64("status", u64::from(status))
        .u64("latency_ns", latency_ns)
        .u64("bytes", bytes as u64)
        .str("outcome", outcome)
        .emit();
}

/// Counts and enqueues one accepted connection, or sheds it with 429
/// when the queue is at the watermark.
fn admit(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
    let accepted = Instant::now();
    shared.with_recorder(|r| r.inc("serve.accepted", 1));
    // The queue guard drops before the recorder is touched (lock order
    // on `Shared`).
    let admitted = {
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= shared.config.queue_depth {
            Err(stream)
        } else {
            queue.push_back(Conn {
                stream,
                id,
                accepted,
            });
            Ok(queue.len())
        }
    };
    match admitted {
        Ok(len) => {
            shared.queue_cv.notify_one();
            shared.with_recorder(|r| r.set_gauge("serve.queue_depth", len as f64));
        }
        Err(mut stream) => {
            // Past the watermark: shed on the accept thread. The write
            // is bounded by the socket write timeout, so a client that
            // refuses to read its 429 cannot stall accepts for long.
            let mut resp = Response::json(
                429,
                "{\"error\":\"admission queue is full, retry shortly\"}".to_owned(),
            );
            resp.retry_after = Some(1);
            let bytes = resp.body.len();
            let _ = http::write_response(&mut stream, &resp);
            shared.with_recorder(|r| {
                r.inc("serve.shed", 1);
                r.inc("serve.http_429", 1);
            });
            finish_request(shared, id, "-", "-", 429, accepted.elapsed(), bytes, "shed");
        }
    }
}

/// One worker: pop, handle under `catch_unwind`, count, repeat — until
/// the queue runs dry during drain.
fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if shared.draining() {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        let Some(conn) = conn else { break };
        handle_connection(shared, conn);
    }
}

/// Where one finished connection lands in the accounting partition.
/// (Shed connections are counted at their shed site — the 429
/// watermark rejection or the drain-deadline 503 — and never get here.)
enum Disposition {
    Completed,
    Failed,
}

fn handle_connection(shared: &Shared, conn: Conn) {
    let Conn {
        mut stream,
        id,
        accepted,
    } = conn;
    // Past the drain deadline: fast 503, no parsing.
    let past_drain = shared.draining()
        && shared
            .drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some_and(|d| Instant::now() >= d);
    if past_drain {
        let mut resp = Response::json(503, "{\"error\":\"server is draining\"}".to_owned());
        resp.retry_after = Some(1);
        let bytes = resp.body.len();
        let _ = http::write_response(&mut stream, &resp);
        shared.with_recorder(|r| {
            r.inc("serve.shed", 1);
            r.inc("serve.http_503", 1);
        });
        finish_request(shared, id, "-", "-", 503, accepted.elapsed(), bytes, "shed");
        return;
    }

    let deadline = Instant::now() + Duration::from_millis(shared.config.deadline_ms);
    let mut req_line: Option<(String, String)> = None;
    let mut deadline_hit = false;
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        match http::read_request(&mut stream, deadline, &shared.config.caps) {
            Ok(req) => {
                req_line = Some((req.method.clone(), req.path.clone()));
                let resp = handlers::handle(&req, shared, id, deadline);
                // A handler answers 408 only when its compute overran
                // the request deadline.
                deadline_hit = resp.status == 408;
                Some(resp)
            }
            Err(err) => {
                deadline_hit = err == http::RecvError::Deadline;
                shared.with_recorder(|r| r.inc(&format!("serve.recv_{}", err.name()), 1));
                err.status()
                    .map(|(status, msg)| Response::text(status, msg))
            }
        }
    }));

    let (disposition, status, bytes) = match outcome {
        Ok(Some(resp)) => {
            let status = resp.status;
            let bytes = resp.body.len();
            let delivered = http::write_response(&mut stream, &resp).is_ok();
            shared.with_recorder(|r| {
                r.inc(&format!("serve.http_{status}"), 1);
                if !delivered {
                    r.inc("serve.response_write_errors", 1);
                }
            });
            if status == 500 {
                (Disposition::Failed, status, bytes)
            } else {
                (Disposition::Completed, status, bytes)
            }
        }
        // Peer vanished before sending a request; cleanly done.
        Ok(None) => (Disposition::Completed, 0, 0),
        Err(payload) => {
            // A panic escaped a handler: the worker survives, the
            // client gets a 500 carrying quarantine-style provenance
            // stamped with the request id the access log records.
            let msg = panic_message(payload.as_ref());
            let body = crate::json::Json::Obj(vec![
                (
                    "error".to_owned(),
                    crate::json::Json::Str("internal error: handler panicked".to_owned()),
                ),
                ("request_id".to_owned(), crate::json::Json::Num(id as f64)),
                (
                    "quarantine".to_owned(),
                    crate::json::Json::Obj(vec![
                        (
                            "kind".to_owned(),
                            crate::json::Json::Str("panic".to_owned()),
                        ),
                        ("error".to_owned(), crate::json::Json::Str(msg)),
                    ]),
                ),
            ]);
            let resp = Response::json(500, body.render());
            let bytes = resp.body.len();
            let _ = http::write_response(&mut stream, &resp);
            shared.with_recorder(|r| r.inc("serve.http_500", 1));
            (Disposition::Failed, 500, bytes)
        }
    };

    shared.with_recorder(|r| match disposition {
        Disposition::Completed => r.inc("serve.completed", 1),
        Disposition::Failed => r.inc("serve.failed", 1),
    });
    let (method, path) = req_line.unwrap_or_else(|| ("-".to_owned(), "-".to_owned()));
    let result = match disposition {
        Disposition::Failed => "panic",
        Disposition::Completed if deadline_hit => "deadline",
        Disposition::Completed => "ok",
    };
    finish_request(
        shared,
        id,
        &method,
        &path,
        status,
        accepted.elapsed(),
        bytes,
        result,
    );
}

/// Extracts the message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `request_id` of every event in a Chrome trace export, in
    /// export order.
    fn exported_ids(json: &str) -> Vec<u64> {
        json.split("\"request_id\":")
            .skip(1)
            .map(|rest| {
                let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
                digits.and_then(|d| d.parse().ok()).expect("a request id")
            })
            .collect()
    }

    #[test]
    fn a_full_capture_keeps_the_newest_events_in_order() {
        const CAPACITY: usize = 2_048;
        const CAPTURES: u64 = 10_000;
        let mut r = Recorder::traced(1);
        for id in 0..CAPTURES {
            capture_instant(&mut r, CAPACITY, "serve.request", |a| {
                a.u64("request_id", id);
            });
        }
        let trace = r.trace().expect("the capture recorder traces");
        assert_eq!(trace.len(), CAPACITY);
        let newest: Vec<u64> = (CAPTURES - CAPACITY as u64..CAPTURES).collect();
        let seqs: Vec<u64> = trace.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, newest, "sequence numbers survive truncation");
        for events in [1, 100, CAPACITY, 5_000] {
            let json = obs::to_chrome_json_tail(trace, events);
            let kept = events.min(CAPACITY);
            assert_eq!(
                exported_ids(&json),
                newest[CAPACITY - kept..],
                "events={events}"
            );
        }
    }
}
