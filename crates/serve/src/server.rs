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
//!    `serve.completed`. The request records into its own recorder;
//!    when it finishes, one lock on the shared recorder merges that,
//!    counts the outcome, records the latency and the `serve.access`
//!    event, and only then is the response written.
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
use crate::json::Json;
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
    /// request and its compute: `/mine` and `/mine-repo` stop mining
    /// before their next code change, and `/check` before its next
    /// file, once the deadline has passed, and answer 408.
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
    /// The structured logger, the second exporter of every request and
    /// lifecycle event the capture records. Cloning shares the
    /// underlying writer, so the binary can keep a handle for the
    /// events it writes before a server exists. Disabled by default
    /// (library embedders opt in); the `diffcode-serve` binary enables
    /// a stderr JSON logger unless told otherwise.
    pub logger: Logger,
    /// How many trace events `GET /trace/capture` retains (oldest
    /// evicted first). The capture records one `serve.access` instant
    /// per finished request plus the lifecycle events, so memory stays
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
/// **Lock order.** `cache`, `queue`, `recorder`, `ring` and
/// `drain_deadline` are leaf locks: no path takes any other lock while
/// holding one of them. Read what you need under one lock, drop it,
/// then take the next — e.g. `GET /status` reads [`Shared::queue_len`]
/// *before* entering [`Shared::with_recorder`], admission sets the
/// `serve.queue_depth` gauge only after the queue guard is dropped, and
/// a cache flush's outcome is counted after the cache guard is dropped.
/// Two paths that take `queue` and `recorder` in opposite orders
/// deadlock under load, and the wedged recorder then stalls every
/// worker and the drain.
pub(crate) struct Shared {
    /// The server configuration.
    pub config: ServeConfig,
    /// The single recorder: the metrics behind `GET /metrics` and
    /// `GET /status`, and the bounded capture trace behind
    /// `GET /trace/capture` (one instant per event, truncated to
    /// `config.trace_capacity` after each push). Each request records
    /// into its own recorder, merged here once when it finishes.
    pub recorder: Mutex<Recorder>,
    /// The hot mining cache, when configured.
    pub cache: Option<RwLock<MiningCache>>,
    /// The `/explain` verdict journal.
    pub ring: Mutex<ExplainRing>,
    /// The structured logger (clone of `config.logger`), written only
    /// through [`Shared::event`].
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
/// record, the explain ring, and quarantine provenance.
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

    /// Records one serve event: the attributes `fill` builds are
    /// written once to the log, then appended once to the bounded
    /// capture behind `GET /trace/capture` (oldest events evicted past
    /// `trace_capacity`), so both exporters carry the same record.
    /// `record` runs in the same lock as the capture append, after it.
    /// The attributes are built and the log line written before the
    /// lock is taken, so the lock covers only the recorder's own work.
    pub(crate) fn event(
        &self,
        level: LogLevel,
        name: &str,
        fill: impl FnOnce(&mut AttrSet),
        record: impl FnOnce(&mut Recorder),
    ) {
        let mut attrs = AttrSet::default();
        fill(&mut attrs);
        self.log.write(level, name, &attrs);
        self.with_recorder(|r| {
            r.instant_with(name, |a| *a = attrs);
            if let Some(trace) = r.trace_mut() {
                trace.truncate_oldest(self.config.trace_capacity.max(1));
            }
            record(r);
        });
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
        let boot = |a: &mut AttrSet| {
            a.str("addr", addr.to_string())
                .u64("threads", shared.config.threads.max(1) as u64)
                .u64("cache", u64::from(shared.cache.is_some()))
                .str("version", env!("CARGO_PKG_VERSION"));
        };
        shared.event(LogLevel::Info, "serve.boot", boot, |_| {});

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
    let accepted = shared.with_recorder(|r| r.counter("serve.accepted"));
    let queued = shared.queue_len() as u64;
    let drain = |a: &mut AttrSet| {
        a.u64("accepted", accepted)
            .u64("queued", queued)
            .u64("drain_ms", shared.config.drain_ms);
    };
    shared.event(LogLevel::Info, "serve.drain", drain, |_| {});
    shared.queue_cv.notify_all();
    for handle in workers.into_iter().flatten() {
        let _ = handle.join();
    }

    // Flush the cache append log so a restart starts warm.
    let mut flushed = 0u64;
    if let Some(lock) = &shared.cache {
        let result = lock.write().unwrap_or_else(PoisonError::into_inner).flush();
        flushed = result.as_ref().map_or(0, |&n| n as u64);
        let flush = |a: &mut AttrSet| {
            a.str("cache", "mining").u64("entries", flushed);
        };
        shared.event(LogLevel::Info, "serve.cache_flush", flush, |r| {
            if result.is_err() {
                r.inc("serve.cache_flush_errors", 1);
            }
        });
    }

    let mut summary = shared.with_recorder(|r| {
        r.inc("cache.flushed_entries", flushed);
        r.set_gauge("serve.log_emitted", shared.log.emitted() as f64);
        r.set_gauge("serve.log_dropped", shared.log.dropped() as f64);
        ServeSummary {
            accepted: r.counter("serve.accepted"),
            completed: r.counter("serve.completed"),
            shed: r.counter("serve.shed"),
            failed: r.counter("serve.failed"),
            flushed_entries: r.counter("cache.flushed_entries"),
            recorder: Recorder::new(),
        }
    });
    let drained = |a: &mut AttrSet| {
        a.u64("accepted", summary.accepted)
            .u64("completed", summary.completed)
            .u64("shed", summary.shed)
            .u64("failed", summary.failed)
            .u64("flushed_entries", summary.flushed_entries);
    };
    let mut recorder = Recorder::new();
    shared.event(LogLevel::Info, "serve.drained", drained, |r| {
        recorder = r.clone();
    });
    summary.recorder = recorder;
    // Bounded wait: a wedged writer must not stall shutdown forever.
    shared.log.sync(Duration::from_secs(2));
    summary
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

/// The `serve.http_<status>` counter of a status the server answers,
/// spelled out at compile time; `None` for 0, the status of a peer that
/// left before its request.
fn http_counter(status: u16) -> Option<&'static str> {
    macro_rules! counters {
        ($($code:literal)*) => {
            match status {
                0 => None,
                $($code => Some(concat!("serve.http_", $code)),)*
                _ => Some("serve.http_other"),
            }
        };
    }
    counters!(200 400 404 405 408 413 422 429 431 500 503)
}

/// Finishes one accepted connection, whose request line was `req_line`
/// (`None` when none was read): records its `serve.access` event, then
/// writes `resp`, so a client holding its response finds the request
/// counted. The event's one lock on the shared recorder also merges
/// `request` (the handler's pipeline, cache and ingestion metrics),
/// counts the status and the outcome's partition, and folds the latency
/// into the `serve.request` histograms (overall and per endpoint).
/// Every accepted connection — answered, shed, or panicked — ends here
/// exactly once, so access records partition the same way the counters
/// do.
fn finish(
    shared: &Shared,
    conn: Conn,
    request: Recorder,
    req_line: Option<(String, String)>,
    resp: Option<Response>,
    outcome: &'static str,
) {
    let Conn {
        mut stream,
        id,
        accepted,
    } = conn;
    let latency = accepted.elapsed();
    let (method, path) = req_line
        .as_ref()
        .map_or(("-", "-"), |(m, p)| (m.as_str(), p.as_str()));
    let latency_ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
    let (status, bytes) = resp.as_ref().map_or((0, 0), |r| (r.status, r.body.len()));
    let route = (path != "-").then(|| endpoint(path));
    let label = route.map_or("-", |(label, _)| label);
    let (partition, level) = match outcome {
        "ok" => ("serve.completed", LogLevel::Info),
        "deadline" => ("serve.completed", LogLevel::Warn),
        "panic" => ("serve.failed", LogLevel::Error),
        _ => ("serve.shed", LogLevel::Warn),
    };
    let access = |a: &mut AttrSet| {
        a.u64("request_id", id)
            .str("method", method)
            .str("path", path)
            .str("endpoint", label)
            .u64("status", u64::from(status))
            .u64("latency_ns", latency_ns)
            .u64("bytes", bytes as u64)
            .str("outcome", outcome);
    };
    shared.event(level, "serve.access", access, |r| {
        r.merge(request);
        if let Some(counter) = http_counter(status) {
            r.inc(counter, 1);
        }
        r.inc(partition, 1);
        r.record_span("serve.request", latency);
        if let Some((_, span)) = route {
            r.record_span(span, latency);
        }
    });
    if let Some(resp) = resp {
        if http::write_response(&mut stream, &resp).is_err() {
            shared.with_recorder(|r| r.inc("serve.response_write_errors", 1));
        }
    }
}

/// Sheds a connection unread with `status` (429 at the watermark, 503
/// past the drain deadline) and `Retry-After`. The write is bounded by
/// the socket write timeout, so a client that refuses to read cannot
/// stall the caller for long.
fn shed(shared: &Shared, conn: Conn, status: u16, body: &str) {
    let mut resp = Response::json(status, body.to_owned());
    resp.retry_after = Some(1);
    finish(shared, conn, Recorder::new(), None, Some(resp), "shed");
}

/// Counts and enqueues one accepted connection, or sheds it with 429
/// when the queue is at the watermark.
fn admit(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let conn = Conn {
        stream,
        id: shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1,
        accepted: Instant::now(),
    };
    shared.with_recorder(|r| r.inc("serve.accepted", 1));
    // The queue guard drops before the recorder is touched (lock order
    // on `Shared`).
    let admitted = {
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= shared.config.queue_depth {
            Err(conn)
        } else {
            queue.push_back(conn);
            Ok(queue.len())
        }
    };
    match admitted {
        Ok(len) => {
            shared.queue_cv.notify_one();
            shared.with_recorder(|r| r.set_gauge("serve.queue_depth", len as f64));
        }
        // Past the watermark: shed on the accept thread.
        Err(conn) => shed(
            shared,
            conn,
            429,
            "{\"error\":\"admission queue is full, retry shortly\"}",
        ),
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

fn handle_connection(shared: &Shared, mut conn: Conn) {
    // Past the drain deadline: fast 503, no parsing.
    let past_drain = shared.draining()
        && shared
            .drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some_and(|d| Instant::now() >= d);
    if past_drain {
        shed(shared, conn, 503, "{\"error\":\"server is draining\"}");
        return;
    }

    let deadline = Instant::now() + Duration::from_millis(shared.config.deadline_ms);
    // The request's own metrics, merged into the shared recorder once,
    // when it finishes.
    let mut request = Recorder::new();
    let mut req_line: Option<(String, String)> = None;
    let mut deadline_hit = false;
    let answered = panic::catch_unwind(AssertUnwindSafe(|| {
        match http::read_request(&mut conn.stream, deadline, &shared.config.caps) {
            Ok(req) => {
                req_line = Some((req.method.clone(), req.path.clone()));
                let resp = handlers::handle(&req, shared, &mut request, conn.id, deadline);
                // A handler answers 408 only when its compute overran
                // the request deadline.
                deadline_hit = resp.status == 408;
                Some(resp)
            }
            Err(err) => {
                deadline_hit = err == http::RecvError::Deadline;
                request.inc(err.counter(), 1);
                err.status()
                    .map(|(status, msg)| Response::text(status, msg))
            }
        }
    }));

    let (resp, outcome) = match answered {
        Ok(Some(resp)) if resp.status == 500 => (Some(resp), "panic"),
        Ok(Some(resp)) if deadline_hit => (Some(resp), "deadline"),
        // Answered, or the peer left before sending a request.
        Ok(resp) => (resp, "ok"),
        // A panic escaped a handler: the worker survives, the client
        // gets a 500 carrying quarantine-style provenance stamped with
        // the request id the access record carries.
        Err(payload) => {
            let body = Json::Obj(vec![
                (
                    "error".to_owned(),
                    Json::Str("internal error: handler panicked".to_owned()),
                ),
                ("request_id".to_owned(), Json::Num(conn.id as f64)),
                (
                    "quarantine".to_owned(),
                    Json::Obj(vec![
                        ("kind".to_owned(), Json::Str("panic".to_owned())),
                        ("error".to_owned(), Json::Str(panic_message(&*payload))),
                    ]),
                ),
            ]);
            (Some(Response::json(500, body.render())), "panic")
        }
    };
    finish(shared, conn, request, req_line, resp, outcome);
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
        let config = ServeConfig {
            trace_capacity: CAPACITY,
            ..ServeConfig::default()
        };
        let shared = Shared::new(config, None);
        for id in 0..CAPTURES {
            let access = |a: &mut AttrSet| {
                a.u64("request_id", id);
            };
            shared.event(LogLevel::Info, "serve.access", access, |_| {});
        }
        let r = shared.recorder.lock().unwrap();
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

    /// Every status with its own `serve.http_<status>` counter.
    const ANSWERED: [u16; 11] = [200, 400, 404, 405, 408, 413, 422, 429, 431, 500, 503];

    #[test]
    fn status_counters_are_spelled_out_for_every_status() {
        for status in ANSWERED {
            assert_eq!(
                http_counter(status).map(str::to_owned),
                Some(format!("serve.http_{status}"))
            );
        }
        assert_eq!(http_counter(0), None, "a peer that never asked");
        // `ANSWERED` is the whole table: every other status shares the
        // `other` counter.
        for status in (1..1000).filter(|s| !ANSWERED.contains(s)) {
            assert_eq!(http_counter(status), Some("serve.http_other"), "{status}");
        }
    }

    #[test]
    fn every_counted_status_has_a_reason_phrase() {
        for status in ANSWERED {
            assert_ne!(
                crate::http::Response::reason(status),
                "Unknown",
                "HTTP/1.1 {status} has no reason phrase"
            );
        }
    }
}
