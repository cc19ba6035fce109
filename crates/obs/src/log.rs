//! Structured JSON-lines logging with a bounded, non-blocking writer.
//!
//! The log is one exporter of the events a service records: like the
//! Chrome and Prometheus exporters it renders what the recorder holds,
//! here an event's [`AttrSet`], the attributes the caller built once
//! for the recorder's trace. Each operational event (request served,
//! server booted, cache flushed) becomes one self-describing record,
//! machine-parseable line by line.
//!
//! Design constraints, in priority order:
//!
//! 1. **Never block a worker.** Records are rendered on the caller
//!    thread (so the writer needs no access to caller state) and
//!    handed to a dedicated writer thread over a *bounded* channel via
//!    `try_send`. When the writer falls behind, records are **dropped
//!    and counted** ([`Logger::dropped`]) instead of back-pressuring
//!    the request path; the count is exported so an operator can see
//!    the loss, which is the same stance the admission queue takes
//!    with 429s. [`Logger::sync`] never blocks on the channel either.
//! 2. **Every loss is counted.** A file that cannot be opened is an
//!    error from [`Logger::file`], not a log that silently goes
//!    nowhere, and a record the writer fails to write (a failed reopen
//!    after rotation, a write error) counts in [`Logger::dropped`].
//! 3. **Bounded on disk.** File sinks rotate by size: when the live
//!    file exceeds the configured limit it is renamed to `<path>.1`
//!    (replacing the previous rotation) and a fresh file is opened, so
//!    a long-lived server owns at most `2 × max_bytes` of log.
//! 4. **Cheap when off.** [`Logger::disabled`] reduces every write to
//!    one branch — no rendering, no clock read, no allocation — so
//!    one-shot CLI runs pay nothing and their stdout stays
//!    byte-identical.
//!
//! # Record schema (JSON format)
//!
//! One JSON object per line, no trailing commas, deterministic key
//! order: `ts_ms` (Unix epoch milliseconds), `level`, `event`, then
//! the event's own attributes in insertion order:
//!
//! ```json
//! {"ts_ms":1754500000123,"level":"info","event":"serve.access","request_id":42,...}
//! ```
//!
//! The text format renders the same record as
//! `<ts_ms> <LEVEL> <event> key=value …` for humans tailing stderr.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::json::{write_str, write_value};
use crate::trace::{AttrSet, TraceValue};

/// Event severity, lowest to highest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Diagnostic detail, off in production by default.
    Debug,
    /// Normal operational events (access records, lifecycle).
    Info,
    /// Degraded but self-healing conditions (sheds, deadline hits).
    Warn,
    /// Faults that lost work (panics, I/O errors).
    Error,
}

impl LogLevel {
    /// Lowercase name used in the JSON `level` field.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    fn upper(self) -> &'static str {
        match self {
            LogLevel::Debug => "DEBUG",
            LogLevel::Info => "INFO",
            LogLevel::Warn => "WARN",
            LogLevel::Error => "ERROR",
        }
    }
}

/// Output encoding for log records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// One JSON object per line (the machine-facing default).
    #[default]
    Json,
    /// `<ts_ms> <LEVEL> <event> key=value …` for humans.
    Text,
}

/// Where the writer thread puts rendered records.
enum Sink {
    /// Standard error (no rotation).
    Stderr,
    /// An append-opened file, rotated to `<path>.1` past `max_bytes`.
    File {
        path: PathBuf,
        max_bytes: u64,
        /// The live file; `None` while the path cannot be opened (a
        /// reopen after rotation failed), tried again on the next
        /// record.
        file: Option<fs::File>,
        /// Bytes in the live file.
        written: u64,
    },
}

impl Sink {
    /// Writes one rendered record; `false` when it was lost.
    fn write(&mut self, line: &str) -> bool {
        match self {
            Sink::Stderr => io::stderr().lock().write_all(line.as_bytes()).is_ok(),
            Sink::File {
                path,
                max_bytes,
                file,
                written,
            } => {
                if *written >= *max_bytes {
                    // Size rotation: the live file becomes <path>.1
                    // (previous rotation replaced), and a fresh live
                    // file is opened.
                    drop(file.take());
                    let mut rotated = path.as_os_str().to_owned();
                    rotated.push(".1");
                    let _ = fs::rename(&*path, PathBuf::from(rotated));
                    *file = open_append(path).ok();
                    *written = 0;
                } else if file.is_none() {
                    // An earlier reopen failed: try the path again, once
                    // per record, so records land once it opens.
                    *file = open_append(path).ok();
                    *written = file
                        .as_ref()
                        .and_then(|f| f.metadata().ok())
                        .map_or(0, |m| m.len());
                }
                let Some(f) = file.as_mut() else {
                    return false;
                };
                let ok = f.write_all(line.as_bytes()).is_ok();
                if ok {
                    *written += line.len() as u64;
                }
                ok
            }
        }
    }

    fn flush(&mut self) {
        if let Sink::File { file: Some(f), .. } = self {
            let _ = f.flush();
        }
    }
}

/// Bound on the writer channel: records queued but not yet written.
/// Past this, writes drop (counted) instead of blocking.
pub(crate) const QUEUE_CAPACITY: usize = 4096;

/// How long [`Logger::sync`] waits before retrying a full queue.
const SYNC_RETRY: Duration = Duration::from_millis(1);

enum Msg {
    Line(String),
    Sync(SyncSender<()>),
}

struct Inner {
    tx: SyncSender<Msg>,
    format: LogFormat,
    min_level: LogLevel,
    emitted: AtomicU64,
    /// Shared with the writer thread, which counts the records it
    /// fails to write.
    dropped: Arc<AtomicU64>,
}

/// A cloneable handle to the logging pipeline; `None` inside means
/// disabled (every write is a single branch).
#[derive(Clone, Default)]
pub struct Logger {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Logger {
    /// A logger that drops everything for free — the one-shot-CLI
    /// default.
    pub fn disabled() -> Logger {
        Logger { inner: None }
    }

    /// A logger writing to standard error.
    pub fn stderr(format: LogFormat, min_level: LogLevel) -> Logger {
        Logger::start(Sink::Stderr, format, min_level)
    }

    /// A logger writing to `path`, rotating to `<path>.1` once the
    /// live file exceeds `max_bytes`. The file is opened (created when
    /// absent) here, on the caller's thread.
    ///
    /// # Errors
    ///
    /// The error of opening `path` for appending, e.g. when its
    /// directory does not exist.
    pub fn file(
        path: impl Into<PathBuf>,
        max_bytes: u64,
        format: LogFormat,
        min_level: LogLevel,
    ) -> io::Result<Logger> {
        let path = path.into();
        let file = open_append(&path)?;
        let written = file.metadata().map_or(0, |m| m.len());
        let sink = Sink::File {
            path,
            max_bytes,
            file: Some(file),
            written,
        };
        Ok(Logger::start(sink, format, min_level))
    }

    /// Starts the writer thread for `sink`.
    fn start(sink: Sink, format: LogFormat, min_level: LogLevel) -> Logger {
        let (tx, rx) = mpsc::sync_channel(QUEUE_CAPACITY);
        let dropped = Arc::new(AtomicU64::new(0));
        let writer_dropped = Arc::clone(&dropped);
        thread::Builder::new()
            .name("obs-log-writer".into())
            .spawn(move || writer_loop(rx, sink, &writer_dropped))
            .expect("spawn log writer thread");
        Logger {
            inner: Some(Arc::new(Inner {
                tx,
                format,
                min_level,
                emitted: AtomicU64::new(0),
                dropped,
            })),
        }
    }

    /// Records accepted onto the writer queue so far.
    pub fn emitted(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.emitted.load(Ordering::Relaxed))
    }

    /// Records lost: dropped because the writer queue was full, or
    /// accepted but then not written to the sink.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Writes one record: event `name` at `level`, then `attrs` in
    /// insertion order. Non-blocking: the record is rendered here and
    /// dropped (and counted) when the writer queue is full. Below the
    /// level floor, or on a disabled logger, it does nothing.
    pub fn write(&self, level: LogLevel, name: &str, attrs: &AttrSet) {
        let Some(inner) = &self.inner else { return };
        if level < inner.min_level {
            return;
        }
        let line = render(inner.format, level, name, attrs);
        let counter = match inner.tx.try_send(Msg::Line(line)) {
            Ok(()) => &inner.emitted,
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => &*inner.dropped,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Waits until every record written *before* this call has reached
    /// the sink, or `timeout` elapses. Returns `false` on timeout (the
    /// writer is wedged or drowned). Never blocks on a full queue: the
    /// sync marker is retried until the deadline. Used at drain time so
    /// the final records are on disk before exit.
    pub fn sync(&self, timeout: Duration) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        let deadline = Instant::now() + timeout;
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        let mut marker = Msg::Sync(ack_tx);
        loop {
            match inner.tx.try_send(marker) {
                Ok(()) => break,
                Err(TrySendError::Full(back)) if Instant::now() < deadline => {
                    marker = back;
                    thread::sleep(SYNC_RETRY);
                }
                Err(_) => return false,
            }
        }
        ack_rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .is_ok()
    }
}

/// Renders one record as a newline-terminated line in `format`.
fn render(format: LogFormat, level: LogLevel, name: &str, attrs: &AttrSet) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0);
    let mut line = String::new();
    match format {
        LogFormat::Json => {
            let _ = write!(
                line,
                "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",\"event\":",
                level.as_str()
            );
            write_str(&mut line, name);
            for (key, value) in attrs.iter() {
                line.push(',');
                write_str(&mut line, key);
                line.push(':');
                write_value(&mut line, value);
            }
            line.push('}');
        }
        LogFormat::Text => {
            let _ = write!(line, "{ts_ms} {} {name}", level.upper());
            for (key, value) in attrs.iter() {
                let _ = match value {
                    TraceValue::Str(s) if s.is_empty() || s.contains([' ', '=', '"']) => {
                        write!(line, " {key}={s:?}")
                    }
                    _ => write!(line, " {key}={value}"),
                };
            }
        }
    }
    line.push('\n');
    line
}

fn writer_loop(rx: Receiver<Msg>, mut sink: Sink, dropped: &AtomicU64) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Line(line) => {
                if !sink.write(&line) {
                    dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Msg::Sync(ack) => {
                sink.flush();
                let _ = ack.send(());
            }
        }
    }
    sink.flush();
}

fn open_append(path: &Path) -> io::Result<fs::File> {
    fs::OpenOptions::new().create(true).append(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Logger {
        /// `true` when records are actually going somewhere.
        fn is_enabled(&self) -> bool {
            self.inner.is_some()
        }
    }

    fn attrs(fill: impl FnOnce(&mut AttrSet)) -> AttrSet {
        let mut attrs = AttrSet::default();
        fill(&mut attrs);
        attrs
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("obs_log_{tag}_{}", std::process::id()));
        p
    }

    #[test]
    fn disabled_logger_is_inert() {
        let log = Logger::disabled();
        log.write(
            LogLevel::Error,
            "boom",
            &attrs(|a| {
                a.str("k", "v").u64("n", 1);
            }),
        );
        assert_eq!(log.emitted(), 0);
        assert_eq!(log.dropped(), 0);
        assert!(!log.is_enabled());
        assert!(
            log.sync(Duration::from_millis(1)),
            "sync on disabled is free"
        );
    }

    #[test]
    fn json_records_are_one_valid_line_each() {
        let path = temp_path("json");
        let _ = fs::remove_file(&path);
        let log = Logger::file(&path, u64::MAX, LogFormat::Json, LogLevel::Info).unwrap();
        log.write(
            LogLevel::Info,
            "serve.access",
            &attrs(|a| {
                a.u64("request_id", 7)
                    .str("method", "GET")
                    .str("path", "/metrics")
                    .u64("status", 200)
                    .str("note", "a \"quoted\" word");
            }),
        );
        log.write(LogLevel::Debug, "filtered", &AttrSet::default());
        assert!(log.sync(Duration::from_secs(5)));
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "debug filtered out: {text:?}");
        let line = lines[0];
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        assert!(
            line.ends_with(
                "\"event\":\"serve.access\",\"request_id\":7,\"method\":\"GET\",\
                 \"path\":\"/metrics\",\"status\":200,\"note\":\"a \\\"quoted\\\" word\"}"
            ),
            "{line}"
        );
        assert_eq!(log.emitted(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn text_format_is_key_value() {
        let path = temp_path("text");
        let _ = fs::remove_file(&path);
        let log = Logger::file(&path, u64::MAX, LogFormat::Text, LogLevel::Debug).unwrap();
        log.write(
            LogLevel::Warn,
            "serve.shed",
            &attrs(|a| {
                a.u64("queue_depth", 64).str("note", "has spaces");
            }),
        );
        assert!(log.sync(Duration::from_secs(5)));
        let text = fs::read_to_string(&path).unwrap();
        let line = text.lines().next().unwrap();
        assert!(
            line.ends_with("WARN serve.shed queue_depth=64 note=\"has spaces\""),
            "{line}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rotation_caps_the_live_file() {
        let path = temp_path("rotate");
        let mut rotated = path.as_os_str().to_owned();
        rotated.push(".1");
        let rotated = PathBuf::from(rotated);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&rotated);
        let log = Logger::file(&path, 256, LogFormat::Json, LogLevel::Info).unwrap();
        for i in 0..64 {
            log.write(
                LogLevel::Info,
                "fill",
                &attrs(|a| {
                    a.u64("i", i);
                }),
            );
        }
        assert!(log.sync(Duration::from_secs(5)));
        assert!(rotated.exists(), "rotation never happened");
        let live = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        // The live file restarts after each rotation; one record may
        // straddle the threshold, so allow threshold + one record.
        assert!(live < 256 + 128, "live file too large: {live}");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&rotated);
    }

    #[test]
    fn overflow_drops_are_counted_not_blocking() {
        // Saturate the queue with a burst far larger than it holds:
        // every record is either accepted (and then written) or dropped
        // and counted, never waited on.
        let path = temp_path("drops");
        let _ = fs::remove_file(&path);
        let log = Logger::file(&path, u64::MAX, LogFormat::Json, LogLevel::Info).unwrap();
        for i in 0..QUEUE_CAPACITY as u64 * 4 {
            log.write(
                LogLevel::Info,
                "burst",
                &attrs(|a| {
                    a.u64("i", i);
                }),
            );
        }
        assert!(log.sync(Duration::from_secs(10)));
        let written = fs::read_to_string(&path).unwrap().lines().count() as u64;
        assert_eq!(
            written,
            log.emitted(),
            "every accepted record reaches the sink"
        );
        assert_eq!(
            log.emitted() + log.dropped(),
            QUEUE_CAPACITY as u64 * 4,
            "accepted + dropped partitions the burst"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_file_under_a_missing_directory_is_an_error() {
        let dir = temp_path("missing_dir");
        let _ = fs::remove_dir_all(&dir);
        let err = Logger::file(dir.join("serve.log"), 1024, LogFormat::Json, LogLevel::Info)
            .expect_err("the directory does not exist");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(!dir.exists(), "nothing was created");
    }

    #[test]
    fn records_the_writer_cannot_write_count_as_dropped() {
        let dir = temp_path("vanishing_dir");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // A 1-byte threshold rotates before every record after the
        // first, so each later record needs a reopen of the path.
        let log = Logger::file(dir.join("serve.log"), 1, LogFormat::Json, LogLevel::Info).unwrap();
        log.write(LogLevel::Info, "before", &AttrSet::default());
        assert!(log.sync(Duration::from_secs(5)));
        fs::remove_dir_all(&dir).unwrap();
        for i in 0..3 {
            log.write(
                LogLevel::Info,
                "after",
                &attrs(|a| {
                    a.u64("i", i);
                }),
            );
        }
        assert!(log.sync(Duration::from_secs(5)));
        assert_eq!(log.emitted(), 4, "all four were accepted onto the queue");
        assert_eq!(log.dropped(), 3, "the three after the removal were lost");

        // Once the directory is back, the next record reopens the path.
        fs::create_dir_all(&dir).unwrap();
        for i in 0..2 {
            log.write(
                LogLevel::Info,
                "back",
                &attrs(|a| {
                    a.u64("i", i);
                }),
            );
        }
        assert!(log.sync(Duration::from_secs(5)));
        assert_eq!(log.emitted(), 6);
        assert_eq!(
            log.dropped(),
            3,
            "the records after the return were written"
        );
        // The second record rotated the first into `serve.log.1`.
        let live = fs::read_to_string(dir.join("serve.log")).unwrap();
        let rotated = fs::read_to_string(dir.join("serve.log.1")).unwrap();
        assert!(
            rotated.contains("\"back\"") && rotated.contains("\"i\":0"),
            "{rotated}"
        );
        assert!(
            live.contains("\"back\"") && live.contains("\"i\":1"),
            "{live}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn sync_gives_up_on_a_wedged_writer() {
        let path = temp_path("fifo");
        let _ = fs::remove_file(&path);
        let made = std::process::Command::new("mkfifo")
            .arg(&path)
            .status()
            .expect("run mkfifo");
        assert!(made.success(), "mkfifo failed");
        // Opening a FIFO blocks until both ends are open: a helper
        // thread opens the read end, which this test holds and never
        // reads, so once the pipe buffer fills every write blocks.
        let reader = {
            let path = path.clone();
            thread::spawn(move || fs::File::open(path).expect("open the read end"))
        };
        let log = Logger::file(&path, u64::MAX, LogFormat::Json, LogLevel::Info).unwrap();
        let read_end = reader.join().expect("reader thread");
        let record = attrs(|a| {
            a.str("pad", "x".repeat(256));
        });
        // The first drop means the queue is full behind a writer that
        // is stuck in a write.
        let mut sent = 0u64;
        while log.dropped() == 0 {
            log.write(LogLevel::Info, "fill", &record);
            sent += 1;
            assert!(sent < 1_000_000, "the queue never filled");
        }
        // Watchdog: a `sync` that blocks on the full queue would hang
        // this test, so it runs on its own thread and the test fails
        // when it has not answered in time.
        let (tx, rx) = mpsc::channel();
        let started = Instant::now();
        let syncing = log.clone();
        thread::spawn(move || {
            let _ = tx.send(syncing.sync(Duration::from_millis(100)));
        });
        let synced = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("sync blocked on the full queue instead of timing out");
        assert!(!synced, "a wedged writer cannot acknowledge");
        assert!(started.elapsed() < Duration::from_secs(1));
        // Closing the read end fails the blocked write, so the writer
        // drains the queue (counting every record as dropped) and ends.
        drop(read_end);
        drop(log);
        let _ = fs::remove_file(&path);
    }
}
