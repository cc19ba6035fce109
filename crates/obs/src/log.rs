//! Structured JSON-lines logging with a bounded, non-blocking writer.
//!
//! The service-facing complement to the metrics registry: where
//! [`crate::Recorder`] aggregates, the logger journals — one
//! self-describing record per operational event (request served,
//! server booted, cache flushed), machine-parseable line by line.
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
//!    with 429s.
//! 2. **Bounded on disk.** File sinks rotate by size: when the live
//!    file exceeds the configured limit it is renamed to `<path>.1`
//!    (replacing the previous rotation) and a fresh file is opened, so
//!    a long-lived server owns at most `2 × max_bytes` of log.
//! 3. **Cheap when off.** [`Logger::disabled`] reduces every emit to
//!    one branch — no rendering, no clock read, no allocation — so
//!    one-shot CLI runs pay nothing and their stdout stays
//!    byte-identical.
//!
//! # Record schema (JSON format)
//!
//! One JSON object per line, no trailing commas, deterministic key
//! order: `ts_ms` (Unix epoch milliseconds), `level`, `event`, then
//! the event's own fields in emission order:
//!
//! ```json
//! {"ts_ms":1754500000123,"level":"info","event":"serve.access","request_id":42,...}
//! ```
//!
//! The text format renders the same record as
//! `<ts_ms> <LEVEL> <event> key=value …` for humans tailing stderr.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::json::write_str;
use std::fmt::Write as _;

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

/// Where rendered records go.
#[derive(Debug, Clone)]
pub(crate) enum LogSink {
    /// Line-buffered standard error (no rotation).
    Stderr,
    /// An append-opened file, rotated to `<path>.1` past `max_bytes`.
    File {
        /// Live log file path.
        path: PathBuf,
        /// Size threshold that triggers rotation (bytes).
        max_bytes: u64,
    },
}

/// Bound on the writer channel: records queued but not yet written.
/// Past this, emits drop (counted) instead of blocking.
pub(crate) const QUEUE_CAPACITY: usize = 4096;

enum Msg {
    Line(String),
    Sync(SyncSender<()>),
}

struct Inner {
    tx: SyncSender<Msg>,
    format: LogFormat,
    min_level: LogLevel,
    emitted: AtomicU64,
    dropped: AtomicU64,
}

/// A cloneable handle to the logging pipeline; `None` inside means
/// disabled (every emit is a single branch).
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
        Logger::start(LogSink::Stderr, format, min_level)
    }

    /// A logger writing to `path`, rotating to `<path>.1` once the
    /// live file exceeds `max_bytes`.
    pub fn file(
        path: impl Into<PathBuf>,
        max_bytes: u64,
        format: LogFormat,
        min_level: LogLevel,
    ) -> Logger {
        Logger::start(
            LogSink::File {
                path: path.into(),
                max_bytes,
            },
            format,
            min_level,
        )
    }

    /// Starts the writer thread for `sink`.
    pub(crate) fn start(sink: LogSink, format: LogFormat, min_level: LogLevel) -> Logger {
        let (tx, rx) = mpsc::sync_channel(QUEUE_CAPACITY);
        thread::Builder::new()
            .name("obs-log-writer".into())
            .spawn(move || writer_loop(rx, sink))
            .expect("spawn log writer thread");
        Logger {
            inner: Some(Arc::new(Inner {
                tx,
                format,
                min_level,
                emitted: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Records accepted onto the writer queue so far.
    pub fn emitted(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.emitted.load(Ordering::Relaxed))
    }

    /// Records dropped because the writer queue was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Starts building one record; finish with `EventBuilder::emit`.
    /// Below `min_level` (or on a disabled logger) the builder is
    /// inert: field calls are no-ops and `emit` does nothing.
    pub fn event(&self, level: LogLevel, name: &str) -> EventBuilder<'_> {
        let live = matches!(&self.inner, Some(inner) if level >= inner.min_level);
        let mut builder = EventBuilder {
            logger: self,
            line: String::new(),
            live,
            format: self
                .inner
                .as_ref()
                .map(|i| i.format)
                .unwrap_or(LogFormat::Json),
        };
        if live {
            builder.begin(level, name);
        }
        builder
    }

    /// Blocks until every record emitted *before* this call has been
    /// written to the sink, or `timeout` elapses. Returns `false` on
    /// timeout (the writer is wedged or drowned). Used at drain time
    /// so the final access records are on disk before exit.
    pub fn sync(&self, timeout: Duration) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        if inner.tx.send(Msg::Sync(ack_tx)).is_err() {
            return false;
        }
        ack_rx.recv_timeout(timeout).is_ok()
    }

    fn submit(&self, line: String) {
        let Some(inner) = &self.inner else { return };
        match inner.tx.try_send(Msg::Line(line)) {
            Ok(()) => {
                inner.emitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One in-flight record: append typed fields, then [`emit`].
///
/// Rendering happens inline (caller thread) so a record carries no
/// borrowed state into the writer; an inert builder (disabled logger
/// or filtered level) skips all of it.
///
/// [`emit`]: EventBuilder::emit
pub struct EventBuilder<'a> {
    logger: &'a Logger,
    line: String,
    live: bool,
    format: LogFormat,
}

impl EventBuilder<'_> {
    fn begin(&mut self, level: LogLevel, name: &str) {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        match self.format {
            LogFormat::Json => {
                let _ = write!(
                    self.line,
                    "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",\"event\":",
                    level.as_str()
                );
                write_str(&mut self.line, name);
            }
            LogFormat::Text => {
                self.line
                    .push_str(&format!("{ts_ms} {} {}", level.upper(), name));
            }
        }
    }

    fn key(&mut self, key: &str) {
        match self.format {
            LogFormat::Json => {
                self.line.push(',');
                write_str(&mut self.line, key);
                self.line.push(':');
            }
            LogFormat::Text => {
                self.line.push(' ');
                self.line.push_str(key);
                self.line.push('=');
            }
        }
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        if self.live {
            self.key(key);
            match self.format {
                LogFormat::Json => write_str(&mut self.line, value),
                LogFormat::Text => {
                    if value.contains([' ', '=', '"']) || value.is_empty() {
                        self.line.push_str(&format!("{:?}", value));
                    } else {
                        self.line.push_str(value);
                    }
                }
            }
        }
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        if self.live {
            self.key(key);
            self.line.push_str(&format!("{value}"));
        }
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        if self.live {
            self.key(key);
            self.line.push_str(if value { "true" } else { "false" });
        }
        self
    }

    /// Renders the record and hands it to the writer (non-blocking;
    /// drops and counts when the queue is full).
    pub fn emit(mut self) {
        if !self.live {
            return;
        }
        if matches!(self.format, LogFormat::Json) {
            self.line.push('}');
        }
        self.line.push('\n');
        self.logger.submit(std::mem::take(&mut self.line));
    }
}

fn writer_loop(rx: Receiver<Msg>, sink: LogSink) {
    let mut file = match &sink {
        LogSink::Stderr => None,
        LogSink::File { path, .. } => open_append(path),
    };
    let mut written: u64 = match (&sink, &file) {
        (LogSink::File { .. }, Some(f)) => f.metadata().map(|m| m.len()).unwrap_or(0),
        _ => 0,
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Line(line) => match &sink {
                LogSink::Stderr => {
                    let stderr = std::io::stderr();
                    let mut handle = stderr.lock();
                    let _ = handle.write_all(line.as_bytes());
                }
                LogSink::File { path, max_bytes } => {
                    if written >= *max_bytes {
                        // Size rotation: the live file becomes
                        // <path>.1 (previous rotation replaced), and a
                        // fresh live file is opened.
                        drop(file.take());
                        let mut rotated = path.as_os_str().to_owned();
                        rotated.push(".1");
                        let _ = fs::rename(path, PathBuf::from(rotated));
                        file = open_append(path);
                        written = 0;
                    }
                    if let Some(f) = file.as_mut() {
                        if f.write_all(line.as_bytes()).is_ok() {
                            written += line.len() as u64;
                        }
                    }
                }
            },
            Msg::Sync(ack) => {
                if let Some(f) = file.as_mut() {
                    let _ = f.flush();
                }
                let _ = ack.send(());
            }
        }
    }
    if let Some(f) = file.as_mut() {
        let _ = f.flush();
    }
}

fn open_append(path: &PathBuf) -> Option<fs::File> {
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::json_f64;

    impl Logger {
        /// `true` when records are actually going somewhere.
        fn is_enabled(&self) -> bool {
            self.inner.is_some()
        }
    }

    impl EventBuilder<'_> {
        /// Appends a float field (finite rendering per the JSON snapshot).
        fn f64(mut self, key: &str, value: f64) -> Self {
            if self.live {
                self.key(key);
                self.line.push_str(&json_f64(value));
            }
            self
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("obs_log_{tag}_{}", std::process::id()));
        p
    }

    #[test]
    fn disabled_logger_is_inert() {
        let log = Logger::disabled();
        log.event(LogLevel::Error, "boom")
            .str("k", "v")
            .u64("n", 1)
            .emit();
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
        let log = Logger::file(&path, u64::MAX, LogFormat::Json, LogLevel::Info);
        log.event(LogLevel::Info, "serve.access")
            .u64("request_id", 7)
            .str("method", "GET")
            .str("path", "/metrics")
            .u64("status", 200)
            .bool("ok", true)
            .f64("rate", 0.5)
            .emit();
        log.event(LogLevel::Debug, "filtered").emit();
        assert!(log.sync(Duration::from_secs(5)));
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "debug filtered out: {text:?}");
        let line = lines[0];
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        assert!(
            line.ends_with(
                "\"event\":\"serve.access\",\"request_id\":7,\"method\":\"GET\",\
                 \"path\":\"/metrics\",\"status\":200,\"ok\":true,\"rate\":0.5}"
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
        let log = Logger::file(&path, u64::MAX, LogFormat::Text, LogLevel::Debug);
        log.event(LogLevel::Warn, "serve.shed")
            .u64("queue_depth", 64)
            .str("note", "has spaces")
            .emit();
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
        let log = Logger::file(&path, 256, LogFormat::Json, LogLevel::Info);
        for i in 0..64 {
            log.event(LogLevel::Info, "fill").u64("i", i).emit();
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
        // A sink pointed at an unwritable path still consumes the
        // queue (writes fail silently), so fill pressure is hard to
        // create deterministically; instead exercise the accounting
        // path directly by saturating a tiny window between syncs.
        let path = temp_path("drops");
        let _ = fs::remove_file(&path);
        let log = Logger::file(&path, u64::MAX, LogFormat::Json, LogLevel::Info);
        for i in 0..QUEUE_CAPACITY as u64 * 4 {
            log.event(LogLevel::Info, "burst").u64("i", i).emit();
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
}
