//! The `diffcode-serve` binary: `diffcode serve` delegates here (the
//! cargo-style external-subcommand pattern keeps the core CLI free of
//! a server dependency). Runs until SIGINT/SIGTERM, then drains and
//! reports final accounting.
//!
//! Diagnostics go through the structured logger (JSON lines on stderr
//! by default; `--log-format text` for a human-readable mirror,
//! `--log-file` to write to a size-rotated file instead). The two
//! stdout lines — the `listening on` handshake and the final
//! `drained:` accounting — are protocol, read by supervisors and the
//! smoke harness, and stay plain text.

use obs::{AttrSet, LogFormat, LogLevel, Logger};
use serve::{ServeConfig, Server};
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "\
usage: diffcode-serve [--addr <host:port>] [--threads <N>] [--cache-dir <dir>]
                      [--repo-root <dir>] [--deadline-ms <N>] [--queue-depth <N>]
                      [--drain-ms <N>]
                      [--log-format json|text|off] [--log-file <path>]
                      [--log-max-bytes <N>] [--log-level debug|info|warn|error]

Resident mining/checking service. Endpoints:
  POST /mine                  {\"old\": ..., \"new\": ...} -> mined/quarantined verdict
  POST /mine-repo             {\"repo\": <name under --repo-root>} -> walk + mine
  POST /check                 {\"source\": ...} -> rule violations
  GET  /explain/<fingerprint> recent /mine verdicts for a fingerprint prefix
  GET  /metrics               Prometheus text exposition
  GET  /status                uptime, accounting, cache hit rates, latency percentiles
  GET  /trace/capture?events=N Chrome-trace snapshot of recent requests
  GET  /healthz, /readyz      liveness; readiness goes 503 while draining

--deadline-ms (default 2000) bounds each request: reading it and its
compute, checked between the code changes of /mine and /mine-repo and
between the files of /check; an overrun answers 408.

One structured access-log record per request (and lifecycle events) is
written as JSON lines on stderr, or to --log-file with size rotation at
--log-max-bytes (default 64 MiB). --log-format text renders the same
records human-readably; off disables logging entirely.

Shuts down gracefully on SIGINT/SIGTERM: stops accepting, drains the
queue under the drain deadline, flushes the mining cache.
Set DIFFCODE_SERVE_CHAOS=1 to honor the X-Chaos-* test headers.";

/// Log settings parsed from flags; folded into a [`Logger`] once.
struct LogArgs {
    format: Option<LogFormat>,
    file: Option<std::path::PathBuf>,
    max_bytes: u64,
    level: LogLevel,
}

impl Default for LogArgs {
    fn default() -> Self {
        LogArgs {
            format: Some(LogFormat::Json),
            file: None,
            max_bytes: 64 * 1024 * 1024,
            level: LogLevel::Info,
        }
    }
}

impl LogArgs {
    /// The logger these flags select; a `--log-file` that cannot be
    /// opened is an error, like a bad flag.
    fn build(&self) -> Result<Logger, String> {
        Ok(match self.format {
            None => Logger::disabled(),
            Some(format) => match &self.file {
                Some(path) => Logger::file(path, self.max_bytes, format, self.level)
                    .map_err(|e| format!("--log-file {}: {e}", path.display()))?,
                None => Logger::stderr(format, self.level),
            },
        })
    }
}

fn parse_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut log = LogArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--threads" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs a positive integer".to_owned())?;
            }
            "--cache-dir" => config.cache_dir = Some(value("--cache-dir")?.into()),
            "--repo-root" => config.repo_root = Some(value("--repo-root")?.into()),
            "--deadline-ms" => {
                config.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms needs an integer".to_owned())?;
            }
            "--queue-depth" => {
                config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth needs an integer".to_owned())?;
            }
            "--drain-ms" => {
                config.drain_ms = value("--drain-ms")?
                    .parse()
                    .map_err(|_| "--drain-ms needs an integer".to_owned())?;
            }
            "--log-format" => {
                log.format = match value("--log-format")?.as_str() {
                    "json" => Some(LogFormat::Json),
                    "text" => Some(LogFormat::Text),
                    "off" => None,
                    _ => return Err("--log-format must be json, text, or off".to_owned()),
                };
            }
            "--log-file" => log.file = Some(value("--log-file")?.into()),
            "--log-max-bytes" => {
                log.max_bytes = value("--log-max-bytes")?
                    .parse()
                    .map_err(|_| "--log-max-bytes needs an integer".to_owned())?;
            }
            "--log-level" => {
                log.level = match value("--log-level")?.as_str() {
                    "debug" => LogLevel::Debug,
                    "info" => LogLevel::Info,
                    "warn" => LogLevel::Warn,
                    "error" => LogLevel::Error,
                    _ => return Err("--log-level must be debug, info, warn, or error".to_owned()),
                };
            }
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    if std::env::var_os("DIFFCODE_SERVE_CHAOS").is_some() {
        config.chaos_hooks = true;
    }
    config.logger = log.build()?;
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    diffcode::shutdown::install();
    // Shares the writer with the server (Logger clones share one
    // pipeline). With no server there is no recorder to capture the
    // boot failure, so it goes to the log alone.
    let log = config.logger.clone();
    let handle = match Server::spawn(config) {
        Ok(handle) => handle,
        Err(e) => {
            let mut attrs = AttrSet::default();
            attrs.str("error", e.as_str());
            log.write(LogLevel::Error, "serve.boot_failed", &attrs);
            log.sync(std::time::Duration::from_secs(2));
            eprintln!("diffcode-serve: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The listening line is the startup handshake: supervisors (and
    // the smoke script) read it to learn the bound port, so it must
    // reach the pipe immediately.
    println!("diffcode-serve listening on http://{}", handle.addr());
    let _ = std::io::stdout().flush();

    let summary = handle.join();
    println!(
        "diffcode-serve drained: accepted {} = completed {} + shed {} + failed {}; \
         flushed {} cache entries",
        summary.accepted, summary.completed, summary.shed, summary.failed, summary.flushed_entries
    );
    let _ = std::io::stdout().flush();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn an_unopenable_log_file_is_a_flag_error() {
        let dir = std::env::temp_dir().join(format!("serve_no_log_dir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("serve.log");
        let path = path.to_str().expect("a UTF-8 temp path");
        let err = parse_args(&args(&["--log-file", path])).expect_err("the directory is missing");
        assert!(err.starts_with(&format!("--log-file {path}: ")), "{err}");
        assert!(!dir.exists(), "nothing was created");
        // Logging off opens nothing, so the same path is no error.
        assert!(parse_args(&args(&["--log-format", "off", "--log-file", path])).is_ok());
    }
}
