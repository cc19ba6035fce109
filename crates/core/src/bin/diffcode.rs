//! The `diffcode` command-line tool. See [`diffcode::cli::USAGE`].

use diffcode::cli;
use rules::ProjectContext;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        print!("{}", cli::USAGE);
        return Ok(ExitCode::from(2));
    };
    match command.as_str() {
        "analyze" => {
            let (paths, classes, _) = parse_flags(&args[1..])?;
            let [path] = paths.as_slice() else {
                return Err("analyze takes exactly one file".to_owned());
            };
            let source = read(path)?;
            let classes: Vec<&str> = classes.iter().map(String::as_str).collect();
            print!(
                "{}",
                cli::render_analysis(&source, &classes).map_err(|e| e.to_string())?
            );
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let (paths, classes, _) = parse_flags(&args[1..])?;
            let [old, new] = paths.as_slice() else {
                return Err("diff takes exactly two files".to_owned());
            };
            let old_source = read(old)?;
            let new_source = read(new)?;
            let classes: Vec<&str> = classes.iter().map(String::as_str).collect();
            print!(
                "{}",
                cli::render_diff(&old_source, &new_source, &classes).map_err(|e| e.to_string())?
            );
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let (paths, _, android) = parse_flags(&args[1..])?;
            if paths.is_empty() {
                return Err("check needs at least one file or directory".to_owned());
            }
            let mut files = Vec::new();
            for path in &paths {
                collect_java_files(path, &mut files)?;
            }
            if files.is_empty() {
                return Err("no .java files found".to_owned());
            }
            let context = match android {
                Some(min_sdk) => ProjectContext::android(min_sdk),
                None => ProjectContext::plain(),
            };
            let Some(report) = cli::render_check(&files, context, None) else {
                return Err("check without a deadline always finishes".to_owned());
            };
            print!("{}", report.text);
            Ok(if report.violated > 0 {
                ExitCode::FAILURE
            } else if report.unanalyzed > 0 {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            })
        }
        "rules" => {
            print!("{}", cli::render_rules());
            Ok(ExitCode::SUCCESS)
        }
        "chaos" => {
            let (seed, rate, projects) = parse_chaos_flags(&args[1..])?;
            print!("{}", cli::render_chaos(seed, rate, projects));
            Ok(ExitCode::SUCCESS)
        }
        "mine" => {
            let mut opts = parse_funnel_flags("mine", &args[1..], &MINE_FLAGS)?;
            let source = opts.source()?;
            // Graceful Ctrl-C, traced or not: mining stops between
            // changes, the cache log is flushed, the partial report,
            // trace, and metrics are still written, and the process
            // exits 130.
            diffcode::shutdown::install();
            let funnel_opts = cli::FunnelOptions {
                threads: opts.threads.unwrap_or_else(default_threads),
                cache_dir: opts.cache_dir.take(),
                cluster_cache_dir: opts.cluster_cache_dir.take(),
                trace_sample: opts
                    .trace_out
                    .as_ref()
                    .map(|_| opts.trace_sample.unwrap_or(1)),
                cancel: Some(diffcode::shutdown::flag()),
            };
            let (report, funnel) = cli::run_mine(&source, &funnel_opts)?;
            let trace = funnel.recorder.trace();
            if let (Some(path), Some(trace)) = (&opts.trace_out, trace) {
                std::fs::write(path, obs::to_chrome_json(trace))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            print!("{report}");
            if let (Some(path), Some(trace)) = (&opts.trace_out, trace) {
                println!(
                    "trace: {} event(s) written to {}",
                    trace.len(),
                    path.display()
                );
            }
            if let Some(path) = &opts.metrics_json {
                std::fs::write(path, funnel.recorder.to_json())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            let code = if funnel.interrupted {
                ExitCode::from(130)
            } else {
                ExitCode::SUCCESS
            };
            // Every output is written and the process is about to exit.
            // Nothing in a `Funnel` has a `Drop` with side effects, so
            // freeing the mined result tuple by tuple, and the corpus it
            // was mined from file by file, would only delay the exit
            // that hands the whole heap back at once.
            std::mem::forget(funnel);
            Ok(code)
        }
        "serve" => {
            // Cargo-style external subcommand: the server depends on
            // this crate, so it lives in its own binary
            // (`diffcode-serve`, crates/serve) installed next to this
            // one. On Unix, exec() replaces this process so the server
            // keeps our pid — a supervisor's SIGTERM reaches the drain
            // logic directly instead of killing a wrapper and orphaning
            // the listener.
            let exe = std::env::current_exe()
                .map_err(|e| format!("resolving current executable: {e}"))?;
            let name = if cfg!(windows) {
                "diffcode-serve.exe"
            } else {
                "diffcode-serve"
            };
            let sibling = exe.with_file_name(name);
            let mut cmd = std::process::Command::new(&sibling);
            cmd.args(&args[1..]);
            let launch_err = |e: std::io::Error| {
                format!(
                    "launching {}: {e} (is the diffcode-serve binary installed \
                     next to diffcode?)",
                    sibling.display()
                )
            };
            #[cfg(unix)]
            {
                use std::os::unix::process::CommandExt as _;
                // exec only returns on failure.
                Err(launch_err(cmd.exec()))
            }
            #[cfg(not(unix))]
            {
                let status = cmd.status().map_err(launch_err)?;
                let code = status.code().unwrap_or(130);
                Ok(ExitCode::from(u8::try_from(code).unwrap_or(1)))
            }
        }
        "explain" => {
            let opts = parse_funnel_flags("explain", &args[1..], &MINE_FLAGS[..6])?;
            let query = opts.query.clone().ok_or_else(|| {
                "explain needs a query: a fingerprint prefix or project/path".to_owned()
            })?;
            let source = opts.source()?;
            let threads = opts.threads.unwrap_or_else(default_threads);
            print!("{}", cli::run_explain(&query, &source, threads)?);
            Ok(ExitCode::SUCCESS)
        }
        "cache" => {
            let (action, dir, namespace) = parse_cache_args(&args[1..])?;
            let namespace = namespace.as_deref();
            match action.as_str() {
                "stats" => {
                    print!("{}", cli::render_cache_stats(&dir, namespace)?);
                    Ok(ExitCode::SUCCESS)
                }
                "vacuum" => {
                    print!("{}", cli::render_cache_vacuum(&dir, namespace)?);
                    Ok(ExitCode::SUCCESS)
                }
                "verify" => {
                    let (report, clean) = cli::render_cache_verify(&dir, namespace)?;
                    print!("{report}");
                    Ok(if clean {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    })
                }
                other => Err(format!(
                    "unknown cache action `{other}` (expected stats, vacuum, or verify)"
                )),
            }
        }
        "metrics" => {
            let opts = parse_funnel_flags("metrics", &args[1..], &METRICS_FLAGS)?;
            let threads = opts.threads.unwrap_or_else(default_threads);
            let seed = opts.seed.unwrap_or(42);
            let projects = opts.projects.unwrap_or(12);
            let (report, registry) = cli::run_metrics(seed, projects, threads)?;
            print!("{report}");
            if let Some(path) = opts.metrics_json {
                std::fs::write(&path, registry.to_json())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!("metrics snapshot written to {}", path.display());
            }
            Ok(ExitCode::SUCCESS)
        }
        "help" | "--help" | "-h" => {
            print!("{}", cli::USAGE);
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n\n{}", cli::USAGE)),
    }
}

/// Parsed positional paths, `--class` values, and `--android` minSdk.
type ParsedFlags = (Vec<PathBuf>, Vec<String>, Option<i64>);

/// Splits positional arguments from `--class <Name>` (repeatable) and
/// `--android <minSdk>` flags.
fn parse_flags(args: &[String]) -> Result<ParsedFlags, String> {
    let mut paths = Vec::new();
    let mut classes = Vec::new();
    let mut android = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--class" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--class needs a value".to_owned())?;
                classes.push(value.clone());
            }
            "--android" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--android needs a minSdkVersion".to_owned())?;
                android = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad minSdkVersion `{value}`"))?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    Ok((paths, classes, android))
}

/// Parses `chaos` flags: `--seed <N>` (default 42), `--rate <0..1>`
/// (default 0.4), `--projects <N>` (default 6).
fn parse_chaos_flags(args: &[String]) -> Result<(u64, f64, usize), String> {
    let mut seed = 42u64;
    let mut rate = 0.4f64;
    let mut projects = 6usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_for = |flag: &str| iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--seed" => {
                let value = value_for("--seed")?;
                seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--rate" => {
                let value = value_for("--rate")?;
                rate = value.parse().map_err(|_| format!("bad rate `{value}`"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("rate `{value}` not in 0..1"));
                }
            }
            "--projects" => {
                let value = value_for("--projects")?;
                projects = value
                    .parse()
                    .map_err(|_| format!("bad project count `{value}`"))?;
            }
            other => return Err(format!("unknown chaos argument `{other}`")),
        }
    }
    Ok((seed, rate, projects))
}

/// The flags `mine` accepts; `explain` accepts the first six (the
/// corpus source and `--threads`).
const MINE_FLAGS: [&str; 11] = [
    "--seed",
    "--projects",
    "--repo",
    "--rev-range",
    "--max-commits",
    "--threads",
    "--cache-dir",
    "--cluster-cache-dir",
    "--metrics-json",
    "--trace-out",
    "--trace-sample",
];

/// The flags `metrics` accepts (seeded corpora only).
const METRICS_FLAGS: [&str; 4] = ["--seed", "--projects", "--threads", "--metrics-json"];

/// Parsed flags of the funnel commands (`mine`, `explain`, `metrics`).
#[derive(Default)]
struct FunnelFlags {
    seed: Option<u64>,
    projects: Option<usize>,
    repo: Option<PathBuf>,
    rev_range: Option<String>,
    max_commits: Option<usize>,
    threads: Option<usize>,
    cache_dir: Option<PathBuf>,
    cluster_cache_dir: Option<PathBuf>,
    metrics_json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    trace_sample: Option<u64>,
    /// `explain`'s one positional argument.
    query: Option<String>,
}

impl FunnelFlags {
    /// Resolves the seeded-vs-repo source, rejecting mixed flags (a
    /// repo walk has no seed or project count to vary).
    fn source(&self) -> Result<cli::MineSource, String> {
        match &self.repo {
            Some(repo) => {
                if self.seed.is_some() || self.projects.is_some() {
                    return Err("--repo conflicts with --seed/--projects".to_owned());
                }
                Ok(cli::MineSource::Repo {
                    repo: repo.clone(),
                    rev_range: self.rev_range.clone(),
                    max_commits: self.max_commits,
                })
            }
            None => {
                if self.rev_range.is_some() || self.max_commits.is_some() {
                    return Err("--rev-range/--max-commits need --repo".to_owned());
                }
                Ok(cli::MineSource::Seeded {
                    seed: self.seed.unwrap_or(42),
                    n_projects: self.projects.unwrap_or(12),
                })
            }
        }
    }
}

/// Parses the flags of funnel `command`, accepting only `accepted`:
/// `--seed <N>` (default 42), `--projects <N>` (default 12), or
/// `--repo <path>` with optional `--rev-range <A..B>` and
/// `--max-commits <N>`; `--threads <N>` (default: all cores);
/// `--cache-dir <dir>` (the persistent result cache);
/// `--cluster-cache-dir <dir>` (clusters the mined changes through
/// persisted distance cells); `--metrics-json <path>` (snapshot
/// output); `--trace-out <path>` (Chrome trace-event JSON export); and
/// `--trace-sample <N>` (keep every Nth span; needs `--trace-out`).
/// `explain` also takes exactly one positional query.
fn parse_funnel_flags(
    command: &str,
    args: &[String],
    accepted: &[&str],
) -> Result<FunnelFlags, String> {
    let mut opts = FunnelFlags::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        if !accepted.contains(&flag) {
            if command != "explain" {
                return Err(format!("unknown {command} argument `{flag}`"));
            }
            if flag.starts_with("--") {
                return Err(format!("unknown explain flag `{flag}`"));
            }
            if opts.query.replace(arg.clone()).is_some() {
                return Err("explain takes exactly one query".to_owned());
            }
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let count = |what: &str| -> Result<usize, String> {
            value
                .parse()
                .map_err(|_| format!("bad {what} count `{value}`"))
        };
        match flag {
            "--seed" => opts.seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--projects" => opts.projects = Some(count("project")?),
            "--repo" => opts.repo = Some(PathBuf::from(value)),
            "--rev-range" => opts.rev_range = Some(value.clone()),
            "--max-commits" => opts.max_commits = Some(count("commit")?),
            "--threads" => opts.threads = Some(count("thread")?),
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value)),
            "--cluster-cache-dir" => opts.cluster_cache_dir = Some(PathBuf::from(value)),
            "--metrics-json" => opts.metrics_json = Some(PathBuf::from(value)),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value)),
            // The last accepted flag: `--trace-sample`.
            _ => {
                let sample: u64 = value
                    .parse()
                    .map_err(|_| format!("bad sample interval `{value}`"))?;
                if sample == 0 {
                    return Err("--trace-sample must be at least 1".to_owned());
                }
                opts.trace_sample = Some(sample);
            }
        }
    }
    if opts.trace_sample.is_some() && opts.trace_out.is_none() {
        return Err("--trace-sample needs --trace-out".to_owned());
    }
    Ok(opts)
}

/// Parses `cache` arguments: one action (`stats`, `vacuum`, `verify`)
/// plus a required `--cache-dir <dir>` and an optional `--namespace
/// <ns>` selecting which log in the directory to operate on (`cache`,
/// the mining default, or `cluster`).
fn parse_cache_args(args: &[String]) -> Result<(String, PathBuf, Option<String>), String> {
    let mut action = None;
    let mut dir = None;
    let mut namespace = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cache-dir" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--cache-dir needs a value".to_owned())?;
                dir = Some(PathBuf::from(value));
            }
            "--namespace" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--namespace needs a value".to_owned())?;
                namespace = Some(value.clone());
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown cache flag `{flag}`"));
            }
            word => {
                if action.replace(word.to_owned()).is_some() {
                    return Err("cache takes exactly one action".to_owned());
                }
            }
        }
    }
    let action =
        action.ok_or_else(|| "cache needs an action: stats, vacuum, or verify".to_owned())?;
    let dir = dir.ok_or_else(|| "cache needs --cache-dir <dir>".to_owned())?;
    Ok((action, dir, namespace))
}

/// The default worker count: every available core.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn collect_java_files(path: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            collect_java_files(&entry, out)?;
        }
        return Ok(());
    }
    if path.extension().is_some_and(|ext| ext == "java") {
        out.push((path.display().to_string(), read(path)?));
    }
    Ok(())
}
