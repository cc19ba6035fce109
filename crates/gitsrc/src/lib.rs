//! Real-git ingestion front end.
//!
//! Walks a cloned repository with the `git` binary — no libgit2, no
//! extra crates — and converts every touched `.java` file into the
//! same [`corpus::Corpus`] shape the synthetic generator produces, so
//! real histories flow through the identical cached mining path:
//! provenance (author, commit, path) reaches the decision trace, and
//! content-addressed cache keys make warm re-mines of a repository
//! nearly free.
//!
//! Two child processes do all the git work:
//!
//! 1. one `git log --reverse --no-merges -M --name-status` enumerates
//!    commits oldest-first with rename detection ([`log`]), and
//! 2. one long-lived `git cat-file --batch` serves blob content in
//!    bounded pipelined batches ([`CatFile`]).
//!
//! Ingestion is **total** below the repository level: a corrupt,
//! oversized, binary, or missing blob quarantines that one file (typed
//! [`SkipKind`], counted, reported), a commit over the file budget
//! sheds its excess files, and only repository-level failures (no such
//! repo, git unavailable, protocol desync) surface as [`GitError`].

mod catfile;
pub mod log;

pub use catfile::{BlobFetch, CatFile, MAX_BATCH_REQUEST_BYTES};

use obs::{MetricsRegistry, Stopwatch};
use std::fmt;
use std::path::Path;
use std::process::Command;

/// Resource budgets applied while walking a repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestLimits {
    /// Largest blob (bytes) ingested per side; bigger blobs are read,
    /// discarded, and quarantined as [`SkipKind::Oversized`].
    pub max_blob_bytes: u64,
    /// Most `.java` entries ingested per commit; the excess is
    /// quarantined as [`SkipKind::CommitFileBudget`] (bulk renames /
    /// vendored-source imports would otherwise dominate a mine).
    pub max_files_per_commit: usize,
    /// Most cat-file requests in flight before responses are drained.
    /// Together with the request-byte cap
    /// ([`MAX_BATCH_REQUEST_BYTES`]) this bounds both pipe buffers so
    /// the batch child can never deadlock.
    pub catfile_batch: usize,
}

impl IngestLimits {
    /// Defaults sized for typical crypto-library histories.
    pub const DEFAULT: IngestLimits = IngestLimits {
        max_blob_bytes: 1 << 20, // 1 MiB of source is already pathological
        max_files_per_commit: 64,
        catfile_batch: 64,
    };
}

impl Default for IngestLimits {
    fn default() -> Self {
        IngestLimits::DEFAULT
    }
}

/// What to walk and how much of it.
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    /// Optional `A..B` rev-range; `None` walks the full current branch.
    pub rev_range: Option<String>,
    /// Keep only the first N commits (oldest-first, so any prefix of a
    /// history is a stable sub-walk of a longer one).
    pub max_commits: Option<usize>,
    /// Resource budgets.
    pub limits: IngestLimits,
}

/// Repository-level ingestion failure. Everything below this level
/// degrades into typed per-file skips instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GitError {
    /// An ingest option was rejected before any git child ran (e.g. a
    /// rev-range shaped like a git option).
    Options(String),
    /// Could not spawn a git child (git missing from PATH, bad repo
    /// path permissions…).
    Spawn(String),
    /// A pipe to a git child failed mid-stream.
    Io(String),
    /// `git log` exited non-zero for a reason other than an empty
    /// history.
    Log { status: i32, stderr: String },
    /// The cat-file batch stream desynchronized (should not happen on
    /// a healthy repository).
    Protocol(String),
}

impl fmt::Display for GitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GitError::Options(e) => write!(f, "invalid ingest options: {e}"),
            GitError::Spawn(e) => write!(f, "failed to spawn git: {e}"),
            GitError::Io(e) => write!(f, "git pipe error: {e}"),
            GitError::Log { status, stderr } => {
                write!(f, "git log failed (exit {status}): {}", stderr.trim())
            }
            GitError::Protocol(e) => write!(f, "git cat-file protocol error: {e}"),
        }
    }
}

/// Why one file of one commit was quarantined instead of ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipKind {
    /// A blob exceeded [`IngestLimits::max_blob_bytes`].
    Oversized,
    /// A blob was not valid UTF-8 (binary content behind a `.java`
    /// name).
    NonUtf8,
    /// git reported the object missing (garbled path, shallow-clone
    /// boundary).
    Missing,
    /// The commit had more `.java` entries than
    /// [`IngestLimits::max_files_per_commit`].
    CommitFileBudget,
    /// A name-status code ingestion does not understand (`U`, `X`, …).
    UnknownStatus,
}

impl SkipKind {
    /// Stable kebab-case label used in counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            SkipKind::Oversized => "oversized",
            SkipKind::NonUtf8 => "non-utf8",
            SkipKind::Missing => "missing",
            SkipKind::CommitFileBudget => "commit-file-budget",
            SkipKind::UnknownStatus => "unknown-status",
        }
    }

    /// All kinds, in report order.
    pub const ALL: [SkipKind; 5] = [
        SkipKind::Oversized,
        SkipKind::NonUtf8,
        SkipKind::Missing,
        SkipKind::CommitFileBudget,
        SkipKind::UnknownStatus,
    ];
}

/// One quarantined file: enough provenance to find it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestSkip {
    /// Full hash of the commit the file belonged to.
    pub commit: String,
    /// Repository-relative path (post-image side where one exists).
    pub path: String,
    /// Why it was quarantined.
    pub kind: SkipKind,
    /// Human-readable detail (size, status code…); may be empty.
    pub detail: String,
}

/// Deterministic walk accounting. `files_seen` partitions into
/// `non_java + pairs + additions + deletions + skipped()` — the same
/// processed-equals-mined-plus-skipped discipline the mining pipeline
/// keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Commits enumerated (after merge exclusion and `max_commits`).
    pub commits_walked: usize,
    /// Commits that contributed at least one ingested file.
    pub commits_ingested: usize,
    /// Name-status entries examined across all walked commits.
    pub files_seen: usize,
    /// Entries dropped by the `.java` filter.
    pub non_java: usize,
    /// Pre/post pairs extracted (modifications and rename+edits) —
    /// the entries mining will actually analyze.
    pub pairs: usize,
    /// Renames followed to their pre-image path (subset of `pairs`).
    pub renames_followed: usize,
    /// Pure additions ingested (post side only).
    pub additions: usize,
    /// Pure deletions ingested (pre side only).
    pub deletions: usize,
    /// Blob bytes ingested across both sides.
    pub blob_bytes: u64,
}

/// The result of walking one repository.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The single-project corpus, ready for `DiffCode::mine_*`.
    pub corpus: corpus::Corpus,
    /// Walk accounting.
    pub stats: IngestStats,
    /// Every quarantined file, in walk order.
    pub skips: Vec<IngestSkip>,
}

impl IngestReport {
    /// Files quarantined, by kind (deterministic order).
    pub fn skipped_by_kind(&self) -> Vec<(SkipKind, usize)> {
        SkipKind::ALL
            .iter()
            .map(|&kind| (kind, self.skips.iter().filter(|s| s.kind == kind).count()))
            .collect()
    }
}

/// The blob work planned for one name-status entry before any content
/// is fetched.
struct PlannedFile {
    /// Post-image path where one exists, else the pre-image path.
    path: String,
    /// `<rev>:<path>` spec for the pre-image, if any.
    pre: Option<String>,
    /// `<rev>:<path>` spec for the post-image, if any.
    post: Option<String>,
    /// Whether this entry followed a rename.
    renamed: bool,
}

/// Walks `repo` and returns the ingested corpus plus accounting.
///
/// The project identity is path-independent — user `"git"`, name from
/// the repository directory's basename — so reports and cache traces
/// produced from the same repository content are byte-identical no
/// matter where the clone lives.
pub fn ingest_repo(
    repo: &Path,
    opts: &IngestOptions,
    registry: &mut MetricsRegistry,
) -> Result<IngestReport, GitError> {
    let sw = Stopwatch::start();
    let log_output = run_log(repo, opts)?;
    registry.record_span("gitsrc.log", sw.elapsed());

    let mut commits = log::parse_log(&log_output);
    if let Some(max) = opts.max_commits {
        commits.truncate(max);
    }

    let mut stats = IngestStats {
        commits_walked: commits.len(),
        ..IngestStats::default()
    };
    let mut skips: Vec<IngestSkip> = Vec::new();
    let mut ingested_commits: Vec<corpus::Commit> = Vec::new();

    let mut catfile = if commits.is_empty() {
        None
    } else {
        Some(CatFile::spawn(repo)?)
    };

    for commit in &commits {
        let mut planned: Vec<PlannedFile> = Vec::new();
        for entry in &commit.entries {
            stats.files_seen += 1;
            let post_path = match entry {
                log::StatusEntry::Added { path }
                | log::StatusEntry::Modified { path }
                | log::StatusEntry::Deleted { path } => path,
                log::StatusEntry::Renamed { new, .. } | log::StatusEntry::Copied { new } => new,
                log::StatusEntry::Other { code, raw } => {
                    if raw.ends_with(".java") {
                        skips.push(IngestSkip {
                            commit: commit.id.clone(),
                            path: raw.clone(),
                            kind: SkipKind::UnknownStatus,
                            detail: format!("status {code}"),
                        });
                    } else {
                        stats.non_java += 1;
                    }
                    continue;
                }
            };
            if !post_path.ends_with(".java") {
                stats.non_java += 1;
                continue;
            }
            if planned.len() >= opts.limits.max_files_per_commit {
                skips.push(IngestSkip {
                    commit: commit.id.clone(),
                    path: post_path.clone(),
                    kind: SkipKind::CommitFileBudget,
                    detail: format!("commit budget {}", opts.limits.max_files_per_commit),
                });
                continue;
            }
            // `--no-merges` guarantees a single parent, and root
            // commits only emit `A` lines, so `{id}^` is always a
            // valid pre-image rev wherever we use it.
            planned.push(match entry {
                log::StatusEntry::Added { path } => PlannedFile {
                    path: path.clone(),
                    pre: None,
                    post: Some(format!("{}:{path}", commit.id)),
                    renamed: false,
                },
                log::StatusEntry::Modified { path } => PlannedFile {
                    path: path.clone(),
                    pre: Some(format!("{}^:{path}", commit.id)),
                    post: Some(format!("{}:{path}", commit.id)),
                    renamed: false,
                },
                log::StatusEntry::Deleted { path } => PlannedFile {
                    path: path.clone(),
                    pre: Some(format!("{}^:{path}", commit.id)),
                    post: None,
                    renamed: false,
                },
                log::StatusEntry::Renamed { old, new } => PlannedFile {
                    path: new.clone(),
                    pre: Some(format!("{}^:{old}", commit.id)),
                    post: Some(format!("{}:{new}", commit.id)),
                    renamed: true,
                },
                // A copy's source still exists, so the post-image is
                // effectively a new file.
                log::StatusEntry::Copied { new } => PlannedFile {
                    path: new.clone(),
                    pre: None,
                    post: Some(format!("{}:{new}", commit.id)),
                    renamed: false,
                },
                log::StatusEntry::Other { .. } => unreachable!("handled above"),
            });
        }

        if planned.is_empty() {
            continue;
        }
        let catfile = catfile.as_mut().expect("spawned when commits exist");
        let blobs = fetch_planned(catfile, &planned, &opts.limits, registry)?;

        let mut changes: Vec<corpus::FileChange> = Vec::new();
        for (file, (pre, post)) in planned.iter().zip(blobs) {
            let mut quarantine = |kind: SkipKind, detail: String| {
                skips.push(IngestSkip {
                    commit: commit.id.clone(),
                    path: file.path.clone(),
                    kind,
                    detail,
                });
            };
            let sides = [(&file.pre, pre), (&file.post, post)];
            let mut contents: [Option<String>; 2] = [None, None];
            let mut failed = false;
            for (slot, (spec, fetched)) in contents.iter_mut().zip(sides) {
                match (spec, fetched) {
                    (None, _) | (Some(_), None) => {}
                    (Some(_), Some(BlobFetch::Content(text))) => *slot = Some(text),
                    (Some(spec), Some(BlobFetch::Missing)) => {
                        quarantine(SkipKind::Missing, format!("object {spec} missing"));
                        failed = true;
                    }
                    (Some(spec), Some(BlobFetch::Oversized { size })) => {
                        quarantine(
                            SkipKind::Oversized,
                            format!(
                                "{spec}: {size} bytes > budget {}",
                                opts.limits.max_blob_bytes
                            ),
                        );
                        failed = true;
                    }
                    (Some(spec), Some(BlobFetch::NonUtf8)) => {
                        quarantine(SkipKind::NonUtf8, format!("{spec}: invalid UTF-8"));
                        failed = true;
                    }
                }
                if failed {
                    break;
                }
            }
            if failed {
                continue;
            }
            let [old, new] = contents;
            stats.blob_bytes += old.as_deref().map_or(0, str::len) as u64
                + new.as_deref().map_or(0, str::len) as u64;
            match (&old, &new) {
                (Some(_), Some(_)) => {
                    stats.pairs += 1;
                    if file.renamed {
                        stats.renames_followed += 1;
                    }
                }
                (None, Some(_)) => stats.additions += 1,
                (Some(_), None) => stats.deletions += 1,
                (None, None) => continue,
            }
            changes.push(corpus::FileChange {
                path: file.path.clone(),
                old,
                new,
            });
        }

        if changes.is_empty() {
            continue;
        }
        stats.commits_ingested += 1;
        ingested_commits.push(corpus::Commit {
            id: commit.id.clone(),
            author: commit.author.clone(),
            message: commit.message.clone(),
            changes,
        });
    }

    record_metrics(registry, &stats, &skips);
    let project = corpus::Project {
        user: "git".to_owned(),
        name: project_name(repo),
        facts: corpus::ProjectFacts::default(),
        commits: ingested_commits,
    };
    Ok(IngestReport {
        corpus: corpus::Corpus {
            projects: vec![project],
        },
        stats,
        skips,
    })
}

/// The (pre, post) blob fetches for one planned file.
type FetchedPair = (Option<BlobFetch>, Option<BlobFetch>);

/// Fetches every blob a commit's plan needs, in bounded batches, and
/// reassembles (pre, post) per planned file.
fn fetch_planned(
    catfile: &mut CatFile,
    planned: &[PlannedFile],
    limits: &IngestLimits,
    registry: &mut MetricsRegistry,
) -> Result<Vec<FetchedPair>, GitError> {
    let specs: Vec<String> = planned
        .iter()
        .flat_map(|f| [f.pre.clone(), f.post.clone()])
        .flatten()
        .collect();
    let mut fetched: Vec<BlobFetch> = Vec::with_capacity(specs.len());
    for batch in specs.chunks(limits.catfile_batch.max(1)) {
        let sw = Stopwatch::start();
        fetched.extend(catfile.fetch(batch, limits.max_blob_bytes)?);
        registry.record_span("gitsrc.catfile.batch", sw.elapsed());
    }
    let mut it = fetched.into_iter();
    Ok(planned
        .iter()
        .map(|f| {
            let pre = f.pre.as_ref().map(|_| it.next().expect("one per spec"));
            let post = f.post.as_ref().map(|_| it.next().expect("one per spec"));
            (pre, post)
        })
        .collect())
}

/// Runs the single enumeration `git log`, treating an empty history as
/// an empty walk rather than an error.
///
/// The rev-range is the only caller-controlled argument, so it is both
/// rejected when option-shaped (a leading `-` could smuggle git options
/// like `--output=<path>` through remote callers such as
/// `POST /mine-repo`) and fenced behind `--end-of-options` (git ≥
/// 2.24), which forces git to parse everything after it as a revision.
fn run_log(repo: &Path, opts: &IngestOptions) -> Result<String, GitError> {
    let mut cmd = Command::new("git");
    cmd.arg("-C").arg(repo).args([
        "log",
        "--reverse",
        "--no-merges",
        "--date-order",
        "-M",
        "--name-status",
        &format!("--format={}", log::LOG_FORMAT),
    ]);
    if let Some(range) = &opts.rev_range {
        if range.starts_with('-') {
            return Err(GitError::Options(format!(
                "rev range {range:?} must not start with '-'"
            )));
        }
        cmd.arg("--end-of-options");
        cmd.arg(range);
    }
    cmd.arg("--");
    let output = cmd
        .output()
        .map_err(|e| GitError::Spawn(format!("git log: {e}")))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        if stderr.contains("does not have any commits") {
            return Ok(String::new());
        }
        return Err(GitError::Log {
            status: output.status.code().unwrap_or(-1),
            stderr,
        });
    }
    String::from_utf8(output.stdout)
        .map_err(|_| GitError::Protocol("git log output is not UTF-8".to_owned()))
}

/// Counter/gauge names under the `gitsrc.` prefix, recorded once per
/// walk so repo mines carry the same observability discipline as
/// synthetic ones.
fn record_metrics(registry: &mut MetricsRegistry, stats: &IngestStats, skips: &[IngestSkip]) {
    registry.inc("gitsrc.commits_walked", stats.commits_walked as u64);
    registry.inc("gitsrc.commits_ingested", stats.commits_ingested as u64);
    registry.inc("gitsrc.files_seen", stats.files_seen as u64);
    registry.inc("gitsrc.non_java", stats.non_java as u64);
    registry.inc("gitsrc.pairs", stats.pairs as u64);
    registry.inc("gitsrc.renames_followed", stats.renames_followed as u64);
    registry.inc("gitsrc.additions", stats.additions as u64);
    registry.inc("gitsrc.deletions", stats.deletions as u64);
    registry.inc("gitsrc.blob_bytes", stats.blob_bytes);
    for skip in skips {
        registry.inc(&format!("gitsrc.skipped.{}", skip.kind.name()), 1);
    }
}

/// Path-independent project name: the repository directory's basename.
fn project_name(repo: &Path) -> String {
    let canonical = repo.canonicalize().unwrap_or_else(|_| repo.to_path_buf());
    canonical
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "repo".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_kinds_have_stable_names() {
        let names: Vec<&str> = SkipKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "oversized",
                "non-utf8",
                "missing",
                "commit-file-budget",
                "unknown-status"
            ]
        );
    }

    #[test]
    fn default_limits_are_sane() {
        let limits = IngestLimits::default();
        assert!(limits.max_blob_bytes >= 1 << 16);
        assert!(limits.max_files_per_commit >= 1);
        assert!(limits.catfile_batch >= 1);
    }

    #[test]
    fn project_name_falls_back_for_unresolvable_paths() {
        assert_eq!(project_name(Path::new("/definitely/not/here/x")), "x");
    }
}
