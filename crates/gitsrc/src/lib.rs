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
//! Two child processes do all the git work, planned then fetched:
//!
//! 1. one `git log --reverse --no-merges -M --raw --no-abbrev`
//!    enumerates commits oldest-first with rename detection (`log`),
//!    and names the full pre- and post-image blob ids of every entry;
//!    every walked commit's files are planned from it (`.java` filter,
//!    file budget, unknown statuses) before any content is read, and
//! 2. one `git cat-file --batch` child, spawned before the log walk so
//!    its start-up overlaps it, then fetches each distinct blob id the
//!    plan needs exactly once, in first-use order, in pipelined windows
//!    bounded only by [`MAX_BATCH_REQUEST_BYTES`] of request text. A
//!    file version that is one commit's post-image and the next
//!    commit's pre-image is read once, and git resolves no paths.
//!
//! Ingestion is **total** below the repository level: a corrupt,
//! oversized, binary, or missing blob quarantines that one file (typed
//! [`SkipKind`], counted, reported), a commit over the file budget
//! sheds its excess files, and only repository-level failures (no such
//! repo, git unavailable, protocol desync) surface as [`GitError`].

mod catfile;
mod log;

pub use catfile::MAX_BATCH_REQUEST_BYTES;

use catfile::{BlobFetch, CatFile};
use obs::Recorder;
use std::collections::HashMap;
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
}

impl IngestLimits {
    /// Defaults sized for typical crypto-library histories.
    pub const DEFAULT: IngestLimits = IngestLimits {
        max_blob_bytes: 1 << 20, // 1 MiB of source is already pathological
        max_files_per_commit: 64,
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
    /// A `--raw` entry ingestion does not understand (`U`, `X`, …).
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
    pub(crate) const ALL: [SkipKind; 5] = [
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
    /// `--raw` entries examined across all walked commits.
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
    /// Distinct blobs fetched: every blob id some planned file needs,
    /// each read once however many files use it.
    pub blobs_fetched: usize,
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

/// Walks `repo` and returns the ingested corpus plus accounting.
///
/// The project identity is path-independent — user `"git"`, name from
/// the repository directory's basename — so reports and cache traces
/// produced from the same repository content are byte-identical no
/// matter where the clone lives.
pub fn ingest_repo(
    repo: &Path,
    opts: &IngestOptions,
    rec: &mut Recorder,
) -> Result<IngestReport, GitError> {
    let mut log_cmd = log_command(repo, opts)?;
    let span = rec.begin("gitsrc.log");
    // Spawned first so its start-up overlaps the log walk; a failed
    // walk still reports the log's error, as if it had run alone.
    let catfile = CatFile::spawn(repo);
    let log_output = run_log(&mut log_cmd);
    rec.end(span);
    let log_output = log_output?;
    let mut catfile = catfile?;

    let mut commits = log::parse_log(&log_output);
    if let Some(max) = opts.max_commits {
        commits.truncate(max);
    }

    let mut stats = IngestStats {
        commits_walked: commits.len(),
        ..IngestStats::default()
    };
    let mut blobs = Blobs::default();
    let plans: Vec<CommitPlan> = commits
        .iter()
        .map(|commit| plan_commit(commit, &opts.limits, &mut stats, &mut blobs))
        .collect();
    let max_blob_bytes = opts.limits.max_blob_bytes;
    blobs.fetched = catfile.fetch(&blobs.ids, max_blob_bytes, rec)?;
    drop(catfile);
    stats.blobs_fetched = blobs.ids.len();

    let mut skips: Vec<IngestSkip> = Vec::new();
    let mut ingested_commits: Vec<corpus::Commit> = Vec::new();
    for (commit, plan) in commits.iter().zip(plans) {
        skips.extend(plan.skips);
        let mut changes: Vec<corpus::FileChange> = Vec::new();
        for PlannedFile { entry, pre, post } in plan.files {
            let pre = pre.map(|blob| blobs.take(blob));
            let post = post.map(|blob| blobs.take(blob));
            // The pre-image is judged first; a file quarantines on its
            // first bad side, and the detail names that side's
            // `<rev>:<path>`.
            let old_path = entry.old_path.as_ref().unwrap_or(&entry.path);
            let pre_spec = || format!("{}^:{old_path}", commit.id);
            let post_spec = || format!("{}:{}", commit.id, entry.path);
            let sides = side_text(pre, pre_spec, max_blob_bytes)
                .and_then(|old| Ok((old, side_text(post, post_spec, max_blob_bytes)?)));
            let (old, new) = match sides {
                Ok(sides) => sides,
                Err((kind, detail)) => {
                    skips.push(IngestSkip {
                        commit: commit.id.clone(),
                        path: entry.path.clone(),
                        kind,
                        detail,
                    });
                    continue;
                }
            };
            stats.blob_bytes += old.as_deref().map_or(0, str::len) as u64
                + new.as_deref().map_or(0, str::len) as u64;
            match (&old, &new) {
                (Some(_), Some(_)) => {
                    stats.pairs += 1;
                    if entry.old_path.is_some() {
                        stats.renames_followed += 1;
                    }
                }
                (None, Some(_)) => stats.additions += 1,
                (Some(_), None) => stats.deletions += 1,
                (None, None) => continue,
            }
            changes.push(corpus::FileChange {
                path: entry.path.clone(),
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

    record_metrics(rec, &stats, &skips);
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

/// One walked commit's plan: the files to assemble once their blobs
/// arrive, and the entries quarantined without reading any content.
struct CommitPlan<'a> {
    files: Vec<PlannedFile<'a>>,
    skips: Vec<IngestSkip>,
}

/// One `.java` entry to ingest, its sides as indices into the walk's
/// [`Blobs`].
struct PlannedFile<'a> {
    entry: &'a log::FileEntry,
    pre: Option<usize>,
    post: Option<usize>,
}

/// Plans one commit's entries: the `.java` filter, the file budget and
/// unknown statuses are settled here, and every side a kept file needs
/// is registered in `blobs`.
fn plan_commit<'a>(
    commit: &'a log::LogCommit,
    limits: &IngestLimits,
    stats: &mut IngestStats,
    blobs: &mut Blobs<'a>,
) -> CommitPlan<'a> {
    let mut plan = CommitPlan {
        files: Vec::new(),
        skips: Vec::new(),
    };
    for entry in &commit.entries {
        stats.files_seen += 1;
        let entry = match entry {
            log::StatusEntry::File(entry) => entry,
            log::StatusEntry::Other { code, raw } => {
                if raw.ends_with(".java") {
                    plan.skips.push(IngestSkip {
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
        if !entry.path.ends_with(".java") {
            stats.non_java += 1;
            continue;
        }
        if plan.files.len() >= limits.max_files_per_commit {
            plan.skips.push(IngestSkip {
                commit: commit.id.clone(),
                path: entry.path.clone(),
                kind: SkipKind::CommitFileBudget,
                detail: format!("commit budget {}", limits.max_files_per_commit),
            });
            continue;
        }
        plan.files.push(PlannedFile {
            entry,
            pre: entry.old_blob.as_deref().map(|id| blobs.add(id)),
            post: entry.new_blob.as_deref().map(|id| blobs.add(id)),
        });
    }
    plan
}

/// The distinct blob ids a walk's plan needs, in first-use order, and
/// once fetched, their contents, handed out one planned use at a time.
#[derive(Default)]
struct Blobs<'a> {
    ids: Vec<&'a str>,
    index: HashMap<&'a str, usize>,
    /// Planned uses of each blob not yet handed out.
    uses: Vec<usize>,
    /// One fetch per id, once [`CatFile::fetch`] has run.
    fetched: Vec<BlobFetch>,
}

impl<'a> Blobs<'a> {
    /// Registers one use of blob `id`; returns its index.
    fn add(&mut self, id: &'a str) -> usize {
        let blob = *self.index.entry(id).or_insert(self.ids.len());
        if blob == self.ids.len() {
            self.ids.push(id);
            self.uses.push(0);
        }
        self.uses[blob] += 1;
        blob
    }

    /// Blob `blob` for one of its planned uses: a copy while other
    /// uses remain, the fetched value itself for the last one.
    fn take(&mut self, blob: usize) -> BlobFetch {
        self.uses[blob] -= 1;
        if self.uses[blob] == 0 {
            // No planned use is left to read this slot again.
            std::mem::replace(&mut self.fetched[blob], BlobFetch::Missing)
        } else {
            self.fetched[blob].clone()
        }
    }
}

/// The text of one planned side (`None` when the side does not exist),
/// or the quarantine its fetch calls for; `spec` names the side in the
/// skip detail.
fn side_text(
    fetch: Option<BlobFetch>,
    spec: impl FnOnce() -> String,
    max_blob_bytes: u64,
) -> Result<Option<String>, (SkipKind, String)> {
    match fetch {
        None => Ok(None),
        Some(BlobFetch::Content(text)) => Ok(Some(text)),
        Some(BlobFetch::Missing) => Err((SkipKind::Missing, format!("object {} missing", spec()))),
        Some(BlobFetch::Oversized { size }) => Err((
            SkipKind::Oversized,
            format!("{}: {size} bytes > budget {max_blob_bytes}", spec()),
        )),
        Some(BlobFetch::NonUtf8) => Err((SkipKind::NonUtf8, format!("{}: invalid UTF-8", spec()))),
    }
}

/// The single enumeration `git log`, built but not run.
///
/// The rev-range is the only caller-controlled argument, so it is both
/// rejected when option-shaped (a leading `-` could smuggle git options
/// like `--output=<path>` through remote callers such as
/// `POST /mine-repo`) and fenced behind `--end-of-options` (git ≥
/// 2.24), which forces git to parse everything after it as a revision.
/// The rejection happens here, before any git child runs.
fn log_command(repo: &Path, opts: &IngestOptions) -> Result<Command, GitError> {
    let mut cmd = Command::new("git");
    cmd.arg("-C").arg(repo).args([
        "log",
        "--reverse",
        "--no-merges",
        "--date-order",
        "-M",
        "--raw",
        "--no-abbrev",
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
    Ok(cmd)
}

/// Runs the enumeration `git log`, treating an empty history as an
/// empty walk rather than an error. The output is decoded lossily: a
/// subject or author that is not UTF-8 keeps its commit (with U+FFFD
/// in the field), and the NUL framing and the hex blob ids are ASCII,
/// so no record can be lost or misread.
fn run_log(cmd: &mut Command) -> Result<String, GitError> {
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
    Ok(String::from_utf8(output.stdout)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))
}

/// Counter/gauge names under the `gitsrc.` prefix, recorded once per
/// walk so repo mines carry the same observability discipline as
/// synthetic ones.
fn record_metrics(registry: &mut Recorder, stats: &IngestStats, skips: &[IngestSkip]) {
    registry.inc("gitsrc.commits_walked", stats.commits_walked as u64);
    registry.inc("gitsrc.commits_ingested", stats.commits_ingested as u64);
    registry.inc("gitsrc.files_seen", stats.files_seen as u64);
    registry.inc("gitsrc.non_java", stats.non_java as u64);
    registry.inc("gitsrc.pairs", stats.pairs as u64);
    registry.inc("gitsrc.renames_followed", stats.renames_followed as u64);
    registry.inc("gitsrc.additions", stats.additions as u64);
    registry.inc("gitsrc.deletions", stats.deletions as u64);
    registry.inc("gitsrc.blob_bytes", stats.blob_bytes);
    registry.inc("gitsrc.blobs_fetched", stats.blobs_fetched as u64);
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
    }

    #[test]
    fn project_name_falls_back_for_unresolvable_paths() {
        assert_eq!(project_name(Path::new("/definitely/not/here/x")), "x");
    }
}
