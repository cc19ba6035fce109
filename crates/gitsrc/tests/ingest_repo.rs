//! Integration tests for the real-git walk: each test builds a small
//! throwaway repository with the `git` binary (fixed identities and
//! dates, same discipline as scripts/make_fixture_repo.sh) and checks
//! the ingested corpus shape, provenance, and quarantine accounting.

use gitsrc::{ingest_repo, IngestLimits, IngestOptions, IngestReport, SkipKind};
use obs::Recorder;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A unique, cleaned-up-on-drop temp dir per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("gitsrc-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A test repository with a deterministic fake clock: every commit is
/// stamped by the same author one minute after the previous one, so
/// repeated builds produce identical hashes.
struct TestRepo {
    dir: TempDir,
    tick: u32,
}

impl TestRepo {
    fn init(tag: &str) -> TestRepo {
        let repo = TestRepo {
            dir: TempDir::new(tag),
            tick: 0,
        };
        repo.git(&["init", "-q", "-b", "main", "."]);
        repo
    }

    fn path(&self) -> &Path {
        &self.dir.0
    }

    fn git(&self, args: &[&str]) {
        self.git_stdout(args);
    }

    /// Stdout of a git command that must succeed.
    fn git_stdout(&self, args: &[&str]) -> Vec<u8> {
        let output = self.command(args).output().expect("spawn git");
        assert!(
            output.status.success(),
            "git {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        output.stdout
    }

    /// Feeds a `git fast-import` stream, for histories the porcelain
    /// cannot write (raw non-UTF-8 headers, thousands of files).
    fn fast_import(&self, stream: &[u8]) {
        let mut child = self
            .command(&["fast-import", "--quiet"])
            .stdin(Stdio::piped())
            .spawn()
            .expect("spawn git fast-import");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(stream)
            .expect("write fast-import stream");
        assert!(child.wait().unwrap().success(), "git fast-import failed");
    }

    fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new("git");
        cmd.arg("-C")
            .arg(self.path())
            .args(args)
            .env("GIT_AUTHOR_NAME", "Test Author")
            .env("GIT_AUTHOR_EMAIL", "author@test")
            .env("GIT_COMMITTER_NAME", "Test Committer")
            .env("GIT_COMMITTER_EMAIL", "committer@test")
            .env("GIT_CONFIG_GLOBAL", "/dev/null")
            .env("GIT_CONFIG_SYSTEM", "/dev/null")
            .env(
                "GIT_AUTHOR_DATE",
                format!("2021-01-01T00:{:02}:00Z", self.tick),
            )
            .env(
                "GIT_COMMITTER_DATE",
                format!("2021-01-01T00:{:02}:00Z", self.tick),
            );
        cmd
    }

    fn write(&self, path: &str, content: &str) {
        std::fs::write(self.path().join(path), content).unwrap();
    }

    fn write_bytes(&self, path: &str, content: &[u8]) {
        std::fs::write(self.path().join(path), content).unwrap();
    }

    fn commit(&mut self, message: &str) {
        self.tick += 1;
        self.git(&["add", "-A"]);
        self.git(&["commit", "-q", "--no-gpg-sign", "-m", message]);
    }
}

/// A `git fast-import` stream on one branch, one commit a minute.
#[derive(Default)]
struct FastImport {
    bytes: Vec<u8>,
    tick: u32,
}

impl FastImport {
    /// Appends a commit writing `files` (path, content); `author` is
    /// `Name <email>` as raw bytes, like `message`.
    fn commit(&mut self, author: &[u8], message: &[u8], files: &[(&str, &[u8])]) {
        self.tick += 1;
        let when = 1_609_459_200 + 60 * self.tick;
        self.bytes
            .extend_from_slice(b"commit refs/heads/main\nauthor ");
        self.bytes.extend_from_slice(author);
        let header = format!(
            " {when} +0000\ncommitter Test Committer <committer@test> {when} +0000\ndata {}\n",
            message.len()
        );
        self.bytes.extend_from_slice(header.as_bytes());
        self.bytes.extend_from_slice(message);
        for (path, content) in files {
            let entry = format!("\nM 100644 inline {path}\ndata {}\n", content.len());
            self.bytes.extend_from_slice(entry.as_bytes());
            self.bytes.extend_from_slice(content);
        }
        self.bytes.extend_from_slice(b"\n\n");
    }
}

/// A Java class body with enough stable padding that a rename+edit
/// stays above git's 50% similarity threshold.
fn java_class(name: &str, transform: &str) -> String {
    let mut out = String::new();
    for i in 1..=20 {
        out.push_str(&format!("// padding line {i}\n"));
    }
    out.push_str(&format!(
        "public class {name} {{\n    void run() throws Exception {{\n        \
         javax.crypto.Cipher.getInstance(\"{transform}\");\n    }}\n}}\n"
    ));
    out
}

fn ingest(repo: &TestRepo, opts: &IngestOptions) -> IngestReport {
    let mut registry = Recorder::default();
    ingest_repo(repo.path(), opts, &mut registry).expect("ingest")
}

fn skip_count(report: &IngestReport, kind: SkipKind) -> usize {
    report.skips.iter().filter(|s| s.kind == kind).count()
}

#[test]
fn rename_plus_edit_in_one_commit_yields_one_pair() {
    let mut repo = TestRepo::init("rename-edit");
    repo.write("Session.java", &java_class("Session", "DES"));
    repo.commit("add session");
    repo.git(&["mv", "Session.java", "SecureSession.java"]);
    repo.write(
        "SecureSession.java",
        &java_class("SecureSession", "AES/GCM/NoPadding"),
    );
    repo.commit("rename and harden");

    let report = ingest(&repo, &IngestOptions::default());
    assert_eq!(report.stats.pairs, 1);
    assert_eq!(report.stats.renames_followed, 1);
    assert_eq!(report.stats.additions, 1); // the initial add
    assert!(report.skips.is_empty());

    let commit = report.corpus.projects[0].commits.last().unwrap();
    assert_eq!(commit.message, "rename and harden");
    assert_eq!(commit.author, "Test Author <author@test>");
    let change = &commit.changes[0];
    // The pair pairs the OLD path's content with the NEW path's.
    assert_eq!(change.path, "SecureSession.java");
    assert!(change.old.as_deref().unwrap().contains("class Session"));
    assert!(change.old.as_deref().unwrap().contains("DES"));
    assert!(change
        .new
        .as_deref()
        .unwrap()
        .contains("class SecureSession"));
    assert!(change.new.as_deref().unwrap().contains("AES/GCM/NoPadding"));
}

#[test]
fn rename_chain_across_commits_is_followed_hop_by_hop() {
    let mut repo = TestRepo::init("rename-chain");
    repo.write("A.java", &java_class("A", "DES"));
    repo.commit("add");
    repo.git(&["mv", "A.java", "B.java"]);
    repo.commit("first hop");
    repo.git(&["mv", "B.java", "C.java"]);
    repo.commit("second hop");

    let report = ingest(&repo, &IngestOptions::default());
    assert_eq!(report.stats.renames_followed, 2);
    assert_eq!(report.stats.pairs, 2);

    let commits = &report.corpus.projects[0].commits;
    assert_eq!(commits.len(), 3);
    // Each hop pre-image resolves through the previous name.
    assert_eq!(commits[1].changes[0].path, "B.java");
    assert_eq!(commits[2].changes[0].path, "C.java");
    assert_eq!(commits[1].changes[0].old, commits[0].changes[0].new);
    assert_eq!(commits[2].changes[0].old, commits[1].changes[0].new);
}

#[test]
fn file_added_then_deleted_produces_an_addition_and_a_deletion() {
    let mut repo = TestRepo::init("add-delete");
    let body = java_class("Scratch", "AES");
    repo.write("Scratch.java", &body);
    repo.commit("add scratch");
    repo.git(&["rm", "-q", "Scratch.java"]);
    repo.commit("drop scratch");

    let report = ingest(&repo, &IngestOptions::default());
    assert_eq!(report.stats.additions, 1);
    assert_eq!(report.stats.deletions, 1);
    assert_eq!(report.stats.pairs, 0);

    let commits = &report.corpus.projects[0].commits;
    assert_eq!(commits[0].changes[0].old, None);
    assert_eq!(commits[0].changes[0].new.as_deref(), Some(body.as_str()));
    // The deletion carries the pre-image so mining can see what died.
    assert_eq!(commits[1].changes[0].old.as_deref(), Some(body.as_str()));
    assert_eq!(commits[1].changes[0].new, None);
}

#[test]
fn merge_commits_are_skipped_and_the_walk_is_deterministic() {
    let mut repo = TestRepo::init("merge");
    repo.write("Main.java", &java_class("Main", "AES"));
    repo.commit("mainline");
    repo.git(&["checkout", "-q", "-b", "side"]);
    repo.write("Side.java", &java_class("Side", "DES"));
    repo.commit("side work");
    repo.git(&["checkout", "-q", "main"]);
    repo.write("Other.java", &java_class("Other", "RC4"));
    repo.commit("parallel work");
    repo.tick += 1;
    repo.git(&[
        "merge",
        "-q",
        "--no-ff",
        "--no-gpg-sign",
        "-m",
        "merge side",
        "side",
    ]);

    let first = ingest(&repo, &IngestOptions::default());
    // 4 commits exist; the merge is excluded, its branch commit is not.
    assert_eq!(first.stats.commits_walked, 3);
    let messages: Vec<&str> = first.corpus.projects[0]
        .commits
        .iter()
        .map(|c| c.message.as_str())
        .collect();
    assert!(messages.contains(&"side work"));
    assert!(!messages.iter().any(|m| m.contains("merge")));

    // Byte-for-byte deterministic: a second walk sees the same corpus.
    let second = ingest(&repo, &IngestOptions::default());
    assert_eq!(first.corpus, second.corpus);
    assert_eq!(first.stats, second.stats);
}

#[test]
fn oversized_and_non_utf8_blobs_quarantine_without_aborting() {
    let mut repo = TestRepo::init("quarantine");
    repo.write("Ok.java", &java_class("Ok", "AES"));
    // Binary content behind a .java name.
    repo.write_bytes("Binary.java", &[0xFF, 0xFE, 0x00, 0x42, 0x80]);
    // Bigger than the (tightened) blob budget below.
    repo.write("Big.java", &"x".repeat(4096));
    repo.commit("mixed bag");

    let opts = IngestOptions {
        limits: IngestLimits {
            max_blob_bytes: 1024,
            ..IngestLimits::DEFAULT
        },
        ..IngestOptions::default()
    };
    let report = ingest(&repo, &opts);
    assert_eq!(skip_count(&report, SkipKind::Oversized), 1);
    assert_eq!(skip_count(&report, SkipKind::NonUtf8), 1);
    // The healthy file still ingested; the walk never aborted.
    assert_eq!(report.stats.additions, 1);
    assert_eq!(
        report.corpus.projects[0].commits[0].changes[0].path,
        "Ok.java"
    );
    // files_seen partitions exactly into ingested + filtered + skipped.
    let accounted = report.stats.non_java
        + report.stats.pairs
        + report.stats.additions
        + report.stats.deletions
        + report.skips.len();
    assert_eq!(report.stats.files_seen, accounted);
}

#[test]
fn commit_file_budget_sheds_the_excess() {
    let mut repo = TestRepo::init("budget");
    for i in 0..4 {
        repo.write(&format!("F{i}.java"), &java_class(&format!("F{i}"), "AES"));
    }
    repo.commit("bulk import");

    let opts = IngestOptions {
        limits: IngestLimits {
            max_files_per_commit: 2,
            ..IngestLimits::DEFAULT
        },
        ..IngestOptions::default()
    };
    let report = ingest(&repo, &opts);
    assert_eq!(report.stats.additions, 2);
    assert_eq!(skip_count(&report, SkipKind::CommitFileBudget), 2);
}

#[test]
fn a_non_utf8_subject_or_author_keeps_its_commit() {
    let repo = TestRepo::init("latin1");
    let mut history = FastImport::default();
    let before = java_class("Cipher", "DES");
    let after = java_class("Cipher", "AES/GCM/NoPadding");
    history.commit(
        b"Test Author <author@test>",
        b"add cipher",
        &[("Cipher.java", before.as_bytes())],
    );
    // Latin-1, not UTF-8: 0xE9 is 'é'.
    history.commit(
        b"Jos\xe9 <jose@test>",
        b"caf\xe9 fix",
        &[("Cipher.java", after.as_bytes())],
    );
    repo.fast_import(&history.bytes);

    let report = ingest(&repo, &IngestOptions::default());
    assert_eq!(report.stats.commits_walked, 2);
    assert_eq!(report.stats.commits_ingested, 2);
    assert_eq!(report.stats.pairs, 1);
    assert!(report.skips.is_empty(), "{:?}", report.skips);
    let fix = &report.corpus.projects[0].commits[1];
    assert_eq!(fix.message, "caf\u{fffd} fix");
    assert_eq!(fix.author, "Jos\u{fffd} <jose@test>");
    assert_eq!(fix.changes[0].old.as_deref(), Some(before.as_str()));
    assert_eq!(fix.changes[0].new.as_deref(), Some(after.as_str()));
}

/// Full id of the blob at `<rev>:<path>`.
fn blob_id(repo: &TestRepo, rev: &str, path: &str) -> String {
    let out = repo.git_stdout(&["rev-parse", &format!("{rev}:{path}")]);
    String::from_utf8(out).unwrap().trim().to_owned()
}

#[test]
fn each_blob_is_fetched_once_in_one_window() {
    let mut repo = TestRepo::init("fetch-once");
    let first = java_class("A", "DES");
    repo.write("A.java", &first);
    repo.commit("add a");
    repo.write("A.java", &java_class("A", "AES"));
    repo.write("B.java", &first);
    repo.commit("edit a, add its old text as b");
    repo.git(&["mv", "A.java", "C.java"]);
    repo.write("C.java", &java_class("C", "AES/GCM/NoPadding"));
    repo.commit("rename a to c with an edit");

    let mut registry = Recorder::default();
    let report = ingest_repo(repo.path(), &IngestOptions::default(), &mut registry).unwrap();
    assert_eq!((report.stats.pairs, report.stats.additions), (2, 2));
    assert_eq!(report.stats.renames_followed, 1);

    // Six planned sides: A's post-image; A's pre- and post-image and
    // B's post-image; C's pre- and post-image. They name three blobs.
    let commits = &report.corpus.projects[0].commits;
    let mut sides = Vec::new();
    for commit in commits {
        for change in &commit.changes {
            if change.old.is_some() {
                let old_path = if change.path == "C.java" {
                    "A.java"
                } else {
                    &change.path
                };
                sides.push(blob_id(&repo, &format!("{}^", commit.id), old_path));
            }
            sides.push(blob_id(&repo, &commit.id, &change.path));
        }
    }
    let distinct: BTreeSet<&String> = sides.iter().collect();
    assert_eq!((sides.len(), distinct.len()), (6, 3));
    assert_eq!(report.stats.blobs_fetched, 3);
    assert_eq!(registry.counter("gitsrc.blobs_fetched"), 3);
    // Three 41-byte request lines fit one window: one round trip.
    let spans = |name| registry.span(name).map(|s| s.count());
    assert_eq!(spans("gitsrc.catfile.batch"), Some(1));
    assert_eq!(spans("gitsrc.log"), Some(1));
}

#[test]
fn a_plan_larger_than_one_request_window_is_fetched_window_by_window() {
    // 1 000 request lines overflow one 32 KiB window, and 1 000 answers
    // of over 100 bytes each overflow a 64 KiB pipe.
    const FILES: usize = 1000;
    let repo = TestRepo::init("windows");
    let files: Vec<(String, String)> = (0..FILES)
        .map(|i| {
            let body = format!("class F{i} {{ /* {} */ }}\n", "x".repeat(96));
            (format!("src/F{i}.java"), body)
        })
        .collect();
    let entries: Vec<(&str, &[u8])> = files
        .iter()
        .map(|(path, body)| (path.as_str(), body.as_bytes()))
        .collect();
    let mut history = FastImport::default();
    history.commit(b"Test Author <author@test>", b"bulk import", &entries);
    repo.fast_import(&history.bytes);

    let opts = IngestOptions {
        limits: IngestLimits {
            max_files_per_commit: FILES,
            ..IngestLimits::DEFAULT
        },
        ..IngestOptions::default()
    };
    let mut registry = Recorder::default();
    let report = ingest_repo(repo.path(), &opts, &mut registry).unwrap();
    assert_eq!(report.stats.additions, FILES);
    assert_eq!(report.stats.blobs_fetched, FILES);
    let expected: HashMap<&str, &str> = files
        .iter()
        .map(|(path, body)| (path.as_str(), body.as_str()))
        .collect();
    for change in &report.corpus.projects[0].commits[0].changes {
        assert_eq!(change.new.as_deref(), Some(expected[change.path.as_str()]));
    }
    let id_len = blob_id(&repo, "HEAD", "src/F0.java").len();
    let per_window = gitsrc::MAX_BATCH_REQUEST_BYTES / (id_len + 1);
    let windows = registry.span("gitsrc.catfile.batch").unwrap().count() as usize;
    assert_eq!(windows, FILES.div_ceil(per_window));
    assert!(windows >= 2);
}

/// Object counts from `git count-objects -v`: (loose, packed).
fn object_counts(repo: &TestRepo) -> (usize, usize) {
    let out = String::from_utf8(repo.git_stdout(&["count-objects", "-v"])).unwrap();
    let field = |name: &str| -> usize {
        out.lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap()
    };
    (field("count:"), field("in-pack:"))
}

#[test]
fn ingestion_does_not_depend_on_how_git_stores_objects() {
    const NON_ASCII: &str = "naïve/Ümlaut.java";
    let mut repo = TestRepo::init("storage");
    std::fs::create_dir_all(repo.path().join("naïve")).unwrap();
    let big = |tag: &str| format!("// {tag}\n{}", "x".repeat(2048));
    repo.write("Session.java", &java_class("Session", "DES"));
    repo.write(NON_ASCII, &java_class("Umlaut", "DES"));
    repo.write("Big.java", &big("v1"));
    repo.write("Scratch.java", &java_class("Scratch", "RC4"));
    repo.commit("add files");
    repo.git(&["mv", "Session.java", "SecureSession.java"]);
    repo.write(
        "SecureSession.java",
        &java_class("SecureSession", "AES/GCM/NoPadding"),
    );
    repo.write(NON_ASCII, &java_class("Umlaut", "AES"));
    // Big.java's first version is this commit's pre-image too: one
    // oversized blob, used twice.
    repo.write("Big.java", &big("v2"));
    repo.commit("rename and harden");
    repo.git(&["rm", "-q", "Scratch.java"]);
    repo.write(NON_ASCII, &java_class("Umlaut", "AES/GCM/NoPadding"));
    repo.commit("drop scratch");

    let opts = IngestOptions {
        limits: IngestLimits {
            max_blob_bytes: 1024,
            ..IngestLimits::DEFAULT
        },
        ..IngestOptions::default()
    };
    let (loose, packed) = object_counts(&repo);
    assert!(loose > 0 && packed == 0, "{loose} loose, {packed} packed");
    let from_loose = ingest(&repo, &opts);
    repo.git(&["repack", "-adq"]);
    let (loose, packed) = object_counts(&repo);
    assert!(loose == 0 && packed > 0, "{loose} loose, {packed} packed");
    let from_pack = ingest(&repo, &opts);

    assert_eq!(from_loose.corpus, from_pack.corpus);
    assert_eq!(from_loose.stats, from_pack.stats);
    assert_eq!(from_loose.skips, from_pack.skips);

    let stats = from_pack.stats;
    assert_eq!((stats.pairs, stats.renames_followed), (3, 1));
    assert_eq!((stats.additions, stats.deletions), (3, 1));
    // Big.java v1 and v2 are fetched once each, though v1 is used twice.
    let commits = &from_pack.corpus.projects[0].commits;
    let details: Vec<&str> = from_pack.skips.iter().map(|s| s.detail.as_str()).collect();
    let oversized = |rev: &str| format!("{rev}:Big.java: {} bytes > budget 1024", big("v1").len());
    assert_eq!(
        details,
        [
            oversized(&commits[0].id),
            oversized(&format!("{}^", commits[1].id)),
        ]
    );
    assert!(commits[0].changes.iter().any(|c| c.path == NON_ASCII));

    // Every side is exactly the blob git shows at `<rev>:<path>`.
    for commit in commits {
        for change in &commit.changes {
            let old_path =
                if change.path == "SecureSession.java" && commit.message == "rename and harden" {
                    "Session.java"
                } else {
                    &change.path
                };
            let show = |rev: String| repo.git_stdout(&["show", &rev]);
            if let Some(old) = &change.old {
                assert_eq!(show(format!("{}^:{old_path}", commit.id)), old.as_bytes());
            }
            if let Some(new) = &change.new {
                assert_eq!(
                    show(format!("{}:{}", commit.id, change.path)),
                    new.as_bytes()
                );
            }
        }
    }
}

/// Builds one shared deterministic 8-commit repo for the prefix
/// property: adds, edits, a rename, and a delete interleaved.
fn prefix_repo() -> TestRepo {
    let mut repo = TestRepo::init("prefix");
    repo.write("Core.java", &java_class("Core", "DES"));
    repo.commit("c1 add core");
    repo.write("Util.java", &java_class("Util", "RC4"));
    repo.commit("c2 add util");
    repo.write("Core.java", &java_class("Core", "AES"));
    repo.commit("c3 fix core");
    repo.write("Extra.java", &java_class("Extra", "DES"));
    repo.commit("c4 add extra");
    repo.git(&["mv", "Util.java", "Helper.java"]);
    repo.commit("c5 rename util");
    repo.write("Core.java", &java_class("Core", "AES/GCM/NoPadding"));
    repo.commit("c6 harden core");
    repo.git(&["rm", "-q", "Extra.java"]);
    repo.commit("c7 drop extra");
    repo.write("Helper.java", &java_class("Helper", "AES"));
    repo.commit("c8 fix helper");
    repo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Walking the first `k` commits yields exactly the first commits
    /// of the full walk — same ids, same authors, same pre/post
    /// content. Since mining cache keys and change fingerprints are
    /// content-addressed over exactly those fields, every fingerprint
    /// from a `--max-commits` prefix is stable under deeper walks.
    #[test]
    fn prefix_walks_are_stable_under_max_commits(k in 1usize..=8) {
        let repo = prefix_repo();
        let full = ingest(&repo, &IngestOptions::default());
        let prefix = ingest(&repo, &IngestOptions {
            max_commits: Some(k),
            ..IngestOptions::default()
        });

        prop_assert_eq!(prefix.stats.commits_walked, k);
        let full_commits = &full.corpus.projects[0].commits;
        let prefix_commits = &prefix.corpus.projects[0].commits;
        // Every prefix commit is literally the same ingested commit
        // (id, author, message, and all change content) as in the
        // full walk, in the same order.
        prop_assert!(prefix_commits.len() <= full_commits.len());
        for (p, f) in prefix_commits.iter().zip(full_commits) {
            prop_assert_eq!(p, f);
        }
    }
}
