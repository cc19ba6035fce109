//! Integration tests for the persistent mining cache: warm runs replay
//! identically, version bumps invalidate, mixed corpora re-mine only
//! the new work, and the `processed = mined + skipped` accounting holds
//! under every combination.

use diffcode::cli::{run_mine, FunnelOptions, MineSource};
use diffcode::{
    mine_parallel, CachedLookup, MineOptions, MiningCache, MiningResult, ANALYSIS_VERSION,
};
use obs::Recorder;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A unique, cleaned-up-on-drop temp dir per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "diffcode-cache-mining-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn generated(n_projects: usize, seed: u64) -> corpus::Corpus {
    corpus::generate(&corpus::GeneratorConfig::small(n_projects, seed))
}

/// A corpus whose single commit mixes one minable change with one
/// lex-failing change, so cached runs exercise both outcome variants.
fn corpus_with_skips() -> corpus::Corpus {
    corpus::Corpus {
        projects: vec![corpus::Project {
            user: "u".into(),
            name: "p".into(),
            facts: corpus::ProjectFacts::default(),
            commits: vec![corpus::Commit {
                id: "c1".into(),
                author: String::new(),
                message: "harden crypto".into(),
                changes: vec![
                    corpus::FileChange {
                        path: "Enc.java".into(),
                        old: Some(corpus::fixtures::FIGURE2_OLD.into()),
                        new: Some(corpus::fixtures::FIGURE2_NEW.into()),
                    },
                    corpus::FileChange {
                        path: "Broken.java".into(),
                        old: Some("class A { String s = \"open".into()),
                        new: Some("class A {}".into()),
                    },
                ],
            }],
        }],
    }
}

fn open_cache(dir: &std::path::Path) -> MiningCache {
    MiningCache::open(dir, &[], &diffcode::PipelineLimits::DEFAULT).expect("open cache")
}

fn mine_with(
    corpus: &corpus::Corpus,
    n_threads: usize,
    cache: Option<&mut MiningCache>,
) -> (MiningResult, Recorder) {
    let mut registry = Recorder::new();
    let opts = MineOptions {
        threads: n_threads,
        cache,
        cancel: None,
    };
    let result = mine_parallel(corpus, &[], opts, &mut registry);
    (result, registry)
}

/// The observable content of a mining run, for equality checks across
/// cold/warm and sequential/parallel runs.
fn run_signature(result: &MiningResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:?}", result.stats);
    for mined in &result.changes {
        let _ = writeln!(
            out,
            "{}|{}|{}|{}|{:?}|{:?}|{}",
            mined.meta.project,
            mined.meta.commit,
            mined.meta.path,
            mined.class,
            mined.old_dag(),
            mined.new_dag(),
            mined.change,
        );
    }
    for report in &result.quarantine {
        let _ = writeln!(
            out,
            "Q {}|{}|{}|{}|{}",
            report.kind, report.meta.project, report.meta.commit, report.meta.path, report.error,
        );
    }
    out
}

#[test]
fn warm_run_is_identical_and_hits_everything() {
    let tmp = TempDir::new("warm");
    let corpus = generated(6, 42);

    let mut cache = open_cache(&tmp.0);
    let (cold, cold_reg) = mine_with(&corpus, 4, Some(&mut cache));
    cache.flush().unwrap();
    assert_eq!(
        cold_reg.counter("cache.miss"),
        cold.stats.code_changes as u64,
        "cold run misses everything"
    );
    assert_eq!(cold_reg.counter("cache.hit"), 0);

    let mut cache = open_cache(&tmp.0);
    let (warm, warm_reg) = mine_with(&corpus, 4, Some(&mut cache));
    assert_eq!(
        warm_reg.counter("cache.hit"),
        warm.stats.code_changes as u64,
        "warm run hits everything"
    );
    assert_eq!(warm_reg.counter("cache.miss"), 0);
    assert_eq!(run_signature(&cold), run_signature(&warm));

    // The acceptance bar: ≥95% of analysis work skipped on the warm run.
    let lookups = warm_reg.counter("cache.hit")
        + warm_reg.counter("cache.miss")
        + warm_reg.counter("cache.stale_version");
    assert!(
        warm_reg.counter("cache.hit") as f64 >= 0.95 * lookups as f64,
        "hit rate below 95%: {warm_reg:?}"
    );
}

#[test]
fn version_bump_invalidates_every_entry() {
    let tmp = TempDir::new("version");
    let corpus = generated(4, 7);

    let mut cache = open_cache(&tmp.0);
    let (cold, _) = mine_with(&corpus, 2, Some(&mut cache));
    cache.flush().unwrap();
    let old_entries = cache.store().stats().current_entries;
    assert!(old_entries > 0);
    assert_eq!(old_entries, cold.stats.code_changes);

    // Same store, next analysis version: every cached entry is stale.
    let mut bumped = MiningCache::open_at_version(
        &tmp.0,
        &[],
        &diffcode::PipelineLimits::DEFAULT,
        ANALYSIS_VERSION + 1,
    )
    .unwrap();
    let (rerun, reg) = mine_with(&corpus, 2, Some(&mut bumped));
    assert_eq!(
        reg.counter("cache.stale_version"),
        old_entries as u64,
        "every old entry must be reported stale, not silently missed"
    );
    assert_eq!(reg.counter("cache.hit"), 0);
    assert_eq!(run_signature(&cold), run_signature(&rerun));

    // The recomputed outcomes were re-recorded under the new version
    // and supersede the stale entries in the index (last-write-wins);
    // the old records survive only on disk until vacuum drops them.
    bumped.flush().unwrap();
    let stats = bumped.store().stats();
    assert_eq!(stats.current_entries, old_entries);
    assert_eq!(stats.stale_entries, 0);
    let report = bumped.store_mut().vacuum().unwrap();
    assert_eq!(report.kept, old_entries);
    assert_eq!(
        report.dropped_records, old_entries,
        "one superseded old-version record per key"
    );
    assert!(report.bytes_after < report.bytes_before);
}

#[test]
fn mixed_corpus_only_mines_the_new_work() {
    let tmp = TempDir::new("mixed");
    let known = generated(4, 11);
    let fresh = generated(3, 1213);

    let mut cache = open_cache(&tmp.0);
    let (first, _) = mine_with(&known, 2, Some(&mut cache));
    cache.flush().unwrap();

    let mut combined = known.clone();
    combined.projects.extend(fresh.projects.clone());

    let mut cache = open_cache(&tmp.0);
    let (second, reg) = mine_with(&combined, 2, Some(&mut cache));
    cache.flush().unwrap();

    // Every change from the known half replays from the cache; only the
    // fresh half (minus any cross-corpus duplicate file pairs, which
    // also hit) is recomputed.
    assert!(
        reg.counter("cache.hit") >= first.stats.code_changes as u64,
        "known half must hit: {reg:?}"
    );
    assert_eq!(
        reg.counter("cache.hit") + reg.counter("cache.miss"),
        second.stats.code_changes as u64
    );

    // The combined run's result is what an uncached run produces.
    let (uncached, _) = mine_with(&combined, 2, None);
    assert_eq!(run_signature(&second), run_signature(&uncached));
}

#[test]
fn editing_one_project_remines_only_its_changes() {
    let tmp = TempDir::new("edit");
    let corpus = generated(5, 23);

    let mut cache = open_cache(&tmp.0);
    let (_, _) = mine_with(&corpus, 2, Some(&mut cache));
    cache.flush().unwrap();

    // Touch every file change of the first project (a trailing comment
    // changes the bytes, hence the key, of each pair).
    let mut edited = corpus.clone();
    let mut touched = 0u64;
    for commit in &mut edited.projects[0].commits {
        for change in &mut commit.changes {
            if let Some(new) = &mut change.new {
                new.push_str("\n// touched\n");
                touched += 1;
            }
        }
    }
    assert!(touched > 0);

    let mut cache = open_cache(&tmp.0);
    let (result, reg) = mine_with(&edited, 2, Some(&mut cache));
    let misses = reg.counter("cache.miss");
    // At most the touched changes recompute (identical template pairs
    // inside the edited project dedupe below that), and nothing else.
    assert!(
        misses > 0 && misses <= touched,
        "only the edited project's changes recompute: {misses} vs {touched}"
    );
    assert_eq!(
        reg.counter("cache.hit"),
        result.stats.code_changes as u64 - misses
    );
    assert!(result.stats.is_balanced());
}

#[test]
fn cached_skips_stay_skipped_and_accounting_balances() {
    let tmp = TempDir::new("skips");
    let corpus = corpus_with_skips();

    let mut cache = open_cache(&tmp.0);
    let (cold, cold_reg) = mine_with(&corpus, 1, Some(&mut cache));
    cache.flush().unwrap();
    assert!(cold.stats.is_balanced());
    assert_eq!(cold.stats.code_changes, 2);
    assert_eq!(cold.stats.mined, 1);
    assert_eq!(cold.stats.skipped.total(), 1);
    assert_eq!(cold.quarantine.len(), 1);

    let mut cache = open_cache(&tmp.0);
    let (warm, warm_reg) = mine_with(&corpus, 1, Some(&mut cache));
    assert_eq!(warm_reg.counter("cache.hit"), 2, "the skip is cached too");
    assert!(warm.stats.is_balanced());
    assert_eq!(run_signature(&cold), run_signature(&warm));
    assert_eq!(warm.quarantine.len(), 1, "cached skips stay quarantined");
    assert_eq!(warm.quarantine[0].kind, cold.quarantine[0].kind);

    // The registry partition holds on both runs.
    for reg in [&cold_reg, &warm_reg] {
        assert_eq!(
            reg.counter("mine.code_changes"),
            reg.counter("mine.mined") + reg.counter("mine.skipped"),
            "{reg:?}"
        );
    }
}

#[test]
fn sequential_and_parallel_agree_through_the_cache() {
    let tmp_seq = TempDir::new("seq");
    let tmp_par = TempDir::new("par");
    let corpus = generated(5, 99);

    let mut seq_cache = open_cache(&tmp_seq.0);
    let (seq, _) = mine_with(&corpus, 1, Some(&mut seq_cache));
    seq_cache.flush().unwrap();

    let mut par_cache = open_cache(&tmp_par.0);
    let (par, _) = mine_with(&corpus, 4, Some(&mut par_cache));
    par_cache.flush().unwrap();

    assert_eq!(run_signature(&seq), run_signature(&par));

    // Both caches saw the same work; a warm cross-read agrees: replay
    // the sequential run against the cache the parallel run built.
    let seq_store = open_cache(&tmp_seq.0);
    let par_store = open_cache(&tmp_par.0);
    assert_eq!(
        seq_store.store().stats().current_entries,
        par_store.store().stats().current_entries
    );
    let (cross, reg) = mine_with(&corpus, 1, Some(&mut open_cache(&tmp_par.0)));
    assert_eq!(reg.counter("cache.hit"), cross.stats.code_changes as u64);
    assert_eq!(run_signature(&seq), run_signature(&cross));
}

#[test]
fn undecodable_entry_is_recomputed_and_replaced_once() {
    let tmp = TempDir::new("undecodable");
    let corpus = generated(3, 1);
    let mut primed = open_cache(&tmp.0);
    let (cold, _) = mine_with(&corpus, 1, Some(&mut primed));
    primed.flush().unwrap();

    // Append one byte to one entry's payload and re-record it with a
    // fresh checksum: the log stays valid, the payload no longer
    // decodes.
    let first = corpus.code_changes().next().expect("a code change");
    let key = primed.change_key(first.old, first.new);
    let mut store = cache::CacheStore::open(&tmp.0, ANALYSIS_VERSION).unwrap();
    let mut payload = match store.get(key) {
        cache::Lookup::Hit(bytes) => bytes.to_vec(),
        other => panic!("expected a cached payload, got {other:?}"),
    };
    payload.push(0);
    store.insert(key, payload);
    store.flush().unwrap();

    // The first warm run misses that entry and writes the recomputed
    // payload back; the second hits everything.
    for (run, misses, flushed) in [(1, 1, 1), (2, 0, 0)] {
        let mut cache = open_cache(&tmp.0);
        let (warm, reg) = mine_with(&corpus, 1, Some(&mut cache));
        assert_eq!(reg.counter("cache.miss"), misses, "warm run {run}");
        assert_eq!(
            reg.counter("cache.hit"),
            warm.stats.code_changes as u64 - misses,
            "warm run {run}"
        );
        assert_eq!(cache.flush().unwrap(), flushed, "warm run {run}");
        assert_eq!(run_signature(&warm), run_signature(&cold), "warm run {run}");
    }
}

#[test]
fn view_lookup_roundtrips_through_flushed_store() {
    let tmp = TempDir::new("view");
    let corpus = corpus_with_skips();
    let mut cache = open_cache(&tmp.0);
    let (_, _) = mine_with(&corpus, 1, Some(&mut cache));
    cache.flush().unwrap();

    // Re-open and probe one known change directly through a view.
    let cache = open_cache(&tmp.0);
    let view = cache.view();
    let key = view.change_key(corpus::fixtures::FIGURE2_OLD, corpus::fixtures::FIGURE2_NEW);
    match view.get(key) {
        CachedLookup::Hit(diffcode::ChangeOutcome::Mined(tuples)) => {
            assert!(!tuples.is_empty());
            assert_eq!(tuples[0].0, "Cipher");
        }
        other => panic!("expected a mined hit, got {other:?}"),
    }
}

/// A cipher call whose provider argument is a non-ASCII string literal,
/// which the new DAG carries as the label `arg2:Prövider-ñ`.
const NON_ASCII_OLD: &str = "import javax.crypto.Cipher;

class Enc {
    byte[] enc(byte[] data) throws Exception {
        Cipher c = Cipher.getInstance(\"AES/ECB/PKCS5Padding\");
        return c.doFinal(data);
    }
}
";
const NON_ASCII_NEW: &str = "import javax.crypto.Cipher;

class Enc {
    byte[] enc(byte[] data) throws Exception {
        Cipher c = Cipher.getInstance(\"AES/GCM/NoPadding\", \"Prövider-ñ\");
        return c.doFinal(data);
    }
}
";

/// A git repository at `dir` whose second commit turns
/// [`NON_ASCII_OLD`] into [`NON_ASCII_NEW`].
fn non_ascii_repo(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    let git = |args: &[&str]| {
        let output = Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .env("GIT_AUTHOR_NAME", "Test Author")
            .env("GIT_AUTHOR_EMAIL", "author@test")
            .env("GIT_COMMITTER_NAME", "Test Committer")
            .env("GIT_COMMITTER_EMAIL", "committer@test")
            .env("GIT_CONFIG_GLOBAL", "/dev/null")
            .env("GIT_CONFIG_SYSTEM", "/dev/null")
            .output()
            .expect("spawn git");
        assert!(
            output.status.success(),
            "git {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    git(&["init", "-q"]);
    for (text, message) in [(NON_ASCII_OLD, "add"), (NON_ASCII_NEW, "use GCM")] {
        std::fs::write(dir.join("Enc.java"), text).unwrap();
        git(&["add", "-A"]);
        git(&["commit", "-q", "--no-gpg-sign", "-m", message]);
    }
}

#[test]
fn non_ascii_labels_replay_to_the_same_digest() {
    let tmp = TempDir::new("non-ascii");
    let repo = tmp.0.join("repo");
    non_ascii_repo(&repo);
    let cache_dir = tmp.0.join("cache");
    let source = MineSource::Repo {
        repo,
        rev_range: None,
        max_commits: None,
    };
    let opts = FunnelOptions {
        threads: 1,
        cache_dir: Some(cache_dir.clone()),
        ..FunnelOptions::default()
    };
    let (cold, funnel) = run_mine(&source, &opts).expect("cold mine");
    let carries_literal = |result: &MiningResult| {
        result.changes.iter().any(|c| {
            c.new_dag()
                .paths
                .iter()
                .any(|p| p.to_string().contains("arg2:Prövider-ñ"))
        })
    };
    assert!(
        carries_literal(&funnel.result),
        "no label carries the literal"
    );
    assert!(cold.contains("\nresult digest: "), "{cold}");

    // Warm: the change is replayed, and its digest text is read from
    // the payload's label bytes.
    let (warm, funnel) = run_mine(&source, &opts).expect("warm mine");
    assert_eq!(funnel.recorder.counter("cache.hit"), 1);
    assert!(carries_literal(&funnel.result));
    assert_eq!(warm, cold, "warm report and digest equal the cold ones");

    // Break the literal's UTF-8 without moving any framing, under a
    // fresh record checksum: the entry no longer validates, so the next
    // run misses it, recomputes it, and prints the cold report again.
    let key = open_cache(&cache_dir).change_key(NON_ASCII_OLD, NON_ASCII_NEW);
    let mut store = cache::CacheStore::open(&cache_dir, ANALYSIS_VERSION).unwrap();
    let mut payload = match store.get(key) {
        cache::Lookup::Hit(bytes) => bytes.to_vec(),
        other => panic!("expected a cached payload, got {other:?}"),
    };
    let literal = "ñ".as_bytes();
    let at = payload
        .windows(literal.len())
        .position(|w| w == literal)
        .expect("the payload holds the literal");
    payload[at + 1] = 0xFF;
    store.insert(key, payload);
    store.flush().unwrap();
    let (recomputed, funnel) = run_mine(&source, &opts).expect("mine over the bad entry");
    assert_eq!(funnel.recorder.counter("cache.miss"), 1);
    assert_eq!(funnel.recorder.counter("cache.hit"), 0);
    assert_eq!(recomputed, cold);
}

/// A change whose string literals hold every separator of the digest
/// text — `|`, `:`, `;`, a space, a newline — and multi-byte characters
/// beside them, so its labels do too.
const SEPARATOR_LITERALS_OLD: &str = "import javax.crypto.Cipher;

class Sep {
    byte[] enc(byte[] data) throws Exception {
        Cipher c = Cipher.getInstance(\"AES\");
        return c.doFinal(data);
    }
}
";
const SEPARATOR_LITERALS_NEW: &str = "import javax.crypto.Cipher;

class Sep {
    byte[] enc(byte[] data) throws Exception {
        Cipher c = Cipher.getInstance(\"- AES|GCM;x:y z\\nq\", \"+ é|ñ; \");
        return c.doFinal(data);
    }
}
";

#[test]
fn separator_like_literals_replay_to_the_same_digest_text() {
    let tmp = TempDir::new("separators");
    let corpus = corpus::Corpus {
        projects: vec![corpus::Project {
            user: "u".into(),
            name: "p".into(),
            facts: corpus::ProjectFacts::default(),
            commits: vec![corpus::Commit {
                id: "c1".into(),
                author: String::new(),
                message: "separators".into(),
                changes: vec![corpus::FileChange {
                    path: "Sep.java".into(),
                    old: Some(SEPARATOR_LITERALS_OLD.into()),
                    new: Some(SEPARATOR_LITERALS_NEW.into()),
                }],
            }],
        }],
    };
    let texts = |result: &MiningResult| -> Vec<String> {
        let texts = result.changes.iter().map(|mined| {
            let mut text = String::new();
            diffcode::cli::write_usage_digest(&mut text, mined);
            text
        });
        texts.collect()
    };
    let (uncached, _) = mine_with(&corpus, 1, None);
    let rendered = texts(&uncached);
    assert!(
        rendered
            .iter()
            .any(|t| t.contains("arg1:- AES|GCM;x:y z\nq") && t.contains("arg2:+ é|ñ; ")),
        "{rendered:?}"
    );

    let mut cache = open_cache(&tmp.0);
    let (cold, reg) = mine_with(&corpus, 1, Some(&mut cache));
    cache.flush().unwrap();
    assert_eq!(reg.counter("cache.miss"), 1);
    let mut cache = open_cache(&tmp.0);
    let (warm, reg) = mine_with(&corpus, 1, Some(&mut cache));
    assert_eq!(reg.counter("cache.hit"), 1);
    for result in [&cold, &warm] {
        assert_eq!(texts(result), rendered);
        assert_eq!(run_signature(result), run_signature(&uncached));
    }
}
