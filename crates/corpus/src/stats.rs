//! Descriptive statistics over a corpus — used to sanity-check the
//! generator's calibration against the paper's §6.1 numbers.

use crate::model::Corpus;
use std::collections::BTreeMap;

/// Aggregate statistics for one corpus.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CorpusStats {
    /// Number of projects.
    pub projects: usize,
    /// Distinct users.
    pub distinct_users: usize,
    /// Total commits (including initial imports).
    pub total_commits: usize,
    /// Code changes (old+new pairs), i.e. minable commits.
    pub code_changes: usize,
    /// Android projects (minSdkVersion known).
    pub android_projects: usize,
    /// Commit counts by message category.
    pub commits_by_kind: BTreeMap<String, usize>,
    /// Projects whose HEAD uses each API class (textual check).
    pub projects_using_class: BTreeMap<String, usize>,
}

/// The message prefixes the generator emits, mapped to stable category
/// names.
fn categorize(message: &str) -> &'static str {
    if message.starts_with("Initial import") {
        "initial"
    } else if message.starts_with("Security:") || message.contains("Avoid blocking") {
        "security-fix"
    } else if message.starts_with("Refactor") {
        "refactoring"
    } else if message.starts_with("Add ") {
        "usage-added"
    } else if message.starts_with("Remove") || message.starts_with("Drop") {
        "usage-removed"
    } else if message.starts_with("Simplify")
        || message.starts_with("Use faster")
        || message.starts_with("Speed up")
        || message.starts_with("Make token")
    {
        "buggy-change"
    } else {
        "unrelated"
    }
}

impl CorpusStats {
    /// Publishes the corpus shape as `corpus.*` gauges — the
    /// denominators every downstream pipeline rate (quarantine %,
    /// funnel survival %) is computed against.
    pub fn record(&self, registry: &mut obs::Recorder) {
        registry.set_gauge("corpus.projects", self.projects as f64);
        registry.set_gauge("corpus.distinct_users", self.distinct_users as f64);
        registry.set_gauge("corpus.total_commits", self.total_commits as f64);
        registry.set_gauge("corpus.code_changes", self.code_changes as f64);
        registry.set_gauge("corpus.android_projects", self.android_projects as f64);
    }
}

/// Computes the statistics for `corpus`.
pub fn corpus_stats(corpus: &Corpus) -> CorpusStats {
    let mut stats = CorpusStats {
        projects: corpus.projects.len(),
        ..CorpusStats::default()
    };
    let mut users = std::collections::BTreeSet::new();
    // Each class's factory call and constructor, the textual marks of
    // its use.
    let classes = [
        "Cipher",
        "IvParameterSpec",
        "MessageDigest",
        "SecretKeySpec",
        "SecureRandom",
        "PBEKeySpec",
        "Mac",
        "Signature",
    ]
    .map(|class| {
        (
            class,
            format!("{class}.getInstance"),
            format!("new {class}("),
        )
    });
    for project in &corpus.projects {
        users.insert(project.user.as_str());
        stats.total_commits += project.commits.len();
        if project.facts.min_sdk_version.is_some() {
            stats.android_projects += 1;
        }
        for commit in &project.commits {
            *stats
                .commits_by_kind
                .entry(categorize(&commit.message).to_owned())
                .or_default() += 1;
        }
        let head = project.head_files();
        for (class, factory, ctor) in &classes {
            if head
                .values()
                .any(|src| src.contains(factory.as_str()) || src.contains(ctor.as_str()))
            {
                *stats
                    .projects_using_class
                    .entry((*class).to_owned())
                    .or_default() += 1;
            }
        }
    }
    stats.distinct_users = users.len();
    stats.code_changes = corpus.code_changes().count();
    stats
}

impl CorpusStats {
    /// Commits in the given category.
    pub(crate) fn kind(&self, category: &str) -> usize {
        self.commits_by_kind.get(category).copied().unwrap_or(0)
    }

    /// Fraction of non-initial commits that are security fixes.
    pub fn fix_rate(&self) -> f64 {
        let non_initial = self.total_commits - self.kind("initial");
        if non_initial == 0 {
            0.0
        } else {
            self.kind("security-fix") as f64 / non_initial as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};

    #[test]
    fn stats_add_up() {
        let corpus = generate(&GeneratorConfig::small(25, 404));
        let stats = corpus_stats(&corpus);
        assert_eq!(stats.projects, 25);
        assert!(stats.distinct_users <= 25);
        assert_eq!(stats.kind("initial"), 25);
        let categorized: usize = stats.commits_by_kind.values().sum();
        assert_eq!(categorized, stats.total_commits);
        // Every non-initial commit yields at least one code change;
        // sweeping commits occasionally touch a second file.
        let non_initial = stats.total_commits - 25;
        assert!(stats.code_changes >= non_initial);
        assert!(stats.code_changes <= non_initial * 2);
    }

    #[test]
    fn fix_rate_matches_generator_calibration() {
        let corpus = generate(&GeneratorConfig::small(120, 11));
        let stats = corpus_stats(&corpus);
        let rate = stats.fix_rate();
        // Calibrated at ≈2% of crypto-touching commits (minus the ones
        // that degrade to refactorings when no fix applies).
        assert!(rate > 0.002 && rate < 0.05, "fix rate {rate}");
        assert!(stats.kind("unrelated") > stats.kind("refactoring"));
        assert!(stats.kind("refactoring") > stats.kind("security-fix"));
    }

    #[test]
    fn class_usage_counts_are_plausible() {
        let corpus = generate(&GeneratorConfig::small(120, 11));
        let stats = corpus_stats(&corpus);
        let random = stats
            .projects_using_class
            .get("SecureRandom")
            .copied()
            .unwrap_or(0);
        let pbe = stats
            .projects_using_class
            .get("PBEKeySpec")
            .copied()
            .unwrap_or(0);
        assert!(random > pbe, "SecureRandom is the most common class");
        assert!(random > 0 && random <= 120);
    }
}
