//! End-to-end pipeline integration: corpus generation → mining →
//! abstraction → filtering → clustering → checking, on a mid-sized
//! seeded corpus.

use corpus::{generate, GeneratorConfig};
use diffcode::{Experiments, FilterStage};

fn experiments() -> Experiments {
    Experiments::new(generate(&GeneratorConfig::small(30, 0xE2E)))
}

#[test]
fn mining_is_deterministic() {
    let a = experiments();
    let b = experiments();
    assert_eq!(a.mined_changes().len(), b.mined_changes().len());
    assert_eq!(a.code_changes(), b.code_changes());
    for (x, y) in a.mined_changes().iter().zip(b.mined_changes()) {
        assert_eq!(x.change, y.change);
        assert_eq!(x.meta.commit, y.meta.commit);
    }
}

#[test]
fn every_code_change_is_processed() {
    let exp = experiments();
    // 30 projects × (1 initial + 18..=32 evolution commits), each with
    // exactly one old+new pair per evolution commit.
    assert!(exp.code_changes() >= 30 * 18);
    assert!(exp.code_changes() <= 30 * 33);
}

#[test]
fn filter_funnel_shape_matches_paper() {
    let exp = experiments();
    let rows = exp.figure6();
    let total: usize = rows.iter().map(|r| r.stats.total).sum();
    let semantic: usize = rows.iter().map(|r| r.stats.after_fsame).sum();
    let surviving: usize = rows.iter().map(|r| r.stats.after_fdup).sum();
    assert!(
        total > 500,
        "corpus yields plenty of usage changes: {total}"
    );
    // fsame removes the overwhelming majority (paper: >97%).
    assert!(
        (semantic as f64) < 0.2 * total as f64,
        "semantic={semantic} total={total}"
    );
    // The full funnel removes >99%-ish and leaves a small reviewable set.
    assert!(surviving < semantic);
    assert!(surviving > 0);
}

#[test]
fn security_fix_commits_survive_filtering() {
    let exp = experiments();
    let staged = diffcode::stage_changes(exp.mined_changes(), &mut diffcode::SeenDups::new());
    // Every commit whose message marks it as a security fix must have
    // at least one usage change that is NOT filtered as non-semantic.
    use std::collections::{BTreeMap, BTreeSet};
    let mut fix_commits: BTreeSet<&str> = BTreeSet::new();
    let mut semantic_commits: BTreeMap<&str, usize> = BTreeMap::new();
    for (stage, change) in &staged {
        if change.meta.message.starts_with("Security:") {
            fix_commits.insert(change.meta.commit.as_str());
            if !matches!(stage, FilterStage::FSame) {
                *semantic_commits
                    .entry(change.meta.commit.as_str())
                    .or_default() += 1;
            }
        }
    }
    assert!(!fix_commits.is_empty(), "corpus contains security fixes");
    for commit in &fix_commits {
        assert!(
            semantic_commits.contains_key(commit),
            "fix commit {commit} was entirely filtered by fsame"
        );
    }
}

#[test]
fn refactoring_commits_are_fully_non_semantic() {
    let exp = experiments();
    let staged = diffcode::stage_changes(exp.mined_changes(), &mut diffcode::SeenDups::new());
    let mut refactor_total = 0usize;
    let mut refactor_semantic = 0usize;
    for (stage, change) in &staged {
        if change.meta.message.starts_with("Refactor") {
            refactor_total += 1;
            if !matches!(stage, FilterStage::FSame) {
                refactor_semantic += 1;
            }
        }
    }
    assert!(refactor_total > 50, "corpus contains refactorings");
    assert_eq!(
        refactor_semantic, 0,
        "the abstraction must see refactorings as identical"
    );
}

#[test]
fn clustering_filtered_changes_terminates_with_sane_tree() {
    let exp = experiments();
    let fig8 = exp.figure8("Cipher", 0.45);
    let n = fig8.filtered.len();
    if n > 1 {
        assert_eq!(fig8.elicitation.dendrogram.merges.len(), n - 1);
    }
    let in_clusters: usize = fig8
        .elicitation
        .clusters
        .iter()
        .map(|c| c.members.len())
        .sum();
    assert_eq!(in_clusters, n, "clusters partition the leaves");
}
