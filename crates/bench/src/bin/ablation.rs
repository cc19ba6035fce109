//! Ablation study over the design choices DESIGN.md calls out:
//!
//! 1. **DAG construction depth** (paper: n = 5) — shallower DAGs lose
//!    nested features (e.g. the IV spec's constructor), deeper ones add
//!    nothing on this API surface.
//! 2. **Clustering linkage** (paper: complete) — single linkage chains
//!    unrelated fixes together; complete/average keep clusters tight.
//! 3. **Crypto-tailored base-type abstraction** (paper §3.3) — if
//!    configuration strings are collapsed to `⊤str` instead of being
//!    tracked exactly, most security fixes become invisible (their
//!    before/after features coincide) and are wrongly filtered as
//!    refactorings.
//!
//! Usage: `cargo run --release -p diffcode-bench --bin ablation [n_projects] [seed]`

use cluster::{agglomerate_matrix, usage_distance_matrix, Linkage};
use diffcode::{
    apply_filters, stage_changes, DiffCode, FilterStage, FilterStats, MinedUsageChange, SeenDups,
    Table,
};
use diffcode_bench::{config_from_args, header};
use usagegraph::{FeaturePath, UsageChange, UsageDag};

fn main() {
    let config = config_from_args(120);
    println!(
        "corpus: {} projects, seed {:#x}",
        config.n_projects, config.seed
    );
    let corpus = corpus::generate(&config);

    ablate_depth(&corpus);
    ablate_linkage(&corpus);
    ablate_abstraction(&corpus);
}

// ---------------------------------------------------------------------
// 1. DAG depth
// ---------------------------------------------------------------------

fn ablate_depth(corpus: &corpus::Corpus) {
    header("Ablation 1 — DAG construction depth (paper uses n = 5)");
    let mut table = Table::new([
        "depth",
        "usage changes",
        "semantic",
        "survivors",
        "fix commits surviving",
    ]);
    for depth in [2usize, 3, 5, 7] {
        let mut dc = DiffCode::with_depth(depth);
        let mined = dc.mine(corpus, &[], None);
        let fix_surviving = fixes_surviving(&mined.changes);
        let total = mined.changes.len();
        let (kept, stats) = filter(&mined.changes);
        let _ = kept;
        table.row([
            depth.to_string(),
            total.to_string(),
            stats.after_fsame.to_string(),
            stats.after_fdup.to_string(),
            fix_surviving.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nexpected shape: depth 2 sees only method names (fixes that change\n\
         arguments vanish); depth 5 and 7 agree (nothing nests deeper here)."
    );
}

/// The four filters with fresh `fdup` state, unobserved.
fn filter(changes: &[MinedUsageChange]) -> (Vec<MinedUsageChange>, FilterStats) {
    apply_filters(changes, &mut SeenDups::new(), &mut obs::Recorder::new())
}

/// Number of generator-labelled fix commits with at least one semantic
/// usage change.
fn fixes_surviving(changes: &[MinedUsageChange]) -> usize {
    use std::collections::BTreeSet;
    let mut surviving: BTreeSet<&str> = BTreeSet::new();
    for (stage, change) in stage_changes(changes, &mut SeenDups::new()) {
        if change.meta.message.starts_with("Security:") && !matches!(stage, FilterStage::FSame) {
            surviving.insert(change.meta.commit.as_str());
        }
    }
    surviving.len()
}

// ---------------------------------------------------------------------
// 2. Linkage
// ---------------------------------------------------------------------

fn ablate_linkage(corpus: &corpus::Corpus) {
    header("Ablation 2 — clustering linkage (paper uses complete)");
    let mut dc = DiffCode::new();
    let mined = dc.mine(corpus, &[], None);
    let cipher: Vec<MinedUsageChange> = mined
        .changes
        .into_iter()
        .filter(|c| c.class == "Cipher")
        .collect();
    let (filtered, _) = filter(&cipher);
    let changes: Vec<UsageChange> = filtered.iter().map(|c| c.change.clone()).collect();
    println!("{} filtered Cipher changes\n", changes.len());

    // All three linkages agglomerate over one shared distance matrix:
    // the pairwise distances do not depend on the linkage, so the
    // ablation pays for them once.
    let matrix = usage_distance_matrix(&changes);

    let mut table = Table::new(["linkage", "clusters@0.45", "largest", "max merge dist"]);
    for (name, linkage) in [
        ("single", Linkage::Single),
        ("average", Linkage::Average),
        ("complete", Linkage::Complete),
    ] {
        let dendrogram = agglomerate_matrix(&matrix, linkage);
        let clusters = dendrogram.cut(0.45);
        let largest = clusters.iter().map(Vec::len).max().unwrap_or(0);
        let max_dist = dendrogram
            .merges
            .last()
            .map(|m| format!("{:.3}", m.distance))
            .unwrap_or_else(|| "-".to_owned());
        table.row([
            name.to_owned(),
            clusters.len().to_string(),
            largest.to_string(),
            max_dist,
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nexpected shape: single linkage merges earlier (chains) giving fewer,\n\
         looser clusters; complete keeps the ECB-fix family tight."
    );
}

// ---------------------------------------------------------------------
// 3. Abstraction precision
// ---------------------------------------------------------------------

/// Collapses configuration-string labels to `⊤str`, simulating an
/// abstraction that does not keep string constants.
fn coarsen_path(path: &FeaturePath) -> FeaturePath {
    FeaturePath(
        path.labels()
            .iter()
            .map(|label| match label.split_once(':') {
                Some((prefix, value)) if prefix.starts_with("arg") && is_string_value(value) => {
                    usagegraph::Label::from(format!("{prefix}:\u{22a4}str"))
                }
                _ => label.clone(),
            })
            .collect(),
    )
}

fn is_string_value(value: &str) -> bool {
    if value.parse::<i64>().is_ok() {
        return false;
    }
    let atomic = [
        "constbyte",
        "constbyte[]",
        "\u{22a4}byte",
        "\u{22a4}byte[]",
        "\u{22a4}int",
        "\u{22a4}int[]",
        "\u{22a4}str",
        "\u{22a4}str[]",
        "\u{22a4}bool",
        "\u{22a4}obj",
        "\u{22a4}",
        "null",
        "true",
        "false",
    ];
    if atomic.contains(&value) {
        return false;
    }
    // Type names of nested objects keep their label; collapsing them
    // would also be wrong for a string-blind abstraction.
    if value.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && value.chars().all(|c| c.is_alphanumeric())
    {
        return false;
    }
    true
}

fn coarsen(change: &MinedUsageChange) -> MinedUsageChange {
    let coarse = |dag: &UsageDag| UsageDag {
        root_type: dag.root_type.clone(),
        paths: dag.paths.iter().map(coarsen_path).collect(),
    };
    let (old_dag, new_dag) = (coarse(&change.old_dag()), coarse(&change.new_dag()));
    let diff = UsageChange {
        class: change.class.clone(),
        removed: usagegraph::removed(&old_dag, &new_dag),
        added: usagegraph::removed(&new_dag, &old_dag),
    };
    MinedUsageChange::new(
        change.meta.clone(),
        change.class.clone(),
        old_dag,
        new_dag,
        diff,
    )
}

fn ablate_abstraction(corpus: &corpus::Corpus) {
    header("Ablation 3 — string-constant tracking (paper §3.3)");
    let mut dc = DiffCode::new();
    let mined = dc.mine(corpus, &[], None);

    let precise_fixes = fixes_surviving(&mined.changes);
    let coarse: Vec<MinedUsageChange> = mined.changes.iter().map(coarsen).collect();
    let coarse_fixes = fixes_surviving(&coarse);

    let (_, precise_stats) = filter(&mined.changes);
    let (_, coarse_stats) = filter(&coarse);

    let mut table = Table::new([
        "abstraction",
        "semantic",
        "survivors",
        "fix commits surviving",
    ]);
    table.row([
        "exact strings (paper)".to_owned(),
        precise_stats.after_fsame.to_string(),
        precise_stats.after_fdup.to_string(),
        precise_fixes.to_string(),
    ]);
    table.row([
        "strings collapsed to \u{22a4}str".to_owned(),
        coarse_stats.after_fsame.to_string(),
        coarse_stats.after_fdup.to_string(),
        coarse_fixes.to_string(),
    ]);
    print!("{}", table.render());
    println!(
        "\nexpected shape: pure algorithm-string fixes (SHA-1 -> SHA-256, DES -> AES)\n\
         look like refactorings without exact strings and are wrongly filtered;\n\
         fixes that also change structure (adding an IV argument) survive."
    );
}
