//! Clustering integration: the Figure 8 scenario on curated fixtures
//! and on mined corpus data.

use corpus::fixtures;
use diffcode::{elicit, DiffCode, MinedUsageChange};

fn mined(pair: &fixtures::FixPair, class: &str) -> Vec<MinedUsageChange> {
    let mut dc = DiffCode::new();
    dc.usage_changes_from_pair(pair.old, pair.new, class)
        .unwrap()
        .into_iter()
        .filter(|(_, _, c)| !c.is_same())
        .map(|(old_dag, new_dag, change)| {
            MinedUsageChange::new(
                diffcode::ChangeMeta {
                    project: format!("fixtures/{}", pair.name),
                    commit: pair.name.to_owned(),
                    author: String::new(),
                    message: pair.description.to_owned(),
                    path: "A.java".into(),
                    fingerprint: diffcode::change_fingerprint(pair.old, pair.new),
                },
                class.to_owned(),
                old_dag,
                new_dag,
                change,
            )
        })
        .collect()
}

#[test]
fn figure8_ecb_fix_cluster_identifies_rule_r7() {
    let mut changes = Vec::new();
    changes.extend(mined(&fixtures::ECB_TO_CBC, "Cipher"));
    changes.extend(mined(&fixtures::ECB_TO_GCM, "Cipher"));
    changes.extend(mined(&fixtures::DEFAULT_AES_TO_CBC, "Cipher"));
    changes.extend(mined(&fixtures::SHA1_TO_SHA256, "MessageDigest"));
    changes.extend(mined(&fixtures::RAISE_PBE_ITERATIONS, "PBEKeySpec"));
    assert_eq!(changes.len(), 5);

    let elicitation = elicit(&changes, 0.45);
    // The largest cluster groups the three ECB-style fixes (Figure 8).
    let largest = &elicitation.clusters[0];
    assert_eq!(largest.members.len(), 3, "{:?}", elicitation.clusters);
    for &m in &largest.members {
        assert_eq!(changes[m].class, "Cipher");
        assert!(
            changes[m]
                .change
                .removed
                .iter()
                .any(|p| p.to_string().contains("AES")),
            "{}",
            changes[m].change
        );
    }

    // The suggested rule from the cluster representative flags ECB-mode
    // usage — the data-driven analogue of rule R7.
    let suggested = &largest.suggested;
    assert!(
        suggested
            .must_have
            .iter()
            .any(|p| p.to_string().contains("AES")),
        "{suggested}"
    );
}

#[test]
fn unrelated_fixes_stay_in_separate_clusters() {
    let mut changes = Vec::new();
    changes.extend(mined(&fixtures::SHA1_TO_SHA256, "MessageDigest"));
    changes.extend(mined(&fixtures::RAISE_PBE_ITERATIONS, "PBEKeySpec"));
    changes.extend(mined(&fixtures::STATIC_IV_TO_RANDOM, "IvParameterSpec"));
    let n = changes.len();
    assert!(n >= 3);
    let elicitation = elicit(&changes, 0.4);
    assert_eq!(
        elicitation.clusters.len(),
        n,
        "cross-class fixes never merge below a 0.4 cut: {:?}",
        elicitation.clusters
    );
}

#[test]
fn dendrogram_renders_every_change() {
    let mut changes = Vec::new();
    for pair in fixtures::all_fix_pairs() {
        for class in analysis::TARGET_CLASSES {
            changes.extend(mined(&pair, class));
        }
    }
    let elicitation = elicit(&changes, 0.5);
    let rendering = diffcode::render_dendrogram(&changes, &elicitation.dendrogram);
    let leaf_lines = rendering
        .lines()
        .filter(|l| l.trim_start().starts_with("- "))
        .count();
    assert_eq!(leaf_lines, changes.len());
}

#[test]
fn duplicate_fixes_cluster_at_distance_zero() {
    let mut changes = Vec::new();
    changes.extend(mined(&fixtures::ECB_TO_CBC, "Cipher"));
    changes.extend(mined(&fixtures::ECB_TO_CBC, "Cipher"));
    assert_eq!(changes.len(), 2);
    let elicitation = elicit(&changes, 0.0);
    assert_eq!(elicitation.clusters.len(), 1);
    assert!(elicitation.dendrogram.merges[0].distance.abs() < 1e-12);
}
