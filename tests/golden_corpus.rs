//! End-to-end ground truth: the entire pipeline on the hand-written
//! golden corpus (no generator involved).

use corpus::golden_corpus;
use diffcode::{elicit, stage_changes, Experiments, FilterStage, SeenDups};
use rules::CryptoChecker;

#[test]
fn mining_counts_match_hand_counted_truth() {
    let exp = Experiments::new(golden_corpus());
    // messenger: 3 evolution commits; vault: 2; gateway: 1 → 6 code changes.
    assert_eq!(exp.code_changes(), 6);
}

#[test]
fn refactoring_and_doc_commits_are_fully_filtered() {
    let exp = Experiments::new(golden_corpus());
    for (stage, change) in stage_changes(exp.mined_changes(), &mut SeenDups::new()) {
        let msg = &change.meta.message;
        if msg.starts_with("Rename") || msg.starts_with("Document") {
            assert_eq!(
                stage,
                FilterStage::FSame,
                "'{msg}' must be non-semantic, got {stage:?} for {}",
                change.change
            );
        }
    }
}

#[test]
fn every_modification_fix_survives() {
    let exp = Experiments::new(golden_corpus());
    let mut surviving_fix_commits = std::collections::BTreeSet::new();
    let mut added_usage_fix = false;
    for (stage, change) in stage_changes(exp.mined_changes(), &mut SeenDups::new()) {
        if !change.meta.message.starts_with("Security:") {
            continue;
        }
        match stage {
            FilterStage::Remaining => {
                surviving_fix_commits.insert(change.meta.commit.clone());
            }
            FilterStage::FAdd => added_usage_fix = true,
            _ => {}
        }
    }
    // The three *modification* fixes (GCM switch, SHA-256 switch, PBE
    // fix) survive filtering.
    assert_eq!(surviving_fix_commits.len(), 3, "{surviving_fix_commits:?}");
    // The HMAC fix *adds* a usage, so — exactly like the paper's fadd —
    // it is filtered as a pure addition. (R13 is elicited from
    // cipher-switch changes, not from Mac additions.)
    assert!(added_usage_fix, "the gateway HMAC fix is a pure addition");
}

#[test]
fn gcm_fix_has_expected_features() {
    let exp = Experiments::new(golden_corpus());
    let gcm_fix = exp
        .mined_changes()
        .iter()
        .find(|c| c.meta.message.contains("AES/GCM") && c.class == "Cipher" && !c.change.is_same())
        .expect("the messenger GCM fix");
    let removed: Vec<String> = gcm_fix
        .change
        .removed
        .iter()
        .map(|p| p.to_string())
        .collect();
    let added: Vec<String> = gcm_fix.change.added.iter().map(|p| p.to_string()).collect();
    assert!(
        removed.contains(&"Cipher getInstance arg1:AES".to_owned()),
        "{removed:?}"
    );
    assert!(
        added.contains(&"Cipher getInstance arg1:AES/GCM/NoPadding".to_owned()),
        "{added:?}"
    );
    assert!(
        added.iter().any(|p| p.contains("arg3:GCMParameterSpec")),
        "{added:?}"
    );
}

#[test]
fn checker_verdicts_before_and_after_history() {
    let corpus = golden_corpus();
    let checker = CryptoChecker::standard();

    // At HEAD, messenger is fixed (no R7, no R1), vault is fixed
    // (no R2/R11), and gateway has an HMAC (no R13).
    let mut exp = Experiments::new(corpus.clone());
    let projects = exp.checked_projects();
    let by_name = |name: &str| {
        projects
            .iter()
            .find(|p| p.name.contains(name))
            .unwrap_or_else(|| panic!("project {name}"))
    };

    let messenger = checker.violations(by_name("messenger"));
    assert!(!messenger.contains(&"R7".to_owned()), "{messenger:?}");
    assert!(!messenger.contains(&"R1".to_owned()), "{messenger:?}");
    // The default-constructed SecureRandom still trips R3 — by design.
    assert!(messenger.contains(&"R3".to_owned()), "{messenger:?}");

    let vault = checker.violations(by_name("vault"));
    assert!(!vault.contains(&"R2".to_owned()), "{vault:?}");
    assert!(!vault.contains(&"R11".to_owned()), "{vault:?}");

    let gateway = checker.violations(by_name("gateway"));
    assert!(!gateway.contains(&"R13".to_owned()), "{gateway:?}");

    // On the *initial* versions the violations are all present.
    let initial = corpus::Corpus {
        projects: corpus
            .projects
            .iter()
            .map(|p| corpus::Project {
                user: p.user.clone(),
                name: p.name.clone(),
                facts: p.facts,
                commits: vec![p.commits[0].clone()],
            })
            .collect(),
    };
    let mut exp0 = Experiments::new(initial);
    let projects0 = exp0.checked_projects();
    let by_name0 = |name: &str| projects0.iter().find(|p| p.name.contains(name)).unwrap();
    let messenger0 = checker.violations(by_name0("messenger"));
    assert!(messenger0.contains(&"R7".to_owned()), "{messenger0:?}");
    assert!(messenger0.contains(&"R1".to_owned()), "{messenger0:?}");
    assert!(
        messenger0.contains(&"R9".to_owned()),
        "static IV: {messenger0:?}"
    );
    let vault0 = checker.violations(by_name0("vault"));
    assert!(vault0.contains(&"R2".to_owned()), "{vault0:?}");
    assert!(vault0.contains(&"R11".to_owned()), "{vault0:?}");
    let gateway0 = checker.violations(by_name0("gateway"));
    assert!(gateway0.contains(&"R13".to_owned()), "{gateway0:?}");
}

#[test]
fn fixes_cluster_by_kind() {
    let exp = Experiments::new(golden_corpus());
    let semantic: Vec<_> = exp
        .mined_changes()
        .iter()
        .filter(|c| {
            !c.change.is_same() && !c.change.is_pure_addition() && !c.change.is_pure_removal()
        })
        .cloned()
        .collect();
    assert!(semantic.len() >= 3, "{}", semantic.len());
    let elicitation = elicit(&semantic, 0.45);
    // Distinct fix kinds (GCM switch, SHA-256 switch, PBE fix) do not
    // collapse into one cluster.
    assert!(
        elicitation.clusters.len() >= 3,
        "{:?}",
        elicitation
            .clusters
            .iter()
            .map(|c| c.members.clone())
            .collect::<Vec<_>>()
    );
}
