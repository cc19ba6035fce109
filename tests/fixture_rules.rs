//! Every curated fixture pair must be classified as a *security fix*
//! by the rule it exercises (rule triggers before, not after), tying
//! the fixture corpus to the Figure 9 rule set.

use analysis::{analyze, AnalysisLimits, ApiModel, Usages};
use corpus::fixtures;
use rules::{all_rules, classify_change, ChangeClass, ProjectContext};

fn usages(src: &str) -> Usages {
    let unit = javalang::parse_compilation_unit(src).unwrap();
    analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
        .unwrap()
        .0
}

/// (fixture name, rule id it fixes)
const PAIR_RULES: [(&str, &str); 10] = [
    ("ecb-to-cbc", "R7"),
    ("ecb-to-gcm", "R7"),
    ("default-aes-to-cbc", "R7"),
    ("sha1-to-sha256", "R1"),
    ("static-iv-to-random", "R9"),
    ("raise-pbe-iterations", "R2"),
    ("des-to-aes", "R8"),
    ("add-bc-provider", "R5"),
    ("avoid-get-instance-strong", "R4"),
    ("hardcoded-key-to-param", "R10"),
];

#[test]
fn every_fixture_is_a_fix_for_its_rule() {
    let rules = all_rules();
    let ctx = ProjectContext::plain();
    for pair in fixtures::all_fix_pairs() {
        let (_, rule_id) = PAIR_RULES
            .iter()
            .find(|(name, _)| *name == pair.name)
            .unwrap_or_else(|| panic!("no rule mapping for fixture {}", pair.name));
        let rule = rules
            .iter()
            .find(|r| r.id == *rule_id)
            .expect("known rule id");
        let old = usages(pair.old);
        let new = usages(pair.new);
        assert_eq!(
            classify_change(rule, &old, &new, &ctx),
            ChangeClass::Fix,
            "{} should be a fix for {}",
            pair.name,
            rule.id
        );
    }
}

#[test]
fn fixture_rules_do_not_misfire_on_other_fixtures_after_fix() {
    // After each fix, the fixed code must not violate the rule it fixed.
    let rules = all_rules();
    let ctx = ProjectContext::plain();
    for pair in fixtures::all_fix_pairs() {
        let (_, rule_id) = PAIR_RULES
            .iter()
            .find(|(name, _)| *name == pair.name)
            .unwrap();
        let rule = rules.iter().find(|r| r.id == *rule_id).unwrap();
        let new = usages(pair.new);
        assert!(
            !rule.matches(&new, &ctx),
            "{} still violates {} after the fix",
            pair.name,
            rule.id
        );
    }
}

#[test]
fn reversed_fixtures_are_buggy_changes() {
    let rules = all_rules();
    let ctx = ProjectContext::plain();
    for pair in fixtures::all_fix_pairs() {
        let (_, rule_id) = PAIR_RULES
            .iter()
            .find(|(name, _)| *name == pair.name)
            .unwrap();
        let rule = rules.iter().find(|r| r.id == *rule_id).unwrap();
        let old = usages(pair.old);
        let new = usages(pair.new);
        assert_eq!(
            classify_change(rule, &new, &old, &ctx),
            ChangeClass::Bug,
            "reversing {} should be a buggy change for {}",
            pair.name,
            rule.id
        );
    }
}

#[test]
fn suggested_rules_from_all_fixtures_separate_old_from_new() {
    // The §6.3 automation works on every fixture, not just Figure 2.
    // `add-bc-provider` only *adds* a feature (`arg2:BC`) under the
    // abstraction, so it yields a pure addition rather than a
    // modification — exactly why the paper's R5 is phrased as a
    // missing-feature rule.
    let mut dc = diffcode::DiffCode::new();
    for pair in fixtures::all_fix_pairs() {
        let mut modifications = 0usize;
        let mut pure_additions = 0usize;
        for class in analysis::TARGET_CLASSES {
            let changes = dc
                .usage_changes_from_pair(pair.old, pair.new, class)
                .unwrap();
            for (_, _, change) in changes {
                if change.is_same() || change.is_pure_removal() {
                    continue;
                }
                if change.is_pure_addition() {
                    pure_additions += 1;
                    continue;
                }
                let rule = rules::SuggestedRule::from_change(&change);
                let old = usages(pair.old);
                let new = usages(pair.new);
                assert!(rule.matches(&old), "{}: rule must match old", pair.name);
                assert!(!rule.matches(&new), "{}: rule must reject new", pair.name);
                modifications += 1;
            }
        }
        if pair.name == "add-bc-provider" {
            assert_eq!(modifications, 0, "provider fix is addition-only");
            assert!(pure_additions > 0, "{}", pair.name);
        } else {
            assert!(
                modifications > 0,
                "{} produced no modification changes",
                pair.name
            );
        }
    }
}
