//! Classifying code changes against an oracle rule (paper §6.2):
//! a change is a **security fix** if the rule triggers in the old
//! version but not the new one, a **buggy change** if it triggers only
//! in the new version, and **non-semantic** otherwise.

use crate::rule::{ProjectContext, Rule};
use analysis::Usages;

/// The classification of one code change against one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChangeClass {
    /// Rule triggered before, not after: the change fixed the issue.
    Fix,
    /// Rule triggers after, not before: the change introduced the issue.
    Bug,
    /// Rule triggers identically in both versions.
    NonSemantic,
}

/// Classifies a (old, new) version pair against `rule`.
pub fn classify_change(
    rule: &Rule,
    old: &Usages,
    new: &Usages,
    ctx: &ProjectContext,
) -> ChangeClass {
    let before = rule.matches(old, ctx);
    let after = rule.matches(new, ctx);
    match (before, after) {
        (true, false) => ChangeClass::Fix,
        (false, true) => ChangeClass::Bug,
        _ => ChangeClass::NonSemantic,
    }
}

/// Classifies one paired usage change (old/new DAG of the same abstract
/// object) against `rule`, at the granularity of Figure 7: the rule's
/// positive clauses are evaluated on each DAG.
pub fn classify_dag_pair(
    rule: &Rule,
    old: &usagegraph::UsageDag,
    new: &usagegraph::UsageDag,
) -> ChangeClass {
    let triggers = |dag: &usagegraph::UsageDag| {
        rule.positive
            .iter()
            .all(|clause| crate::dagcheck::clause_triggers(clause, dag))
    };
    match (triggers(old), triggers(new)) {
        (true, false) => ChangeClass::Fix,
        (false, true) => ChangeClass::Bug,
        _ => ChangeClass::NonSemantic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::r7;
    use analysis::{analyze, AnalysisLimits, ApiModel};

    fn usages(src: &str) -> Usages {
        let unit = javalang::parse_compilation_unit(src).unwrap();
        analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
            .unwrap()
            .0
    }

    #[test]
    fn fix_bug_and_none() {
        let ecb = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }"#,
        );
        let cbc = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding"); } }"#,
        );
        let ctx = ProjectContext::plain();
        let rule = r7();
        assert_eq!(classify_change(&rule, &ecb, &cbc, &ctx), ChangeClass::Fix);
        assert_eq!(classify_change(&rule, &cbc, &ecb, &ctx), ChangeClass::Bug);
        assert_eq!(
            classify_change(&rule, &ecb, &ecb, &ctx),
            ChangeClass::NonSemantic
        );
        assert_eq!(
            classify_change(&rule, &cbc, &cbc, &ctx),
            ChangeClass::NonSemantic
        );
    }
}
