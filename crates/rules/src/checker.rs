//! CryptoChecker — runs a rule set over analyzed projects and produces
//! the applicable/matching statistics of the paper's Figure 10.

use crate::rule::{ProjectContext, Rule};
use analysis::Usages;

/// One project as the checker sees it: the abstract usages of each of
/// its files plus the project context.
#[derive(Debug, Clone)]
pub struct CheckedProject {
    /// Project name (for reports).
    pub name: String,
    /// Abstract usages of every file, one entry per file.
    pub usages: Vec<Usages>,
    /// Project-level facts.
    pub context: ProjectContext,
}

/// Per-rule aggregate over a set of projects (one Figure 10 row).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleStats {
    /// Rule id.
    pub rule_id: String,
    /// Rule description.
    pub description: String,
    /// Projects with at least one usage the rule applies to.
    pub applicable: usize,
    /// Projects with at least one usage matching (violating) the rule.
    pub matching: usize,
}

impl RuleStats {
    /// `applicable` as a percentage of `total` projects.
    pub fn applicable_pct(&self, total: usize) -> f64 {
        percentage(self.applicable, total)
    }

    /// `matching` as a percentage of `applicable`.
    pub fn matching_pct(&self) -> f64 {
        percentage(self.matching, self.applicable)
    }
}

fn percentage(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// The security checker built from the elicited rules. Each file's
/// usages are checked on their own, so a rule with a negative clause
/// (R13) requires the missing evidence to be missing in the file that
/// holds the positive evidence.
#[derive(Debug, Clone)]
pub struct CryptoChecker {
    rules: Vec<Rule>,
}

impl CryptoChecker {
    /// A checker over the given rules.
    pub(crate) fn new(rules: Vec<Rule>) -> Self {
        CryptoChecker { rules }
    }

    /// A checker with all 13 rules of Figure 9.
    pub fn standard() -> Self {
        CryptoChecker::new(crate::builtin::all_rules())
    }

    /// The rules the checker enforces.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    fn applicable_in(rule: &Rule, project: &CheckedProject) -> bool {
        project
            .usages
            .iter()
            .any(|u| rule.applicable(u, &project.context))
    }

    fn matches_in(rule: &Rule, project: &CheckedProject) -> bool {
        project
            .usages
            .iter()
            .any(|u| rule.matches(u, &project.context))
    }

    /// The rule ids violated by `project`.
    pub fn violations(&self, project: &CheckedProject) -> Vec<String> {
        self.rules
            .iter()
            .filter(|r| Self::matches_in(r, project))
            .map(|r| r.id.clone())
            .collect()
    }

    /// Aggregates applicable/matching counts over `projects` — the
    /// Figure 10 table.
    pub fn check_all(&self, projects: &[CheckedProject]) -> Vec<RuleStats> {
        self.rules
            .iter()
            .map(|rule| RuleStats {
                rule_id: rule.id.clone(),
                description: rule.description.clone(),
                applicable: projects
                    .iter()
                    .filter(|p| Self::applicable_in(rule, p))
                    .count(),
                matching: projects
                    .iter()
                    .filter(|p| Self::applicable_in(rule, p) && Self::matches_in(rule, p))
                    .count(),
            })
            .collect()
    }

    /// Number of projects violating at least one rule (the paper's
    /// ">57% of projects" headline).
    pub fn projects_with_any_violation(&self, projects: &[CheckedProject]) -> usize {
        projects
            .iter()
            .filter(|p| self.rules.iter().any(|r| Self::matches_in(r, p)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::{analyze, AnalysisLimits, ApiModel};

    fn project(name: &str, sources: &[&str]) -> CheckedProject {
        let api = ApiModel::standard();
        CheckedProject {
            name: name.to_owned(),
            usages: sources
                .iter()
                .map(|s| {
                    let unit = javalang::parse_compilation_unit(s).unwrap();
                    analyze(&unit, &api, &AnalysisLimits::DEFAULT).unwrap().0
                })
                .collect(),
            context: ProjectContext::plain(),
        }
    }

    #[test]
    fn figure10_shape_on_tiny_corpus() {
        let p1 = project(
            "ecb-user",
            &[r#"class A { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }"#],
        );
        let p2 = project(
            "safe-user",
            &[
                r#"class B { void m() throws Exception { Cipher c = Cipher.getInstance("AES/GCM/NoPadding", "BC"); } }"#,
            ],
        );
        let p3 = project(
            "digest-user",
            &[
                r#"class D { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-1"); } }"#,
            ],
        );
        let projects = vec![p1, p2, p3];
        let checker = CryptoChecker::standard();
        let stats = checker.check_all(&projects);

        let r7 = stats.iter().find(|s| s.rule_id == "R7").unwrap();
        assert_eq!(r7.applicable, 2, "two projects use Cipher");
        assert_eq!(r7.matching, 1, "one uses ECB");

        let r1 = stats.iter().find(|s| s.rule_id == "R1").unwrap();
        assert_eq!(r1.applicable, 1);
        assert_eq!(r1.matching, 1);

        assert_eq!(checker.projects_with_any_violation(&projects), 2);
    }

    #[test]
    fn percentages() {
        let s = RuleStats {
            rule_id: "X".into(),
            description: String::new(),
            applicable: 50,
            matching: 25,
        };
        assert!((s.applicable_pct(100) - 50.0).abs() < 1e-9);
        assert!((s.matching_pct() - 50.0).abs() < 1e-9);
        let empty = RuleStats {
            rule_id: "Y".into(),
            description: String::new(),
            applicable: 0,
            matching: 0,
        };
        assert_eq!(empty.matching_pct(), 0.0);
    }

    #[test]
    fn violation_scoped_to_single_file_for_composites() {
        // RSA in one file, AES/CBC in another, Mac nowhere: per-file
        // evaluation means R13's positive clauses never co-occur.
        let split = project(
            "split",
            &[
                r#"class A { void m() throws Exception { Cipher c = Cipher.getInstance("RSA"); } }"#,
                r#"class B { void m() throws Exception { Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding"); } }"#,
            ],
        );
        let checker = CryptoChecker::standard();
        assert!(!checker.violations(&split).contains(&"R13".to_owned()));
    }
}
