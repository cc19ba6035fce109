//! CryptoChecker — runs a rule set over analyzed projects and produces
//! the applicable/matching statistics of the paper's Figure 10.

use crate::rule::{ProjectContext, Rule};
use analysis::Usages;

/// One project as the checker sees it: the merged abstract usages of
/// all its files plus the project context.
#[derive(Debug, Clone)]
pub struct CheckedProject {
    /// Project name (for reports).
    pub name: String,
    /// Abstract usages of every file, analyzed and merged.
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

/// How a project's files are presented to the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckScope {
    /// Each file is checked on its own. A rule with a negative clause
    /// (R13) then requires the missing evidence to be missing in the
    /// file that holds the positive evidence.
    #[default]
    PerFile,
    /// All files are merged into one usage view first — the paper's
    /// project-level reading ("the rule matches any projects that have
    /// the two Cipher objects but lack the required Mac object").
    Project,
}

/// The security checker built from the elicited rules.
#[derive(Debug, Clone)]
pub struct CryptoChecker {
    rules: Vec<Rule>,
    scope: CheckScope,
}

impl CryptoChecker {
    /// A checker over the given rules (per-file scope).
    pub fn new(rules: Vec<Rule>) -> Self {
        CryptoChecker {
            rules,
            scope: CheckScope::PerFile,
        }
    }

    /// A checker with all 13 rules of Figure 9.
    pub fn standard() -> Self {
        CryptoChecker::new(crate::builtin::all_rules())
    }

    /// Switches to project-level checking (see [`CheckScope::Project`]).
    pub fn with_scope(mut self, scope: CheckScope) -> Self {
        self.scope = scope;
        self
    }

    /// The rules the checker enforces.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The usage views a project is checked under.
    fn views(&self, project: &CheckedProject) -> Vec<Usages> {
        match self.scope {
            CheckScope::PerFile => project.usages.clone(),
            CheckScope::Project => vec![Usages::merged(project.usages.iter())],
        }
    }

    fn applicable_in(rule: &Rule, views: &[Usages], project: &CheckedProject) -> bool {
        views.iter().any(|u| rule.applicable(u, &project.context))
    }

    fn matches_in(rule: &Rule, views: &[Usages], project: &CheckedProject) -> bool {
        views.iter().any(|u| rule.matches(u, &project.context))
    }

    /// The rule ids violated by `project`.
    pub fn violations(&self, project: &CheckedProject) -> Vec<String> {
        let views = self.views(project);
        self.rules
            .iter()
            .filter(|r| Self::matches_in(r, &views, project))
            .map(|r| r.id.clone())
            .collect()
    }

    /// Aggregates applicable/matching counts over `projects` — the
    /// Figure 10 table.
    pub fn check_all(&self, projects: &[CheckedProject]) -> Vec<RuleStats> {
        let views: Vec<Vec<Usages>> = projects.iter().map(|p| self.views(p)).collect();
        self.rules
            .iter()
            .map(|rule| RuleStats {
                rule_id: rule.id.clone(),
                description: rule.description.clone(),
                applicable: projects
                    .iter()
                    .zip(&views)
                    .filter(|(p, v)| Self::applicable_in(rule, v, p))
                    .count(),
                matching: projects
                    .iter()
                    .zip(&views)
                    .filter(|(p, v)| {
                        Self::applicable_in(rule, v, p) && Self::matches_in(rule, v, p)
                    })
                    .count(),
            })
            .collect()
    }

    /// Number of projects violating at least one rule (the paper's
    /// ">57% of projects" headline).
    pub fn projects_with_any_violation(&self, projects: &[CheckedProject]) -> usize {
        projects
            .iter()
            .filter(|p| {
                let views = self.views(p);
                self.rules.iter().any(|r| Self::matches_in(r, &views, p))
            })
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

    #[test]
    fn project_scope_merges_files_for_composites() {
        let sources = [
            r#"class A { void m() throws Exception { Cipher c = Cipher.getInstance("RSA"); } }"#,
            r#"class B { void m() throws Exception { Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding"); } }"#,
        ];
        let split = project("split", &sources);
        let project_checker = CryptoChecker::standard().with_scope(CheckScope::Project);
        assert!(
            project_checker
                .violations(&split)
                .contains(&"R13".to_owned()),
            "the paper's project-level reading sees both ciphers"
        );

        // With a Mac in a third file, project scope clears R13.
        let with_mac = project(
            "with-mac",
            &[
                sources[0],
                sources[1],
                r#"class M { void m() throws Exception { Mac mac = Mac.getInstance("HmacSHA256"); } }"#,
            ],
        );
        assert!(!project_checker
            .violations(&with_mac)
            .contains(&"R13".to_owned()));
    }

    #[test]
    fn merged_usages_preserve_object_counts() {
        let api = ApiModel::standard();
        let a = analyze(
            &javalang::parse_compilation_unit(
                r#"class A { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }"#,
            )
            .unwrap(),
            &api,
            &AnalysisLimits::DEFAULT,
        )
        .unwrap()
        .0;
        let b = analyze(
            &javalang::parse_compilation_unit(
                r#"class B { void m() throws Exception { Cipher c = Cipher.getInstance("DES"); } }"#,
            )
            .unwrap(),
            &api,
            &AnalysisLimits::DEFAULT,
        )
        .unwrap()
        .0;
        let merged = analysis::Usages::merged([&a, &b]);
        assert_eq!(merged.objects_of_type("Cipher").count(), 2);
        let algos: Vec<String> = merged
            .objects_of_type("Cipher")
            .map(|s| merged.events_of(s)[0].args[0].label())
            .collect();
        assert!(algos.contains(&"AES".to_owned()));
        assert!(algos.contains(&"DES".to_owned()));
    }
}
