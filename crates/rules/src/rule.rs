//! Security rules: `t : φ` clauses, composite rules, applicability, and
//! project context.

use crate::formula::Formula;
use analysis::Usages;

/// Project-level facts a few rules need beyond the analyzed source
/// (paper rule R6 checks the Android SDK version and the presence of
/// the Linux-PRNG fix described in the Android security bulletin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProjectContext {
    /// `minSdkVersion` if this is an Android project.
    pub min_sdk_version: Option<i64>,
    /// Whether the project installs the PRNG fix (`HAS_LPRNG`).
    pub has_lprng_fix: bool,
}

impl ProjectContext {
    /// A non-Android project with no special context.
    pub fn plain() -> Self {
        ProjectContext::default()
    }

    /// An Android project with the given `minSdkVersion`.
    pub fn android(min_sdk_version: i64) -> Self {
        ProjectContext {
            min_sdk_version: Some(min_sdk_version),
            has_lprng_fix: false,
        }
    }
}

/// One `t : φ` clause of a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassClause {
    /// The subject type `t`.
    pub class: String,
    /// The formula `φ` over an abstract object's usage events.
    pub formula: Formula,
}

impl ClassClause {
    /// Creates a clause.
    pub(crate) fn new(class: impl Into<String>, formula: Formula) -> Self {
        ClassClause {
            class: class.into(),
            formula,
        }
    }

    /// `true` if some abstract object of `self.class` satisfies the
    /// formula.
    pub(crate) fn matches(&self, usages: &Usages) -> bool {
        usages
            .objects_of_type(&self.class)
            .any(|site| self.formula.eval(usages.events_of(site)))
    }
}

/// An extra condition on the project context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContextCond {
    /// No context requirement.
    #[default]
    None,
    /// `¬LPRNG ∧ 16 ≤ MIN_SDK_VERSION ≤ 18` — the Android PRNG
    /// vulnerability window of rule R6.
    AndroidPrngVulnerable,
}

impl ContextCond {
    fn holds(self, ctx: &ProjectContext) -> bool {
        match self {
            ContextCond::None => true,
            ContextCond::AndroidPrngVulnerable => {
                !ctx.has_lprng_fix
                    && matches!(ctx.min_sdk_version, Some(v) if (16..=18).contains(&v))
            }
        }
    }
}

/// What makes a rule *applicable* to a project (the denominator of the
/// paper's Figure 10).
#[derive(Debug, Clone, PartialEq)]
pub enum Applicability {
    /// The project uses the given API class at all.
    ClassPresent(String),
    /// The given API class is present *and* the project context allows
    /// the rule (Android-only rules).
    ClassPresentWithContext(String),
    /// All positive clauses match (composite rules such as R13, whose
    /// precondition is itself a usage pattern).
    PositiveClausesMatch,
}

/// A security rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Identifier, e.g. `R7` or `CL1`.
    pub id: String,
    /// One-line description.
    pub description: String,
    /// The formula as displayed in the paper's Figure 9.
    pub display: String,
    /// Clauses that must all match some abstract object (violation
    /// evidence).
    pub positive: Vec<ClassClause>,
    /// Clauses that must match **no** abstract object (e.g. the missing
    /// `Mac` in R13).
    pub negative: Vec<ClassClause>,
    /// Extra project-context requirement.
    pub context: ContextCond,
    /// Applicability criterion.
    pub applicability: Applicability,
    /// Citations backing the rule (papers, advisories, vendor blogs) —
    /// the bracketed references of the paper's Figure 9.
    pub references: Vec<String>,
}

impl Rule {
    /// `true` if the rule can say anything about this project.
    pub fn applicable(&self, usages: &Usages, ctx: &ProjectContext) -> bool {
        match &self.applicability {
            Applicability::ClassPresent(class) => usages.objects_of_type(class).next().is_some(),
            Applicability::ClassPresentWithContext(class) => {
                usages.objects_of_type(class).next().is_some() && ctx.min_sdk_version.is_some()
            }
            Applicability::PositiveClausesMatch => self.positive.iter().all(|c| c.matches(usages)),
        }
    }

    /// `true` if the project violates the rule.
    pub fn matches(&self, usages: &Usages, ctx: &ProjectContext) -> bool {
        self.context.holds(ctx)
            && self.positive.iter().all(|c| c.matches(usages))
            && !self.negative.iter().any(|c| c.matches(usages))
    }

    /// The primary subject class of the rule (first positive clause).
    pub fn subject_class(&self) -> &str {
        self.positive
            .first()
            .map(|c| c.class.as_str())
            .unwrap_or("")
    }

    /// The concrete evidence for a violation: for each positive clause,
    /// the abstract objects satisfying it and the usage events that made
    /// the clause's `Exists` predicates true. Empty when the rule does
    /// not match.
    pub fn evidence(&self, usages: &Usages, ctx: &ProjectContext) -> Vec<Evidence> {
        if !self.matches(usages, ctx) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for clause in &self.positive {
            for site in usages.objects_of_type(&clause.class) {
                let events = usages.events_of(site);
                if !clause.formula.eval(events) {
                    continue;
                }
                let mut witnesses = Vec::new();
                collect_witnesses(&clause.formula, events, &mut witnesses);
                out.push(Evidence {
                    class: clause.class.clone(),
                    site,
                    witnesses,
                });
            }
        }
        out
    }
}

/// Why a rule fired: one abstract object and the calls that satisfied
/// the clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// The subject class.
    pub class: String,
    /// The violating abstract object.
    pub site: absdomain::AllocSite,
    /// Human-readable renderings of the witnessing calls, e.g.
    /// `getInstance("AES")`.
    pub witnesses: Vec<String>,
}

/// Collects display strings for the events that satisfy each `Exists`
/// predicate of a satisfied formula.
fn collect_witnesses(formula: &Formula, events: &[analysis::UsageEvent], out: &mut Vec<String>) {
    match formula {
        Formula::Exists(pred) => {
            if let Some(event) = events.iter().find(|e| pred.matches(e)) {
                let args: Vec<String> = event.args.iter().map(absdomain::AValue::label).collect();
                let rendered = format!("{}({})", event.method.name, args.join(", "));
                if !out.contains(&rendered) {
                    out.push(rendered);
                }
            }
        }
        Formula::NotExists(_) => {}
        Formula::And(fs) => {
            for f in fs {
                if f.eval(events) {
                    collect_witnesses(f, events, out);
                }
            }
        }
        Formula::Or(fs) => {
            // Report the first satisfied disjunct.
            if let Some(f) = fs.iter().find(|f| f.eval(events)) {
                collect_witnesses(f, events, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{ArgConstraint, CallPred};
    use analysis::{analyze, AnalysisLimits, ApiModel};

    fn usages(src: &str) -> Usages {
        let unit = javalang::parse_compilation_unit(src).unwrap();
        analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
            .unwrap()
            .0
    }

    fn sha1_rule() -> Rule {
        Rule {
            id: "T1".into(),
            description: "test rule".into(),
            display: String::new(),
            positive: vec![ClassClause::new(
                "MessageDigest",
                Formula::Exists(CallPred::method("getInstance").arg(
                    1,
                    ArgConstraint::InStrs(vec!["SHA-1".into(), "SHA1".into()]),
                )),
            )],
            negative: vec![],
            context: ContextCond::None,
            applicability: Applicability::ClassPresent("MessageDigest".into()),
            references: vec![],
        }
    }

    #[test]
    fn simple_rule_applicability_and_match() {
        let rule = sha1_rule();
        let vulnerable = usages(
            r#"class C { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-1"); } }"#,
        );
        let safe = usages(
            r#"class C { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-256"); } }"#,
        );
        let unrelated = usages(r#"class C { void m() { } }"#);
        let ctx = ProjectContext::plain();

        assert!(rule.applicable(&vulnerable, &ctx));
        assert!(rule.matches(&vulnerable, &ctx));
        assert!(rule.applicable(&safe, &ctx));
        assert!(!rule.matches(&safe, &ctx));
        assert!(!rule.applicable(&unrelated, &ctx));
        assert!(!rule.matches(&unrelated, &ctx));
    }

    #[test]
    fn negative_clause_blocks_match() {
        let mut rule = sha1_rule();
        rule.negative.push(ClassClause::new(
            "Mac",
            Formula::Exists(CallPred::method("getInstance")),
        ));
        let with_mac = usages(
            r#"
            class C {
                void m() throws Exception {
                    MessageDigest d = MessageDigest.getInstance("SHA-1");
                    Mac mac = Mac.getInstance("HmacSHA256");
                }
            }
            "#,
        );
        assert!(!rule.matches(&with_mac, &ProjectContext::plain()));
    }

    #[test]
    fn evidence_names_the_witnessing_call() {
        let rule = sha1_rule();
        let vulnerable = usages(
            r#"class C { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-1"); } }"#,
        );
        let evidence = rule.evidence(&vulnerable, &ProjectContext::plain());
        assert_eq!(evidence.len(), 1);
        assert_eq!(evidence[0].class, "MessageDigest");
        assert_eq!(evidence[0].witnesses, vec!["getInstance(SHA-1)".to_owned()]);

        let safe = usages(
            r#"class C { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-256"); } }"#,
        );
        assert!(rule.evidence(&safe, &ProjectContext::plain()).is_empty());
    }

    #[test]
    fn evidence_covers_composite_rules() {
        let r13 = crate::builtin::r13();
        let bad = usages(
            r#"
            class C {
                void m() throws Exception {
                    Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
                    Cipher b = Cipher.getInstance("RSA");
                }
            }
            "#,
        );
        let evidence = r13.evidence(&bad, &ProjectContext::plain());
        assert_eq!(evidence.len(), 2, "{evidence:?}");
        let all: Vec<&str> = evidence
            .iter()
            .flat_map(|e| e.witnesses.iter().map(String::as_str))
            .collect();
        assert!(
            all.contains(&"getInstance(AES/CBC/PKCS5Padding)"),
            "{all:?}"
        );
        assert!(all.contains(&"getInstance(RSA)"), "{all:?}");
    }

    #[test]
    fn android_context_gate() {
        let rule = Rule {
            id: "T6".into(),
            description: "android prng".into(),
            display: String::new(),
            positive: vec![ClassClause::new(
                "SecureRandom",
                Formula::Exists(CallPred::creation()),
            )],
            negative: vec![],
            context: ContextCond::AndroidPrngVulnerable,
            applicability: Applicability::ClassPresentWithContext("SecureRandom".into()),
            references: vec![],
        };
        let u = usages(r#"class C { void m() { SecureRandom r = new SecureRandom(); } }"#);
        assert!(
            !rule.applicable(&u, &ProjectContext::plain()),
            "not Android"
        );
        assert!(rule.applicable(&u, &ProjectContext::android(17)));
        assert!(rule.matches(&u, &ProjectContext::android(17)));
        assert!(!rule.matches(&u, &ProjectContext::android(21)));
        let fixed = ProjectContext {
            min_sdk_version: Some(17),
            has_lprng_fix: true,
        };
        assert!(!rule.matches(&u, &fixed));
    }
}
