//! Automatic rule suggestion from a usage change (paper §6.3, "On
//! Automating Rule Elicitation").
//!
//! From a usage change `(F⁻, F⁺)` the suggested rule matches any
//! abstract object that still *has* every removed feature and *lacks*
//! every added feature — i.e. any usage that was not fixed the way the
//! mined commits fix it.

use analysis::Usages;
use std::fmt;
use usagegraph::{build_dag, DagLimits, FeaturePath, UsageChange};

/// A rule generated from a usage change.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestedRule {
    /// The subject API class.
    pub class: String,
    /// Features the vulnerable usage must still have (the old
    /// version's removed features).
    pub must_have: Vec<FeaturePath>,
    /// Features whose presence means the usage was already fixed (the
    /// new version's added features).
    pub must_not_have: Vec<FeaturePath>,
}

impl SuggestedRule {
    /// Builds the suggested rule for a usage change.
    pub fn from_change(change: &UsageChange) -> Self {
        SuggestedRule {
            class: change.class.clone(),
            must_have: change.removed.clone(),
            must_not_have: change.added.clone(),
        }
    }

    /// `true` if the abstract object whose DAG paths are given matches
    /// the rule (has all `must_have`, none of `must_not_have`).
    pub(crate) fn matches_paths<'a>(
        &self,
        paths: impl IntoIterator<Item = &'a FeaturePath> + Clone,
    ) -> bool {
        self.must_have
            .iter()
            .all(|needed| paths.clone().into_iter().any(|p| p == needed))
            && !self
                .must_not_have
                .iter()
                .any(|banned| paths.clone().into_iter().any(|p| p == banned))
    }

    /// `true` if any abstract object of the subject class in `usages`
    /// matches the rule. Each object's DAG is built under the default
    /// budgets; an object whose DAG is over budget matches no rule.
    pub fn matches(&self, usages: &Usages) -> bool {
        usages.objects_of_type(&self.class).any(|site| {
            build_dag(usages, site, &DagLimits::DEFAULT)
                .is_ok_and(|dag| self.matches_paths(dag.paths.iter()))
        })
    }
}

impl fmt::Display for SuggestedRule {
    /// Renders in the paper's predicate notation, e.g.
    ///
    /// ```text
    /// Cipher : (getInstance(X) ∧ X = AES)
    ///        ∧ (getInstance(Y) ⇒ Y ≠ AES/CBC/PKCS5Padding)
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :", self.class)?;
        let mut first = true;
        let mut var = b'X';
        for path in &self.must_have {
            let sep = if first { " " } else { "\n       \u{2227} " };
            first = false;
            write!(f, "{sep}({})", positive_atom(path, var as char))?;
            var += 1;
        }
        for path in &self.must_not_have {
            let sep = if first { " " } else { "\n       \u{2227} " };
            first = false;
            write!(f, "{sep}({})", negative_atom(path, var as char))?;
            var += 1;
        }
        Ok(())
    }
}

fn split_arg(label: &str) -> Option<(usize, &str)> {
    let rest = label.strip_prefix("arg")?;
    let (index, value) = rest.split_once(':')?;
    Some((index.parse().ok()?, value))
}

fn positive_atom(path: &FeaturePath, var: char) -> String {
    render_atom(path, var, "=")
}

fn negative_atom(path: &FeaturePath, var: char) -> String {
    render_atom(path, var, "\u{2260}").replacen(" \u{2227} ", " \u{21d2} ", 1)
}

fn render_atom(path: &FeaturePath, var: char, relation: &str) -> String {
    let labels = path.labels();
    match labels.len() {
        0 | 1 => "true".to_owned(),
        2 => labels[1].to_string(),
        _ => {
            let method = &labels[1];
            match split_arg(&labels[2]) {
                Some((index, value)) => {
                    let placeholders: Vec<String> = (1..=index)
                        .map(|i| {
                            if i == index {
                                var.to_string()
                            } else {
                                "_".to_owned()
                            }
                        })
                        .collect();
                    format!(
                        "{method}({}) \u{2227} {var} {relation} {value}",
                        placeholders.join(",")
                    )
                }
                None => format!("{method} {relation} {}", labels[2]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::{analyze, AnalysisLimits, ApiModel};
    use usagegraph::usage_changes;

    fn usages(src: &str) -> Usages {
        let unit = javalang::parse_compilation_unit(src).unwrap();
        analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
            .unwrap()
            .0
    }

    #[test]
    fn suggested_rule_from_figure2_matches_unfixed_code() {
        let old = usages(
            r#"
            class AESCipher {
                Cipher enc;
                void setKey(Secret key) throws Exception {
                    enc = Cipher.getInstance("AES");
                    enc.init(Cipher.ENCRYPT_MODE, key);
                }
            }
            "#,
        );
        let new = usages(
            r#"
            class AESCipher {
                Cipher enc;
                void setKeyAndIV(Secret key, String iv) throws Exception {
                    IvParameterSpec ivSpec = new IvParameterSpec(Hex.decodeHex(iv.toCharArray()));
                    enc = Cipher.getInstance("AES/CBC/PKCS5Padding");
                    enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
                }
            }
            "#,
        );
        let changes = usage_changes(&old, &new, "Cipher", &DagLimits::DEFAULT).unwrap();
        assert_eq!(changes.len(), 1);
        let rule = SuggestedRule::from_change(&changes[0].2);

        // The unfixed (old) code still matches the suggested rule…
        assert!(rule.matches(&old));
        // …the fixed code does not…
        assert!(!rule.matches(&new));
        // …and an unrelated safe usage does not either.
        let safe = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/GCM/NoPadding"); } }"#,
        );
        assert!(!rule.matches(&safe));
    }

    #[test]
    fn display_uses_predicate_notation() {
        let change = UsageChange {
            class: "Cipher".into(),
            removed: vec![FeaturePath(vec![
                "Cipher".into(),
                "getInstance".into(),
                "arg1:AES".into(),
            ])],
            added: vec![FeaturePath(vec![
                "Cipher".into(),
                "getInstance".into(),
                "arg1:AES/CBC/PKCS5Padding".into(),
            ])],
        };
        let rule = SuggestedRule::from_change(&change);
        let text = rule.to_string();
        assert!(text.starts_with("Cipher :"), "{text}");
        assert!(text.contains("getInstance(X) \u{2227} X = AES"), "{text}");
        assert!(
            text.contains("getInstance(Y) \u{21d2} Y \u{2260} AES/CBC/PKCS5Padding"),
            "{text}"
        );
    }
}
