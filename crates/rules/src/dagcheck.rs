//! Evaluating rule clauses over usage **DAGs** rather than raw events.
//!
//! Figure 7 of the paper classifies each *usage change* (one paired
//! object, not a whole program) as fix/bug/none with respect to the
//! CryptoLint rules. At that granularity only the object's DAG is
//! available, so this module interprets a [`ClassClause`] over the
//! DAG's label paths.

use crate::formula::{ArgConstraint, CallPred, Formula};
use crate::rule::ClassClause;
use absdomain::AValue;
use usagegraph::UsageDag;

/// Reconstructs an abstract value from a DAG argument label (the
/// inverse of [`AValue::label`], up to the information the label keeps).
pub(crate) fn label_to_avalue(label: &str) -> AValue {
    match label {
        "\u{22a4}byte[]" => return AValue::TopByteArray,
        "constbyte[]" => return AValue::ConstByteArray,
        "constbyte" => return AValue::ConstByte,
        "\u{22a4}byte" => return AValue::TopByte,
        "\u{22a4}int" => return AValue::TopInt,
        "\u{22a4}int[]" => return AValue::TopIntArray,
        "\u{22a4}str" => return AValue::TopStr,
        "\u{22a4}str[]" => return AValue::TopStrArray,
        "\u{22a4}bool" => return AValue::TopBool,
        "null" => return AValue::Null,
        "true" => return AValue::Bool(true),
        "false" => return AValue::Bool(false),
        "\u{22a4}" | "\u{22a4}obj" => return AValue::Unknown,
        _ => {}
    }
    if let Ok(n) = label.parse::<i64>() {
        return AValue::Int(n);
    }
    // API constants (ENCRYPT_MODE, SDK_INT) are ALL_CAPS with an
    // underscore; short all-caps strings like "AES" are algorithm
    // string constants, not constants of the API.
    if label.contains('_')
        && label
            .chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        && label.chars().next().is_some_and(|c| c.is_ascii_uppercase())
    {
        return AValue::ApiConst {
            class: "?".into(),
            name: label.into(),
        };
    }
    AValue::Str(label.into())
}

fn parse_arg_label(label: &str) -> Option<(usize, AValue)> {
    let rest = label.strip_prefix("arg")?;
    let (index, value) = rest.split_once(':')?;
    Some((index.parse().ok()?, label_to_avalue(value)))
}

/// `true` if some method node directly under the DAG root satisfies
/// `pred` (method name and argument constraints).
fn pred_triggers(pred: &CallPred, dag: &UsageDag) -> bool {
    // Collect the root's method children and their argument labels.
    let method_paths: Vec<&usagegraph::FeaturePath> =
        dag.paths.iter().filter(|p| p.len() == 2).collect();
    method_paths.iter().any(|mp| {
        let method = &mp.labels()[1];
        let bare = method.rsplit('.').next().unwrap_or(method);
        if !pred.methods.is_empty() && !pred.methods.iter().any(|m| m == bare) {
            return false;
        }
        pred.args.iter().all(|(index, constraint)| {
            // Find this method node's argN children.
            let found = dag.paths.iter().find_map(|p| {
                if p.len() == 3 && p.labels()[1] == *method {
                    let (i, value) = parse_arg_label(&p.labels()[2])?;
                    if i == *index {
                        return Some(value);
                    }
                }
                None
            });
            match constraint {
                // Absent argument: mirror CallPred's treatment of
                // missing arguments.
                ArgConstraint::NotInStrs(_) | ArgConstraint::Any => {
                    constraint.matches(found.as_ref())
                }
                _ => match found {
                    Some(v) => constraint.matches(Some(&v)),
                    None => false,
                },
            }
        })
    })
}

fn formula_triggers(formula: &Formula, dag: &UsageDag) -> bool {
    match formula {
        Formula::Exists(pred) => pred_triggers(pred, dag),
        Formula::NotExists(pred) => !pred_triggers(pred, dag),
        Formula::And(fs) => fs.iter().all(|f| formula_triggers(f, dag)),
        Formula::Or(fs) => fs.iter().any(|f| formula_triggers(f, dag)),
    }
}

/// `true` if the clause triggers on this object's DAG (the DAG root
/// must be the clause's class).
pub fn clause_triggers(clause: &ClassClause, dag: &UsageDag) -> bool {
    *dag.root_type == clause.class && formula_triggers(&clause.formula, dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cryptolint::{cl1, cl5};
    use analysis::{analyze, AnalysisLimits, ApiModel};
    use usagegraph::{dags_for_class, DagLimits};

    fn dag(src: &str, class: &str) -> UsageDag {
        let unit = javalang::parse_compilation_unit(src).unwrap();
        let usages = analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
            .unwrap()
            .0;
        dags_for_class(&usages, class, &DagLimits::DEFAULT)
            .unwrap()
            .into_iter()
            .next()
            .expect("one dag")
    }

    #[test]
    fn label_roundtrip() {
        assert_eq!(label_to_avalue("\u{22a4}byte[]"), AValue::TopByteArray);
        assert_eq!(label_to_avalue("constbyte[]"), AValue::ConstByteArray);
        assert_eq!(label_to_avalue("1000"), AValue::Int(1000));
        assert_eq!(label_to_avalue("AES/CBC"), AValue::Str("AES/CBC".into()));
        assert!(matches!(
            label_to_avalue("ENCRYPT_MODE"),
            AValue::ApiConst { .. }
        ));
    }

    #[test]
    fn cl1_triggers_on_ecb_dag() {
        let ecb = dag(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }"#,
            "Cipher",
        );
        let cbc = dag(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding"); } }"#,
            "Cipher",
        );
        let rule = cl1();
        assert!(clause_triggers(&rule.positive[0], &ecb));
        assert!(!clause_triggers(&rule.positive[0], &cbc));
    }

    #[test]
    fn cl5_triggers_on_low_iterations_dag() {
        let low = dag(
            r#"class C { void m(char[] pw, byte[] s) { PBEKeySpec k = new PBEKeySpec(pw, s, 100, 256); } }"#,
            "PBEKeySpec",
        );
        let high = dag(
            r#"class C { void m(char[] pw, byte[] s) { PBEKeySpec k = new PBEKeySpec(pw, s, 65536, 256); } }"#,
            "PBEKeySpec",
        );
        let rule = cl5();
        assert!(clause_triggers(&rule.positive[0], &low));
        assert!(!clause_triggers(&rule.positive[0], &high));
    }

    #[test]
    fn wrong_class_never_triggers() {
        let cipher = dag(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }"#,
            "Cipher",
        );
        let rule = cl5();
        assert!(!clause_triggers(&rule.positive[0], &cipher));
    }
}
