//! The five CryptoLint rules (Egele et al., CCS'13) the paper uses as a
//! ground-truth oracle when classifying code changes into security
//! fixes vs. buggy changes (§6.2, Figure 7).

use crate::formula::{ArgConstraint as A, CallPred, Formula as F};
use crate::rule::{Applicability, ClassClause, ContextCond, Rule};

fn cl(id: &str, description: &str, class: &str, formula: F) -> Rule {
    Rule {
        id: id.to_owned(),
        description: description.to_owned(),
        display: String::new(),
        positive: vec![ClassClause::new(class, formula)],
        negative: vec![],
        context: ContextCond::None,
        applicability: Applicability::ClassPresent(class.to_owned()),
        references: vec!["Egele et al., An Empirical Study of Cryptographic Misuse in Android Applications (CCS'13) [12]".to_owned()],
    }
}

/// CL1: Do not use ECB mode for encryption.
pub(crate) fn cl1() -> Rule {
    cl(
        "CL1",
        "Do not use ECB mode for encryption",
        "Cipher",
        F::Or(vec![
            F::Exists(CallPred::method("getInstance").arg(1, A::EqStr("AES".into()))),
            F::Exists(CallPred::method("getInstance").arg(1, A::StartsWith("AES/ECB".into()))),
            F::Exists(CallPred::method("getInstance").arg(1, A::StartsWith("DES/ECB".into()))),
        ]),
    )
}

/// CL2: Do not use a non-random (constant) IV for CBC encryption.
pub(crate) fn cl2() -> Rule {
    cl(
        "CL2",
        "Do not use a constant initialization vector",
        "IvParameterSpec",
        F::Exists(CallPred::method("<init>").arg(1, A::ConstData)),
    )
}

/// CL3: Do not use constant encryption keys.
pub(crate) fn cl3() -> Rule {
    cl(
        "CL3",
        "Do not use constant encryption keys",
        "SecretKeySpec",
        F::Exists(CallPred::method("<init>").arg(1, A::ConstData)),
    )
}

/// CL4: Do not use constant salts for password-based encryption.
pub(crate) fn cl4() -> Rule {
    cl(
        "CL4",
        "Do not use constant salts for PBE",
        "PBEKeySpec",
        F::Exists(CallPred::method("<init>").arg(2, A::ConstData)),
    )
}

/// CL5: Do not use fewer than 1 000 iterations for password-based
/// encryption.
pub(crate) fn cl5() -> Rule {
    cl(
        "CL5",
        "Do not use fewer than 1,000 iterations for PBE",
        "PBEKeySpec",
        F::Exists(CallPred::method("<init>").arg(3, A::IntLt(1000))),
    )
}

/// All five CryptoLint oracle rules.
pub fn cryptolint_rules() -> Vec<Rule> {
    vec![cl1(), cl2(), cl3(), cl4(), cl5()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::ProjectContext;
    use analysis::{analyze, AnalysisLimits, ApiModel, Usages};

    fn usages(src: &str) -> Usages {
        let unit = javalang::parse_compilation_unit(src).unwrap();
        analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
            .unwrap()
            .0
    }

    #[test]
    fn five_rules() {
        let rules = cryptolint_rules();
        assert_eq!(rules.len(), 5);
        assert_eq!(rules[0].subject_class(), "Cipher");
        assert_eq!(rules[1].subject_class(), "IvParameterSpec");
        assert_eq!(rules[2].subject_class(), "SecretKeySpec");
        assert_eq!(rules[3].subject_class(), "PBEKeySpec");
        assert_eq!(rules[4].subject_class(), "PBEKeySpec");
    }

    #[test]
    fn cl1_matches_ecb() {
        let ecb = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/ECB/PKCS5Padding"); } }"#,
        );
        let gcm = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/GCM/NoPadding"); } }"#,
        );
        assert!(cl1().matches(&ecb, &ProjectContext::plain()));
        assert!(!cl1().matches(&gcm, &ProjectContext::plain()));
    }

    #[test]
    fn cl2_matches_constant_iv() {
        let bad = usages(
            r#"class C { void m() { IvParameterSpec s = new IvParameterSpec(new byte[16]); } }"#,
        );
        assert!(cl2().matches(&bad, &ProjectContext::plain()));
    }
}
