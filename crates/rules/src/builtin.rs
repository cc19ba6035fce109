//! The 13 security rules elicited by DiffCode (paper Figure 9).

use crate::formula::{ArgConstraint as A, CallPred, Formula as F};
use crate::rule::{Applicability, ClassClause, ContextCond, Rule};

#[allow(clippy::too_many_arguments)]
fn rule(
    id: &str,
    description: &str,
    display: &str,
    positive: Vec<ClassClause>,
    negative: Vec<ClassClause>,
    context: ContextCond,
    applicability: Applicability,
    references: &[&str],
) -> Rule {
    Rule {
        id: id.to_owned(),
        description: description.to_owned(),
        display: display.to_owned(),
        positive,
        negative,
        context,
        applicability,
        references: references.iter().map(|r| (*r).to_owned()).collect(),
    }
}

fn simple(
    id: &str,
    description: &str,
    display: &str,
    class: &str,
    formula: F,
    references: &[&str],
) -> Rule {
    rule(
        id,
        description,
        display,
        vec![ClassClause::new(class, formula)],
        vec![],
        ContextCond::None,
        Applicability::ClassPresent(class.to_owned()),
        references,
    )
}

/// R1: Use SHA-256 instead of SHA-1.
pub(crate) fn r1() -> Rule {
    simple(
        "R1",
        "Use SHA-256 instead of SHA-1",
        "MessageDigest : getInstance(X) \u{2227} X=SHA-1",
        "MessageDigest",
        F::Exists(
            CallPred::method("getInstance").arg(1, A::InStrs(vec!["SHA-1".into(), "SHA1".into()])),
        ),
        &["Stevens et al., The first SHA-1 collision (2017) [30]"],
    )
}

/// R2: Do not use password-based encryption with an iteration count
/// below 1000.
pub(crate) fn r2() -> Rule {
    simple(
        "R2",
        "Do not use password-based encryption with iterations count less than 1000",
        "PBEKeySpec : <init>(_,_,X,_) \u{2227} X<1000",
        "PBEKeySpec",
        F::Exists(CallPred::method("<init>").arg(3, A::IntLt(1000))),
        &["Abadi & Warinschi, Password-Based Encryption Analyzed (2005) [7]"],
    )
}

/// R3: SecureRandom should be used with SHA-1PRNG.
pub(crate) fn r3() -> Rule {
    let prng = vec!["SHA1PRNG".to_owned(), "SHA-1PRNG".to_owned()];
    simple(
        "R3",
        "SecureRandom should be used with SHA-1PRNG",
        "SecureRandom : <init>(X) \u{2227} X\u{2260}SHA-1PRNG",
        "SecureRandom",
        F::Exists(CallPred {
            methods: vec!["<init>".into(), "getInstance".into()],
            args: vec![(1, A::NotInStrs(prng))],
        }),
        &["The Right Way to Use SecureRandom (2015) [2]"],
    )
}

/// R4: `SecureRandom.getInstanceStrong()` should be avoided on
/// server-side code where availability matters (it may block).
pub(crate) fn r4() -> Rule {
    simple(
        "R4",
        "SecureRandom with getInstanceStrong should be avoided",
        "SecureRandom : \u{00ac}getInstanceStrong",
        "SecureRandom",
        F::Exists(CallPred::method("getInstanceStrong")),
        &["Sethi, Proper use of Java SecureRandom (2016) [28]"],
    )
}

/// R5: Use the BouncyCastle provider for `Cipher` (the default provider
/// historically enforced the 128-bit key restriction).
pub(crate) fn r5() -> Rule {
    simple(
        "R5",
        "Use the BouncyCastle provider for Cipher",
        "Cipher : getInstance(_,X) \u{2227} X\u{2260}BC",
        "Cipher",
        F::Exists(CallPred::method("getInstance").arg(2, A::NotInStrs(vec!["BC".into()]))),
        &["Bouncy Castle vs JCA key-length restriction (2016) [3]"],
    )
}

/// R6: The underlying PRNG is vulnerable on Android API 16–18 unless
/// the Linux-PRNG fix is applied.
pub(crate) fn r6() -> Rule {
    rule(
        "R6",
        "The underlying PRNG is vulnerable on Android v16-18",
        "SecureRandom : <init>(_) \u{2227} \u{00ac}LPRNG \u{2227} MIN_SDK_VERSION\u{2265}16",
        vec![ClassClause::new(
            "SecureRandom",
            F::Exists(CallPred::creation()),
        )],
        vec![],
        ContextCond::AndroidPrngVulnerable,
        Applicability::ClassPresentWithContext("SecureRandom".to_owned()),
        &[
            "Kaplan et al., Attacking the Linux PRNG on Android (WOOT'14) [17]",
            "Android: Some SecureRandom Thoughts (2013) [1]",
        ],
    )
}

/// R7: Do not use `Cipher` in AES/ECB mode (a bare `"AES"` defaults to
/// ECB).
pub(crate) fn r7() -> Rule {
    simple(
        "R7",
        "Do not use Cipher in AES/ECB mode",
        "Cipher : getInstance(X) \u{2227} (X=AES \u{2228} X=AES/ECB)",
        "Cipher",
        F::Or(vec![
            F::Exists(CallPred::method("getInstance").arg(1, A::EqStr("AES".into()))),
            F::Exists(CallPred::method("getInstance").arg(1, A::StartsWith("AES/ECB".into()))),
        ]),
        &[
            "Bellare & Rogaway, Introduction to Modern Cryptography [9]",
            "Egele et al., CCS'13 [12]",
        ],
    )
}

/// R8: Do not use `Cipher` with DES.
pub(crate) fn r8() -> Rule {
    simple(
        "R8",
        "Do not use Cipher with DES mode",
        "Cipher : getInstance(X) \u{2227} X=DES",
        "Cipher",
        F::Or(vec![
            F::Exists(CallPred::method("getInstance").arg(1, A::EqStr("DES".into()))),
            F::Exists(CallPred::method("getInstance").arg(1, A::StartsWith("DES/".into()))),
        ]),
        &["CERT MSC61-J: Do not use insecure or weak cryptographic algorithms [23]"],
    )
}

/// R9: `IvParameterSpec` must not be initialized with a static byte
/// array.
pub(crate) fn r9() -> Rule {
    simple(
        "R9",
        "IvParameterSpec should not be initialized with a static byte array",
        "IvParameterSpec : <init>(X) \u{2227} X\u{2260}\u{22a4}byte[]",
        "IvParameterSpec",
        F::Exists(CallPred::method("<init>").arg(1, A::ConstData)),
        &["Bellare & Rogaway, Introduction to Modern Cryptography [9]"],
    )
}

/// R10: `SecretKeySpec` must not be built from a static key.
pub(crate) fn r10() -> Rule {
    simple(
        "R10",
        "SecretKeySpec should not be static",
        "SecretKeySpec : <init>(X) \u{2227} X\u{2260}\u{22a4}byte[]",
        "SecretKeySpec",
        F::Exists(CallPred::method("<init>").arg(1, A::ConstData)),
        &["Egele et al., CCS'13 [12]"],
    )
}

/// R11: Password-based encryption must not use a static salt.
pub(crate) fn r11() -> Rule {
    simple(
        "R11",
        "Do not use password-based encryption with static salt",
        "PBEKeySpec : <init>(_,X,_,_) \u{2227} X\u{2260}\u{22a4}byte[]",
        "PBEKeySpec",
        F::Exists(CallPred::method("<init>").arg(2, A::ConstData)),
        &["Egele et al., CCS'13 [12]"],
    )
}

/// R12: `SecureRandom` must not be seeded with a static seed.
pub(crate) fn r12() -> Rule {
    simple(
        "R12",
        "Do not use SecureRandom static seed",
        "SecureRandom : setSeed(X) \u{2227} X\u{2260}\u{22a4}byte[]",
        "SecureRandom",
        F::Exists(CallPred::method("setSeed").arg(1, A::ConstData)),
        &["Egele et al., CCS'13 [12]"],
    )
}

/// R13: Missing integrity (no HMAC) after an RSA-protected symmetric
/// key exchange — a composite rule over two `Cipher` objects and the
/// absence of a `Mac`.
pub(crate) fn r13() -> Rule {
    rule(
        "R13",
        "Missing integrity check after symmetric key exchange",
        "(Cipher : getInstance(X) \u{2227} startsWith(X,AES/CBC)) \u{2227} \
         (Cipher : getInstance(Y) \u{2227} Y=RSA) \u{2227} \
         \u{00ac}(Mac : getInstance(Z) \u{2227} startsWith(Z,Hmac))",
        vec![
            ClassClause::new(
                "Cipher",
                F::Exists(CallPred::method("getInstance").arg(1, A::StartsWith("AES/CBC".into()))),
            ),
            ClassClause::new(
                "Cipher",
                F::Or(vec![
                    F::Exists(CallPred::method("getInstance").arg(1, A::EqStr("RSA".into()))),
                    F::Exists(CallPred::method("getInstance").arg(1, A::StartsWith("RSA/".into()))),
                ]),
            ),
        ],
        vec![ClassClause::new(
            "Mac",
            F::Exists(CallPred::method("getInstance").arg(1, A::StartsWith("Hmac".into()))),
        )],
        ContextCond::None,
        Applicability::PositiveClausesMatch,
        &["Top 10 developer crypto mistakes (2017) [6]"],
    )
}

/// All 13 rules of Figure 9, in order.
pub fn all_rules() -> Vec<Rule> {
    vec![
        r1(),
        r2(),
        r3(),
        r4(),
        r5(),
        r6(),
        r7(),
        r8(),
        r9(),
        r10(),
        r11(),
        r12(),
        r13(),
    ]
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

    fn plain() -> ProjectContext {
        ProjectContext::plain()
    }

    #[test]
    fn thirteen_rules_with_unique_ids() {
        let rules = all_rules();
        assert_eq!(rules.len(), 13);
        let mut ids: Vec<_> = rules.iter().map(|r| r.id.clone()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 13);
        assert_eq!(ids[0], "R1");
        assert_eq!(ids[12], "R13");
    }

    #[test]
    fn r1_flags_sha1_not_sha256() {
        let bad = usages(
            r#"class C { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-1"); } }"#,
        );
        let good = usages(
            r#"class C { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-256"); } }"#,
        );
        assert!(r1().matches(&bad, &plain()));
        assert!(!r1().matches(&good, &plain()));
    }

    #[test]
    fn r2_flags_low_iterations() {
        let bad = usages(
            r#"class C { void m(char[] pw, byte[] salt) { PBEKeySpec s = new PBEKeySpec(pw, salt, 100, 256); } }"#,
        );
        let good = usages(
            r#"class C { void m(char[] pw, byte[] salt) { PBEKeySpec s = new PBEKeySpec(pw, salt, 10000, 256); } }"#,
        );
        assert!(r2().matches(&bad, &plain()));
        assert!(!r2().matches(&good, &plain()));
    }

    #[test]
    fn r3_flags_default_construction() {
        let bad = usages(r#"class C { void m() { SecureRandom r = new SecureRandom(); } }"#);
        let good = usages(
            r#"class C { void m() throws Exception { SecureRandom r = SecureRandom.getInstance("SHA1PRNG"); } }"#,
        );
        assert!(r3().matches(&bad, &plain()));
        assert!(!r3().matches(&good, &plain()));
    }

    #[test]
    fn r4_flags_get_instance_strong() {
        let bad = usages(
            r#"class C { void m() throws Exception { SecureRandom r = SecureRandom.getInstanceStrong(); } }"#,
        );
        assert!(r4().matches(&bad, &plain()));
    }

    #[test]
    fn r5_flags_missing_bc_provider() {
        let bad = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/GCM/NoPadding"); } }"#,
        );
        let good = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/GCM/NoPadding", "BC"); } }"#,
        );
        assert!(r5().matches(&bad, &plain()));
        assert!(!r5().matches(&good, &plain()));
    }

    #[test]
    fn r7_flags_default_and_explicit_ecb() {
        let default_mode = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }"#,
        );
        let explicit = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/ECB/PKCS5Padding"); } }"#,
        );
        let cbc = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding"); } }"#,
        );
        assert!(r7().matches(&default_mode, &plain()));
        assert!(r7().matches(&explicit, &plain()));
        assert!(!r7().matches(&cbc, &plain()));
    }

    #[test]
    fn r8_flags_des() {
        let bad = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("DES/CBC/PKCS5Padding"); } }"#,
        );
        assert!(r8().matches(&bad, &plain()));
    }

    #[test]
    fn r9_static_iv() {
        let bad = usages(
            r#"class C { void m() { byte[] iv = new byte[16]; IvParameterSpec s = new IvParameterSpec(iv); } }"#,
        );
        let good = usages(
            r#"
            class C {
                void m() {
                    byte[] iv = new byte[16];
                    SecureRandom r = new SecureRandom();
                    r.nextBytes(iv);
                    IvParameterSpec s = new IvParameterSpec(iv);
                }
            }
            "#,
        );
        assert!(r9().matches(&bad, &plain()));
        assert!(!r9().matches(&good, &plain()));
    }

    #[test]
    fn r10_static_key() {
        let bad = usages(
            r#"class C { void m() { byte[] key = { 1, 2, 3, 4 }; SecretKeySpec s = new SecretKeySpec(key, "AES"); } }"#,
        );
        let good = usages(
            r#"class C { void m(byte[] key) { SecretKeySpec s = new SecretKeySpec(key, "AES"); } }"#,
        );
        assert!(r10().matches(&bad, &plain()));
        assert!(!r10().matches(&good, &plain()));
    }

    #[test]
    fn r11_static_salt() {
        let bad = usages(
            r#"class C { void m(char[] pw) { byte[] salt = { 9, 9, 9, 9 }; PBEKeySpec s = new PBEKeySpec(pw, salt, 10000, 256); } }"#,
        );
        let good = usages(
            r#"class C { void m(char[] pw, byte[] salt) { PBEKeySpec s = new PBEKeySpec(pw, salt, 10000, 256); } }"#,
        );
        assert!(r11().matches(&bad, &plain()));
        assert!(!r11().matches(&good, &plain()));
    }

    #[test]
    fn r12_static_seed() {
        let bad = usages(
            r#"class C { void m() { SecureRandom r = new SecureRandom(); byte[] seed = { 5 }; r.setSeed(seed); } }"#,
        );
        let good = usages(
            r#"class C { void m(byte[] seed) { SecureRandom r = new SecureRandom(); r.setSeed(seed); } }"#,
        );
        assert!(r12().matches(&bad, &plain()));
        assert!(!r12().matches(&good, &plain()));
    }

    #[test]
    fn r13_composite_missing_mac() {
        let bad = usages(
            r#"
            class KeyExchange {
                void m(Key rsaKey, Key aesKey, byte[] iv) throws Exception {
                    Cipher wrap = Cipher.getInstance("RSA");
                    Cipher data = Cipher.getInstance("AES/CBC/PKCS5Padding");
                }
            }
            "#,
        );
        let good = usages(
            r#"
            class KeyExchange {
                void m(Key rsaKey, Key aesKey, byte[] iv) throws Exception {
                    Cipher wrap = Cipher.getInstance("RSA");
                    Cipher data = Cipher.getInstance("AES/CBC/PKCS5Padding");
                    Mac mac = Mac.getInstance("HmacSHA256");
                }
            }
            "#,
        );
        let only_aes = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding"); } }"#,
        );
        let r = r13();
        assert!(r.applicable(&bad, &plain()));
        assert!(r.matches(&bad, &plain()));
        assert!(r.applicable(&good, &plain()));
        assert!(!r.matches(&good, &plain()));
        assert!(!r.applicable(&only_aes, &plain()), "needs both ciphers");
    }
}
