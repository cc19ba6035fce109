//! Rule R6 in action: the Android 4.1–4.3 (API 16–18) PRNG
//! vulnerability. The same source is secure or vulnerable depending on
//! the *project context* — minSdkVersion and whether the Linux-PRNG fix
//! is installed — which CryptoChecker takes as input.
//!
//! Run with: `cargo run --example android_prng`

use analysis::{analyze, AnalysisLimits, ApiModel};
use rules::{CheckedProject, CryptoChecker, ProjectContext};

const TOKEN_SOURCE: &str = r#"
class SessionTokens {
    byte[] newToken() {
        SecureRandom random = new SecureRandom();
        byte[] token = new byte[32];
        random.nextBytes(token);
        return token;
    }
}
"#;

fn check(name: &str, context: ProjectContext) {
    let unit = javalang::parse_compilation_unit(TOKEN_SOURCE).expect("parse");
    let project = CheckedProject {
        name: name.to_owned(),
        usages: vec![
            analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
                .expect("a tiny source stays within the default budget")
                .0,
        ],
        context,
    };
    let checker = CryptoChecker::standard();
    let violations = checker.violations(&project);
    let r6 = violations.iter().any(|v| v == "R6");
    println!(
        "{name:<42} R6 {}   (all violations: {})",
        if r6 { "VULNERABLE" } else { "ok        " },
        if violations.is_empty() {
            "none".to_owned()
        } else {
            violations.join(", ")
        }
    );
}

fn main() {
    println!("Source under test:\n{TOKEN_SOURCE}");
    println!("Rule R6: the platform PRNG is vulnerable on Android API 16-18");
    println!("unless the app installs the Linux-PRNG fix.\n");

    check(
        "server project (no Android context)",
        ProjectContext::plain(),
    );
    check("Android app, minSdkVersion 17", ProjectContext::android(17));
    check(
        "Android app, minSdkVersion 17 + PRNG fix",
        ProjectContext {
            min_sdk_version: Some(17),
            has_lprng_fix: true,
        },
    );
    check("Android app, minSdkVersion 21", ProjectContext::android(21));

    println!(
        "\nNote: R3 fires everywhere (the default constructor does not request\n\
         SHA1PRNG) — exactly the high match rate the paper reports for R3."
    );
}
