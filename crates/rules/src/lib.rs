//! Security rules for the Java Crypto API: the rule language of §6.3,
//! the 13 elicited rules of Figure 9, CryptoLint's oracle rules CL1–CL5,
//! change classification (§6.2), the CryptoChecker (§6.4), and automatic
//! rule suggestion (§6.3).
//!
//! # Example
//!
//! ```
//! use analysis::{analyze, AnalysisLimits, ApiModel};
//! use rules::{CryptoChecker, CheckedProject, ProjectContext};
//!
//! let unit = javalang::parse_compilation_unit(
//!     r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }"#,
//! )?;
//! let project = CheckedProject {
//!     name: "demo".to_owned(),
//!     usages: vec![analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)?.0],
//!     context: ProjectContext::plain(),
//! };
//! let checker = CryptoChecker::standard();
//! let violations = checker.violations(&project);
//! assert!(violations.contains(&"R7".to_owned()), "default AES is ECB");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod builtin;
mod checker;
mod classify;
mod cryptolint;
mod dagcheck;
pub mod dsl;
mod formula;
mod rule;
mod suggest;

pub use builtin::all_rules;
pub use checker::{CheckedProject, CryptoChecker, RuleStats};
pub use classify::{classify_change, classify_dag_pair, ChangeClass};
pub use cryptolint::cryptolint_rules;
pub use dagcheck::clause_triggers;
pub use formula::{ArgConstraint, CallPred, Formula};
pub use rule::{Applicability, ClassClause, ContextCond, Evidence, ProjectContext, Rule};
pub use suggest::SuggestedRule;
