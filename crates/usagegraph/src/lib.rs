//! Usage DAGs and usage changes (paper §3.4–3.5).
//!
//! Pipeline stage: given the abstract usages of an old and a new
//! program version, build one DAG per abstract object, pair the DAGs
//! across versions with a minimum-cost matching under the
//! intersection-over-union distance, and diff each pair into a
//! [`UsageChange`] — the `(F⁻, F⁺)` feature sets that all later stages
//! (filtering, clustering, rule elicitation) operate on.
//!
//! Every stage runs under a [`DagLimits`] budget, the same one mining
//! applies.
//!
//! # Example
//!
//! ```
//! use analysis::{analyze, AnalysisLimits, ApiModel};
//! use usagegraph::{usage_changes, DagLimits};
//!
//! let api = ApiModel::standard();
//! let usages_of = |src: &str| -> Result<_, Box<dyn std::error::Error>> {
//!     let unit = javalang::parse_compilation_unit(src)?;
//!     Ok(analyze(&unit, &api, &AnalysisLimits::DEFAULT)?.0)
//! };
//! let old = usages_of(
//!     r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }"#,
//! )?;
//! let new = usages_of(
//!     r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/GCM/NoPadding"); } }"#,
//! )?;
//! let changes = usage_changes(&old, &new, "Cipher", &DagLimits::DEFAULT)?;
//! assert_eq!(changes.len(), 1);
//! let (_old_dag, _new_dag, change) = &changes[0];
//! assert_eq!(change.removed[0].to_string(), "Cipher getInstance arg1:AES");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod dag;
mod diff;
mod limits;
pub mod matching;

pub use dag::{build_dag, dags_for_class, pair_dags, FeaturePath, Label, UsageDag};
pub use diff::{removed, UsageChange};
pub use limits::{DagError, DagLimits};

use analysis::Usages;
use dag::pair_dag_refs;
use diff::diff_dags;
use std::borrow::Cow;

/// Derives all usage changes of `class` between two program versions —
/// build DAGs → pair → diff (Figure 4 of the paper) — under `limits`.
/// Each change comes with the paired (old, new) DAGs it was diffed
/// from.
///
/// # Errors
///
/// Any [`DagError`] raised while building or counting the DAGs of
/// either version side.
pub fn usage_changes(
    old: &Usages,
    new: &Usages,
    class: &str,
    limits: &DagLimits,
) -> Result<Vec<(UsageDag, UsageDag, UsageChange)>, DagError> {
    let old_dags = dags_for_class(old, class, limits)?;
    let new_dags = dags_for_class(new, class, limits)?;
    Ok(pair_dags(old_dags, new_dags, class)
        .into_iter()
        .map(|(a, b)| {
            let change = diff_dags(&a, &b);
            (a, b, change)
        })
        .collect())
}

/// The usage changes of `class` between two versions' DAG lists, as
/// [`dags_for_class`] builds them: pair, then diff, like
/// [`usage_changes`]. Each change borrows its paired DAGs from the
/// lists, so a caller that keeps a version's lists (a source text shared
/// by consecutive changes) pairs them again without rebuilding or
/// copying them; only padding DAGs are owned.
pub fn diff_dag_lists<'a>(
    old: &'a [UsageDag],
    new: &'a [UsageDag],
    class: &str,
) -> Vec<(Cow<'a, UsageDag>, Cow<'a, UsageDag>, UsageChange)> {
    pair_dag_refs(old, new, class)
        .into_iter()
        .map(|(a, b)| {
            let change = diff_dags(&a, &b);
            (a, b, change)
        })
        .collect()
}
