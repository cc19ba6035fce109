//! Resource budgets for usage-DAG construction.
//!
//! A DAG's path set can grow combinatorially: every event contributes
//! `1 + arity` paths per prefix, and nested objects multiply prefixes
//! at each of the (up to) `max_depth` levels. Real crypto usages stay
//! in the tens of paths, but an adversarial analysis result — many
//! events on one site, deeply chained object arguments — can explode.
//! The budgets below turn that into a typed [`DagError`] instead of an
//! out-of-memory abort, and cap the Hungarian matching's cubic cost in
//! the object count.

use std::fmt;

/// Budgets applied by [`crate::build_dag`], [`crate::dags_for_class`] and
/// [`crate::usage_changes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagLimits {
    /// Maximum number of root-to-node paths in one DAG
    /// ([`DagError::PathBudgetExceeded`]).
    pub max_paths: usize,
    /// Maximum path length in labels — the paper's construction depth
    /// `n` (default 5).
    pub max_depth: usize,
    /// Maximum number of abstract objects per class side when pairing
    /// DAGs across versions; the min-cost matching is `O(n³)`
    /// ([`DagError::TooManyObjects`]).
    pub max_objects: usize,
}

impl DagLimits {
    /// Default budgets: 16 384 paths per DAG, depth 5, 512 objects per
    /// class — orders of magnitude above anything the corpus produces.
    pub const DEFAULT: DagLimits = DagLimits {
        max_paths: 1 << 14,
        max_depth: crate::dag::DEFAULT_MAX_DEPTH,
        max_objects: 512,
    };
}

impl Default for DagLimits {
    fn default() -> Self {
        DagLimits::DEFAULT
    }
}

/// Why DAG construction refused to finish.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagError {
    /// One DAG accumulated more than `max_paths` root-to-node paths.
    PathBudgetExceeded {
        /// The exceeded budget.
        max_paths: usize,
    },
    /// One version side has more than `max_objects` abstract objects
    /// of the class being paired.
    TooManyObjects {
        /// Objects found on the larger side.
        objects: usize,
        /// The configured ceiling.
        max_objects: usize,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::PathBudgetExceeded { max_paths } => {
                write!(f, "usage DAG exceeded its budget of {max_paths} paths")
            }
            DagError::TooManyObjects {
                objects,
                max_objects,
            } => {
                write!(
                    f,
                    "{objects} abstract objects exceed the pairing maximum of {max_objects}"
                )
            }
        }
    }
}

impl std::error::Error for DagError {}
