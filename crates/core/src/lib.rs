//! # DiffCode — inferring crypto-API rules from code changes
//!
//! A Rust reproduction of the PLDI'18 paper *"Inferring Crypto API
//! Rules from Code Changes"* (Paletov, Tsankov, Raychev, Vechev).
//!
//! The pipeline (paper Figure 1):
//!
//! 1. **Mine** code changes from a corpus of Java projects
//!    ([`DiffCode::mine`], corpus provided by the [`corpus`] crate).
//! 2. **Abstract** each change into semantic *usage changes* via a
//!    lightweight AST-based static analysis ([`analysis`]) and
//!    depth-bounded usage DAGs ([`usagegraph`]).
//! 3. **Filter** non-semantic changes — refactorings, pure additions/
//!    removals, duplicates ([`filter::apply_filters`]).
//! 4. **Cluster** the survivors hierarchically and **elicit** security
//!    rules ([`elicit::elicit`], [`rules`]).
//! 5. **Check** projects against the elicited rules with CryptoChecker
//!    ([`rules::CryptoChecker`]).
//!
//! # Quickstart
//!
//! ```
//! use diffcode::DiffCode;
//! use corpus::fixtures;
//!
//! let mut dc = DiffCode::new();
//! let changes = dc.usage_changes_from_pair(
//!     fixtures::FIGURE2_OLD,
//!     fixtures::FIGURE2_NEW,
//!     "Cipher",
//! )?;
//! // The paper's Figure 2(d): the `enc` object loses the bare "AES"
//! // feature and gains CBC + an IV.
//! let (_, _, change) = &changes[0];
//! assert_eq!(
//!     change.removed[0].to_string(),
//!     "Cipher getInstance arg1:AES"
//! );
//! # Ok::<(), diffcode::PipelineError>(())
//! ```

#![warn(missing_docs)]

mod ccache;
pub mod cli;
mod decision;
mod elicit;
mod experiments;
mod filter;
pub mod mcache;
pub mod pipeline;
pub mod quarantine;
mod report;
pub mod shutdown;

pub use ccache::{CellLookup, ClusterCache, CLUSTERING_VERSION};
pub use decision::DECISION_EVENT;
pub use elicit::{elicit, elicit_auto, render_dendrogram, ClusterReport, Elicitation};
pub use experiments::{
    figure9_table, Experiments, Figure10Output, Figure6Row, Figure7Cell, Figure7Row, Figure8Output,
};
pub use filter::{apply_filters, stage_changes, FilterStage, FilterStats, SeenDups, FILTER_FUNNEL};
pub use mcache::{CachedLookup, ChangeOutcome, MiningCache, MiningCacheView, ANALYSIS_VERSION};
pub use pipeline::{
    change_fingerprint, mine_parallel, ChangeMeta, ChangeVerdict, DiffCode, MineOptions,
    MinedUsageChange, MiningResult, MiningStats, Verdict,
};
pub use quarantine::{ErrorKind, PipelineError, PipelineLimits, QuarantineReport, SkipCounters};
pub use report::Table;
