//! Synthetic GitHub corpus for the DiffCode reproduction.
//!
//! The paper mines 461 popular Java projects (11 551 crypto-touching
//! code changes) from GitHub. Network access and the original
//! repositories are unavailable here, so this crate provides a
//! **deterministic, calibrated stand-in**: a generator that produces
//! projects with realistic commit histories over parameterized Java
//! crypto modules. The pipeline downstream of mining is identical —
//! it consumes pairs of Java sources regardless of where they came
//! from. See DESIGN.md §1 for the substitution argument.
//!
//! # Example
//!
//! ```
//! use corpus::{generate, GeneratorConfig};
//!
//! let corpus = generate(&GeneratorConfig::small(3, 7));
//! assert_eq!(corpus.projects.len(), 3);
//! let changes: Vec<_> = corpus.code_changes().collect();
//! assert!(!changes.is_empty());
//! // Same seed, same corpus:
//! assert_eq!(corpus, corpus::generate(&GeneratorConfig::small(3, 7)));
//! ```

#![warn(missing_docs)]

pub mod chaos;
mod diff;
pub mod fixtures;
mod generator;
mod golden;
mod model;
mod stats;
mod templates;

pub use chaos::{FaultKind, FaultLog, InjectedFault, Mutator};
pub use diff::render_patch;
pub use generator::{generate, GeneratorConfig};
pub use golden::golden_corpus;
pub use model::{CodeChange, Commit, Corpus, FileChange, Project, ProjectFacts};
pub use stats::{corpus_stats, CorpusStats};
