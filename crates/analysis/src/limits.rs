//! Resource budgets for the abstract interpreter.
//!
//! The parser already bounds source size, token count, and nesting
//! depth, but the interpreter adds its own blow-up dimensions: every
//! method is an entry method, branches fork the environment, and local
//! helpers are inlined. A pathological (or adversarial) file can be
//! cheap to parse yet expensive to analyze, so the interpreter carries
//! a step budget ("fuel") that turns runaway analyses into a typed
//! [`AnalysisError`] instead of a stalled mining shard.

use std::fmt;

/// Budgets applied by [`crate::analyze`] to one compilation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisLimits {
    /// Maximum number of interpreter steps. One step is charged per
    /// statement executed and per expression evaluated; forking the
    /// environment at a branch charges its current size, so the budget
    /// bounds total work, not just AST visits.
    pub max_steps: u64,
    /// Maximum AST depth accepted. The interpreter recurses along the
    /// tree, so this guards the call stack against hand-built (not
    /// parser-produced) pathological inputs. Checked up front via
    /// [`javalang::visit::ast_depth`], which is iterative.
    pub max_ast_depth: usize,
}

impl AnalysisLimits {
    /// Default budgets: 2 million steps (well under a second of work,
    /// three orders of magnitude above any real corpus file) and AST
    /// depth 512 (the parser's own ceiling leaves real files far
    /// below this).
    pub const DEFAULT: AnalysisLimits = AnalysisLimits {
        max_steps: 2_000_000,
        max_ast_depth: 512,
    };
}

impl Default for AnalysisLimits {
    fn default() -> Self {
        AnalysisLimits::DEFAULT
    }
}

/// Why [`crate::analyze`] refused to produce usages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The interpreter ran out of fuel before finishing the unit.
    StepBudgetExceeded {
        /// The budget that was exhausted.
        max_steps: u64,
    },
    /// The unit's AST is deeper than the configured maximum; running
    /// the recursive interpreter on it could overflow the stack.
    AstTooDeep {
        /// Measured depth of the unit.
        depth: usize,
        /// The configured ceiling.
        max_depth: usize,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::StepBudgetExceeded { max_steps } => {
                write!(f, "analysis exceeded its budget of {max_steps} steps")
            }
            AnalysisError::AstTooDeep { depth, max_depth } => {
                write!(f, "AST depth {depth} exceeds the maximum of {max_depth}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}
