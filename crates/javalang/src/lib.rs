//! A lexer, parser, and AST for the subset of Java exercised by
//! crypto-API client code.
//!
//! The original DiffCode system (PLDI'18) analyzes Java sources fetched
//! from version control, including *partial programs* — library code
//! without an entry point, snippets that reference unresolved types, and
//! files that do not compile on their own. This crate therefore
//! implements an **error-tolerant** recursive-descent front end rather
//! than a conforming compiler front end: unparseable class members are
//! skipped (with a recorded [`ParseDiagnostic`]) instead of failing the
//! whole file.
//!
//! # Example
//!
//! ```
//! use javalang::parse_compilation_unit;
//!
//! let unit = parse_compilation_unit(
//!     r#"
//!     class Demo {
//!         void run() throws Exception {
//!             javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("AES");
//!         }
//!     }
//!     "#,
//! )?;
//! assert_eq!(unit.types.len(), 1);
//! # Ok::<(), javalang::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
mod lexer;
mod limits;
mod parser;
mod printer;
mod token;
pub mod visit;

pub use ast::CompilationUnit;
pub use error::{ParseDiagnostic, ParseError, ParseErrorKind};
pub use limits::Limits;
pub use parser::{parse_compilation_unit, parse_compilation_unit_with_limits};
pub use printer::pretty_print;
pub use token::{Keyword, Punct, SpannedToken, Token};

/// Convenience: lex `source` into a token stream, discarding trivia.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed literals (e.g. an unterminated
/// string).
pub fn lex(source: &str) -> Result<Vec<SpannedToken<'_>>, ParseError> {
    lexer::Lexer::new(source).tokenize()
}

/// Parses a *partial program*: a full compilation unit, a bare class
/// body (members without a surrounding class), or a bare statement
/// sequence — the kinds of snippets DiffCode mines from patches and
/// pastes.
///
/// Wrapping is attempted in that order; the first parse producing at
/// least one type declaration wins.
///
/// # Errors
///
/// Fails only if none of the three interpretations lexes/parses.
///
/// # Example
///
/// ```
/// // A bare statement sequence, not valid as a compilation unit:
/// let unit = javalang::parse_snippet(
///     r#"Cipher c = Cipher.getInstance("AES"); c.init(Cipher.ENCRYPT_MODE, key);"#,
/// )?;
/// assert_eq!(unit.types.len(), 1); // wrapped in a synthetic class
/// # Ok::<(), javalang::ParseError>(())
/// ```
pub fn parse_snippet(source: &str) -> Result<CompilationUnit, ParseError> {
    parse_snippet_with_limits(source, Limits::DEFAULT)
}

/// Like [`parse_snippet`], with explicit resource budgets.
///
/// The budgets apply to each candidate interpretation; the synthetic
/// wrapper class adds a handful of tokens and one nesting level, which
/// is accounted for before the source's own budget is charged.
///
/// # Errors
///
/// As [`parse_snippet`], plus typed budget errors when `limits` are
/// exceeded.
pub fn parse_snippet_with_limits(
    source: &str,
    limits: Limits,
) -> Result<CompilationUnit, ParseError> {
    let direct = parse_compilation_unit_with_limits(source, limits);
    if let Ok(unit) = &direct {
        if !unit.types.is_empty() && unit.diagnostics.is_empty() {
            return direct;
        }
    }
    // Candidate interpretations, scored by recovered-error count; the
    // cleanest one (fewest skipped regions) wins, with ties broken in
    // declaration order below.
    let mut best: Option<CompilationUnit> = None;
    let mut consider = |unit: CompilationUnit, has_content: bool| {
        if !has_content {
            return;
        }
        let better = match &best {
            None => true,
            Some(current) => unit.diagnostics.len() < current.diagnostics.len(),
        };
        if better {
            best = Some(unit);
        }
    };

    if let Ok(unit) = &direct {
        let has_types = !unit.types.is_empty();
        consider(unit.clone(), has_types);
    }
    // The synthetic wrappers add a few dozen bytes, a dozen tokens, and
    // up to two nesting levels; widen the budgets by that much so a
    // source exactly at its limit is not rejected for the wrapper's
    // overhead.
    let wrapped_limits = Limits {
        max_source_bytes: limits.max_source_bytes.saturating_add(96),
        max_tokens: limits.max_tokens.saturating_add(16),
        max_nesting: limits.max_nesting.saturating_add(2),
        ..limits
    };
    let as_members = format!("class __Snippet__ {{\n{source}\n}}");
    if let Ok(unit) = parse_compilation_unit_with_limits(&as_members, wrapped_limits) {
        let has_content = unit.types.first().is_some_and(|t| !t.members.is_empty());
        consider(unit, has_content);
    }
    let as_statements =
        format!("class __Snippet__ {{ void __snippet__() throws Exception {{\n{source}\n}} }}");
    if let Ok(unit) = parse_compilation_unit_with_limits(&as_statements, wrapped_limits) {
        let has_content = unit.types.first().is_some_and(|t| {
            t.methods()
                .next()
                .and_then(|m| m.body.as_ref())
                .is_some_and(|b| !b.stmts.is_empty())
        });
        consider(unit, has_content);
    }
    match best {
        Some(unit) => Ok(unit),
        None => direct,
    }
}
