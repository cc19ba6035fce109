//! Hard resource budgets for the front end.
//!
//! Mining operates on untrusted input — truncated files, generated
//! code, adversarial garbage — so every dimension along which a file
//! can be pathological gets a hard cap that produces a typed
//! [`crate::ParseError`] instead of a hang, a stack overflow, or an
//! out-of-memory abort. The defaults are far above anything a real
//! hand-written Java file reaches (the paper's corpus files are a few
//! KiB), but low enough that a single hostile file cannot stall a
//! crawl-scale run.

/// Resource budgets applied while lexing and parsing one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum source length in bytes. Longer inputs fail with
    /// [`crate::ParseErrorKind::SourceTooLarge`] before lexing starts.
    pub max_source_bytes: usize,
    /// Maximum number of tokens the lexer will produce
    /// ([`crate::ParseErrorKind::TokenBudgetExceeded`]).
    pub max_tokens: usize,
    /// Maximum length in bytes of a single token — megabyte identifiers
    /// and string literals are a classic fuzzer product
    /// ([`crate::ParseErrorKind::TokenTooLong`]).
    pub max_token_bytes: usize,
    /// Maximum recursion depth across *all* recursive parser paths:
    /// expressions, statements, types and type arguments, array
    /// initialisers, casts, and nested type declarations
    /// ([`crate::ParseErrorKind::NestingTooDeep`]).
    pub max_nesting: usize,
}

impl Limits {
    /// The budgets used when none are specified: 1 MiB of source,
    /// 262 144 tokens, 64 KiB tokens, nesting depth 64.
    pub const DEFAULT: Limits = Limits {
        max_source_bytes: 1 << 20,
        max_tokens: 1 << 18,
        max_token_bytes: 1 << 16,
        max_nesting: 64,
    };
}

impl Default for Limits {
    fn default() -> Self {
        Limits::DEFAULT
    }
}
