//! Error and diagnostic types for the front end.
//!
//! Every failure on the untrusted-input path carries a typed
//! [`ParseErrorKind`] so downstream consumers (the mining pipeline's
//! quarantine accounting in particular) can bucket failures without
//! string matching. The human-readable `message` strings are part of
//! the stable surface too — tests assert on them — so kinds are an
//! *addition*, not a replacement.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// A byte-offset range into the original source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
}

impl Span {
    /// A span covering `start..end` on `line`.
    pub fn new(start: usize, end: usize, line: u32) -> Self {
        Span { start, end, line }
    }

    /// The smallest span containing both `self` and `other`.
    pub(crate) fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)
    }
}

/// What category of failure a [`ParseError`] represents.
///
/// Lexical kinds come out of the lexer; syntactic kinds out of the
/// parser. Budget kinds can come from either, depending on
/// which limit tripped first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// `/*` with no matching `*/`.
    UnterminatedComment,
    /// `"` with no closing quote on the same line.
    UnterminatedString,
    /// `'` with no closing quote.
    UnterminatedChar,
    /// A backslash escape cut off by end of input, or a malformed
    /// `\uXXXX` sequence.
    InvalidEscape,
    /// A numeric literal with no digits or out-of-range digits
    /// (`0x`, `0b_`, `1e`, ...).
    InvalidLiteral,
    /// A byte that starts no Java token (`#`, a stray `\`, ...).
    UnexpectedChar,
    /// The source text exceeds [`crate::limits::Limits::max_source_bytes`].
    SourceTooLarge,
    /// The token stream exceeds [`crate::limits::Limits::max_tokens`].
    TokenBudgetExceeded,
    /// A single token exceeds [`crate::limits::Limits::max_token_bytes`].
    TokenTooLong,
    /// The parser found a token that fits no production and could not
    /// recover.
    UnexpectedToken,
    /// Expression / statement / type nesting exceeded
    /// [`crate::limits::Limits::max_nesting`].
    NestingTooDeep,
    /// An invariant the front end maintains internally was violated —
    /// always a bug in this crate, never the input's fault, but
    /// reported as an error rather than a panic so one bad file cannot
    /// abort a mining run.
    Internal,
}

impl ParseErrorKind {
    /// Whether this kind is produced during lexing (as opposed to
    /// parsing). Budget kinds that trip in the lexer count as lexical.
    pub fn is_lexical(self) -> bool {
        matches!(
            self,
            ParseErrorKind::UnterminatedComment
                | ParseErrorKind::UnterminatedString
                | ParseErrorKind::UnterminatedChar
                | ParseErrorKind::InvalidEscape
                | ParseErrorKind::InvalidLiteral
                | ParseErrorKind::UnexpectedChar
                | ParseErrorKind::SourceTooLarge
                | ParseErrorKind::TokenBudgetExceeded
                | ParseErrorKind::TokenTooLong
        )
    }
}

/// A fatal parse error: the file could not be turned into an AST at all.
///
/// The payload lives behind one `Box`, keeping `ParseError` (and with
/// it every `Result` threaded through the recursive-descent parser's
/// hot path) pointer-sized; speculative parses construct and discard
/// errors freely, and static messages don't allocate a `String`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    inner: Box<ParseErrorInner>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ParseErrorInner {
    kind: ParseErrorKind,
    message: Cow<'static, str>,
    span: Span,
}

impl ParseError {
    /// Creates a parse error at `span` with the generic
    /// [`ParseErrorKind::UnexpectedToken`] kind.
    pub(crate) fn new(message: impl Into<Cow<'static, str>>, span: Span) -> Self {
        ParseError::with_kind(ParseErrorKind::UnexpectedToken, message, span)
    }

    /// Creates a parse error of a specific kind at `span`.
    pub fn with_kind(
        kind: ParseErrorKind,
        message: impl Into<Cow<'static, str>>,
        span: Span,
    ) -> Self {
        ParseError {
            inner: Box::new(ParseErrorInner {
                kind,
                message: message.into(),
                span,
            }),
        }
    }

    /// The failure category.
    pub fn kind(&self) -> ParseErrorKind {
        self.inner.kind
    }

    /// The human-readable description, lowercase, without punctuation.
    pub(crate) fn message(&self) -> &str {
        &self.inner.message
    }

    /// Where in the source the error occurred.
    pub(crate) fn span(&self) -> Span {
        self.inner.span
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.inner.message, self.inner.span)
    }
}

impl Error for ParseError {}

/// A recoverable problem encountered while parsing: the parser skipped
/// the offending region and kept going.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDiagnostic {
    /// What went wrong.
    pub message: String,
    /// Where the parser was when it gave up on the construct.
    pub span: Span,
}

impl fmt::Display for ParseDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "skipped: {} at {}", self.message, self.span)
    }
}
