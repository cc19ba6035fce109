//! Fault-tolerant mining support: the shared pipeline error taxonomy,
//! per-stage resource budgets, skip accounting, and quarantine reports.
//!
//! Mining runs over untrusted input at corpus scale, so the pipeline
//! is **total**: no input may abort, hang, or poison a run. Every
//! stage (lexing/parsing, abstract interpretation, DAG construction)
//! returns a typed error instead of panicking, a last-resort
//! `catch_unwind` around each code change converts residual panics
//! into [`ErrorKind::Panic`] skips, and every skip is accounted —
//! `code_changes == mined + skipped.total()` is an invariant of
//! [`crate::MiningStats`] — and quarantined with provenance for later
//! triage.

use crate::pipeline::ChangeMeta;
use analysis::{AnalysisError, AnalysisLimits};
use javalang::{Limits, ParseError};
use std::fmt;
use usagegraph::{DagError, DagLimits};

/// Coarse classification of why a code change was skipped. One counter
/// per variant lives in [`crate::MiningStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorKind {
    /// The source could not be lexed (malformed literals, budget
    /// overruns caught before or during tokenization).
    Lex,
    /// The token stream could not be parsed into any compilation unit
    /// (including nesting-budget overruns).
    Parse,
    /// The abstract interpreter exceeded its step budget or refused a
    /// too-deep AST.
    AnalysisBudget,
    /// Usage-DAG construction exceeded its path or object budget.
    DagBudget,
    /// A panic escaped a pipeline stage and was caught at the
    /// per-change isolation boundary.
    Panic,
}

impl ErrorKind {
    /// All kinds, in severity-agnostic display order.
    pub const ALL: [ErrorKind; 5] = [
        ErrorKind::Lex,
        ErrorKind::Parse,
        ErrorKind::AnalysisBudget,
        ErrorKind::DagBudget,
        ErrorKind::Panic,
    ];

    /// Stable machine-readable name, used in reports and CI greps.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::Lex => "lex",
            ErrorKind::Parse => "parse",
            ErrorKind::AnalysisBudget => "analysis-budget",
            ErrorKind::DagBudget => "dag-budget",
            ErrorKind::Panic => "panic",
        }
    }

    /// The `mine.skipped.<kind>` counter name of [`ErrorKind::name`].
    fn counter_name(&self) -> &'static str {
        match self {
            ErrorKind::Lex => "mine.skipped.lex",
            ErrorKind::Parse => "mine.skipped.parse",
            ErrorKind::AnalysisBudget => "mine.skipped.analysis-budget",
            ErrorKind::DagBudget => "mine.skipped.dag-budget",
            ErrorKind::Panic => "mine.skipped.panic",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed failure from any pipeline stage.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PipelineError {
    /// Lexer or parser failure (see [`ParseError::kind`]).
    Frontend(ParseError),
    /// Abstract-interpreter budget failure.
    Analysis(AnalysisError),
    /// DAG-construction budget failure.
    Dag(DagError),
    /// A caught panic; the payload message, when it was a string.
    Panic(String),
}

impl PipelineError {
    /// The coarse [`ErrorKind`] this error counts under.
    pub fn kind(&self) -> ErrorKind {
        match self {
            PipelineError::Frontend(e) if e.kind().is_lexical() => ErrorKind::Lex,
            PipelineError::Frontend(_) => ErrorKind::Parse,
            PipelineError::Analysis(_) => ErrorKind::AnalysisBudget,
            PipelineError::Dag(_) => ErrorKind::DagBudget,
            PipelineError::Panic(_) => ErrorKind::Panic,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Frontend(e) => write!(f, "{e}"),
            PipelineError::Analysis(e) => write!(f, "{e}"),
            PipelineError::Dag(e) => write!(f, "{e}"),
            PipelineError::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Frontend(e)
    }
}

impl From<AnalysisError> for PipelineError {
    fn from(e: AnalysisError) -> Self {
        PipelineError::Analysis(e)
    }
}

impl From<DagError> for PipelineError {
    fn from(e: DagError) -> Self {
        PipelineError::Dag(e)
    }
}

/// Per-kind skip counters. `total()` plus the mined count always
/// equals the processed count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipCounters {
    /// Skips classified [`ErrorKind::Lex`].
    pub lex: usize,
    /// Skips classified [`ErrorKind::Parse`].
    pub parse: usize,
    /// Skips classified [`ErrorKind::AnalysisBudget`].
    pub analysis_budget: usize,
    /// Skips classified [`ErrorKind::DagBudget`].
    pub dag_budget: usize,
    /// Skips classified [`ErrorKind::Panic`].
    pub panic: usize,
}

impl SkipCounters {
    /// The counter for `kind`.
    pub fn get(&self, kind: ErrorKind) -> usize {
        match kind {
            ErrorKind::Lex => self.lex,
            ErrorKind::Parse => self.parse,
            ErrorKind::AnalysisBudget => self.analysis_budget,
            ErrorKind::DagBudget => self.dag_budget,
            ErrorKind::Panic => self.panic,
        }
    }

    /// Increments the counter for `kind`.
    pub(crate) fn bump(&mut self, kind: ErrorKind) {
        match kind {
            ErrorKind::Lex => self.lex += 1,
            ErrorKind::Parse => self.parse += 1,
            ErrorKind::AnalysisBudget => self.analysis_budget += 1,
            ErrorKind::DagBudget => self.dag_budget += 1,
            ErrorKind::Panic => self.panic += 1,
        }
    }

    /// Sum over all kinds.
    pub fn total(&self) -> usize {
        ErrorKind::ALL.iter().map(|k| self.get(*k)).sum()
    }

    /// Adds `other`'s counters into `self` (shard merging).
    pub(crate) fn absorb(&mut self, other: &SkipCounters) {
        self.lex += other.lex;
        self.parse += other.parse;
        self.analysis_budget += other.analysis_budget;
        self.dag_budget += other.dag_budget;
        self.panic += other.panic;
    }

    /// Publishes the per-kind breakdown as `mine.skipped.<kind>`
    /// counters (plus the `mine.skipped` total), so metrics snapshots
    /// carry the same quarantine accounting as [`QuarantineReport`]s.
    pub(crate) fn record(&self, registry: &mut obs::Recorder) {
        registry.inc("mine.skipped", self.total() as u64);
        for kind in ErrorKind::ALL {
            registry.inc(kind.counter_name(), self.get(kind) as u64);
        }
    }
}

/// One quarantined code change: provenance, classification, and a
/// minimized excerpt of the offending source for triage without
/// re-fetching the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineReport {
    /// Where the skipped change came from.
    pub meta: ChangeMeta,
    /// Coarse classification.
    pub kind: ErrorKind,
    /// The full error message.
    pub error: String,
    /// First non-blank line of the failing source, control characters
    /// replaced and truncated to 80 characters.
    pub excerpt: String,
}

/// Produces the triage excerpt stored in a [`QuarantineReport`]: the
/// first non-blank line with control characters replaced by `·`,
/// truncated to 80 characters (with an ellipsis when cut). Truncation
/// slices at a char boundary — a multibyte scalar straddling the cap
/// is dropped whole, never split into invalid UTF-8.
pub fn excerpt(source: &str) -> String {
    const MAX_CHARS: usize = 80;
    let line = source
        .lines()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("")
        .trim_end();
    let (head, cut) = truncate_at_char_boundary(line, MAX_CHARS);
    let mut out: String = head
        .chars()
        .map(|c| if c.is_control() { '·' } else { c })
        .collect();
    if cut {
        out.push('…');
    }
    out
}

/// Byte-slices `s` to its first `max_chars` characters. The cut index
/// comes from `char_indices`, so it is a char boundary by construction;
/// the `debug_assert` pins that invariant against future edits swapping
/// in a byte count. Returns the head and whether anything was cut.
fn truncate_at_char_boundary(s: &str, max_chars: usize) -> (&str, bool) {
    match s.char_indices().nth(max_chars) {
        Some((cut, _)) => {
            debug_assert!(s.is_char_boundary(cut));
            (&s[..cut], true)
        }
        None => (s, false),
    }
}

/// The per-stage resource budgets one [`crate::DiffCode`] applies to
/// every analysis: mining, checking, and the command-line tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineLimits {
    /// Lexer/parser budgets.
    pub parse: Limits,
    /// Abstract-interpreter budgets.
    pub analysis: AnalysisLimits,
    /// DAG-construction budgets, including the DAG depth.
    pub dag: DagLimits,
}

impl PipelineLimits {
    /// The default stack of budgets, suitable for crawl-scale corpora
    /// and for checking untrusted sources.
    pub const DEFAULT: PipelineLimits = PipelineLimits {
        parse: Limits::DEFAULT,
        analysis: AnalysisLimits::DEFAULT,
        dag: DagLimits::DEFAULT,
    };
}

impl Default for PipelineLimits {
    fn default() -> Self {
        PipelineLimits::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_counter_names_are_mine_skipped_and_the_kind_name() {
        let mut counts = SkipCounters::default();
        for kind in ErrorKind::ALL {
            assert_eq!(kind.counter_name(), format!("mine.skipped.{}", kind.name()));
            counts.bump(kind);
        }
        let mut recorder = obs::Recorder::new();
        counts.record(&mut recorder);
        assert_eq!(recorder.counter("mine.skipped"), 5);
        for kind in ErrorKind::ALL {
            assert_eq!(
                recorder.counter(&format!("mine.skipped.{}", kind.name())),
                1
            );
        }
    }

    #[test]
    fn kind_classification() {
        let lex = ParseError::with_kind(
            javalang::ParseErrorKind::UnterminatedString,
            "unterminated string literal",
            javalang::error::Span::new(0, 1, 1),
        );
        assert_eq!(PipelineError::Frontend(lex).kind(), ErrorKind::Lex);
        let parse = ParseError::with_kind(
            javalang::ParseErrorKind::NestingTooDeep,
            "too deep",
            javalang::error::Span::new(0, 1, 1),
        );
        assert_eq!(PipelineError::Frontend(parse).kind(), ErrorKind::Parse);
        assert_eq!(
            PipelineError::Analysis(AnalysisError::StepBudgetExceeded { max_steps: 1 }).kind(),
            ErrorKind::AnalysisBudget
        );
        assert_eq!(
            PipelineError::Dag(DagError::PathBudgetExceeded { max_paths: 1 }).kind(),
            ErrorKind::DagBudget
        );
        assert_eq!(PipelineError::Panic("boom".into()).kind(), ErrorKind::Panic);
    }

    #[test]
    fn skip_counters_account_exactly() {
        let mut c = SkipCounters::default();
        c.bump(ErrorKind::Lex);
        c.bump(ErrorKind::Lex);
        c.bump(ErrorKind::Panic);
        assert_eq!(c.get(ErrorKind::Lex), 2);
        assert_eq!(c.total(), 3);
        let mut d = SkipCounters::default();
        d.bump(ErrorKind::DagBudget);
        d.absorb(&c);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn excerpt_sanitizes_and_truncates() {
        assert_eq!(excerpt("\n\n  class A {\t}  "), "  class A {·}");
        let long = "x".repeat(200);
        let e = excerpt(&long);
        assert_eq!(e.chars().count(), 81, "80 chars + ellipsis");
        assert!(e.ends_with('…'));
        assert_eq!(excerpt("   \n\t\n"), "");
    }

    #[test]
    fn excerpt_cuts_multibyte_lines_on_char_boundaries() {
        // 100 four-byte scalars: a byte-indexed cut at 80 would land
        // mid-scalar. The excerpt must keep exactly 80 whole chars.
        let emoji = "\u{1F510}".repeat(100);
        let e = excerpt(&emoji);
        assert_eq!(e.chars().count(), 81);
        assert!(e.ends_with('…'));
        assert!(e.starts_with('\u{1F510}'));
        // A scalar exactly straddling the cap is dropped whole.
        let mixed = format!("{}é", "x".repeat(79));
        assert_eq!(excerpt(&mixed).chars().count(), 80, "fits: no cut");
        let over = format!("{}éé", "x".repeat(79));
        let e = excerpt(&over);
        assert_eq!(e.chars().count(), 81);
        assert!(e.ends_with("é…"));
    }
}
