//! Incremental mining: the content-addressed result cache.
//!
//! The per-change pipeline (lex → parse → abstract interpretation →
//! DAG diff) is a pure function of the two file versions and the
//! pipeline configuration, so its outcome — the mined usage-change
//! tuples *or* the typed skip that quarantined it — can be persisted
//! and replayed on later runs instead of recomputed. This module binds
//! the generic [`cache`] crate to the pipeline:
//!
//! - **Keys** ([`MiningCache::change_key`]): a 128-bit fingerprint of
//!   the old file bytes, the new file bytes, and a configuration
//!   fingerprint covering the API model, the target-class list, the
//!   DAG depth, and every resource budget. Anything that can alter the
//!   outcome is in the key; provenance (project/commit/path) is *not*,
//!   so identical file pairs share one entry wherever they appear.
//! - **Payloads** ([`ChangeOutcome`]): the complete per-change outcome,
//!   including quarantined skips — a change that was skipped stays
//!   skipped on a warm run, keeping the
//!   `processed = mined + skipped` accounting byte-identical.
//! - **Payloads** hold each mined tuple's digest text — byte for byte
//!   what `diffcode mine`'s `result digest` hashes for it — beside a
//!   compact index of varint counts and lengths that says where every
//!   label lies in that text.
//! - **Record**: a miss's outcome is encoded once, into a buffer of its
//!   exact size, and its mined tuples keep their index and text as the
//!   record holds them.
//! - **Replay**: a hit is validated in place, in one pass that
//!   allocates nothing: one UTF-8 check over its text and a walk of its
//!   index that checks every separator. Its mined tuples keep their
//!   index in the payload, which the store shares rather than copies,
//!   and their text in one copy per outcome. Only what the funnel reads
//!   — class, feature diff, provenance — is materialised; the digest
//!   hashes the stored text, and a DAG is decoded when something asks
//!   for it ([`crate::MinedUsageChange::old_dag`]).
//! - **Versioning** ([`ANALYSIS_VERSION`]): bumped on any semantic
//!   change to `javalang`, `analysis`, or `usagegraph`, and on any
//!   change to the payload format; entries written under another
//!   version count as `cache.stale_version` and are recomputed (the
//!   store keeps the bytes until `vacuum`).

use crate::quarantine::ErrorKind;
use cache::wire::{varint_len, Reader, WireError, Writer};
use cache::{
    fingerprint, CacheStore, Fingerprint, Fingerprinter, Lookup, ShardLog, SharedBytes, StoreError,
};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use usagegraph::{FeaturePath, Label, UsageChange, UsageDag};

/// The version every cache record is stamped with: the semantic version
/// of the lex → parse → analysis → DAG-diff stack together with the
/// payload format. **Bump this on any change to `javalang`,
/// `analysis`, or `usagegraph` that can alter a mining outcome, and on
/// any change to the outcome codec** — cached entries written under an
/// older version are then reported stale and recomputed instead of
/// replayed, and `cache vacuum` drops them. Version 2 is the payload
/// that stores each tuple's digest text beside a varint index.
pub const ANALYSIS_VERSION: u32 = 2;

/// A fixed part of every cache key's configuration fingerprint. It
/// names the first payload format and stays as it is, so cache keys do
/// not move when the format does: the record version
/// ([`ANALYSIS_VERSION`]) marks records of an older format out of date.
const CODEC_VERSION: &str = "outcome-v1";

/// One cached per-change outcome: exactly what
/// `DiffCode::process_change` produced, minus provenance (which comes
/// from the corpus being mined, not the cache).
///
/// `D` is how a mined tuple holds its DAGs: owned (the default, and
/// what decoding yields), or borrowed from the analyzed sources while a
/// freshly computed outcome is recorded.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeOutcome<D = UsageDag> {
    /// The change was analyzed to completion: per-class usage-change
    /// tuples, in mining order.
    Mined(Vec<MinedTuple<D>>),
    /// The change was skipped and quarantined.
    Skipped {
        /// Coarse classification (drives `SkipCounters`).
        kind: ErrorKind,
        /// The full error message.
        error: String,
        /// The triage excerpt of the offending source.
        excerpt: String,
    },
}

/// One mined tuple: target class plus the paired DAGs and their diff.
pub(crate) type MinedTuple<D = UsageDag> = (String, D, D, UsageChange);

impl ChangeOutcome<Cow<'_, UsageDag>> {
    /// The outcome with every borrowed DAG cloned.
    pub(crate) fn into_owned(self) -> ChangeOutcome {
        match self {
            ChangeOutcome::Mined(tuples) => ChangeOutcome::Mined(
                tuples
                    .into_iter()
                    .map(|(class, old, new, change)| {
                        (class, old.into_owned(), new.into_owned(), change)
                    })
                    .collect(),
            ),
            ChangeOutcome::Skipped {
                kind,
                error,
                excerpt,
            } => ChangeOutcome::Skipped {
                kind,
                error,
                excerpt,
            },
        }
    }
}

// ---------------------------------------------------------------------
// Outcome codec
// ---------------------------------------------------------------------
//
// A skip is `u8 1, u8 kind, error, excerpt`, each string a varint
// length and its UTF-8 bytes.
//
// A mined outcome is `u8 0, varint n, n index entries, text region`.
// The text region is each tuple's digest text (`write_tuple_digest`),
// concatenated; a tuple whose change class is not its old DAG's root
// (never one the pipeline mines) has that class appended to its text.
// A tuple's index entry is `text length, body length, body`, and its
// body is `class length, change class code, removed paths, added
// paths, old DAG, new DAG`: a DAG is `root length, paths`, a run of
// paths `count, count × path`, and a path `count, count × label
// length`. The change class code is 0 when the class is the old DAG's
// root, else the appended class's length plus one. Every integer is a
// varint (`cache::wire`).
//
// The index delimits every label; the text between labels holds the
// separators the digest text puts there (`|`, `:`, `;`, ` `, `- `,
// `+ `, `\n`), which validation checks but nothing reads.

/// Appends the digest text of one mined tuple, `class|old|new|change`,
/// to `out`: a DAG reads `root:path;path;…` in set order, a path its
/// labels joined by spaces, and the change its `Display` (one `- path`
/// or `+ path` line per removed or added feature). This is the text a
/// cache payload stores for the tuple and the text `diffcode mine`'s
/// `result digest` hashes.
pub(crate) fn write_tuple_digest(
    out: &mut String,
    class: &str,
    old_dag: &UsageDag,
    new_dag: &UsageDag,
    change: &UsageChange,
) {
    out.push_str(class);
    out.push('|');
    write_dag_text(out, old_dag);
    out.push('|');
    write_dag_text(out, new_dag);
    out.push('|');
    for (sign, paths) in [("- ", &change.removed), ("+ ", &change.added)] {
        for path in paths {
            out.push_str(sign);
            write_path_text(out, path);
            out.push('\n');
        }
    }
}

fn write_dag_text(out: &mut String, dag: &UsageDag) {
    out.push_str(&dag.root_type);
    out.push(':');
    for (i, path) in dag.paths.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        write_path_text(out, path);
    }
}

fn write_path_text(out: &mut String, path: &FeaturePath) {
    for (i, label) in path.0.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(label);
    }
}

/// The bytes [`write_tuple_digest`] appends.
fn tuple_digest_len(
    class: &str,
    old_dag: &UsageDag,
    new_dag: &UsageDag,
    change: &UsageChange,
) -> usize {
    let lines = change.removed.iter().chain(&change.added);
    class.len()
        + 1
        + dag_text_len(old_dag)
        + 1
        + dag_text_len(new_dag)
        + 1
        + lines.map(|path| 2 + path_text_len(path) + 1).sum::<usize>()
}

fn dag_text_len(dag: &UsageDag) -> usize {
    let paths = dag.paths.iter().map(path_text_len).sum::<usize>();
    dag.root_type.len() + 1 + paths + dag.paths.len().saturating_sub(1)
}

fn path_text_len(path: &FeaturePath) -> usize {
    let labels = path.0.iter().map(|label| label.len()).sum::<usize>();
    labels + path.0.len().saturating_sub(1)
}

fn kind_tag(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::Lex => 0,
        ErrorKind::Parse => 1,
        ErrorKind::AnalysisBudget => 2,
        ErrorKind::DagBudget => 3,
        ErrorKind::Panic => 4,
    }
}

fn kind_from_tag(tag: u8) -> Result<ErrorKind, WireError> {
    Ok(match tag {
        0 => ErrorKind::Lex,
        1 => ErrorKind::Parse,
        2 => ErrorKind::AnalysisBudget,
        3 => ErrorKind::DagBudget,
        4 => ErrorKind::Panic,
        _ => return Err(WireError::Malformed("unknown error-kind tag")),
    })
}

/// The change class code of a tuple's index: 0 when the change's class
/// is the old DAG's root, else the length of the class its text
/// carries plus one.
fn change_class_code(old_dag: &UsageDag, change: &UsageChange) -> usize {
    if change.class == *old_dag.root_type {
        0
    } else {
        change.class.len() + 1
    }
}

/// One tuple's sizes: its text (digest text plus any appended change
/// class) and its index body.
fn tuple_sizes<D: Borrow<UsageDag>>((class, old, new, change): &MinedTuple<D>) -> (usize, usize) {
    let (old, new) = (old.borrow(), new.borrow());
    let code = change_class_code(old, change);
    let text = tuple_digest_len(class, old, new, change) + code.saturating_sub(1);
    let body = uvarint_len(class.len())
        + uvarint_len(code)
        + paths_index_len(&change.removed)
        + paths_index_len(&change.added)
        + dag_index_len(old)
        + dag_index_len(new);
    (text, body)
}

fn uvarint_len(v: usize) -> usize {
    varint_len(v as u64)
}

fn dag_index_len(dag: &UsageDag) -> usize {
    uvarint_len(dag.root_type.len()) + paths_index_len(&dag.paths)
}

fn paths_index_len<'p>(paths: impl IntoIterator<Item = &'p FeaturePath>) -> usize {
    let mut count = 0;
    let mut len = 0;
    for path in paths {
        count += 1;
        len += uvarint_len(path.0.len());
        len += path
            .0
            .iter()
            .map(|label| uvarint_len(label.len()))
            .sum::<usize>();
    }
    uvarint_len(count) + len
}

fn write_dag_index(w: &mut Writer, dag: &UsageDag) {
    w.varint(dag.root_type.len() as u64);
    write_paths_index(w, dag.paths.iter());
}

fn write_paths_index<'p>(w: &mut Writer, paths: impl ExactSizeIterator<Item = &'p FeaturePath>) {
    w.varint(paths.len() as u64);
    for path in paths {
        w.varint(path.0.len() as u64);
        for label in &path.0 {
            w.varint(label.len() as u64);
        }
    }
}

/// Serializes an outcome to cache-payload bytes.
pub fn encode_outcome<D: Borrow<UsageDag>>(outcome: &ChangeOutcome<D>) -> Vec<u8> {
    encode(outcome).0
}

/// Serializes `outcome` into a buffer of exactly its encoded size, so
/// the buffer never regrows and keeps no slack, and returns it with a
/// copy of its text region.
fn encode<D: Borrow<UsageDag>>(outcome: &ChangeOutcome<D>) -> (Vec<u8>, String) {
    let (size, text_len) = encoded_sizes(outcome);
    let mut w = Writer::with_capacity(size);
    let mut text = String::new();
    match outcome {
        ChangeOutcome::Mined(tuples) => {
            text.reserve_exact(text_len);
            w.u8(0);
            w.varint(tuples.len() as u64);
            for tuple in tuples {
                let (text_len, body_len) = tuple_sizes(tuple);
                let (class, old, new, change) = tuple;
                let (old, new) = (old.borrow(), new.borrow());
                let code = change_class_code(old, change);
                w.varint(text_len as u64);
                w.varint(body_len as u64);
                let body_start = w.position();
                w.varint(class.len() as u64);
                w.varint(code as u64);
                write_paths_index(&mut w, change.removed.iter());
                write_paths_index(&mut w, change.added.iter());
                write_dag_index(&mut w, old);
                write_dag_index(&mut w, new);
                debug_assert_eq!(w.position() - body_start, body_len, "tuple_sizes: body");
                let text_start = text.len();
                write_tuple_digest(&mut text, class, old, new, change);
                if code > 0 {
                    text.push_str(&change.class);
                }
                debug_assert_eq!(text.len() - text_start, text_len, "tuple_sizes: text");
            }
            w.raw(text.as_bytes());
        }
        ChangeOutcome::Skipped {
            kind,
            error,
            excerpt,
        } => {
            w.u8(1);
            w.u8(kind_tag(*kind));
            for field in [error, excerpt] {
                w.varint(field.len() as u64);
                w.raw(field.as_bytes());
            }
        }
    }
    debug_assert_eq!(w.position(), size, "encoded_sizes disagrees with encode");
    (w.finish(), text)
}

/// The bytes [`encode`] writes for `outcome`, and how many of them are
/// its text region.
fn encoded_sizes<D: Borrow<UsageDag>>(outcome: &ChangeOutcome<D>) -> (usize, usize) {
    match outcome {
        ChangeOutcome::Mined(tuples) => {
            let mut size = 1 + uvarint_len(tuples.len());
            let mut text = 0;
            for tuple in tuples {
                let (text_len, body_len) = tuple_sizes(tuple);
                size += uvarint_len(text_len) + uvarint_len(body_len) + body_len + text_len;
                text += text_len;
            }
            (size, text)
        }
        ChangeOutcome::Skipped { error, excerpt, .. } => {
            let field = |s: &str| uvarint_len(s.len()) + s.len();
            (2 + field(error) + field(excerpt), 0)
        }
    }
}

/// Decodes cache-payload bytes back into an outcome: the same
/// validating in-place read a cache hit goes through, plus
/// materialisation. Total: any malformed payload is a typed error (the
/// pipeline treats it as a miss and recomputes).
///
/// # Errors
///
/// [`WireError`] on truncated, malformed, or trailing-garbage input,
/// on an index that disagrees with the text it describes, and on a DAG
/// whose paths are not in the order [`encode_outcome`] writes them.
pub fn decode_outcome(bytes: &[u8]) -> Result<ChangeOutcome, WireError> {
    OutcomeView::parse(bytes).map(|view| view.to_outcome())
}

/// A borrowed view of one encoded [`ChangeOutcome`], read in place.
///
/// [`OutcomeView::parse`] validates the whole payload in one pass that
/// allocates nothing: framing, tags, the text region's UTF-8 in one
/// check, every separator byte where the index puts it, index and text
/// lengths that add up exactly, and each DAG's paths strictly ascending
/// — the order [`encode_outcome`] writes a DAG's `BTreeSet` in. That
/// order check is what makes the stored text equal the decoded DAG's
/// text: decoding collects the paths into a set, which would silently
/// reorder or merge paths written any other way. Reading a parsed view
/// cannot fail.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OutcomeView<'a> {
    /// The change was analyzed to completion.
    Mined(TuplesView<'a>),
    /// The change was skipped and quarantined.
    Skipped {
        /// Coarse classification.
        kind: ErrorKind,
        /// The full error message.
        error: &'a str,
        /// The triage excerpt of the offending source.
        excerpt: &'a str,
    },
}

impl<'a> OutcomeView<'a> {
    /// Validates `payload` end to end and returns a view over it.
    ///
    /// The text region is checked as UTF-8 once, and each tuple's text
    /// must start and end on a character boundary. Every label then
    /// lies between two ASCII separators or a tuple's ends, so every
    /// label is a `&str` slice of the checked text.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated, malformed, or trailing-garbage input,
    /// on an index that disagrees with the text, and on a DAG whose
    /// paths are not strictly ascending.
    pub(crate) fn parse(payload: &'a [u8]) -> Result<OutcomeView<'a>, WireError> {
        let mut r = Reader::new(payload);
        match r.u8()? {
            0 => {
                let len = r.count()?;
                let index_start = r.position();
                let mut text_len = 0usize;
                for _ in 0..len {
                    let tuple_text = r.varint_usize()?;
                    let body = r.varint_usize()?;
                    r.take(body)?;
                    text_len = text_len
                        .checked_add(tuple_text)
                        .ok_or(WireError::Malformed("text lengths overflow"))?;
                }
                let index = payload
                    .get(index_start..r.position())
                    .ok_or(WireError::Malformed("index region"))?;
                if r.rest().len() != text_len {
                    return Err(WireError::Malformed(
                        "text region length disagrees with the index",
                    ));
                }
                let text = std::str::from_utf8(r.rest())
                    .map_err(|_| WireError::Malformed("text region is not UTF-8"))?;
                for (body, range) in spans(index, len) {
                    let tuple = text
                        .get(range)
                        .ok_or(WireError::Malformed("tuple text splits a character"))?;
                    let body = index.get(body).ok_or(WireError::Malformed("index entry"))?;
                    check_tuple(body, tuple)?;
                }
                Ok(OutcomeView::Mined(TuplesView { index, text, len }))
            }
            1 => {
                let kind = kind_from_tag(r.u8()?)?;
                let error = read_str(&mut r)?;
                let excerpt = read_str(&mut r)?;
                if !r.is_exhausted() {
                    return Err(WireError::Malformed("trailing bytes after outcome"));
                }
                Ok(OutcomeView::Skipped {
                    kind,
                    error,
                    excerpt,
                })
            }
            _ => Err(WireError::Malformed("unknown outcome tag")),
        }
    }

    /// The decoded outcome: owned tuples with materialised DAGs.
    pub(crate) fn to_outcome(self) -> ChangeOutcome {
        match self {
            OutcomeView::Mined(tuples) => {
                ChangeOutcome::Mined(tuples.iter().map(|tuple| tuple.to_tuple()).collect())
            }
            OutcomeView::Skipped {
                kind,
                error,
                excerpt,
            } => ChangeOutcome::Skipped {
                kind,
                error: error.to_owned(),
                excerpt: excerpt.to_owned(),
            },
        }
    }
}

fn read_str<'a>(r: &mut Reader<'a>) -> Result<&'a str, WireError> {
    let len = r.varint_usize()?;
    std::str::from_utf8(r.take(len)?).map_err(|_| WireError::Malformed("string is not UTF-8"))
}

/// Checks one tuple's index body against its text: each label where
/// the index puts it, each separator between, nothing left over on
/// either side, and each DAG's paths strictly ascending.
fn check_tuple(body: &[u8], text: &str) -> Result<(), WireError> {
    let mut r = Reader::new(body);
    let class_len = r.varint_usize()?;
    let code = r.varint_usize()?;
    let removed = PathsIndex::read(&mut r)?;
    let added = PathsIndex::read(&mut r)?;
    let mut t = TextCursor {
        text: text.as_bytes(),
        at: 0,
    };
    t.skip(class_len)?;
    t.sep(b'|')?;
    for _ in 0..2 {
        let root = r.varint_usize()?;
        t.skip(root)?;
        t.sep(b':')?;
        let count = r.count()?;
        let mut prev: Option<(PathIndex<'_>, usize)> = None;
        for i in 0..count {
            if i > 0 {
                t.sep(b';')?;
            }
            prev = Some(t.dag_path(&mut r, prev)?);
        }
        t.sep(b'|')?;
    }
    for (sign, paths) in [(b'-', removed), (b'+', added)] {
        for path in paths.iter() {
            t.sep(sign)?;
            t.sep(b' ')?;
            t.path(path)?;
            t.sep(b'\n')?;
        }
    }
    t.skip(code.saturating_sub(1))?;
    if t.at != t.text.len() || !r.is_exhausted() {
        return Err(WireError::Malformed("tuple index and text disagree"));
    }
    Ok(())
}

/// A walk over one tuple's text, checking it against the index.
struct TextCursor<'t> {
    text: &'t [u8],
    at: usize,
}

impl TextCursor<'_> {
    /// Steps over `byte`, which must come next.
    fn sep(&mut self, byte: u8) -> Result<(), WireError> {
        if self.text.get(self.at) != Some(&byte) {
            return Err(WireError::Malformed(
                "no separator where the index puts one",
            ));
        }
        self.at += 1;
        Ok(())
    }

    /// Steps over a label of `len` bytes.
    fn skip(&mut self, len: usize) -> Result<(), WireError> {
        match self.at.checked_add(len) {
            Some(end) if end <= self.text.len() => {
                self.at = end;
                Ok(())
            }
            _ => Err(WireError::Malformed("label runs past its tuple's text")),
        }
    }

    /// Steps over the next path of a DAG, whose index `r` reads, and
    /// checks that it sorts strictly after `prev` (a path and where its
    /// text starts), comparing labels only until their order is
    /// decided. Returns the path and where its text starts.
    fn dag_path<'b>(
        &mut self,
        r: &mut Reader<'b>,
        prev: Option<(PathIndex<'_>, usize)>,
    ) -> Result<(PathIndex<'b>, usize), WireError> {
        let (count, rest, start, at) = (r.count()?, r.rest(), r.position(), self.at);
        let mut prev_labels = prev.map(|(path, at)| path.label_ranges(at));
        let mut order = match prev_labels {
            Some(_) => Ordering::Equal,
            None => Ordering::Less,
        };
        for j in 0..count {
            if j > 0 {
                self.sep(b' ')?;
            }
            let label = self.at;
            self.skip(r.varint_usize()?)?;
            if order == Ordering::Equal {
                order = match prev_labels.as_mut().and_then(Iterator::next) {
                    Some(prev) => self.text.get(prev).cmp(&self.text.get(label..self.at)),
                    None => Ordering::Less,
                };
            }
        }
        // Still equal: `prev` is this path, or has it as a prefix.
        if order != Ordering::Less {
            return Err(WireError::Malformed("DAG paths not strictly ascending"));
        }
        let lens = rest.get(..r.position() - start).unwrap_or_default();
        Ok((PathIndex { lens, count }, at))
    }

    /// Steps over a path's labels and the spaces between them.
    fn path(&mut self, path: PathIndex<'_>) -> Result<(), WireError> {
        for (i, len) in path.label_lens().enumerate() {
            if i > 0 {
                self.sep(b' ')?;
            }
            self.skip(len)?;
        }
        Ok(())
    }
}

/// Each tuple's body range in `index` and text range in the text
/// region, read from index entries [`OutcomeView::parse`] accepted.
fn spans(index: &[u8], len: usize) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
    let mut r = Reader::new(index);
    let mut text_at = 0;
    (0..len).map(move |_| {
        let text_len = trusted(r.varint_usize());
        let body_len = trusted(r.varint_usize());
        let body = r.position()..r.position() + body_len;
        trusted(r.take(body_len));
        let text = text_at..text_at + text_len;
        text_at += text_len;
        (body, text)
    })
}

/// One path of a tuple's index: its label lengths.
#[derive(Debug, Clone, Copy, Default)]
struct PathIndex<'a> {
    lens: &'a [u8],
    count: usize,
}

impl<'a> PathIndex<'a> {
    fn read(r: &mut Reader<'a>) -> Result<PathIndex<'a>, WireError> {
        let count = r.count()?;
        let rest = r.rest();
        let start = r.position();
        for _ in 0..count {
            r.varint_usize()?;
        }
        Ok(PathIndex {
            lens: rest.get(..r.position() - start).unwrap_or_default(),
            count,
        })
    }

    fn label_lens(self) -> impl Iterator<Item = usize> + 'a {
        let mut r = Reader::new(self.lens);
        (0..self.count).map(move |_| trusted(r.varint_usize()))
    }

    /// The bytes of the path's text: its labels joined by spaces.
    fn text_len(self) -> usize {
        self.label_lens().sum::<usize>() + self.count.saturating_sub(1)
    }

    /// Where each label of the path whose text starts at `at` lies.
    fn label_ranges(self, at: usize) -> impl Iterator<Item = Range<usize>> + 'a {
        let mut at = at;
        self.label_lens().map(move |len| {
            let label = at..at + len;
            at += len + 1;
            label
        })
    }

    /// The decoded path, from its text at `at` in `text`.
    fn to_path(self, text: &str, at: usize) -> FeaturePath {
        let labels = self
            .label_ranges(at)
            .map(|label| Label::from(sub(text, label)));
        FeaturePath(labels.collect())
    }
}

/// A run of paths of a tuple's index.
#[derive(Debug, Clone, Copy, Default)]
struct PathsIndex<'a> {
    paths: &'a [u8],
    count: usize,
}

impl<'a> PathsIndex<'a> {
    fn read(r: &mut Reader<'a>) -> Result<PathsIndex<'a>, WireError> {
        let count = r.count()?;
        let rest = r.rest();
        let start = r.position();
        for _ in 0..count {
            PathIndex::read(r)?;
        }
        Ok(PathsIndex {
            paths: rest.get(..r.position() - start).unwrap_or_default(),
            count,
        })
    }

    fn iter(self) -> impl Iterator<Item = PathIndex<'a>> {
        let mut r = Reader::new(self.paths);
        (0..self.count).map(move |_| trusted(PathIndex::read(&mut r)))
    }

    /// The paths of a change's lines starting at `*at` in `text`, each
    /// line `sign path\n`; leaves `*at` past the last line.
    fn lines_to_paths(self, text: &str, at: &mut usize) -> Vec<FeaturePath> {
        self.iter()
            .map(|path| {
                *at += 2;
                let labels = path.label_lens().map(|len| {
                    let label = Label::from(sub(text, *at..*at + len));
                    *at += len + 1;
                    label
                });
                let path = FeaturePath(labels.collect());
                // A path without labels still ends its line.
                *at += usize::from(path.0.is_empty());
                path
            })
            .collect()
    }

    /// The bytes of the run's text as change lines.
    fn lines_len(self) -> usize {
        self.iter().map(|path| 2 + path.text_len() + 1).sum()
    }
}

/// A slice of a text [`OutcomeView::parse`] validated, at a range the
/// index put on a character boundary, which cannot fail. Should one
/// fail anyway — a codec bug — it yields the empty string (debug builds
/// assert) rather than panic on the mining path.
fn sub(text: &str, range: Range<usize>) -> &str {
    text.get(range).unwrap_or_else(|| {
        debug_assert!(false, "a validated label is not a slice of its text");
        ""
    })
}

/// Unwraps a re-read of bytes [`OutcomeView::parse`] already accepted,
/// which cannot fail. Should one fail anyway — a codec bug — it yields
/// an empty value (debug builds assert) rather than panic on the
/// mining path.
fn trusted<T: Default>(read: Result<T, WireError>) -> T {
    read.unwrap_or_else(|error| {
        debug_assert!(false, "re-reading a validated payload failed: {error}");
        T::default()
    })
}

/// The tuples of a validated mined payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TuplesView<'a> {
    /// The index entries, one per tuple.
    index: &'a [u8],
    /// The text region.
    text: &'a str,
    len: usize,
}

impl<'a> TuplesView<'a> {
    /// The tuples, in mining order, each found by the lengths its index
    /// entry starts with.
    fn iter(&self) -> impl Iterator<Item = TupleView<'a>> {
        let (index, text) = (self.index, self.text);
        spans(index, self.len).map(move |(body, range)| TupleView {
            body: index.get(body).unwrap_or_default(),
            text: sub(text, range),
        })
    }
}

/// One mined tuple of a validated payload: its index body and its text.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TupleView<'a> {
    body: &'a [u8],
    text: &'a str,
}

impl<'a> TupleView<'a> {
    /// The class length and the change class code the body starts
    /// with, and the reader after them.
    fn head(&self) -> (usize, usize, Reader<'a>) {
        let mut r = Reader::new(self.body);
        let class_len = trusted(r.varint_usize());
        let code = trusted(r.varint_usize());
        (class_len, code, r)
    }

    /// The target API class.
    pub(crate) fn class(&self) -> &'a str {
        sub(self.text, 0..self.head().0)
    }

    /// The tuple's digest text: what [`write_tuple_digest`] wrote for
    /// it.
    pub(crate) fn digest(&self) -> &'a str {
        let extra = self.head().1.saturating_sub(1);
        sub(self.text, 0..self.text.len().saturating_sub(extra))
    }

    /// The `(F⁻, F⁺)` feature diff, materialised from the change lines
    /// that end the digest text, without reading the DAGs' labels. A
    /// change `fsame` drops has no feature on either side and allocates
    /// only its class name.
    pub(crate) fn change(&self) -> UsageChange {
        let (class_len, code, mut r) = self.head();
        let removed = trusted(PathsIndex::read(&mut r));
        let added = trusted(PathsIndex::read(&mut r));
        let digest_end = self.text.len().saturating_sub(code.saturating_sub(1));
        let class = if code == 0 {
            let root = class_len + 1;
            sub(self.text, root..root + trusted(r.varint_usize()))
        } else {
            sub(self.text, digest_end..self.text.len())
        };
        let lines = removed.lines_len() + added.lines_len();
        let mut at = digest_end.saturating_sub(lines);
        UsageChange {
            class: class.to_owned(),
            removed: removed.lines_to_paths(self.text, &mut at),
            added: added.lines_to_paths(self.text, &mut at),
        }
    }

    /// The old and the new DAG.
    pub(crate) fn dags(&self) -> (DagView<'a>, DagView<'a>) {
        let (class_len, _, mut r) = self.head();
        trusted(PathsIndex::read(&mut r));
        trusted(PathsIndex::read(&mut r));
        let mut at = class_len + 1;
        let mut dag = || {
            let root = trusted(r.varint_usize());
            let paths = trusted(PathsIndex::read(&mut r));
            let view = DagView {
                root_type: sub(self.text, at..at + root),
                paths,
                text: self.text,
                at: at + root + 1,
            };
            at = view.at + view.paths_len() + 1;
            view
        };
        let old = dag();
        (old, dag())
    }

    /// The tuple, fully materialised.
    fn to_tuple(self) -> MinedTuple {
        let (old, new) = self.dags();
        let class = self.class().to_owned();
        (class, old.to_dag(), new.to_dag(), self.change())
    }
}

/// One DAG of a validated tuple: its root type and its paths in
/// ascending order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DagView<'a> {
    root_type: &'a str,
    paths: PathsIndex<'a>,
    /// The tuple's text, and where the DAG's first path starts in it.
    text: &'a str,
    at: usize,
}

impl<'a> DagView<'a> {
    /// The root-to-node paths, in the decoded DAG's set order.
    fn paths(&self) -> impl Iterator<Item = FeaturePath> + 'a {
        let (text, mut at) = (self.text, self.at);
        self.paths.iter().map(move |path| {
            let decoded = path.to_path(text, at);
            at += path.text_len() + 1;
            decoded
        })
    }

    /// The bytes of the DAG's paths' text, `;` between paths.
    fn paths_len(&self) -> usize {
        let paths = self.paths.iter().map(PathIndex::text_len).sum::<usize>();
        paths + self.paths.count.saturating_sub(1)
    }

    /// The decoded DAG (root type interned, like the analysis builds
    /// it).
    pub(crate) fn to_dag(self) -> UsageDag {
        UsageDag {
            root_type: intern::intern(self.root_type),
            paths: self.paths().collect(),
        }
    }
}

/// A cached tuple as a mined usage change holds it: its index body, a
/// slice of the cache payload, and its text, a slice of its outcome's
/// text region. The text was validated once, when it was replayed or
/// recorded, and is held as a `str`, so reading it checks nothing
/// again.
#[derive(Debug, Clone)]
pub(crate) struct EncodedTuple {
    body: SharedBytes,
    text: Arc<str>,
    range: Range<usize>,
}

impl EncodedTuple {
    /// The tuple, read in place.
    pub(crate) fn view(&self) -> TupleView<'_> {
        TupleView {
            body: &self.body,
            text: sub(&self.text, self.range.clone()),
        }
    }
}

/// The tuples of a validated mined payload held past its lookup: the
/// payload, shared with the store or the shard log, and a copy of its
/// text region as a `str`.
#[derive(Debug, Clone)]
pub(crate) struct CachedTuples {
    payload: SharedBytes,
    /// The index entries' range in `payload`.
    index: Range<usize>,
    text: Arc<str>,
    len: usize,
}

impl CachedTuples {
    /// The `len` tuples of the mined `payload`, whose text region is
    /// `text`.
    fn new(payload: SharedBytes, text: Arc<str>, len: usize) -> CachedTuples {
        let index_start = 1 + uvarint_len(len);
        CachedTuples {
            index: index_start..payload.len().saturating_sub(text.len()),
            payload,
            text,
            len,
        }
    }

    /// Number of tuples.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn view(&self) -> TuplesView<'_> {
        TuplesView {
            index: self.payload.get(self.index.clone()).unwrap_or_default(),
            text: &self.text,
            len: self.len,
        }
    }

    /// Each tuple, read in place and as a handle into the shared
    /// payload and text.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TupleView<'_>, EncodedTuple)> {
        let view = self.view();
        let start = self.index.start;
        view.iter()
            .zip(spans(view.index, self.len))
            .map(move |(tuple, (body, range))| {
                let body = self.payload.slice(start + body.start..start + body.end);
                let text = Arc::clone(&self.text);
                (tuple, EncodedTuple { body, text, range })
            })
    }
}

/// A change outcome as the mining loop applies it.
#[derive(Debug, Clone)]
pub(crate) enum Resolved {
    /// Held decoded: computed without a cache, a quarantined skip
    /// (whose report owns its strings anyway), or a replayed mined
    /// outcome without tuples.
    Decoded(ChangeOutcome),
    /// A replayed mined outcome whose tuples stay in the shared
    /// payload.
    Replayed(CachedTuples),
    /// A mined outcome this run computed and recorded: each tuple's
    /// class and feature diff as computed, the tuple itself as the
    /// record holds it.
    Recorded(Vec<(String, UsageChange, EncodedTuple)>),
}

impl Resolved {
    /// The decoded outcome, every DAG materialised.
    pub(crate) fn into_outcome(self) -> ChangeOutcome {
        match self {
            Resolved::Decoded(outcome) => outcome,
            Resolved::Replayed(tuples) => OutcomeView::Mined(tuples.view()).to_outcome(),
            Resolved::Recorded(tuples) => ChangeOutcome::Mined(
                tuples
                    .into_iter()
                    .map(|(class, change, tuple)| {
                        let (old, new) = tuple.view().dags();
                        (class, old.to_dag(), new.to_dag(), change)
                    })
                    .collect(),
            ),
        }
    }
}

// ---------------------------------------------------------------------
// The pipeline-facing cache handle
// ---------------------------------------------------------------------

/// A persistent mining cache bound to a directory. Owns the
/// [`CacheStore`]; mining runs read through it and write through
/// per-run/per-shard [`MiningCacheView`]s.
#[derive(Debug)]
pub struct MiningCache {
    store: CacheStore,
    config_fp: Fingerprint,
}

impl MiningCache {
    /// Opens (creating if needed) the cache under `dir` at
    /// [`ANALYSIS_VERSION`], with a configuration fingerprint derived
    /// from the target classes and pipeline limits (the DAG depth
    /// included) of the runs that will use it.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on I/O failures or mid-log corruption (see
    /// [`CacheStore::open`]); a mining run refuses a damaged cache
    /// rather than silently dropping part of it.
    pub fn open(
        dir: &Path,
        classes: &[&str],
        limits: &crate::quarantine::PipelineLimits,
    ) -> Result<MiningCache, StoreError> {
        MiningCache::open_at_version(dir, classes, limits, ANALYSIS_VERSION)
    }

    /// [`MiningCache::open`] at an explicit analysis version — the
    /// invalidation tests flip the version without editing this crate.
    pub fn open_at_version(
        dir: &Path,
        classes: &[&str],
        limits: &crate::quarantine::PipelineLimits,
        version: u32,
    ) -> Result<MiningCache, StoreError> {
        let store = CacheStore::open(dir, version)?;
        Ok(MiningCache {
            store,
            config_fp: config_fingerprint(classes, limits),
        })
    }

    /// The cache key for one code change: old bytes, new bytes, and
    /// the configuration fingerprint. Provenance-free by design.
    pub fn change_key(&self, old: &str, new: &str) -> Fingerprint {
        let fp_bytes = self.config_fp.0.to_le_bytes();
        fingerprint(&[&fp_bytes, old.as_bytes(), new.as_bytes()])
    }

    /// [`MiningCache::change_key`] and the change's content fingerprint
    /// ([`crate::pipeline::change_fingerprint`]) from one pass over the
    /// file pair. The two hashes differ only in the key's leading
    /// configuration part, so after it both lanes consume the pair's
    /// bytes in lockstep.
    pub fn change_ids(&self, old: &str, new: &str) -> (Fingerprint, Fingerprint) {
        let mut key = Fingerprinter::new();
        key.part(&self.config_fp.0.to_le_bytes());
        let mut content = Fingerprinter::new();
        key.part_with(&mut content, old.as_bytes());
        key.part_with(&mut content, new.as_bytes());
        (key.finish(), content.finish())
    }

    /// A read-through view for one mining run or shard.
    pub fn view(&self) -> MiningCacheView<'_> {
        MiningCacheView {
            cache: self,
            log: ShardLog::new(),
        }
    }

    /// Merges a view's write log back into the store (call once per
    /// shard, in shard order, after the shard's worker joined).
    pub fn absorb(&mut self, log: ShardLog) {
        self.store.absorb(log);
    }

    /// Persists absorbed entries to disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; entries stay queued.
    pub fn flush(&mut self) -> std::io::Result<usize> {
        self.store.flush()
    }

    /// The underlying store (stats, vacuum).
    pub fn store(&self) -> &CacheStore {
        &self.store
    }

    /// The underlying store, mutably (vacuum).
    pub fn store_mut(&mut self) -> &mut CacheStore {
        &mut self.store
    }
}

/// What a view lookup produced: for [`MiningCacheView::get`] a decoded
/// outcome; the mining loop's own lookup leaves a mined hit in its
/// validated payload.
#[derive(Debug, PartialEq)]
pub enum CachedLookup<T = ChangeOutcome> {
    /// A validated outcome ready to replay.
    Hit(T),
    /// An entry exists but was written under another analysis version.
    StaleVersion,
    /// No usable entry (absent, or present but undecodable).
    Miss,
}

/// A shard's window onto a [`MiningCache`]: shared read access to the
/// loaded index plus a private [`ShardLog`] of this shard's writes —
/// no locks, no cross-thread mutation on the hot path. A view checks
/// its own log before the shared index, so duplicate file pairs
/// *within* a shard hit on the second encounter even before the log is
/// absorbed.
#[derive(Debug)]
pub struct MiningCacheView<'a> {
    cache: &'a MiningCache,
    log: ShardLog,
}

impl MiningCacheView<'_> {
    /// The cache key for one code change (delegates to the cache).
    pub fn change_key(&self, old: &str, new: &str) -> Fingerprint {
        self.cache.change_key(old, new)
    }

    /// The cache key and the content fingerprint of one code change
    /// (delegates to [`MiningCache::change_ids`]).
    pub fn change_ids(&self, old: &str, new: &str) -> (Fingerprint, Fingerprint) {
        self.cache.change_ids(old, new)
    }

    /// Whether a lookup of `key` would find a current entry: one this
    /// view recorded, or one the store holds at its analysis version.
    /// The entry may still fail to decode.
    pub(crate) fn holds(&self, key: Fingerprint) -> bool {
        self.log.get_shared(key).is_some() || self.cache.store.get_shared(key).is_some()
    }

    /// Looks up the outcome for `key` and validates its payload in
    /// place ([`OutcomeView::parse`]). A mined hit keeps its tuples'
    /// index in the payload, shared with the store, and their text in
    /// one copy; a skip, or a mined outcome without tuples, is decoded.
    /// An undecodable payload degrades to a miss (the entry will be
    /// recomputed and re-recorded).
    pub(crate) fn replay(&self, key: Fingerprint) -> CachedLookup<Resolved> {
        let payload = match self.log.get_shared(key) {
            Some(payload) => payload,
            None => match self.cache.store.get_shared(key) {
                Some(payload) => payload,
                None => {
                    return match self.cache.store.get(key) {
                        Lookup::StaleVersion => CachedLookup::StaleVersion,
                        _ => CachedLookup::Miss,
                    }
                }
            },
        };
        match OutcomeView::parse(payload) {
            Ok(OutcomeView::Mined(tuples)) if tuples.len > 0 => {
                let text = Arc::from(tuples.text);
                let tuples = CachedTuples::new(payload.clone(), text, tuples.len);
                CachedLookup::Hit(Resolved::Replayed(tuples))
            }
            Ok(view) => CachedLookup::Hit(Resolved::Decoded(view.to_outcome())),
            Err(_) => CachedLookup::Miss,
        }
    }

    /// Looks up and decodes the outcome for `key`. An undecodable
    /// payload degrades to a miss (the entry will be recomputed and
    /// re-recorded).
    pub fn get(&self, key: Fingerprint) -> CachedLookup {
        match self.replay(key) {
            CachedLookup::Hit(resolved) => CachedLookup::Hit(resolved.into_outcome()),
            CachedLookup::StaleVersion => CachedLookup::StaleVersion,
            CachedLookup::Miss => CachedLookup::Miss,
        }
    }

    /// Records a freshly computed outcome for `key` in this view's log
    /// and returns each mined tuple as the record holds it: its index
    /// body a slice of the recorded payload, its text a slice of the
    /// text the encoder wrote, so nothing is validated again.
    pub(crate) fn record<D: Borrow<UsageDag>>(
        &mut self,
        key: Fingerprint,
        outcome: &ChangeOutcome<D>,
    ) -> Vec<EncodedTuple> {
        let (payload, text) = encode(outcome);
        let payload = self.log.record(key, payload);
        let len = match outcome {
            ChangeOutcome::Mined(tuples) if !tuples.is_empty() => tuples.len(),
            _ => return Vec::new(),
        };
        let tuples = CachedTuples::new(payload, Arc::from(text), len);
        tuples.iter().map(|(_, tuple)| tuple).collect()
    }

    /// Consumes the view, returning its write log for
    /// [`MiningCache::absorb`].
    pub fn into_log(self) -> ShardLog {
        self.log
    }
}

/// Fingerprints everything configurable that can change a mining
/// outcome: API model, codec version, target classes, DAG depth, and
/// the full budget stack. `Debug` formatting of the limits structs is
/// deterministic and covers every field, so a budget tweak can never
/// silently replay outcomes computed under different budgets.
///
/// An empty class list is normalized to [`analysis::TARGET_CLASSES`]
/// first — the same resolution `DiffCode::mine` applies — so
/// `open(dir, &[], ..)` and `open(dir, TARGET_CLASSES, ..)` address
/// the same entries.
fn config_fingerprint(classes: &[&str], limits: &crate::quarantine::PipelineLimits) -> Fingerprint {
    let classes: &[&str] = if classes.is_empty() {
        &analysis::TARGET_CLASSES
    } else {
        classes
    };
    let mut parts: Vec<String> = vec![
        CODEC_VERSION.to_owned(),
        "api:standard".to_owned(),
        format!("depth:{}", limits.dag.max_depth),
        format!("limits:{limits:?}"),
    ];
    parts.push(format!("classes:{}", classes.join("\u{1f}")));
    let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
    cache::fingerprint_str(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quarantine::PipelineLimits;
    use std::collections::BTreeSet;

    fn path(labels: &[&str]) -> FeaturePath {
        FeaturePath(labels.iter().copied().map(Label::from).collect())
    }

    fn sample_dag() -> UsageDag {
        let mut paths = BTreeSet::new();
        paths.insert(path(&["Cipher"]));
        paths.insert(path(&["Cipher", "getInstance"]));
        paths.insert(path(&["Cipher", "getInstance", "arg1:AES"]));
        UsageDag {
            root_type: "Cipher".into(),
            paths,
        }
    }

    #[test]
    fn mined_outcome_round_trips() {
        let change = UsageChange {
            class: "Cipher".to_owned(),
            removed: vec![path(&["Cipher", "getInstance", "arg1:AES"])],
            added: vec![path(&["Cipher", "getInstance", "arg1:AES/GCM/NoPadding"])],
        };
        let outcome = ChangeOutcome::Mined(vec![(
            "Cipher".to_owned(),
            sample_dag(),
            UsageDag::empty("Cipher"),
            change,
        )]);
        let bytes = encode_outcome(&outcome);
        assert_eq!(decode_outcome(&bytes).unwrap(), outcome);
    }

    #[test]
    fn record_returns_each_tuple_dag_pair_as_recorded_bytes() {
        let dir = std::env::temp_dir().join(format!("diffcode-mcache-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MiningCache::open(&dir, &[], &PipelineLimits::DEFAULT).unwrap();
        let (empty, dag) = (UsageDag::empty("Cipher"), sample_dag());
        let change = UsageChange {
            class: "Cipher".to_owned(),
            removed: vec![path(&["Cipher", "getInstance", "arg1:AES"])],
            added: Vec::new(),
        };
        // Borrowed DAGs encode exactly like owned ones.
        let borrowed = ChangeOutcome::Mined(vec![
            (
                "Cipher".to_owned(),
                Cow::Borrowed(&dag),
                Cow::Borrowed(&empty),
                change.clone(),
            ),
            (
                "Mac".to_owned(),
                Cow::Owned(UsageDag::empty("Mac")),
                Cow::Borrowed(&dag),
                change,
            ),
        ]);
        let owned = borrowed.clone().into_owned();
        let bytes = encode_outcome(&owned);
        assert_eq!(encode_outcome(&borrowed), bytes);
        assert_eq!(bytes.len(), encoded_sizes(&owned).0, "sized exactly");

        let mut view = cache.view();
        let key = cache.change_key("a", "b");
        let recorded = view.record(key, &borrowed);
        let CachedLookup::Hit(ChangeOutcome::Mined(tuples)) = view.get(key) else {
            panic!("the recorded outcome replays");
        };
        assert_eq!(recorded.len(), tuples.len());
        for (tuple, (class, old, new, change)) in recorded.iter().zip(&tuples) {
            let (old_view, new_view) = tuple.view().dags();
            assert_eq!((&old_view.to_dag(), &new_view.to_dag()), (old, new));
            assert_eq!(tuple.view().class(), class);
            assert_eq!(&tuple.view().change(), change);
        }
        let skip = ChangeOutcome::<UsageDag>::Skipped {
            kind: ErrorKind::Parse,
            error: "e".to_owned(),
            excerpt: "x".to_owned(),
        };
        assert!(view.record(cache.change_key("c", "d"), &skip).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skipped_outcome_round_trips_every_kind() {
        for kind in ErrorKind::ALL {
            let outcome = ChangeOutcome::Skipped {
                kind,
                error: format!("error for {kind}"),
                excerpt: "class A { \u{22a4} }".to_owned(),
            };
            let bytes = encode_outcome(&outcome);
            assert_eq!(decode_outcome(&bytes).unwrap(), outcome, "{kind}");
        }
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(decode_outcome(&[]).is_err());
        assert!(decode_outcome(&[9]).is_err(), "unknown tag");
        let bytes = encode_outcome(&ChangeOutcome::Mined(vec![(
            "Cipher".to_owned(),
            sample_dag(),
            sample_dag(),
            UsageChange::default(),
        )]));
        for cut in 0..bytes.len() {
            assert!(decode_outcome(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_outcome(&trailing).is_err(), "trailing byte");
    }

    /// A second decoder of the payload format, written apart from the
    /// view: it reads the whole index into owned lengths first, takes
    /// each label out of the text by those lengths, steps over the
    /// separators without checking them, and collects each DAG's paths
    /// into its `BTreeSet`. The view must match it on every payload it
    /// accepts.
    fn reference_decode(bytes: &[u8]) -> Result<ChangeOutcome, WireError> {
        struct Text<'t>(&'t str, usize);
        impl<'t> Text<'t> {
            fn take(&mut self, len: usize) -> Result<&'t str, WireError> {
                let label = self.0.get(self.1..self.1 + len);
                self.1 += len;
                label.ok_or(WireError::Malformed("reference: label"))
            }
            fn path(&mut self, lens: &[usize]) -> Result<FeaturePath, WireError> {
                let mut labels = Vec::new();
                for (i, &len) in lens.iter().enumerate() {
                    self.1 += usize::from(i > 0);
                    labels.push(Label::from(self.take(len)?));
                }
                Ok(FeaturePath(labels))
            }
            fn dag(
                &mut self,
                (root, paths): &(usize, Vec<Vec<usize>>),
            ) -> Result<UsageDag, WireError> {
                let root_type = intern::intern(self.take(*root)?);
                self.1 += 1;
                let mut set = std::collections::BTreeSet::new();
                for (i, lens) in paths.iter().enumerate() {
                    self.1 += usize::from(i > 0);
                    set.insert(self.path(lens)?);
                }
                self.1 += 1;
                Ok(UsageDag {
                    root_type,
                    paths: set,
                })
            }
            fn lines(&mut self, paths: &[Vec<usize>]) -> Result<Vec<FeaturePath>, WireError> {
                let mut lines = Vec::new();
                for lens in paths {
                    self.1 += 2;
                    lines.push(self.path(lens)?);
                    self.1 += 1;
                }
                Ok(lines)
            }
        }
        fn len(r: &mut Reader<'_>) -> Result<usize, WireError> {
            usize::try_from(r.varint()?).map_err(|_| WireError::PastUsize)
        }
        fn paths(r: &mut Reader<'_>) -> Result<Vec<Vec<usize>>, WireError> {
            let n = len(r)?;
            let mut paths = Vec::new();
            for _ in 0..n.min(r.rest().len()) {
                let labels = len(r)?;
                let mut lens = Vec::new();
                for _ in 0..labels.min(r.rest().len()) {
                    lens.push(len(r)?);
                }
                paths.push(lens);
            }
            Ok(paths)
        }
        let mut r = Reader::new(bytes);
        let outcome = match r.u8()? {
            0 => {
                let n = len(&mut r)?;
                let mut entries = Vec::new();
                for _ in 0..n.min(bytes.len()) {
                    let text_len = len(&mut r)?;
                    let body_len = len(&mut r)?;
                    entries.push((text_len, r.take(body_len)?));
                }
                let text = std::str::from_utf8(r.rest())
                    .map_err(|_| WireError::Malformed("reference: text"))?;
                let mut tuples = Vec::new();
                let mut at = 0;
                for (text_len, body) in entries {
                    let tuple = text
                        .get(at..at + text_len)
                        .ok_or(WireError::Malformed("reference: tuple"))?;
                    at += text_len;
                    let mut b = Reader::new(body);
                    let (class_len, code) = (len(&mut b)?, len(&mut b)?);
                    let (removed, added) = (paths(&mut b)?, paths(&mut b)?);
                    let old = (len(&mut b)?, paths(&mut b)?);
                    let new = (len(&mut b)?, paths(&mut b)?);
                    let mut t = Text(tuple, 0);
                    let class = t.take(class_len)?.to_owned();
                    t.1 += 1;
                    let (old_dag, new_dag) = (t.dag(&old)?, t.dag(&new)?);
                    let (removed, added) = (t.lines(&removed)?, t.lines(&added)?);
                    let change_class = match code {
                        0 => old_dag.root_type.to_string(),
                        _ => t.take(code - 1)?.to_owned(),
                    };
                    let change = UsageChange {
                        class: change_class,
                        removed,
                        added,
                    };
                    tuples.push((class, old_dag, new_dag, change));
                }
                ChangeOutcome::Mined(tuples)
            }
            1 => {
                let kind = kind_from_tag(r.u8()?)?;
                let mut field = || -> Result<String, WireError> {
                    let n = len(&mut r)?;
                    let bytes = r.take(n)?;
                    std::str::from_utf8(bytes)
                        .map(str::to_owned)
                        .map_err(|_| WireError::Malformed("reference: field"))
                };
                let (error, excerpt) = (field()?, field()?);
                if !r.is_exhausted() {
                    return Err(WireError::Malformed("reference: trailing bytes"));
                }
                ChangeOutcome::Skipped {
                    kind,
                    error,
                    excerpt,
                }
            }
            _ => return Err(WireError::Malformed("reference: tag")),
        };
        Ok(outcome)
    }

    /// The `Display`-based digest text of one tuple, built apart from
    /// [`write_tuple_digest`].
    fn display_digest((class, old, new, change): &MinedTuple) -> String {
        let dag = |dag: &UsageDag| {
            let paths: Vec<String> = dag.paths.iter().map(ToString::to_string).collect();
            format!("{}:{}", dag.root_type, paths.join(";"))
        };
        format!("{class}|{}|{}|{change}", dag(old), dag(new))
    }

    /// Whether `bytes` reads the same through the view as through the
    /// reference: rejected by the view, or decoded identically both
    /// ways, with each tuple's stored digest text equal to the text its
    /// decoded tuple renders.
    fn view_agrees_with_reference(bytes: &[u8]) -> Result<(), String> {
        let Ok(view) = OutcomeView::parse(bytes) else {
            return Ok(());
        };
        let decoded = view.to_outcome();
        match reference_decode(bytes) {
            Ok(reference) if reference == decoded => {}
            other => return Err(format!("view gave {decoded:?}, reference {other:?}")),
        }
        if let (OutcomeView::Mined(tuples), ChangeOutcome::Mined(owned)) = (view, &decoded) {
            for (tuple, owned) in tuples.iter().zip(owned) {
                if tuple.digest() != display_digest(owned) {
                    return Err(format!("stored text {:?} of {owned:?}", tuple.digest()));
                }
            }
        }
        Ok(())
    }

    /// One payload per code change of a corpus mined to cover every
    /// shape a payload takes: quarantined skips (fault-injected),
    /// `UsageDag::empty` sides, multi-label paths, and changes that both
    /// remove and add features (the Figure 2 fix).
    fn mined_payloads() -> Vec<Vec<u8>> {
        let mut corpus = corpus::generate(&corpus::GeneratorConfig::small(4, 7));
        corpus::Mutator::new(7, 0.2).inject(&mut corpus);
        let mut pairs: Vec<(&str, &str)> = corpus.code_changes().map(|c| (c.old, c.new)).collect();
        pairs.push((corpus::fixtures::FIGURE2_OLD, corpus::fixtures::FIGURE2_NEW));
        pairs
            .into_iter()
            .map(|(old, new)| encode_outcome(&mined_outcome(old, new)))
            .collect()
    }

    /// The outcome a one-change mining run reports for `(old, new)`.
    fn mined_outcome(old: &str, new: &str) -> ChangeOutcome {
        let corpus = crate::pipeline::tests::corpus_of_pairs("p", &[(old, new)]);
        let mut result = crate::pipeline::DiffCode::new().mine(&corpus, &[], None);
        match result.quarantine.pop() {
            Some(report) => ChangeOutcome::Skipped {
                kind: report.kind,
                error: report.error,
                excerpt: report.excerpt,
            },
            None => ChangeOutcome::Mined(
                result
                    .changes
                    .iter()
                    .map(|c| {
                        let (old, new) = (c.old_dag().into_owned(), c.new_dag().into_owned());
                        (c.class.clone(), old, new, c.change.clone())
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn view_equals_the_reference_decoder_on_mined_payloads() {
        let payloads = mined_payloads();
        let outcomes: Vec<ChangeOutcome> = payloads
            .iter()
            .map(|bytes| decode_outcome(bytes).unwrap())
            .collect();
        let tuples = || {
            outcomes.iter().flat_map(|outcome| match outcome {
                ChangeOutcome::Mined(tuples) => tuples.as_slice(),
                ChangeOutcome::Skipped { .. } => &[],
            })
        };
        let skip = |o: &ChangeOutcome| matches!(o, ChangeOutcome::Skipped { .. });
        let empty_side = |t: &MinedTuple| {
            t.1 == UsageDag::empty(t.0.as_str()) || t.2 == UsageDag::empty(t.0.as_str())
        };
        let multi_label = |t: &MinedTuple| t.1.paths.iter().any(|p| p.len() > 2);
        let both = |t: &MinedTuple| !t.3.removed.is_empty() && !t.3.added.is_empty();
        assert!(outcomes.iter().any(skip), "no quarantined skip");
        assert!(tuples().any(empty_side), "no empty DAG side");
        assert!(tuples().any(multi_label), "no multi-label path");
        assert!(tuples().any(both), "no change with both removed and added");

        for (bytes, outcome) in payloads.iter().zip(&outcomes) {
            assert_eq!(reference_decode(bytes).as_ref(), Ok(outcome));
            assert_eq!(&encode_outcome(outcome), bytes, "re-encoding is exact");
            view_agrees_with_reference(bytes).unwrap();
        }

        // Every truncation and single-byte flip of one payload of each
        // shape is rejected by the view or reads identically both ways.
        let mut probes: Vec<&Vec<u8>> = Vec::new();
        let shapes: [&dyn Fn(&ChangeOutcome) -> bool; 4] = [
            &skip,
            &|o| matches!(o, ChangeOutcome::Mined(t) if t.iter().any(empty_side)),
            &|o| matches!(o, ChangeOutcome::Mined(t) if t.iter().any(multi_label)),
            &|o| matches!(o, ChangeOutcome::Mined(t) if t.iter().any(both)),
        ];
        for shape in shapes {
            let found = payloads.iter().zip(&outcomes).find(|(_, o)| shape(o));
            probes.extend(found.map(|(bytes, _)| bytes));
        }
        for bytes in probes {
            for cut in 0..bytes.len() {
                assert!(OutcomeView::parse(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            for at in 0..bytes.len() {
                for mask in [0x01, 0x20, 0x80, 0xFF] {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= mask;
                    if let Err(e) = view_agrees_with_reference(&flipped) {
                        panic!("byte {at} ^ {mask:#04x}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn view_rejects_dag_paths_out_of_set_order() {
        // One `Cipher` tuple whose old DAG lists `paths` in the order
        // given, written by hand.
        let encode = |paths: &[FeaturePath]| {
            let mut body = Writer::new();
            for v in [6, 0, 0, 0, 6] {
                body.varint(v);
            }
            write_paths_index(&mut body, paths.iter());
            write_dag_index(&mut body, &UsageDag::empty("Cipher"));
            let body = body.finish();
            let old: Vec<String> = paths.iter().map(ToString::to_string).collect();
            let text = format!("Cipher|Cipher:{}|Cipher:Cipher|", old.join(";"));
            let mut w = Writer::new();
            w.u8(0);
            w.varint(1);
            w.varint(text.len() as u64);
            w.varint(body.len() as u64);
            w.raw(&body);
            w.raw(text.as_bytes());
            w.finish()
        };
        let (a, b) = (path(&["Cipher"]), path(&["Cipher", "getInstance"]));
        assert!(OutcomeView::parse(&encode(&[a.clone(), b.clone()])).is_ok());
        for paths in [[b.clone(), a.clone()], [a.clone(), a]] {
            let bytes = encode(&paths);
            // The set-collecting reference accepts both — and would
            // render a different text than the payload stores.
            assert!(reference_decode(&bytes).is_ok());
            assert!(OutcomeView::parse(&bytes).is_err(), "{paths:?}");
            assert!(decode_outcome(&bytes).is_err(), "{paths:?}");
        }
    }

    /// Labels the separators of the digest text could be mistaken for:
    /// the index, not the separator bytes, says where each one ends.
    fn separator_like_labels() -> Vec<&'static str> {
        let long = "L".repeat(200);
        let long: &'static str = Box::leak(long.into_boxed_str());
        vec![
            "a b",
            "a;b",
            "a:b",
            "a|b",
            "a\nb",
            "- x",
            "+ y",
            "|é",
            "é|",
            "ñ;ñ",
            "\u{22a4} ",
            "",
            long,
        ]
    }

    /// Outcomes whose classes, roots and labels are separator-like, one
    /// per label, plus one whose change class is not its old DAG's root.
    fn separator_like_outcomes() -> Vec<ChangeOutcome> {
        let mut outcomes: Vec<ChangeOutcome> = separator_like_labels()
            .into_iter()
            .map(|label| {
                let mut paths = BTreeSet::new();
                paths.insert(path(&[label]));
                paths.insert(path(&[label, label]));
                paths.insert(path(&[label, "getInstance", label]));
                let dag = UsageDag {
                    root_type: label.into(),
                    paths,
                };
                let change = UsageChange {
                    class: label.to_owned(),
                    removed: vec![path(&[label, label]), path(&[])],
                    added: vec![path(&[label, "x", label]), path(&[""])],
                };
                ChangeOutcome::Mined(vec![
                    (
                        label.to_owned(),
                        dag.clone(),
                        UsageDag::empty(label),
                        change,
                    ),
                    (
                        format!("{label}|{label}"),
                        UsageDag::empty("Cipher"),
                        dag,
                        UsageChange::default(),
                    ),
                ])
            })
            .collect();
        outcomes.push(ChangeOutcome::Mined(vec![(
            "Mac".to_owned(),
            UsageDag::empty("Mac"),
            sample_dag(),
            UsageChange {
                class: "Cip|her\n".to_owned(),
                removed: vec![path(&["Cipher", "init"])],
                added: Vec::new(),
            },
        )]));
        outcomes
    }

    #[test]
    fn separator_like_labels_round_trip_and_replay_their_rendered_text() {
        let dir = std::env::temp_dir().join(format!("diffcode-mcache-seps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = MiningCache::open(&dir, &[], &PipelineLimits::DEFAULT).unwrap();
        let outcomes = separator_like_outcomes();
        let keys: Vec<Fingerprint> = (0..outcomes.len())
            .map(|i| cache.change_key("old", &i.to_string()))
            .collect();
        let mut view = cache.view();
        for (key, outcome) in keys.iter().zip(&outcomes) {
            let bytes = encode_outcome(outcome);
            assert_eq!(bytes.len(), encoded_sizes(outcome).0, "sized exactly");
            assert_eq!(decode_outcome(&bytes).as_ref(), Ok(outcome));
            assert_eq!(reference_decode(&bytes).as_ref(), Ok(outcome));
            view_agrees_with_reference(&bytes).unwrap();
            for cut in 0..bytes.len() {
                assert!(OutcomeView::parse(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            for at in 0..bytes.len() {
                for mask in [0x01, 0x20, 0x80, 0xFF] {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= mask;
                    if let Err(e) = view_agrees_with_reference(&flipped) {
                        panic!("byte {at} ^ {mask:#04x}: {e}");
                    }
                }
            }
            let ChangeOutcome::Mined(tuples) = outcome else {
                unreachable!("mined outcomes only");
            };
            // Recorded, each tuple reads back its rendered text.
            let recorded = view.record(*key, outcome);
            for (tuple, owned) in recorded.iter().zip(tuples) {
                let (class, old, new, change) = owned;
                let mut rendered = String::new();
                write_tuple_digest(&mut rendered, class, old, new, change);
                assert_eq!(rendered, display_digest(owned));
                assert_eq!(tuple.view().digest(), rendered);
                assert_eq!(tuple.view().class(), class);
                assert_eq!(&tuple.view().change(), change);
            }
        }
        let log = view.into_log();
        cache.absorb(log);
        cache.flush().unwrap();

        // Replayed from the log on disk, byte for byte the same.
        let reopened = MiningCache::open(&dir, &[], &PipelineLimits::DEFAULT).unwrap();
        let view = reopened.view();
        for (key, outcome) in keys.iter().zip(&outcomes) {
            let CachedLookup::Hit(Resolved::Replayed(tuples)) = view.replay(*key) else {
                panic!("{outcome:?} replays in place");
            };
            let ChangeOutcome::Mined(owned) = outcome else {
                unreachable!("mined outcomes only");
            };
            assert_eq!(tuples.len(), owned.len());
            for ((tuple, held), owned) in tuples.iter().zip(owned) {
                assert_eq!(tuple.digest(), display_digest(owned));
                assert_eq!(held.view().digest(), display_digest(owned));
                assert_eq!(tuple.class(), owned.0);
                assert_eq!(tuple.change(), owned.3);
                let (old, new) = held.view().dags();
                assert_eq!(
                    (old.to_dag(), new.to_dag()),
                    (owned.1.clone(), owned.2.clone())
                );
            }
            assert_eq!(view.get(*key), CachedLookup::Hit(outcome.clone()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn change_key_depends_on_content_and_config() {
        let dir = std::env::temp_dir().join(format!("diffcode-mcache-key-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let limits = PipelineLimits::DEFAULT;
        let cache = MiningCache::open(&dir, &["Cipher"], &limits).unwrap();
        let base = cache.change_key("old", "new");
        assert_eq!(cache.change_key("old", "new"), base, "deterministic");
        assert_ne!(cache.change_key("old", "newer"), base);
        assert_ne!(cache.change_key("older", "new"), base);
        assert_ne!(cache.change_key("new", "old"), base, "sides are ordered");

        let other_classes = MiningCache::open(&dir, &["Cipher", "Mac"], &limits).unwrap();
        assert_ne!(other_classes.change_key("old", "new"), base);

        let tight = PipelineLimits {
            analysis: analysis::AnalysisLimits {
                max_steps: 1,
                ..analysis::AnalysisLimits::DEFAULT
            },
            ..PipelineLimits::DEFAULT
        };
        let other_limits = MiningCache::open(&dir, &["Cipher"], &tight).unwrap();
        assert_ne!(other_limits.change_key("old", "new"), base);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn view_sees_its_own_writes_before_absorb() {
        let dir = std::env::temp_dir().join(format!("diffcode-mcache-view-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let limits = PipelineLimits::DEFAULT;
        let mut cache = MiningCache::open(&dir, &[], &limits).unwrap();
        let key = cache.change_key("a", "b");
        let outcome = ChangeOutcome::Skipped {
            kind: ErrorKind::Lex,
            error: "boom".to_owned(),
            excerpt: "class".to_owned(),
        };
        let mut view = cache.view();
        assert_eq!(view.get(key), CachedLookup::Miss);
        view.record(key, &outcome);
        assert_eq!(view.get(key), CachedLookup::Hit(outcome.clone()));
        let log = view.into_log();
        cache.absorb(log);
        assert_eq!(cache.view().get(key), CachedLookup::Hit(outcome));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
