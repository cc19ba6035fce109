//! Commit enumeration: parsing `git log --raw --no-abbrev -M` output.
//!
//! The enumeration runs as **one** `git log` invocation for the whole
//! rev-range (streaming, rename-aware via `-M`, merge commits excluded
//! via `--no-merges` so every ingested commit has a well-defined single
//! parent for pre-image extraction). `--raw --no-abbrev` makes every
//! entry name the full ids of its pre- and post-image blobs, so the
//! walk can plan every blob it needs before fetching any content. The
//! parser here is pure — it takes the captured stdout text — so every
//! entry shape git can emit is unit-testable without a repository.
//!
//! Record framing uses NUL (`%x00`) separators. Commit objects are
//! stored as NUL-terminated C strings, so git can *never* emit a NUL
//! inside `%H`, `%an`, `%ae`, or `%s` — unlike the printable-ish
//! control bytes 0x1e/0x1f, which a crafted commit subject or author
//! name may legally contain and which would desynchronize any framing
//! built on them. With NUL framing a hostile history can at worst
//! produce weird *field contents*, never mis-attributed commits.
//! Paths with bytes outside the printable range arrive C-quoted
//! (git's `core.quotePath` behavior); [`unquote_path`] undoes the
//! standard escapes.

/// The `--format` string matching [`parse_log`]: each record is
/// `NUL hash NUL author NUL subject`, with the commit's `--raw` lines
/// following the subject until the next record's NUL.
pub(crate) const LOG_FORMAT: &str = "%x00%H%x00%an <%ae>%x00%s";

/// One file-level entry of a commit's `--raw` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StatusEntry {
    /// An added (`A`), modified (`M`, or `T` for a type change),
    /// deleted (`D`), renamed (`R<score>`) or copied (`C<score>`) file.
    File(FileEntry),
    /// Anything else (`U`, `X`, or a line missing a blob id its status
    /// needs): surfaced for quarantine, never a parse failure. `raw`
    /// is the line from its status code on (`U\tconflict.java`).
    Other { code: String, raw: String },
}

/// A file entry as the blobs ingestion reads: full hex object ids, and
/// `None` for a side that does not exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FileEntry {
    /// Post-image path where one exists, else the pre-image path.
    pub path: String,
    /// Where a rename's pre-image lived in the parent.
    pub old_path: Option<String>,
    /// Pre-image blob; `None` for an addition, and for a copy, whose
    /// source still exists, so its post-image is effectively new.
    pub old_blob: Option<String>,
    /// Post-image blob; `None` for a deletion.
    pub new_blob: Option<String>,
}

/// One enumerated commit: provenance plus its `--raw` entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LogCommit {
    /// Full commit hash.
    pub id: String,
    /// `Author Name <email>`.
    pub author: String,
    /// Subject line.
    pub message: String,
    /// `--raw` entries, in git's output order.
    pub entries: Vec<StatusEntry>,
}

/// Parses the stdout of
/// `git log --reverse --no-merges -M --raw --no-abbrev --format=<LOG_FORMAT>`
/// into commits (oldest first, matching `--reverse`).
///
/// Total: lines that fit no known shape become [`StatusEntry::Other`]
/// entries (quarantined downstream), and a truncated trailing record
/// (stream cut mid-header) is dropped — enumeration of a weird history
/// degrades, it never aborts. Because the NUL separators cannot occur
/// inside any header field, control bytes in subjects or author names
/// pass through as content instead of desynchronizing the parse.
pub(crate) fn parse_log(stdout: &str) -> Vec<LogCommit> {
    let mut commits = Vec::new();
    let mut chunks = stdout.split('\0');
    // Anything before the first separator is not a record (empty for
    // well-formed output).
    let _ = chunks.next();
    while let (Some(id), Some(author), Some(rest)) = (chunks.next(), chunks.next(), chunks.next()) {
        // `rest` is the subject line followed by this commit's `--raw`
        // block, up to the next record's NUL.
        let mut lines = rest.lines();
        let message = lines.next().unwrap_or("").to_owned();
        let mut entries = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(entry) = parse_raw_line(line) {
                entries.push(entry);
            }
        }
        commits.push(LogCommit {
            id: id.to_owned(),
            author: author.to_owned(),
            message,
            entries,
        });
    }
    commits
}

/// Parses one `--raw` line:
/// `:<old mode> <new mode> <old id> <new id> <status>` followed by one
/// TAB-separated path, or two for a rename or copy.
fn parse_raw_line(line: &str) -> Option<StatusEntry> {
    let tab = line.find('\t').unwrap_or(line.len());
    // The status code is the last space-separated field before the
    // first TAB; the two blob ids come right before it.
    let (meta, status) = match line[..tab].rsplit_once(' ') {
        Some((meta, code)) => (meta, &line[tab - code.len()..]),
        None => ("", line),
    };
    let mut ids = meta.split(' ').skip(2).map(blob_id);
    let (old_blob, new_blob) = (ids.next().flatten(), ids.next().flatten());
    let mut parts = status.split('\t');
    let code = parts.next()?;
    if code.is_empty() {
        return None;
    }
    let (path, old_path, old_blob, new_blob) = match (
        code.as_bytes()[0],
        old_blob,
        new_blob,
        parts.next(),
        parts.next(),
    ) {
        (b'A', None, Some(new), Some(path), None) => (path, None, None, Some(new)),
        // A type change (file <-> symlink) still has blob content on
        // both sides; treat it as a modify and let blob extraction
        // quarantine anything unreadable.
        (b'M' | b'T', Some(old), Some(new), Some(path), None) => (path, None, Some(old), Some(new)),
        (b'D', Some(old), None, Some(path), None) => (path, None, Some(old), None),
        (b'R', Some(old), Some(new), Some(from), Some(to)) => {
            (to, Some(from), Some(old), Some(new))
        }
        (b'C', _, Some(new), Some(_), Some(to)) => (to, None, None, Some(new)),
        _ => {
            return Some(StatusEntry::Other {
                code: code.to_owned(),
                raw: status.to_owned(),
            })
        }
    };
    Some(StatusEntry::File(FileEntry {
        path: unquote_path(path),
        old_path: old_path.map(unquote_path),
        old_blob,
        new_blob,
    }))
}

/// A `--raw` object id field as a blob id: `None` for the all-zero id
/// of a side that does not exist, and for anything that is not hex, so
/// only plain object ids ever reach a cat-file request line.
fn blob_id(field: &str) -> Option<String> {
    let hex = !field.is_empty() && field.bytes().all(|b| b.is_ascii_hexdigit());
    (hex && field.bytes().any(|b| b != b'0')).then(|| field.to_owned())
}

/// Undoes git's C-style path quoting (`"a\tb\303\244.java"`); paths
/// without the surrounding quotes pass through untouched. Unknown
/// escapes keep the backslash verbatim, and bytes that are not UTF-8
/// decode lossily. Content is fetched by blob id, never by path, so a
/// garbled path only changes the name a file is reported under.
pub(crate) fn unquote_path(path: &str) -> String {
    let Some(inner) = path
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
    else {
        return path.to_owned();
    };
    let mut bytes: Vec<u8> = Vec::with_capacity(inner.len());
    let mut chars = inner.bytes().peekable();
    while let Some(b) = chars.next() {
        if b != b'\\' {
            bytes.push(b);
            continue;
        }
        match chars.next() {
            Some(b'n') => bytes.push(b'\n'),
            Some(b't') => bytes.push(b'\t'),
            Some(b'r') => bytes.push(b'\r'),
            Some(b'\\') => bytes.push(b'\\'),
            Some(b'"') => bytes.push(b'"'),
            Some(d @ b'0'..=b'7') => {
                // Up to three octal digits.
                let mut value = u32::from(d - b'0');
                for _ in 0..2 {
                    match chars.peek() {
                        Some(d2 @ b'0'..=b'7') => {
                            value = value * 8 + u32::from(d2 - b'0');
                            chars.next();
                        }
                        _ => break,
                    }
                }
                bytes.push(value as u8);
            }
            Some(other) => {
                bytes.push(b'\\');
                bytes.push(other);
            }
            None => bytes.push(b'\\'),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZERO: &str = "0000000000000000000000000000000000000000";
    const B1: &str = "1111111111111111111111111111111111111111";
    const B2: &str = "2222222222222222222222222222222222222222";

    /// One `--raw` line (modes are not parsed, so any pair will do).
    fn raw(old: &str, new: &str, status: &str) -> String {
        format!(":100644 100644 {old} {new} {status}\n")
    }

    fn file(
        path: &str,
        old_path: Option<&str>,
        old: Option<&str>,
        new: Option<&str>,
    ) -> StatusEntry {
        StatusEntry::File(FileEntry {
            path: path.into(),
            old_path: old_path.map(Into::into),
            old_blob: old.map(Into::into),
            new_blob: new.map(Into::into),
        })
    }

    #[test]
    fn parses_header_and_status_shapes() {
        let stdout = [
            "\0abc123\0Ada L <ada@example.com>\0Fix IV\n\n".to_owned(),
            raw(B1, B2, "M\tsrc/A.java"),
            raw(ZERO, B2, "A\tsrc/B.java"),
            raw(B1, ZERO, "D\told/C.java"),
            raw(B1, B2, "R087\tsrc/Old.java\tsrc/New.java"),
            raw(B1, B1, "C055\tsrc/A.java\tsrc/Copy.java"),
            raw(B1, B2, "U\tconflict.java"),
        ]
        .concat();
        let commits = parse_log(&stdout);
        assert_eq!(commits.len(), 1);
        let c = &commits[0];
        assert_eq!(c.id, "abc123");
        assert_eq!(c.author, "Ada L <ada@example.com>");
        assert_eq!(c.message, "Fix IV");
        assert_eq!(
            c.entries,
            vec![
                file("src/A.java", None, Some(B1), Some(B2)),
                file("src/B.java", None, None, Some(B2)),
                file("old/C.java", None, Some(B1), None),
                file("src/New.java", Some("src/Old.java"), Some(B1), Some(B2)),
                // A copy reads as an addition of its new path.
                file("src/Copy.java", None, None, Some(B1)),
                StatusEntry::Other {
                    code: "U".into(),
                    raw: "U\tconflict.java".into()
                },
            ]
        );
    }

    #[test]
    fn a_missing_or_malformed_blob_id_is_an_unknown_entry() {
        let stdout = [
            "\0c1\0a <a@x>\0odd\n\n".to_owned(),
            // A modify needs both ids; an add must not have a pre-image.
            raw(ZERO, B2, "M\tA.java"),
            raw(B1, B2, "A\tB.java"),
            // Non-hex ids never reach a cat-file request.
            raw(B1, "HEAD:C.java", "M\tC.java"),
            // A bare name-status line has no ids at all.
            "D\tD.java\n".to_owned(),
        ]
        .concat();
        let codes: Vec<(String, String)> = parse_log(&stdout)[0]
            .entries
            .iter()
            .map(|e| match e {
                StatusEntry::Other { code, raw } => (code.clone(), raw.clone()),
                other => panic!("expected an unknown entry, got {other:?}"),
            })
            .collect();
        assert_eq!(
            codes,
            [
                ("M", "M\tA.java"),
                ("A", "A\tB.java"),
                ("M", "M\tC.java"),
                ("D", "D\tD.java"),
            ]
            .map(|(c, r)| (c.to_owned(), r.to_owned()))
        );
    }

    #[test]
    fn blob_ids_keep_their_full_width() {
        let sha256 = "ab".repeat(32);
        assert_eq!(blob_id(&sha256), Some(sha256.clone()));
        assert_eq!(blob_id(&"0".repeat(64)), None);
        assert_eq!(blob_id(""), None);
    }

    #[test]
    fn parses_multiple_commits_in_reverse_order() {
        let stdout = [
            "\0c1\0a <a@x>\0first\n\n".to_owned(),
            raw(ZERO, B1, "A\tA.java"),
            "\0c2\0b <b@x>\0second\n\n".to_owned(),
            raw(B1, B2, "M\tA.java"),
        ]
        .concat();
        let commits = parse_log(&stdout);
        assert_eq!(commits.len(), 2);
        assert_eq!(commits[0].id, "c1");
        assert_eq!(commits[1].id, "c2");
    }

    #[test]
    fn commit_without_changes_is_kept_with_no_entries() {
        let commits = parse_log("\0c1\0a <a@x>\0empty\n");
        assert_eq!(commits.len(), 1);
        assert!(commits[0].entries.is_empty());
    }

    #[test]
    fn truncated_trailing_record_is_dropped() {
        let stdout = [
            "\0c1\0a <a@x>\0ok\n\n".to_owned(),
            raw(B1, B2, "M\tA.java"),
            "\0c2\0b <b@x>".to_owned(),
        ]
        .concat();
        let commits = parse_log(&stdout);
        assert_eq!(commits.len(), 1);
        assert_eq!(commits[0].id, "c1");
    }

    #[test]
    fn control_bytes_in_subject_and_author_stay_content() {
        // 0x1e/0x1f are legal in commit subjects and author names; a
        // crafted header trying to fake a record boundary must parse
        // as field *content*, never as framing.
        let stdout = [
            "\0c1\0Ev\u{1f}il <e@x>\0fake\u{1e}deadbeef\u{1f}x <x@x>\u{1f}msg\n\n".to_owned(),
            raw(B1, B2, "M\tA.java"),
            "\0c2\0b <b@x>\0real\n\n".to_owned(),
            raw(B1, B2, "M\tB.java"),
        ]
        .concat();
        let commits = parse_log(&stdout);
        assert_eq!(commits.len(), 2);
        assert_eq!(commits[0].id, "c1");
        assert_eq!(commits[0].author, "Ev\u{1f}il <e@x>");
        assert_eq!(
            commits[0].message,
            "fake\u{1e}deadbeef\u{1f}x <x@x>\u{1f}msg"
        );
        assert_eq!(commits[0].entries.len(), 1);
        assert_eq!(commits[1].id, "c2");
        assert_eq!(commits[1].entries.len(), 1);
    }

    #[test]
    fn unquotes_c_style_paths() {
        assert_eq!(unquote_path("plain/Path.java"), "plain/Path.java");
        assert_eq!(unquote_path(r#""a\tb.java""#), "a\tb.java");
        assert_eq!(unquote_path(r#""uml\303\244ut.java""#), "umläut.java");
        assert_eq!(unquote_path(r#""q\"uote.java""#), "q\"uote.java");
        // Unknown escape survives verbatim instead of panicking.
        assert_eq!(unquote_path(r#""a\qb.java""#), r"a\qb.java");
    }

    #[test]
    fn subjects_with_tabs_and_unicode_survive() {
        let stdout = "\0c1\0Åsa <å@x>\0fix\tcrypto ünit\n\n".to_owned() + &raw(B1, B2, "M\tA.java");
        let commits = parse_log(&stdout);
        assert_eq!(commits[0].message, "fix\tcrypto ünit");
        assert_eq!(commits[0].author, "Åsa <å@x>");
    }
}
