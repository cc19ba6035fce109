//! Plain-text table rendering for experiment reports.

/// Terminal display width of one character.
///
/// Columns used to be sized by code-point count, which misaligns any
/// cell holding East Asian wide characters (2 columns each) or
/// combining marks (0 columns) — e.g. rule names or project paths in
/// CJK. This is a compact approximation of Unicode UAX #11
/// `East_Asian_Width` plus the zero-width classes, covering the ranges
/// that occur in mined identifiers and commit messages; no external
/// unicode-width dependency (the workspace builds offline).
fn char_width(c: char) -> usize {
    let cp = c as u32;
    match cp {
        // Zero width: combining diacritics and marks, zero-width
        // spaces/joiners, variation selectors.
        0x0300..=0x036F
        | 0x0483..=0x0489
        | 0x0591..=0x05BD
        | 0x0610..=0x061A
        | 0x064B..=0x065F
        | 0x1AB0..=0x1AFF
        | 0x1DC0..=0x1DFF
        | 0x200B..=0x200F
        | 0x2060
        | 0x20D0..=0x20FF
        | 0xFE00..=0xFE0F
        | 0xFE20..=0xFE2F => 0,
        // Wide: Hangul Jamo, CJK radicals/kana/ideographs, Hangul
        // syllables, compatibility ideographs, fullwidth forms, and the
        // common wide emoji/symbol planes.
        0x1100..=0x115F
        | 0x2E80..=0x303E
        | 0x3041..=0x33FF
        | 0x3400..=0x4DBF
        | 0x4E00..=0x9FFF
        | 0xA000..=0xA4CF
        | 0xAC00..=0xD7A3
        | 0xF900..=0xFAFF
        | 0xFE30..=0xFE4F
        | 0xFF00..=0xFF60
        | 0xFFE0..=0xFFE6
        | 0x1F300..=0x1F64F
        | 0x1F900..=0x1F9FF
        | 0x20000..=0x2FFFD
        | 0x30000..=0x3FFFD => 2,
        _ => 1,
    }
}

/// Terminal display width of a string: the sum of per-character cell
/// widths (wide CJK/emoji count 2, zero-width marks count 0).
pub(crate) fn display_width(s: &str) -> usize {
    s.chars().map(char_width).sum()
}

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use diffcode::Table;
///
/// let mut table = Table::new(["Rule", "Matching"]);
/// table.row(["R1", "89 (34.6%)"]);
/// let text = table.render();
/// assert!(text.lines().count() == 3);
/// assert!(text.contains("R1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let n_cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; n_cols];
        let measure = |cells: &[String], widths: &mut Vec<usize>| {
            for (i, cell) in cells.iter().enumerate() {
                widths[i] = widths[i].max(display_width(cell));
            }
        };
        measure(&self.headers, &mut widths);
        for row in &self.rows {
            measure(row, &mut widths);
        }

        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = width - display_width(cell);
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', pad));
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_owned()
        };

        let mut out = String::new();
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let sep_len = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.extend(std::iter::repeat_n('-', sep_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Table {
        /// Number of data rows.
        fn len(&self) -> usize {
            self.rows.len()
        }

        /// `true` if there are no data rows.
        fn is_empty(&self) -> bool {
            self.rows.is_empty()
        }
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["Rule", "Applicable", "Matching"]);
        t.row(["R1", "257 (49.5%)", "89 (34.6%)"]);
        t.row(["R13", "8 (1.5%)", "4 (50%)"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Rule"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "Applicable" starts at the same offset in all rows.
        let col = lines[0].find("Applicable").unwrap();
        assert_eq!(&lines[2][col..col + 3], "257");
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only"]);
        let s = t.render();
        assert!(s.contains("only"));
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(["x"]);
        assert!(t.is_empty());
        t.row(["1"]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn unicode_widths_align_columns() {
        // "暗号" is two wide chars (display width 4, char count 2,
        // byte len 6); "café" with a combining accent is width 4 but
        // char count 5. Byte- or char-count sizing misaligns both.
        let mut t = Table::new(["Rule", "Count"]);
        t.row(["暗号モード", "3"]);
        t.row(["cafe\u{0301} rule", "11"]);
        t.row(["R1", "257"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Every row's second column starts at the same *display*
        // offset: strip the first column + padding and the remaining
        // prefix width must be identical across rows.
        let offsets: Vec<usize> = [lines[0], lines[2], lines[3], lines[4]]
            .iter()
            .map(|line| {
                let cut = line
                    .char_indices()
                    .rev()
                    .find(|(_, c)| *c == ' ')
                    .map(|(i, _)| i + 1)
                    .unwrap();
                display_width(&line[..cut])
            })
            .collect();
        assert!(
            offsets.windows(2).all(|w| w[0] == w[1]),
            "column offsets differ: {offsets:?}\n{s}"
        );
    }

    #[test]
    fn display_width_classifies() {
        assert_eq!(display_width("abc"), 3);
        assert_eq!(display_width("暗号"), 4, "CJK ideographs are wide");
        assert_eq!(display_width("ｱﾊﾟｰﾄ"), 5, "halfwidth katakana stay narrow");
        assert_eq!(
            display_width("e\u{0301}"),
            1,
            "combining accent is zero-width"
        );
        assert_eq!(display_width("한글"), 4, "hangul syllables are wide");
        assert_eq!(display_width("Ｒ１"), 4, "fullwidth forms are wide");
    }
}
