//! Line-based Myers diff and unified-patch rendering.
//!
//! Used to display mined code changes the way the paper's figures do
//! (red `-` / green `+` lines).

/// One line of a computed diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DiffLine<'a> {
    /// Line present in both versions.
    Context(&'a str),
    /// Line only in the old version.
    Removed(&'a str),
    /// Line only in the new version.
    Added(&'a str),
}

/// Computes a minimal line diff between `old` and `new` using Myers'
/// O(ND) algorithm.
pub(crate) fn diff_lines<'a>(old: &'a str, new: &'a str) -> Vec<DiffLine<'a>> {
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    let trace = myers_trace(&a, &b);
    backtrack(&a, &b, &trace)
}

fn myers_trace<'a>(a: &[&'a str], b: &[&'a str]) -> Vec<Vec<isize>> {
    let n = a.len() as isize;
    let m = b.len() as isize;
    let max = n + m;
    let offset = max;
    let mut v = vec![0isize; (2 * max + 1).max(1) as usize];
    let mut trace = Vec::new();
    for d in 0..=max {
        trace.push(v.clone());
        let mut k = -d;
        while k <= d {
            let idx = (k + offset) as usize;
            let mut x = if k == -d
                || (k != d && v[(k - 1 + offset) as usize] < v[(k + 1 + offset) as usize])
            {
                v[(k + 1 + offset) as usize]
            } else {
                v[(k - 1 + offset) as usize] + 1
            };
            let mut y = x - k;
            while x < n && y < m && a[x as usize] == b[y as usize] {
                x += 1;
                y += 1;
            }
            v[idx] = x;
            if x >= n && y >= m {
                trace.push(v.clone());
                return trace;
            }
            k += 2;
        }
    }
    trace
}

fn backtrack<'a>(a: &[&'a str], b: &[&'a str], trace: &[Vec<isize>]) -> Vec<DiffLine<'a>> {
    let n = a.len() as isize;
    let m = b.len() as isize;
    let offset = n + m;
    let mut x = n;
    let mut y = m;
    let mut out_rev: Vec<DiffLine<'a>> = Vec::new();

    // Find the d at which we finished.
    let mut d = (trace.len() as isize - 2).max(0);
    while d > 0 {
        let v = &trace[d as usize];
        let k = x - y;
        let prev_k =
            if k == -d || (k != d && v[(k - 1 + offset) as usize] < v[(k + 1 + offset) as usize]) {
                k + 1
            } else {
                k - 1
            };
        let prev_x = v[(prev_k + offset) as usize];
        let prev_y = prev_x - prev_k;
        while x > prev_x && y > prev_y {
            out_rev.push(DiffLine::Context(a[(x - 1) as usize]));
            x -= 1;
            y -= 1;
        }
        if x == prev_x {
            out_rev.push(DiffLine::Added(b[(y - 1) as usize]));
            y -= 1;
        } else {
            out_rev.push(DiffLine::Removed(a[(x - 1) as usize]));
            x -= 1;
        }
        d -= 1;
    }
    while x > 0 && y > 0 {
        out_rev.push(DiffLine::Context(a[(x - 1) as usize]));
        x -= 1;
        y -= 1;
    }
    while y > 0 {
        out_rev.push(DiffLine::Added(b[(y - 1) as usize]));
        y -= 1;
    }
    while x > 0 {
        out_rev.push(DiffLine::Removed(a[(x - 1) as usize]));
        x -= 1;
    }
    out_rev.reverse();
    out_rev
}

/// Renders a diff as a unified-style patch body (no hunk headers; `-`,
/// `+`, and two-space context prefixes), eliding long runs of context.
///
/// # Example
///
/// ```
/// let patch = corpus::render_patch("a\nold\nb", "a\nnew\nb");
/// assert!(patch.contains("- old"));
/// assert!(patch.contains("+ new"));
/// ```
pub fn render_patch(old: &str, new: &str) -> String {
    let lines = diff_lines(old, new);
    let mut out = String::new();
    let mut context_run: Vec<&str> = Vec::new();
    let flush_run = |run: &mut Vec<&str>, out: &mut String| {
        if run.len() <= 4 {
            for l in run.iter() {
                out.push_str("  ");
                out.push_str(l);
                out.push('\n');
            }
        } else {
            for l in &run[..2] {
                out.push_str("  ");
                out.push_str(l);
                out.push('\n');
            }
            out.push_str("  ...\n");
            for l in &run[run.len() - 2..] {
                out.push_str("  ");
                out.push_str(l);
                out.push('\n');
            }
        }
        run.clear();
    };
    for line in &lines {
        match line {
            DiffLine::Context(l) => context_run.push(l),
            DiffLine::Removed(l) => {
                flush_run(&mut context_run, &mut out);
                out.push_str("- ");
                out.push_str(l);
                out.push('\n');
            }
            DiffLine::Added(l) => {
                flush_run(&mut context_run, &mut out);
                out.push_str("+ ");
                out.push_str(l);
                out.push('\n');
            }
        }
    }
    flush_run(&mut context_run, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(old: &str, diff: &[DiffLine<'_>]) -> (Vec<String>, Vec<String>) {
        // Reconstructs both sides from the diff for verification.
        let _ = old;
        let mut a = Vec::new();
        let mut b = Vec::new();
        for line in diff {
            match line {
                DiffLine::Context(l) => {
                    a.push((*l).to_owned());
                    b.push((*l).to_owned());
                }
                DiffLine::Removed(l) => a.push((*l).to_owned()),
                DiffLine::Added(l) => b.push((*l).to_owned()),
            }
        }
        (a, b)
    }

    #[test]
    fn identical_inputs_are_all_context() {
        let d = diff_lines("a\nb\nc", "a\nb\nc");
        assert!(d.iter().all(|l| matches!(l, DiffLine::Context(_))));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn single_line_replacement() {
        let d = diff_lines("a\nb\nc", "a\nx\nc");
        assert!(d.contains(&DiffLine::Removed("b")));
        assert!(d.contains(&DiffLine::Added("x")));
        let (a, b) = apply("", &d);
        assert_eq!(a, vec!["a", "b", "c"]);
        assert_eq!(b, vec!["a", "x", "c"]);
    }

    #[test]
    fn pure_insertion_and_deletion() {
        let d = diff_lines("", "a\nb");
        assert_eq!(d, vec![DiffLine::Added("a"), DiffLine::Added("b")]);
        let d = diff_lines("a\nb", "");
        assert_eq!(d, vec![DiffLine::Removed("a"), DiffLine::Removed("b")]);
    }

    #[test]
    fn roundtrip_reconstruction() {
        let old = "one\ntwo\nthree\nfour\nfive";
        let new = "one\n2\nthree\nfive\nsix";
        let d = diff_lines(old, new);
        let (a, b) = apply(old, &d);
        assert_eq!(a.join("\n"), old);
        assert_eq!(b.join("\n"), new);
    }

    #[test]
    fn diff_is_minimal_for_small_case() {
        let d = diff_lines("a\nb\nc\nd", "a\nc\nd");
        let edits = d
            .iter()
            .filter(|l| !matches!(l, DiffLine::Context(_)))
            .count();
        assert_eq!(edits, 1);
    }

    #[test]
    fn patch_rendering_marks_changes() {
        let patch = render_patch("keep\nold line\nkeep2", "keep\nnew line\nkeep2");
        assert!(patch.contains("- old line"));
        assert!(patch.contains("+ new line"));
        assert!(patch.contains("  keep"));
    }

    #[test]
    fn patch_elides_long_context() {
        let old: String = (0..30).map(|i| format!("line{i}\n")).collect();
        let new = old.replace("line29", "changed");
        let patch = render_patch(&old, &new);
        assert!(patch.contains("  ...\n"));
        assert!(patch.contains("+ changed"));
    }
}
