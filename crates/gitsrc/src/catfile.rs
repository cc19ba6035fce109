//! Blob extraction by object id over one long-lived
//! `git cat-file --batch` child.
//!
//! cat-file's batch protocol answers each request line (`<oid>\n`)
//! with either `<oid> <type> <size>\n<size bytes>\n` or
//! `<oid> missing\n`. [`CatFile::fetch`] pipelines every id of a walk
//! in windows of at most [`MAX_BATCH_REQUEST_BYTES`] of request text:
//! it writes one whole window, then reads that window's responses
//! back, then writes the next.
//!
//! That byte bound alone rules out the classic cat-file deadlock, in
//! which the client blocks writing requests into a full stdin pipe
//! while the child blocks writing a response into a full stdout pipe
//! nobody drains. The client writes a window only after reading every
//! earlier response, so by then the child has consumed every earlier
//! request and the stdin pipe is empty. A window is at most half a
//! pipe buffer, so all of it fits: the write returns without waiting
//! on the child, and the client is draining before the child can fill
//! the stdout pipe. No bound on the request count is needed, whatever
//! the responses' sizes.
//!
//! Every response is fully consumed even when the blob is rejected —
//! an oversized blob is read and discarded byte-for-byte — so the
//! stream stays request/response aligned no matter which degradation
//! path a blob takes.

use crate::GitError;
use obs::Recorder;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Outcome of fetching one blob. Only [`BlobFetch::Content`] yields
/// text for mining; every other variant quarantines the files that use
/// the blob (never the commit, never the run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BlobFetch {
    /// UTF-8 blob content within the size budget.
    Content(String),
    /// Object does not exist (shallow or partial clone, corruption) or
    /// is not a blob (a submodule's commit).
    Missing,
    /// Blob exceeds the per-blob byte budget; content discarded.
    Oversized { size: u64 },
    /// Blob bytes are not valid UTF-8 (likely binary mislabeled .java).
    NonUtf8,
}

/// Most request bytes written before draining responses: half of the
/// smallest common pipe buffer (64 KiB on Linux), so a whole window
/// always fits in the child's stdin pipe. About 800 SHA-1 ids.
pub const MAX_BATCH_REQUEST_BYTES: usize = 32 << 10;

/// End index of the window starting at `start` whose request lines
/// (id + newline each) fit in `max_bytes`. Always advances by at least
/// one id: a single over-long id is its own window, which is safe
/// because the child has no undrained response backlog while its first
/// request is still being written.
fn batch_end(ids: &[&str], start: usize, max_bytes: usize) -> usize {
    let mut end = start;
    let mut bytes = 0usize;
    while end < ids.len() {
        let line = ids[end].len() + 1;
        if end > start && bytes + line > max_bytes {
            break;
        }
        bytes += line;
        end += 1;
    }
    end
}

/// A running `git cat-file --batch` child scoped to one repository.
pub(crate) struct CatFile {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl CatFile {
    /// Spawns the batch child for `repo`. It reads no request until
    /// [`CatFile::fetch`] writes one, so spawning it early lets its
    /// start-up overlap other work.
    pub(crate) fn spawn(repo: &Path) -> Result<Self, GitError> {
        let mut child = Command::new("git")
            .arg("-C")
            .arg(repo)
            .args(["cat-file", "--batch"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| GitError::Spawn(format!("git cat-file --batch: {e}")))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(CatFile {
            child,
            stdin,
            stdout,
        })
    }

    /// Fetches every blob id, returning one [`BlobFetch`] per id in
    /// request order. Ids go out in write-flush-drain windows of at
    /// most [`MAX_BATCH_REQUEST_BYTES`] (see the module doc), each
    /// timed as one `gitsrc.catfile.batch` span.
    pub(crate) fn fetch(
        &mut self,
        ids: &[&str],
        max_blob_bytes: u64,
        rec: &mut Recorder,
    ) -> Result<Vec<BlobFetch>, GitError> {
        let mut results = Vec::with_capacity(ids.len());
        let mut request = String::new();
        let mut start = 0;
        while start < ids.len() {
            let span = rec.begin("gitsrc.catfile.batch");
            let end = batch_end(ids, start, MAX_BATCH_REQUEST_BYTES);
            let window = &ids[start..end];
            request.clear();
            for id in window {
                request.push_str(id);
                request.push('\n');
            }
            let fetched = self
                .stdin
                .write_all(request.as_bytes())
                .and_then(|()| self.stdin.flush())
                .map_err(|e| GitError::Io(format!("cat-file request write: {e}")))
                .and_then(|()| {
                    for id in window {
                        results.push(self.read_response(id, max_blob_bytes)?);
                    }
                    Ok(())
                });
            rec.end(span);
            fetched?;
            start = end;
        }
        Ok(results)
    }

    /// Reads exactly one response, keeping the stream aligned on every
    /// path (including discarding oversized payloads).
    fn read_response(&mut self, id: &str, max_blob_bytes: u64) -> Result<BlobFetch, GitError> {
        let mut header = String::new();
        let n = self
            .stdout
            .read_line(&mut header)
            .map_err(|e| GitError::Io(format!("cat-file response read: {e}")))?;
        if n == 0 {
            return Err(GitError::Protocol(format!(
                "cat-file stream closed before response for {id:?}"
            )));
        }
        let header = header.trim_end_matches('\n');
        if header.ends_with(" missing") {
            return Ok(BlobFetch::Missing);
        }
        // `<oid> <type> <size>`
        let mut fields = header.split(' ');
        let (Some(_oid), Some(kind), Some(size), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(GitError::Protocol(format!(
                "unrecognized cat-file header {header:?} for {id:?}"
            )));
        };
        let size: u64 = size
            .parse()
            .map_err(|_| GitError::Protocol(format!("bad size in cat-file header {header:?}")))?;
        // Payload is `size` bytes plus a trailing LF, always consumed.
        if kind != "blob" || size > max_blob_bytes {
            self.discard(size + 1)?;
            return Ok(if kind == "blob" {
                BlobFetch::Oversized { size }
            } else {
                BlobFetch::Missing
            });
        }
        let mut buf = vec![0u8; size as usize];
        self.stdout
            .read_exact(&mut buf)
            .map_err(|e| GitError::Io(format!("cat-file payload read: {e}")))?;
        self.discard(1)?;
        Ok(match String::from_utf8(buf) {
            Ok(text) => BlobFetch::Content(text),
            Err(_) => BlobFetch::NonUtf8,
        })
    }

    /// Reads and throws away `n` bytes from the response stream.
    fn discard(&mut self, n: u64) -> Result<(), GitError> {
        let copied = std::io::copy(&mut (&mut self.stdout).take(n), &mut std::io::sink())
            .map_err(|e| GitError::Io(format!("cat-file payload discard: {e}")))?;
        if copied != n {
            return Err(GitError::Protocol(format!(
                "cat-file stream truncated: wanted {n} bytes, got {copied}"
            )));
        }
        Ok(())
    }
}

impl Drop for CatFile {
    fn drop(&mut self) {
        // Closing stdin ends the batch session; reap the child so a
        // long mine doesn't accumulate zombies.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(lens: &[usize]) -> Vec<&'static str> {
        lens.iter().map(|&n| &*"x".repeat(n).leak()).collect()
    }

    #[test]
    fn batch_end_packs_specs_up_to_the_byte_budget() {
        // Lines cost len+1; budget 10 fits 4+1 and 4+1 but not a third.
        let s = specs(&[4, 4, 4]);
        assert_eq!(batch_end(&s, 0, 10), 2);
        assert_eq!(batch_end(&s, 2, 10), 3);
    }

    #[test]
    fn batch_end_always_advances_past_an_oversized_spec() {
        let s = specs(&[100, 4]);
        assert_eq!(batch_end(&s, 0, 10), 1);
        assert_eq!(batch_end(&s, 1, 10), 2);
    }

    #[test]
    fn batch_end_covers_every_spec_exactly_once() {
        let s = specs(&[3, 90, 7, 7, 7, 1, 200, 2]);
        let mut start = 0;
        let mut seen = 0;
        while start < s.len() {
            let end = batch_end(&s, start, 16);
            assert!(end > start, "sub-batch must make progress");
            let bytes: usize = s[start..end].iter().map(|x| x.len() + 1).sum();
            assert!(end - start == 1 || bytes <= 16);
            seen += end - start;
            start = end;
        }
        assert_eq!(seen, s.len());
    }
}
