//! A minimal length-prefixed binary codec.
//!
//! The workspace builds offline (no serde), so cache payloads and store
//! records are serialized by hand. The format is deliberately dumb:
//! little-endian fixed-width integers and length-prefixed byte strings,
//! no varints, no alignment. Decoding is total — every malformed input
//! produces a typed [`WireError`], never a panic — because cache files
//! are untrusted input to the pipeline (a crash mid-flush leaves a
//! truncated tail).

use std::fmt;

/// A decoding failure. The store treats any error as "record is
/// corrupt"; payload decoders treat it as a cache miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the expected number of bytes.
    Truncated {
        /// Bytes needed by the read.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A length prefix or tag had an impossible value.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: needed {needed} byte(s), {remaining} left"
                )
            }
            WireError::Malformed(what) => write!(f, "malformed input: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serializes values into a growing byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u128.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Consumes the writer, returning the serialized bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserializes values from a byte slice, front to back.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far: the offset of the next read within the
    /// input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The input not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// `true` when every byte has been consumed — decoders check this
    /// to reject trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(
            bytes.try_into().map_err(|_| WireError::Malformed("u32"))?,
        ))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(
            bytes.try_into().map_err(|_| WireError::Malformed("u64"))?,
        ))
    }

    /// Reads a little-endian u128.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        let bytes = self.take(16)?;
        Ok(u128::from_le_bytes(
            bytes.try_into().map_err(|_| WireError::Malformed("u128"))?,
        ))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        let len = usize::try_from(len)
            .map_err(|_| WireError::Malformed("length prefix exceeds usize"))?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::Malformed("string is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.u128(0x6c62272e07bb014262b821756295c58d);
        w.bytes(b"raw");
        w.str("caf\u{e9}");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "caf\u{e9}");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = Writer::new();
        w.str("hello");
        let buf = w.finish();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(
                matches!(r.str(), Err(WireError::Truncated { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn length_prefix_cannot_overread() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // absurd length prefix with no payload
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn non_utf8_string_is_malformed() {
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.str(), Err(WireError::Malformed("string is not UTF-8")));
    }
}
