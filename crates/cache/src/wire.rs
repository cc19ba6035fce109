//! A minimal length-prefixed binary codec.
//!
//! The workspace builds offline (no serde), so cache payloads and store
//! records are serialized by hand. The format is deliberately dumb:
//! little-endian fixed-width integers, length-prefixed byte strings,
//! and LEB128 varints for payloads whose counts and lengths are mostly
//! small, no alignment. Decoding is total — every malformed input
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
    /// A varint ends in a zero group after its first byte: the same
    /// value has a shorter encoding, which is the only one accepted.
    OverlongVarint,
    /// A varint runs past ten bytes, or its tenth byte carries bits
    /// above bit 63: it does not fit a u64.
    VarintTooLong,
    /// A varint's value does not fit a `usize`.
    PastUsize,
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
            WireError::OverlongVarint => f.write_str("malformed input: overlong varint"),
            WireError::VarintTooLong => f.write_str("malformed input: varint past 64 bits"),
            WireError::PastUsize => f.write_str("malformed input: varint past usize"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bytes the LEB128 encoding of `v` takes ([`Writer::varint`]): one per
/// started group of seven bits, at least one.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

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

    /// An empty writer whose buffer holds `capacity` bytes before it
    /// has to grow: a caller that knows the encoded size up front gets
    /// one allocation and no slack.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far: the offset of the next write.
    pub fn position(&self) -> usize {
        self.buf.len()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `v` as an unsigned LEB128 varint: seven bits per byte,
    /// low group first, the high bit set on every byte but the last.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends `v` as is, with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed byte string.
    pub(crate) fn bytes(&mut self, v: &[u8]) {
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
    pub(crate) fn remaining(&self) -> usize {
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

    /// Reads the next `n` bytes as they are.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
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
    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
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
    pub(crate) fn u128(&mut self) -> Result<u128, WireError> {
        let bytes = self.take(16)?;
        Ok(u128::from_le_bytes(
            bytes.try_into().map_err(|_| WireError::Malformed("u128"))?,
        ))
    }

    /// Reads an unsigned LEB128 varint ([`Writer::varint`]). Only the
    /// shortest encoding of a value is accepted.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the input ends inside it,
    /// [`WireError::OverlongVarint`] on a redundant trailing zero group,
    /// [`WireError::VarintTooLong`] past 64 bits.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        // Most lengths and counts fit one byte.
        if let Some(&byte) = rest.first() {
            if byte < 0x80 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        let mut value = 0u64;
        for (i, &byte) in rest.iter().enumerate().take(10) {
            let group = u64::from(byte & 0x7F);
            if i == 9 && byte > 1 {
                return Err(WireError::VarintTooLong);
            }
            value |= group << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(WireError::OverlongVarint);
                }
                self.pos += i + 1;
                return Ok(value);
            }
        }
        // Every byte of the first ten carried a continuation bit, and a
        // tenth would have failed above: the input ended first.
        Err(WireError::Truncated {
            needed: self.remaining() + 1,
            remaining: self.remaining(),
        })
    }

    /// Reads a varint length or offset.
    ///
    /// # Errors
    ///
    /// Those of [`Reader::varint`], and [`WireError::PastUsize`].
    pub fn varint_usize(&mut self) -> Result<usize, WireError> {
        to_usize(self.varint()?)
    }

    /// Reads a varint count of items that each take at least one of the
    /// bytes left, so a count is never larger than what remains; a
    /// caller may size a buffer by it.
    ///
    /// # Errors
    ///
    /// Those of [`Reader::varint_usize`], and [`WireError::Malformed`]
    /// when the count exceeds the bytes left.
    pub fn count(&mut self) -> Result<usize, WireError> {
        let count = self.varint_usize()?;
        if count > self.remaining() {
            return Err(WireError::Malformed("count exceeds the bytes left"));
        }
        Ok(count)
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

fn to_usize(v: u64) -> Result<usize, WireError> {
    usize::try_from(v).map_err(|_| WireError::PastUsize)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The store writes record framing straight to its file; only these
    // tests build the two wider integers through a `Writer`.
    impl Writer {
        fn u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        fn u128(&mut self, v: u128) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

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

    #[test]
    fn varints_round_trip_at_the_group_boundaries() {
        let values = [
            (0, vec![0x00]),
            (1, vec![0x01]),
            (127, vec![0x7F]),
            (128, vec![0x80, 0x01]),
            (300, vec![0xAC, 0x02]),
            (16_383, vec![0xFF, 0x7F]),
            (16_384, vec![0x80, 0x80, 0x01]),
            (
                1 << 63,
                vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            ),
            (
                u64::MAX,
                vec![0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
            ),
        ];
        for (value, encoding) in values {
            let mut w = Writer::new();
            w.varint(value);
            let buf = w.finish();
            assert_eq!(buf, encoding, "{value}");
            assert_eq!(varint_len(value), encoding.len(), "{value}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint(), Ok(value));
            assert!(r.is_exhausted());
            // Every strict prefix is truncated.
            for cut in 0..buf.len() {
                let err = Reader::new(&buf[..cut]).varint().unwrap_err();
                assert!(
                    matches!(err, WireError::Truncated { .. }),
                    "{value} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn overlong_varints_are_rejected() {
        for bytes in [
            &[0x80, 0x00][..],
            &[0xFF, 0x80, 0x00],
            &[0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
        ] {
            assert_eq!(
                Reader::new(bytes).varint(),
                Err(WireError::OverlongVarint),
                "{bytes:x?}"
            );
        }
        // A lone zero is the shortest encoding of 0.
        assert_eq!(Reader::new(&[0x00]).varint(), Ok(0));
    }

    #[test]
    fn varints_past_64_bits_are_rejected() {
        let mut tenth_too_big = vec![0xFF; 9];
        tenth_too_big.push(0x02);
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        let ten_continued = vec![0x80; 10];
        for bytes in [tenth_too_big, eleven, ten_continued] {
            assert_eq!(
                Reader::new(&bytes).varint(),
                Err(WireError::VarintTooLong),
                "{bytes:x?}"
            );
        }
    }

    #[test]
    fn varint_usize_and_count_bound_their_values() {
        assert_eq!(to_usize(u64::from(u32::MAX)), Ok(u32::MAX as usize));
        if usize::BITS < 64 {
            assert_eq!(to_usize(u64::MAX), Err(WireError::PastUsize));
        } else {
            assert_eq!(to_usize(u64::MAX), Ok(usize::MAX));
        }
        // A count may not exceed the bytes after it.
        let mut w = Writer::new();
        w.varint(3);
        w.raw(b"abc");
        let buf = w.finish();
        assert_eq!(Reader::new(&buf).count(), Ok(3));
        assert!(matches!(
            Reader::new(&buf[..3]).count(),
            Err(WireError::Malformed(_))
        ));
        let mut w = Writer::new();
        w.varint(u64::MAX);
        assert!(Reader::new(&w.finish()).count().is_err());
    }
}
