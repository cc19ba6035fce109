//! 128-bit content fingerprints (FNV-1a).
//!
//! `DefaultHasher` is explicitly unstable across releases and
//! processes, so cache keys use a hand-rolled FNV-1a over 128 bits:
//! trivially portable, deterministic forever, and wide enough that
//! birthday collisions are out of reach for any corpus this pipeline
//! will see (2⁶⁴ entries for a 50% collision chance).

use std::fmt;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit content fingerprint. Displays as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The 32 lowercase hex digits, most significant first, built from
    /// a digit table rather than through the formatter; also what
    /// [`fmt::Display`] writes.
    pub fn to_hex(&self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut hex = String::with_capacity(32);
        for shift in (0..32).rev() {
            hex.push(char::from(DIGITS[(self.0 >> (4 * shift)) as usize & 0xF]));
        }
        hex
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A streaming [`fingerprint`]: a running FNV-1a 128 state fed one
/// length-delimited part at a time, so a caller can hash parts it
/// renders into a reused buffer instead of collecting them all first.
/// Feeding parts `p₁ … pₙ` and calling [`Fingerprinter::finish`] gives
/// exactly `fingerprint(&[p₁, …, pₙ])`.
#[derive(Debug, Clone)]
pub struct Fingerprinter(u128);

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// The state of an empty part sequence (the FNV offset basis).
    pub fn new() -> Self {
        Fingerprinter(FNV_OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one part, length-prefixed so `["ab","c"]` and `["a","bc"]`
    /// hash differently.
    pub fn part(&mut self, part: &[u8]) {
        self.update(&(part.len() as u64).to_le_bytes());
        self.update(part);
    }

    /// Feeds one part given as consecutive slices: the same fingerprint
    /// as [`Fingerprinter::part`] over their concatenation, without
    /// building it.
    pub fn part_slices(&mut self, slices: &[&[u8]]) {
        let len: usize = slices.iter().map(|s| s.len()).sum();
        self.update(&(len as u64).to_le_bytes());
        for slice in slices {
            self.update(slice);
        }
    }

    /// Feeds the same part to `self` and `other` in one pass over its
    /// bytes. Each lane ends exactly as if [`Fingerprinter::part`] had
    /// been called on it alone; the two multiply chains are
    /// independent, so the CPU overlaps them and one lockstep pass
    /// costs well under two single-lane passes.
    pub fn part_with(&mut self, other: &mut Fingerprinter, part: &[u8]) {
        let (mut a, mut b) = (self.0, other.0);
        for bytes in [&(part.len() as u64).to_le_bytes()[..], part] {
            for &byte in bytes {
                a = (a ^ u128::from(byte)).wrapping_mul(FNV_PRIME);
                b = (b ^ u128::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
        (self.0, other.0) = (a, b);
    }

    /// The fingerprint of the parts fed so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.0)
    }
}

/// Fingerprints a sequence of byte parts. Each part is length-delimited
/// before hashing, so the fingerprint depends on the part boundaries,
/// not just the concatenation.
pub fn fingerprint(parts: &[&[u8]]) -> Fingerprint {
    let mut fnv = Fingerprinter::new();
    for part in parts {
        fnv.part(part);
    }
    fnv.finish()
}

/// [`fingerprint`] over string parts.
pub fn fingerprint_str(parts: &[&str]) -> Fingerprint {
    let mut fnv = Fingerprinter::new();
    for part in parts {
        fnv.part(part.as_bytes());
    }
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Fingerprint {
        /// Parses the 32-hex-digit form produced by `Display`.
        fn parse(s: &str) -> Option<Fingerprint> {
            if s.len() != 32 {
                return None;
            }
            u128::from_str_radix(s, 16).ok().map(Fingerprint)
        }
    }

    #[test]
    fn known_vector() {
        // FNV-1a 128 of the empty input is the offset basis; one part
        // still mixes in the length prefix.
        assert_eq!(fingerprint(&[]), Fingerprint(FNV_OFFSET));
        assert_ne!(fingerprint(&[b""]), Fingerprint(FNV_OFFSET));
    }

    #[test]
    fn part_boundaries_matter() {
        assert_ne!(fingerprint(&[b"ab", b"c"]), fingerprint(&[b"a", b"bc"]));
        assert_ne!(fingerprint(&[b"abc"]), fingerprint(&[b"ab", b"c"]));
        assert_eq!(fingerprint(&[b"ab", b"c"]), fingerprint(&[b"ab", b"c"]));
    }

    #[test]
    fn str_and_bytes_agree() {
        assert_eq!(
            fingerprint_str(&["old", "new"]),
            fingerprint(&[b"old", b"new"])
        );
    }

    #[test]
    fn hex_round_trip() {
        let fp = fingerprint(&[b"round", b"trip"]);
        let hex = fp.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::parse(&hex), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
        assert_eq!(Fingerprint::parse(&hex[..31]), None);
    }

    #[test]
    fn streaming_matches_one_shot_and_lanes_stay_independent() {
        let parts: [&[u8]; 3] = [b"config", b"", b"old\nsource"];
        let mut streamed = Fingerprinter::new();
        for part in parts {
            streamed.part(part);
        }
        assert_eq!(streamed.finish(), fingerprint(&parts));

        // Two lanes in lockstep: one primed with an extra leading part.
        let mut keyed = Fingerprinter::new();
        keyed.part(b"config");
        let mut plain = Fingerprinter::new();
        for part in [b"old".as_slice(), b"new"] {
            keyed.part_with(&mut plain, part);
        }
        assert_eq!(keyed.finish(), fingerprint(&[b"config", b"old", b"new"]));
        assert_eq!(plain.finish(), fingerprint(&[b"old", b"new"]));
    }

    #[test]
    fn a_part_of_slices_hashes_like_its_concatenation() {
        let mut sliced = Fingerprinter::new();
        sliced.part(b"first");
        sliced.part_slices(&[b"proj|", b"", b"c1|", "pa\u{f1}th|".as_bytes()]);
        sliced.part_slices(&[]);
        let concat = "proj|c1|pa\u{f1}th|".as_bytes();
        assert_eq!(sliced.finish(), fingerprint(&[b"first", concat, b""]));
    }

    #[test]
    fn hex_is_32_zero_padded_lowercase_digits() {
        for v in [0, 1, 0xF, 0xABC, u128::MAX, 1 << 127, FNV_OFFSET] {
            assert_eq!(Fingerprint(v).to_hex(), format!("{v:032x}"));
        }
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        // Not a collision test, just a sanity sweep over small inputs.
        let mut seen = std::collections::HashSet::new();
        for i in 0u32..1000 {
            let bytes = i.to_le_bytes();
            assert!(seen.insert(fingerprint(&[&bytes])), "collision at {i}");
        }
    }
}
