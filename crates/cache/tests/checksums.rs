//! The log's payload checksums, through the store's public API.
//!
//! Every record carries the FNV-1a 64 of its payload. Open, verify,
//! flush and vacuum each checksum many payloads at once; these tests
//! pin what they compute to the one-payload definition, re-implemented
//! here from the format, and pin the integrity decisions open and
//! verify draw from the sums — tail damage versus mid-log corruption —
//! record by record.

use cache::{fingerprint, verify_ns, CacheStore, Fingerprint, Lookup, StoreError, VerifyReport};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Magic bytes opening every cache log.
const MAGIC_LEN: usize = b"DIFFCACHE1\n".len();
/// Key, version and length prefix before a record's payload.
const HEADER: usize = 16 + 4 + 8;
/// The stored checksum after it.
const TRAILER: usize = 8;

/// FNV-1a 64, one payload at a time: the checksum's definition.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A per-process temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("diffcache-checksums-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn log(&self) -> PathBuf {
        self.0.join("cache.log")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn key(i: usize) -> Fingerprint {
    fingerprint(&[&i.to_le_bytes()])
}

/// `(payload, stored checksum)` of every record of an undamaged log,
/// framed by hand.
fn stored_sums(log: &[u8]) -> Vec<(&[u8], u64)> {
    let mut records = Vec::new();
    let mut at = MAGIC_LEN;
    while at < log.len() {
        let len_at = at + 16 + 4;
        let len = u64::from_le_bytes(log[len_at..len_at + 8].try_into().unwrap()) as usize;
        let payload = &log[at + HEADER..at + HEADER + len];
        let sum_at = at + HEADER + len;
        let sum = u64::from_le_bytes(log[sum_at..sum_at + TRAILER].try_into().unwrap());
        records.push((payload, sum));
        at = sum_at + TRAILER;
    }
    records
}

/// Deterministic payload bytes of `len` from `seed` (xorshift64).
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

/// Checks a flushed log against `payloads`: every stored sum is the
/// payload's FNV-1a 64, a strict open hits every key, and verify finds
/// the log clean.
fn assert_log_matches(dir: &TempDir, payloads: &[Vec<u8>]) -> Result<(), TestCaseError> {
    if payloads.is_empty() {
        prop_assert!(!dir.log().exists(), "nothing to flush, no log");
        return Ok(());
    }
    let log = std::fs::read(dir.log()).unwrap();
    let records = stored_sums(&log);
    prop_assert_eq!(records.len(), payloads.len());
    for (payload, sum) in &records {
        prop_assert_eq!(
            *sum,
            fnv64(payload),
            "stored sum of a {}-byte payload",
            payload.len()
        );
    }
    let store = CacheStore::open(&dir.0, 1).unwrap();
    for (i, payload) in payloads.iter().enumerate() {
        prop_assert_eq!(store.get(key(i)), Lookup::Hit(payload.as_slice()));
    }
    let report = verify_ns(&dir.0, "cache").unwrap();
    prop_assert!(report.is_clean(), "{report:?}");
    prop_assert_eq!(report.valid_records, payloads.len());
    Ok(())
}

/// A payload length: half the draws short (so empty payloads and equal
/// lengths occur), half anywhere up to 20 000 bytes.
fn payload_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..4, 0usize..20_001]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // 0–13 payloads: every remainder of a group of four, and groups
    // whose lengths differ by up to the whole range.
    #[test]
    fn flushed_opened_verified_and_vacuumed_sums_are_fnv64(
        shapes in proptest::collection::vec((payload_len(), any::<u64>()), 0..14),
    ) {
        let dir = TempDir::new("property");
        let payloads: Vec<Vec<u8>> =
            shapes.iter().map(|&(len, seed)| payload(len, seed)).collect();
        let mut store = CacheStore::open(&dir.0, 1).unwrap();
        for (i, payload) in payloads.iter().enumerate() {
            store.insert(key(i), payload.clone());
        }
        prop_assert_eq!(store.flush().unwrap(), payloads.len());
        assert_log_matches(&dir, &payloads)?;
        if !payloads.is_empty() {
            // Vacuum rewrites every record in key order.
            CacheStore::open(&dir.0, 1).unwrap().vacuum().unwrap();
            assert_log_matches(&dir, &payloads)?;
        }
    }
}

/// What a strict open, a tolerant open and verify report on one log.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// The strict open's `CorruptRecord` fields, or its
    /// `(corrupt_records, corrupt_tail_bytes, records_loaded)`.
    strict: Result<(usize, u64, usize), (u64, usize, usize)>,
    /// The tolerant open's `(corrupt_records, corrupt_tail_bytes,
    /// records_loaded)`.
    tolerant: (usize, u64, usize),
    /// Verify's `(valid_records, checksum_failures, corrupt_tail_bytes)`.
    verify: (usize, usize, u64),
}

fn observe(dir: &Path) -> Observed {
    let facts = |store: CacheStore| {
        let stats = store.stats();
        (
            stats.corrupt_records,
            stats.corrupt_tail_bytes,
            stats.records_loaded,
        )
    };
    let strict = match CacheStore::open(dir, 1) {
        Ok(store) => Ok(facts(store)),
        Err(StoreError::CorruptRecord {
            offset,
            valid_before,
            valid_after,
        }) => Err((offset, valid_before, valid_after)),
        Err(other) => panic!("unexpected open error {other}"),
    };
    let tolerant = facts(CacheStore::open_tolerant(dir, 1).unwrap());
    let VerifyReport {
        valid_records,
        checksum_failures,
        corrupt_tail_bytes,
        ..
    } = verify_ns(dir, "cache").unwrap();
    Observed {
        strict,
        tolerant,
        verify: (valid_records, checksum_failures, corrupt_tail_bytes),
    }
}

/// What the serial record-by-record scan reports when record `bad` of
/// records starting at `starts` fails its checksum and, with `cut`, the
/// last record lost its final `cut` bytes. A failed record followed by
/// a valid one is mid-log corruption; failed records with nothing valid
/// after them are tail damage, like a cut record.
fn expected(starts: &[usize], file_len: usize, bad: usize, cut: usize) -> Observed {
    let n = starts.len();
    // Records whose framing still reads: all, or all but a cut last.
    let framed = if cut > 0 { n - 1 } else { n };
    let end = |i: usize| if i + 1 < n { starts[i + 1] } else { file_len };
    let valid: Vec<usize> = (0..framed).filter(|&i| i != bad).collect();
    let tail_from = valid.last().map_or(MAGIC_LEN, |&i| end(i));
    let tail = (file_len - tail_from) as u64;
    let mid_log = bad < framed && valid.last().is_some_and(|&last| last > bad);
    let corrupt_records = usize::from(mid_log);
    let tolerant = (corrupt_records, tail, valid.len());
    let strict = if mid_log {
        Err((starts[bad] as u64, bad, valid.len() - bad))
    } else {
        Ok(tolerant)
    };
    let failures = usize::from(bad < framed);
    let framed_end = if framed == 0 {
        MAGIC_LEN
    } else {
        end(framed - 1)
    };
    Observed {
        strict,
        tolerant,
        verify: (valid.len(), failures, (file_len - framed_end) as u64),
    }
}

#[test]
fn one_flipped_payload_byte_is_judged_like_the_serial_scan() {
    // Lengths out of order, with ties, so length order and log order
    // differ and every group of four mixes short and long payloads.
    const LENS: [usize; 9] = [829, 5_379, 1, 13_025, 64, 829, 2_048, 7, 300];
    let dir = TempDir::new("matrix");
    for n in 1..=LENS.len() {
        let _ = std::fs::remove_dir_all(&dir.0);
        let mut store = CacheStore::open(&dir.0, 1).unwrap();
        for (i, &len) in LENS[..n].iter().enumerate() {
            store.insert(key(i), payload(len, i as u64 + 1));
        }
        store.flush().unwrap();
        drop(store);
        let pristine = std::fs::read(dir.log()).unwrap();
        let mut starts = Vec::with_capacity(n);
        let mut at = MAGIC_LEN;
        for &len in &LENS[..n] {
            starts.push(at);
            at += HEADER + len + TRAILER;
        }
        assert_eq!(at, pristine.len());
        for bad in 0..n {
            // Flip the middle byte of record `bad`'s payload.
            let mut log = pristine.clone();
            log[starts[bad] + HEADER + LENS[bad] / 2] ^= 0x5A;
            for cut in [0, 3] {
                let damaged = &log[..log.len() - cut];
                std::fs::write(dir.log(), damaged).unwrap();
                assert_eq!(
                    observe(&dir.0),
                    expected(&starts, damaged.len(), bad, cut),
                    "{n} record(s), record {bad} flipped, last {cut} byte(s) cut"
                );
            }
        }
    }
}
