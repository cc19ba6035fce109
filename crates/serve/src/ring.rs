//! A bounded in-memory journal of served `/mine` verdicts.
//!
//! Every `/mine` request pushes one [`ExplainRecord`]; `GET
//! /explain/<fingerprint>` answers from this ring without re-running
//! anything. The ring is fixed-capacity — the oldest record is evicted
//! on overflow, so a resident server's memory stays bounded no matter
//! how long it runs — and records carry a monotone sequence number so
//! a client can tell a re-served fingerprint from a stale scrape.

use crate::json::Json;
use std::collections::VecDeque;

/// One served `/mine` or `/mine-repo` verdict, kept for `/explain`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExplainRecord {
    /// Monotone per-server sequence number (1-based).
    pub seq: u64,
    /// The admission-assigned id of the request that produced this
    /// verdict — the same id the access log and quarantine provenance
    /// carry, so one grep joins a verdict to its request record.
    pub request_id: u64,
    /// Content fingerprint of the `(old, new)` pair.
    pub fingerprint: String,
    /// `"mined"` or `"quarantined"`.
    pub verdict: &'static str,
    /// Cache status of the lookup: `hit`, `miss`, `stale_version`, or
    /// `off`.
    pub cache: &'static str,
    /// The tuple digest texts ([`diffcode::cli::write_usage_digest`]).
    pub tuples: Vec<String>,
    /// For quarantined verdicts: `(kind, error, excerpt)` provenance.
    pub skip: Option<(String, String, String)>,
}

impl ExplainRecord {
    /// The `skip` provenance as served: an object, or `null` for a
    /// mined verdict.
    pub(crate) fn skip_json(&self) -> Json {
        match &self.skip {
            Some((kind, error, excerpt)) => Json::Obj(vec![
                ("kind".to_owned(), Json::Str(kind.clone())),
                ("error".to_owned(), Json::Str(error.clone())),
                ("excerpt".to_owned(), Json::Str(excerpt.clone())),
            ]),
            None => Json::Null,
        }
    }

    /// The JSON rendering served by `/explain`.
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seq".to_owned(), Json::Num(self.seq as f64)),
            ("request_id".to_owned(), Json::Num(self.request_id as f64)),
            (
                "fingerprint".to_owned(),
                Json::Str(self.fingerprint.clone()),
            ),
            ("verdict".to_owned(), Json::Str(self.verdict.to_owned())),
            ("cache".to_owned(), Json::Str(self.cache.to_owned())),
            (
                "tuples".to_owned(),
                Json::Arr(self.tuples.iter().cloned().map(Json::Str).collect()),
            ),
            ("skip".to_owned(), self.skip_json()),
        ])
    }
}

/// The bounded verdict journal.
#[derive(Debug)]
pub(crate) struct ExplainRing {
    capacity: usize,
    next_seq: u64,
    records: VecDeque<ExplainRecord>,
}

impl ExplainRing {
    /// A ring holding at most `capacity` records (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        ExplainRing {
            capacity: capacity.max(1),
            next_seq: 1,
            records: VecDeque::new(),
        }
    }

    /// Appends a record (evicting the oldest at capacity) and returns
    /// its sequence number.
    pub(crate) fn push(&mut self, mut record: ExplainRecord) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        record.seq = seq;
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record);
        seq
    }

    /// The most records the ring retains.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Takes the next sequence number for a record that is not
    /// retained: one at least `capacity` later pushes of the same batch
    /// evict before anything can read it. The ring ends the batch as if
    /// the record had been pushed.
    pub(crate) fn pass(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// All records whose fingerprint starts with `prefix`, newest
    /// first.
    pub(crate) fn find(&self, prefix: &str) -> Vec<&ExplainRecord> {
        self.records
            .iter()
            .rev()
            .filter(|r| r.fingerprint.starts_with(prefix))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ExplainRing {
        /// Records currently retained.
        fn len(&self) -> usize {
            self.records.len()
        }
    }

    fn record(fp: &str) -> ExplainRecord {
        ExplainRecord {
            seq: 0,
            request_id: 7,
            fingerprint: fp.to_owned(),
            verdict: "mined",
            cache: "off",
            tuples: vec!["Cipher|...".to_owned()],
            skip: None,
        }
    }

    #[test]
    fn push_assigns_monotone_seqs_and_evicts_oldest() {
        let mut ring = ExplainRing::new(2);
        assert_eq!(ring.push(record("aa11")), 1);
        assert_eq!(ring.push(record("aa22")), 2);
        assert_eq!(ring.push(record("bb33")), 3);
        assert_eq!(ring.len(), 2);
        assert!(ring.find("aa11").is_empty(), "oldest evicted");
        let matches = ring.find("aa");
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].seq, 2);
    }

    #[test]
    fn find_matches_prefixes_newest_first() {
        let mut ring = ExplainRing::new(8);
        ring.push(record("cafe01"));
        ring.push(record("cafe02"));
        ring.push(record("beef01"));
        let matches = ring.find("cafe");
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].fingerprint, "cafe02");
        assert_eq!(matches[1].fingerprint, "cafe01");
        assert!(ring.find("").len() == 3, "empty prefix matches all");
    }

    #[test]
    fn records_render_as_json() {
        let mut rec = record("cafe");
        rec.skip = Some(("parse".to_owned(), "boom".to_owned(), "class ".to_owned()));
        let json = rec.to_json().render();
        assert!(json.contains("\"fingerprint\":\"cafe\""));
        assert!(json.contains("\"kind\":\"parse\""));
        assert!(json.contains("\"request_id\":7"), "{json}");
    }
}
