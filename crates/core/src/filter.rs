//! The four filters of §4.2: `fsame`, `fadd`, `frem`, `fdup`, applied
//! in that order, with per-stage survivor counts (Figure 6).

use crate::decision::{record_decision, DecisionReason};
use crate::pipeline::MinedUsageChange;
use obs::Recorder;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Which filter stage removed a usage change (or none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterStage {
    /// Removed by `fsame` (no features added or removed).
    FSame,
    /// Removed by `fadd` (pure addition).
    FAdd,
    /// Removed by `frem` (pure removal).
    FRem,
    /// Removed by `fdup` (duplicate of an earlier change).
    FDup,
    /// Survived all filters.
    Remaining,
}

/// Survivor counts after each stage (one Figure 6 row, minus the class
/// name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Usage changes before filtering.
    pub total: usize,
    /// Remaining after `fsame`.
    pub after_fsame: usize,
    /// Remaining after `fadd`.
    pub after_fadd: usize,
    /// Remaining after `frem`.
    pub after_frem: usize,
    /// Remaining after `fdup`.
    pub after_fdup: usize,
}

impl FilterStats {
    /// `true` when the funnel invariant holds:
    /// `total ≥ after_fsame ≥ after_fadd ≥ after_frem ≥ after_fdup`.
    /// Asserted in debug builds at the filter stage boundary.
    pub fn is_monotone(&self) -> bool {
        self.total >= self.after_fsame
            && self.after_fsame >= self.after_fadd
            && self.after_fadd >= self.after_frem
            && self.after_frem >= self.after_fdup
    }

    /// Publishes the funnel as `filter.*` counters so metrics snapshots
    /// reconcile exactly with Figure 6.
    pub(crate) fn record(&self, registry: &mut Recorder) {
        registry.inc("filter.total", self.total as u64);
        registry.inc("filter.after_fsame", self.after_fsame as u64);
        registry.inc("filter.after_fadd", self.after_fadd as u64);
        registry.inc("filter.after_frem", self.after_frem as u64);
        registry.inc("filter.after_fdup", self.after_fdup as u64);
    }
}

/// A dedup key: a 128-bit fingerprint of the usage change's class and
/// feature sets.
///
/// Fingerprinting (two independent deterministic `SipHash` passes)
/// replaces the earlier owned `(String, Vec<FeaturePath>, Vec<FeaturePath>)`
/// key, which cloned all three fields for every staged change. The two
/// halves are domain-separated, so a collision requires two distinct
/// changes to collide under both keyed hashes at once (~2⁻¹²⁸ per
/// pair) — negligible against corpus-scale dedup sets.
pub(crate) type DupKey = (u64, u64);

/// Caller-owned `fdup` state: each key maps to the *change fingerprint*
/// ([`crate::pipeline::ChangeMeta::fingerprint`]) of its first
/// occurrence, which is what a later duplicate's
/// `DecisionReason::DupOf` decision names. (A plain set would suffice
/// for staging alone; the map is what makes `dup_of(<fingerprint>)`
/// provenance possible.)
pub type SeenDups = BTreeMap<DupKey, String>;

fn dup_key(change: &MinedUsageChange) -> DupKey {
    let fields = (&change.class, &change.change.removed, &change.change.added);
    let mut h1 = DefaultHasher::new();
    fields.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    0xD1FF_C0DEu64.hash(&mut h2);
    fields.hash(&mut h2);
    (h1.finish(), h2.finish())
}

/// The counter names of the filtering funnel, in pipeline order — what
/// `FilterStats::record` publishes. Shared by the metrics report, the
/// invariant checks, and the CI snapshot checker (which re-implements
/// the same chain over the JSON snapshot).
pub const FILTER_FUNNEL: [&str; 5] = [
    "filter.total",
    "filter.after_fsame",
    "filter.after_fadd",
    "filter.after_frem",
    "filter.after_fdup",
];

/// Tags every change with the stage that removes it. `seen` is the
/// caller-owned `fdup` state: staging several batches with one shared
/// map yields exactly the stages a single concatenated run would (a
/// change is a duplicate if *any* earlier batch already produced its
/// key), which is how the paper dedups corpus-wide. Pass a fresh
/// [`SeenDups`] to dedup within this call only.
pub fn stage_changes<'a>(
    changes: &'a [MinedUsageChange],
    seen: &mut SeenDups,
) -> Vec<(FilterStage, &'a MinedUsageChange)> {
    changes
        .iter()
        .map(|c| {
            let stage = if c.change.is_same() {
                FilterStage::FSame
            } else if c.change.is_pure_addition() {
                FilterStage::FAdd
            } else if c.change.is_pure_removal() {
                FilterStage::FRem
            } else {
                match seen.entry(dup_key(c)) {
                    std::collections::btree_map::Entry::Occupied(_) => FilterStage::FDup,
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(c.meta.fingerprint.clone());
                        FilterStage::Remaining
                    }
                }
            };
            (stage, c)
        })
        .collect()
}

/// Applies the filters with caller-owned `fdup` state (see
/// [`stage_changes`]), returning the surviving changes and the
/// per-stage statistics. `changes` is only borrowed: the filters drop
/// most usage changes (`fsame` alone removes the vast majority), so
/// only the survivors are cloned.
///
/// Records the `filter.apply` span and the `filter.*` funnel counters
/// into `rec`. When `rec` traces, the span carries one decision event
/// per usage change — `kept`, `filtered(refactoring|pure_addition|pure_removal)`,
/// or `dup_of(<fingerprint>)` naming the first occurrence the duplicate
/// collapsed into — whose `index` attribute is the change's position
/// in `changes`.
pub fn apply_filters(
    changes: &[MinedUsageChange],
    seen: &mut SeenDups,
    rec: &mut Recorder,
) -> (Vec<MinedUsageChange>, FilterStats) {
    let span = rec.begin_with("filter.apply", |a| {
        a.u64("changes", changes.len() as u64);
    });
    let staged = stage_changes(changes, seen);
    if rec.is_traced() {
        for (idx, (stage, change)) in staged.iter().enumerate() {
            let reason = match stage {
                FilterStage::FSame => DecisionReason::FilteredRefactoring,
                FilterStage::FAdd => DecisionReason::FilteredPureAddition,
                FilterStage::FRem => DecisionReason::FilteredPureRemoval,
                FilterStage::FDup => {
                    DecisionReason::DupOf(seen.get(&dup_key(change)).cloned().unwrap_or_default())
                }
                FilterStage::Remaining => DecisionReason::Kept,
            };
            record_decision(rec, &change.meta, &reason, |a| {
                a.u64("index", idx as u64);
                a.str("class", change.class.as_str());
            });
        }
    }
    let mut stats = FilterStats {
        total: changes.len(),
        ..FilterStats::default()
    };
    let mut kept = Vec::new();
    for (stage, change) in staged {
        match stage {
            FilterStage::FSame => {}
            FilterStage::FAdd => stats.after_fsame += 1,
            FilterStage::FRem => {
                stats.after_fsame += 1;
                stats.after_fadd += 1;
            }
            FilterStage::FDup => {
                stats.after_fsame += 1;
                stats.after_fadd += 1;
                stats.after_frem += 1;
            }
            FilterStage::Remaining => {
                stats.after_fsame += 1;
                stats.after_fadd += 1;
                stats.after_frem += 1;
                stats.after_fdup += 1;
                kept.push(change.clone());
            }
        }
    }
    debug_assert!(stats.is_monotone(), "filter funnel not monotone: {stats:?}");
    debug_assert_eq!(
        stats.after_fdup,
        kept.len(),
        "survivors must equal after_fdup"
    );
    rec.end(span);
    stats.record(rec);
    debug_assert!(obs::check_funnel(rec, &FILTER_FUNNEL).is_ok());
    (kept, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ChangeMeta;
    use std::collections::BTreeSet;
    use usagegraph::{FeaturePath, UsageChange, UsageDag};

    /// One unobserved filter run with fresh `fdup` state.
    fn filter(changes: &[MinedUsageChange]) -> (Vec<MinedUsageChange>, FilterStats) {
        apply_filters(changes, &mut SeenDups::new(), &mut Recorder::new())
    }

    fn mk(class: &str, removed: &[&str], added: &[&str]) -> MinedUsageChange {
        let path = |s: &&str| FeaturePath(vec![class.into(), (*s).into()]);
        MinedUsageChange::new(
            ChangeMeta {
                project: "u/p".into(),
                commit: "c".into(),
                author: String::new(),
                message: String::new(),
                path: "A.java".into(),
                fingerprint: format!("fp:{class}:{removed:?}->{added:?}"),
            },
            class.to_owned(),
            UsageDag::empty(class),
            UsageDag::empty(class),
            UsageChange {
                class: class.to_owned(),
                removed: removed.iter().map(path).collect(),
                added: added.iter().map(path).collect(),
            },
        )
    }

    #[test]
    fn filters_apply_in_order() {
        let changes = vec![
            mk("Cipher", &[], &[]),       // fsame
            mk("Cipher", &[], &["x"]),    // fadd
            mk("Cipher", &["y"], &[]),    // frem
            mk("Cipher", &["a"], &["b"]), // remaining
            mk("Cipher", &["a"], &["b"]), // fdup
            mk("Cipher", &["a"], &["c"]), // remaining
        ];
        let (kept, stats) = filter(&changes);
        assert_eq!(stats.total, 6);
        assert_eq!(stats.after_fsame, 5);
        assert_eq!(stats.after_fadd, 4);
        assert_eq!(stats.after_frem, 3);
        assert_eq!(stats.after_fdup, 2);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn duplicate_detection_is_class_scoped() {
        let changes = vec![
            mk("Cipher", &["a"], &["b"]),
            mk("MessageDigest", &["a"], &["b"]),
        ];
        let (kept, _) = filter(&changes);
        assert_eq!(
            kept.len(),
            2,
            "same features on different classes are distinct"
        );
    }

    #[test]
    fn empty_input() {
        let (kept, stats) = filter(&[]);
        assert!(kept.is_empty());
        assert_eq!(stats, FilterStats::default());
    }

    /// The pre-fingerprint dedup key: clones class + both feature sets.
    /// Retained here as the specification the hash key must agree with.
    fn reference_key(change: &MinedUsageChange) -> (String, Vec<FeaturePath>, Vec<FeaturePath>) {
        (
            change.class.clone(),
            change.change.removed.clone(),
            change.change.added.clone(),
        )
    }

    #[test]
    fn hash_key_dedups_identically_to_cloning_key() {
        // A battery with every collision-relevant shape: exact dups,
        // class-only differences, removed/added swaps, prefix overlap.
        let changes = vec![
            mk("Cipher", &["a"], &["b"]),
            mk("Cipher", &["a"], &["b"]),        // dup of 0
            mk("MessageDigest", &["a"], &["b"]), // other class
            mk("Cipher", &["b"], &["a"]),        // swapped sides
            mk("Cipher", &["a", "b"], &["c"]),
            mk("Cipher", &["a"], &["b", "c"]),
            mk("Cipher", &["a", "b"], &["c"]), // dup of 4
            mk("Cipher", &[], &["b"]),         // fadd, never keyed
            mk("Cipher", &["x"], &["b"]),
        ];
        let mut by_reference = BTreeSet::new();
        let mut by_hash = BTreeSet::new();
        for c in &changes {
            if c.change.is_same() || c.change.is_pure_addition() || c.change.is_pure_removal() {
                continue;
            }
            assert_eq!(
                by_reference.insert(reference_key(c)),
                by_hash.insert(dup_key(c)),
                "keys disagree on {c:?}"
            );
        }
        // And end-to-end: the staging decisions match the reference.
        let staged = stage_changes(&changes, &mut SeenDups::new());
        let expected = [
            FilterStage::Remaining,
            FilterStage::FDup,
            FilterStage::Remaining,
            FilterStage::Remaining,
            FilterStage::Remaining,
            FilterStage::Remaining,
            FilterStage::FDup,
            FilterStage::FAdd,
            FilterStage::Remaining,
        ];
        let got: Vec<FilterStage> = staged.iter().map(|(s, _)| *s).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn shared_seen_dedups_across_batches_like_one_run() {
        let all = vec![
            mk("Cipher", &["a"], &["b"]),
            mk("Cipher", &["c"], &["d"]),
            mk("Cipher", &["a"], &["b"]), // dup of batch 1's first
            mk("Cipher", &["e"], &["f"]),
            mk("Cipher", &["c"], &["d"]), // dup of batch 1's second
        ];
        let one_shot: Vec<FilterStage> = stage_changes(&all, &mut SeenDups::new())
            .iter()
            .map(|(s, _)| *s)
            .collect();

        let mut seen = SeenDups::new();
        let mut batched = Vec::new();
        for batch in all.chunks(2) {
            batched.extend(stage_changes(batch, &mut seen).iter().map(|(s, _)| *s));
        }
        assert_eq!(batched, one_shot);

        // Fresh sets per batch would *not* reproduce the one-shot run —
        // the cross-batch duplicates would survive.
        let mut per_batch = Vec::new();
        for batch in all.chunks(2) {
            per_batch.extend(
                stage_changes(batch, &mut SeenDups::new())
                    .iter()
                    .map(|(s, _)| *s),
            );
        }
        assert_ne!(per_batch, one_shot, "test must exercise cross-batch dups");
    }

    #[test]
    fn batched_apply_filters_with_shared_seen_matches_concatenated_run() {
        let all = vec![
            mk("Cipher", &["a"], &["b"]),
            mk("Cipher", &[], &[]),
            mk("Cipher", &["a"], &["b"]),
            mk("Cipher", &["c"], &["d"]),
            mk("Cipher", &["a"], &["b"]),
        ];
        let (kept_once, stats_once) = filter(&all);

        let mut seen = SeenDups::new();
        let mut kept_batched = Vec::new();
        let mut totals = FilterStats::default();
        for batch in all.chunks(2) {
            let (kept, stats) = apply_filters(batch, &mut seen, &mut Recorder::new());
            kept_batched.extend(kept);
            totals.total += stats.total;
            totals.after_fsame += stats.after_fsame;
            totals.after_fadd += stats.after_fadd;
            totals.after_frem += stats.after_frem;
            totals.after_fdup += stats.after_fdup;
        }
        assert_eq!(kept_batched, kept_once);
        assert_eq!(totals, stats_once);
    }

    /// `apply_filters` as it was when it took its input by value and
    /// moved the survivors out, minus the metrics it records: the
    /// reference the borrowing version must match in survivors, stats
    /// and trace.
    fn owned_reference(
        changes: Vec<MinedUsageChange>,
        seen: &mut SeenDups,
        trace: &mut Recorder,
    ) -> (Vec<MinedUsageChange>, FilterStats) {
        let span = trace.begin_with("filter.apply", |a| {
            a.u64("changes", changes.len() as u64);
        });
        let stages: Vec<FilterStage> = stage_changes(&changes, seen)
            .into_iter()
            .map(|(stage, _)| stage)
            .collect();
        for (idx, (stage, change)) in stages.iter().zip(&changes).enumerate() {
            let reason = match stage {
                FilterStage::FSame => DecisionReason::FilteredRefactoring,
                FilterStage::FAdd => DecisionReason::FilteredPureAddition,
                FilterStage::FRem => DecisionReason::FilteredPureRemoval,
                FilterStage::FDup => {
                    DecisionReason::DupOf(seen.get(&dup_key(change)).cloned().unwrap_or_default())
                }
                FilterStage::Remaining => DecisionReason::Kept,
            };
            record_decision(trace, &change.meta, &reason, |a| {
                a.u64("index", idx as u64);
                a.str("class", change.class.as_str());
            });
        }
        let mut stats = FilterStats {
            total: changes.len(),
            ..FilterStats::default()
        };
        let mut kept = Vec::new();
        for (change, stage) in changes.into_iter().zip(stages) {
            let passed = match stage {
                FilterStage::FSame => 0,
                FilterStage::FAdd => 1,
                FilterStage::FRem => 2,
                FilterStage::FDup => 3,
                FilterStage::Remaining => 4,
            };
            let counters = [
                &mut stats.after_fsame,
                &mut stats.after_fadd,
                &mut stats.after_frem,
                &mut stats.after_fdup,
            ];
            for counter in counters.into_iter().take(passed) {
                *counter += 1;
            }
            if stage == FilterStage::Remaining {
                kept.push(change);
            }
        }
        trace.end(span);
        (kept, stats)
    }

    /// Trace events without their timestamps.
    fn untimed(rec: &Recorder) -> Vec<String> {
        let trace = rec.trace().expect("traced");
        trace
            .events()
            .iter()
            .map(|e| {
                let attrs: Vec<String> = e
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("{}={v:?}", trace.name(*k)))
                    .collect();
                format!(
                    "{} {:?} {} {:?} {:?} {}",
                    e.seq,
                    e.kind,
                    trace.name(e.name),
                    e.span,
                    e.parent,
                    attrs.join(",")
                )
            })
            .collect()
    }

    #[test]
    fn borrowed_filters_match_the_owned_reference() {
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(8, 42));
        let mut mined = crate::DiffCode::new().mine(&corpus, &[], None).changes;
        // A corpus this small neither removes a usage outright nor
        // repeats a fix: append a pure removal and a second copy of
        // every survivor, so each stage rules on some change.
        let survivors = filter(&mined).0;
        mined.push(mk("Cipher", &["y"], &[]));
        mined.extend(survivors);
        // Two batches sharing `fdup` state, so the copies in the second
        // batch are duplicates of changes in the first.
        let (first, second) = mined.split_at(mined.len() / 2);
        let (mut seen, mut seen_ref) = (SeenDups::new(), SeenDups::new());
        let (mut trace, mut trace_ref) = (Recorder::traced(1), Recorder::traced(1));
        let mut stages_seen = std::collections::HashSet::new();
        for batch in [first, second] {
            let (kept, stats) = apply_filters(batch, &mut seen, &mut trace);
            let (kept_ref, stats_ref) =
                owned_reference(batch.to_vec(), &mut seen_ref, &mut trace_ref);
            assert_eq!(kept, kept_ref);
            assert_eq!(stats, stats_ref);
        }
        stages_seen.extend(
            stage_changes(&mined, &mut SeenDups::new())
                .into_iter()
                .map(|(s, _)| s),
        );
        assert_eq!(seen, seen_ref);
        assert_eq!(untimed(&trace), untimed(&trace_ref));
        assert_eq!(
            stages_seen.len(),
            5,
            "every stage rules at least once: {stages_seen:?}"
        );
    }

    #[test]
    fn metrics_variant_publishes_the_funnel() {
        let changes = vec![
            mk("Cipher", &[], &[]),
            mk("Cipher", &["a"], &["b"]),
            mk("Cipher", &["a"], &["b"]),
        ];
        let mut reg = Recorder::new();
        let (kept, stats) = apply_filters(&changes, &mut SeenDups::new(), &mut reg);
        assert_eq!(kept.len(), 1);
        assert_eq!(reg.counter("filter.total"), stats.total as u64);
        assert_eq!(reg.counter("filter.after_fdup"), stats.after_fdup as u64);
        assert!(reg.span("filter.apply").is_some());
        obs::check_funnel(&reg, &FILTER_FUNNEL).unwrap();
    }
}
