//! Per-change decision provenance: the typed outcome each pipeline
//! stage records for every change it sees.
//!
//! Every change that enters a traced pipeline run produces exactly one
//! [`DecisionReason`] per stage that rules on it — one from mining
//! (mined vs. quarantined), one from filtering (kept vs. which filter
//! dropped it), and one from clustering (its cluster at the cut) when
//! it survived that far. Decision events are never sampled out
//! ([`obs::Recorder::decision_with`]), so per-reason counts reconcile
//! exactly with the recorder's funnel counters at any sampling rate —
//! the trace ≡ metrics invariant the tests pin.

use crate::pipeline::ChangeMeta;
use crate::quarantine::ErrorKind;
use obs::{AttrSet, Recorder};
use std::fmt;

/// The event name every decision record is emitted under.
pub const DECISION_EVENT: &str = "decision";

/// Why a pipeline stage ruled the way it did on one change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DecisionReason {
    /// Mining analyzed the change to completion.
    Mined,
    /// Mining skipped the change; the kind names the failing stage.
    Quarantined(ErrorKind),
    /// Dropped by `fsame`: no features changed (a refactoring under
    /// the abstraction).
    FilteredRefactoring,
    /// Dropped by `fadd`: a pure addition (new usage, nothing removed).
    FilteredPureAddition,
    /// Dropped by `frem`: a pure removal.
    FilteredPureRemoval,
    /// Dropped by `fdup`: a duplicate of the earlier change with this
    /// fingerprint.
    DupOf(String),
    /// Survived all four filters.
    Kept,
    /// Assigned to this cluster at the silhouette-optimal cut.
    Cluster(usize),
}

impl DecisionReason {
    /// Which pipeline stage emits this reason (`mine`, `filter`, or
    /// `cluster`) — the `stage` attribute of the decision event.
    pub(crate) fn stage(&self) -> &'static str {
        match self {
            DecisionReason::Mined | DecisionReason::Quarantined(_) => "mine",
            DecisionReason::FilteredRefactoring
            | DecisionReason::FilteredPureAddition
            | DecisionReason::FilteredPureRemoval
            | DecisionReason::DupOf(_)
            | DecisionReason::Kept => "filter",
            DecisionReason::Cluster(_) => "cluster",
        }
    }
}

impl fmt::Display for DecisionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionReason::Mined => write!(f, "mined"),
            DecisionReason::Quarantined(kind) => write!(f, "quarantined({})", kind.name()),
            DecisionReason::FilteredRefactoring => write!(f, "filtered(refactoring)"),
            DecisionReason::FilteredPureAddition => write!(f, "filtered(pure_addition)"),
            DecisionReason::FilteredPureRemoval => write!(f, "filtered(pure_removal)"),
            DecisionReason::DupOf(fingerprint) => write!(f, "dup_of({fingerprint})"),
            DecisionReason::Kept => write!(f, "kept"),
            DecisionReason::Cluster(id) => write!(f, "cluster({id})"),
        }
    }
}

/// Emits one decision event: stage + reason + full provenance
/// (project, commit, path, change fingerprint), plus any stage-specific
/// extras from `extra`. No-op on an untraced recorder.
pub(crate) fn record_decision(
    rec: &mut Recorder,
    meta: &ChangeMeta,
    reason: &DecisionReason,
    extra: impl FnOnce(&mut AttrSet),
) {
    rec.decision_with(DECISION_EVENT, |a| {
        a.str("stage", reason.stage());
        a.str("reason", reason.to_string());
        a.str("project", &meta.project);
        a.str("commit", &meta.commit);
        a.str("author", &meta.author);
        a.str("path", &meta.path);
        a.str("fingerprint", &meta.fingerprint);
        extra(a);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_render_their_typed_labels() {
        assert_eq!(DecisionReason::Mined.to_string(), "mined");
        assert_eq!(
            DecisionReason::Quarantined(ErrorKind::Lex).to_string(),
            "quarantined(lex)"
        );
        assert_eq!(
            DecisionReason::Quarantined(ErrorKind::AnalysisBudget).to_string(),
            "quarantined(analysis-budget)"
        );
        assert_eq!(
            DecisionReason::FilteredRefactoring.to_string(),
            "filtered(refactoring)"
        );
        assert_eq!(
            DecisionReason::FilteredPureAddition.to_string(),
            "filtered(pure_addition)"
        );
        assert_eq!(
            DecisionReason::FilteredPureRemoval.to_string(),
            "filtered(pure_removal)"
        );
        assert_eq!(
            DecisionReason::DupOf("00ab".into()).to_string(),
            "dup_of(00ab)"
        );
        assert_eq!(DecisionReason::Kept.to_string(), "kept");
        assert_eq!(DecisionReason::Cluster(3).to_string(), "cluster(3)");
    }

    #[test]
    fn stages_partition_the_reasons() {
        assert_eq!(DecisionReason::Mined.stage(), "mine");
        assert_eq!(
            DecisionReason::Quarantined(ErrorKind::Panic).stage(),
            "mine"
        );
        assert_eq!(DecisionReason::Kept.stage(), "filter");
        assert_eq!(DecisionReason::DupOf(String::new()).stage(), "filter");
        assert_eq!(DecisionReason::Cluster(0).stage(), "cluster");
    }

    #[test]
    fn record_decision_carries_full_provenance() {
        let meta = ChangeMeta {
            project: "u/p".into(),
            commit: "c1".into(),
            author: "a dev <dev@example.com>".into(),
            message: "fix".into(),
            path: "A.java".into(),
            fingerprint: "deadbeef".into(),
        };
        let mut rec = Recorder::traced(1);
        record_decision(&mut rec, &meta, &DecisionReason::Kept, |a| {
            a.u64("index", 4);
        });
        let sink = rec.trace().expect("traced");
        let [event] = sink.events() else {
            panic!("one event expected")
        };
        assert_eq!(event.kind, obs::TraceKind::Decision);
        assert_eq!(sink.attr_str(event, "stage"), Some("filter"));
        assert_eq!(sink.attr_str(event, "reason"), Some("kept"));
        assert_eq!(sink.attr_str(event, "project"), Some("u/p"));
        assert_eq!(sink.attr_str(event, "commit"), Some("c1"));
        assert_eq!(
            sink.attr_str(event, "author"),
            Some("a dev <dev@example.com>")
        );
        assert_eq!(sink.attr_str(event, "path"), Some("A.java"));
        assert_eq!(sink.attr_str(event, "fingerprint"), Some("deadbeef"));
        assert_eq!(
            sink.attr(event, "index").and_then(obs::TraceValue::as_u64),
            Some(4)
        );
    }
}
