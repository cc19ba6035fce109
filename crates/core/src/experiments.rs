//! Drivers that regenerate every table and figure of the paper's
//! evaluation (§6). Each `figure*` method returns structured rows plus
//! a rendered text table, so tests can assert on the shape and the
//! bench binaries can print the table.

use crate::elicit::{elicit, render_dendrogram, Elicitation};
use crate::filter::{apply_filters, stage_changes, FilterStage, FilterStats, SeenDups};
use crate::pipeline::{mine_parallel, DiffCode, MineOptions, MinedUsageChange, MiningResult};
use crate::report::Table;
use analysis::TARGET_CLASSES;
use corpus::Corpus;
use rules::{
    all_rules, classify_dag_pair, cryptolint_rules, ChangeClass, CheckedProject, CryptoChecker,
    ProjectContext, RuleStats,
};
use std::collections::BTreeMap;

/// A corpus mined once, shared by the per-figure drivers.
#[derive(Debug)]
pub struct Experiments {
    /// The corpus under study.
    pub corpus: Corpus,
    mining: MiningResult,
    pipeline: DiffCode,
    metrics: obs::MetricsRegistry,
}

impl Experiments {
    /// Mines `corpus` for all six target classes, using one worker per
    /// available core.
    pub fn new(corpus: Corpus) -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut metrics = obs::MetricsRegistry::new();
        corpus::corpus_stats(&corpus).record(&mut metrics);
        let opts = MineOptions {
            threads,
            ..MineOptions::default()
        };
        let mining = mine_parallel(
            &corpus,
            &[],
            opts,
            &mut metrics,
            &mut obs::TraceSink::disabled(),
        );
        Experiments {
            corpus,
            mining,
            pipeline: DiffCode::new(),
            metrics,
        }
    }

    /// The observability registry from mining (merged across worker
    /// shards): `mine.*` counters, the `mine.run`/`mine.change` spans,
    /// and the `corpus.*` gauges. The bench binaries report timings
    /// from these spans instead of their own ad-hoc clocks.
    pub fn metrics(&self) -> &obs::MetricsRegistry {
        &self.metrics
    }

    /// All mined usage changes.
    pub fn mined_changes(&self) -> &[MinedUsageChange] {
        &self.mining.changes
    }

    /// Number of code changes processed.
    pub fn code_changes(&self) -> usize {
        self.mining.stats.code_changes
    }

    /// The mined usage changes of one target class after the four
    /// filters, with the class's funnel statistics.
    fn filtered_class(&self, class: &str) -> (Vec<MinedUsageChange>, FilterStats) {
        let class_changes: Vec<MinedUsageChange> = self
            .mining
            .changes
            .iter()
            .filter(|c| c.class == class)
            .cloned()
            .collect();
        apply_filters(
            &class_changes,
            &mut SeenDups::new(),
            &mut obs::MetricsRegistry::new(),
            &mut obs::TraceSink::disabled(),
        )
    }

    // ------------------------------------------------------------------
    // Figure 6
    // ------------------------------------------------------------------

    /// Figure 6: per target class, usage-change counts after each
    /// filtering stage.
    pub fn figure6(&self) -> Vec<Figure6Row> {
        TARGET_CLASSES
            .iter()
            .map(|class| Figure6Row {
                class: (*class).to_owned(),
                stats: self.filtered_class(class).1,
            })
            .collect()
    }

    /// Renders Figure 6 as a text table.
    pub fn figure6_table(&self) -> String {
        let mut table = Table::new([
            "Target API Class",
            "Usage Changes",
            "fsame",
            "fadd",
            "frem",
            "fdup",
        ]);
        for row in self.figure6() {
            table.row([
                row.class.clone(),
                row.stats.total.to_string(),
                row.stats.after_fsame.to_string(),
                row.stats.after_fadd.to_string(),
                row.stats.after_frem.to_string(),
                row.stats.after_fdup.to_string(),
            ]);
        }
        table.render()
    }

    // ------------------------------------------------------------------
    // Figure 7
    // ------------------------------------------------------------------

    /// Figure 7: per CryptoLint rule, fix/bug/none classification of
    /// the usage changes, and how many of each are removed by each
    /// filter.
    ///
    /// Classification follows the paper (§6.2): a change is a fix/bug
    /// if the rule's trigger state flips at the level of the whole
    /// *program version pair*; the flip is then attributed to the usage
    /// changes whose own object-level state flipped the same way.
    /// (Adding one more insecure usage to a program that already
    /// violates the rule is a non-semantic change with respect to it.)
    pub fn figure7(&self) -> Vec<Figure7Row> {
        let staged = stage_changes(&self.mining.changes, &mut SeenDups::new());
        // Group usage changes by (code change, class) to evaluate the
        // program-level trigger state.
        let mut groups: BTreeMap<(String, String, String, String), Vec<usize>> = BTreeMap::new();
        for (idx, change) in self.mining.changes.iter().enumerate() {
            groups
                .entry((
                    change.meta.project.clone(),
                    change.meta.commit.clone(),
                    change.meta.path.clone(),
                    change.class.clone(),
                ))
                .or_default()
                .push(idx);
        }

        cryptolint_rules()
            .into_iter()
            .map(|rule| {
                let clause = &rule.positive[0];
                // Program-level classification per code change.
                let mut program_class: Vec<ChangeClass> =
                    vec![ChangeClass::NonSemantic; self.mining.changes.len()];
                for members in groups.values() {
                    if self.mining.changes[members[0]].class != rule.subject_class() {
                        continue;
                    }
                    let old_triggers = members.iter().any(|&i| {
                        rules::clause_triggers(clause, &self.mining.changes[i].old_dag())
                    });
                    let new_triggers = members.iter().any(|&i| {
                        rules::clause_triggers(clause, &self.mining.changes[i].new_dag())
                    });
                    let program = match (old_triggers, new_triggers) {
                        (true, false) => ChangeClass::Fix,
                        (false, true) => ChangeClass::Bug,
                        _ => ChangeClass::NonSemantic,
                    };
                    for &i in members {
                        program_class[i] = program;
                    }
                }

                let mut cells: BTreeMap<ChangeClass, Figure7Cell> = BTreeMap::from([
                    (ChangeClass::Fix, Figure7Cell::default()),
                    (ChangeClass::Bug, Figure7Cell::default()),
                    (ChangeClass::NonSemantic, Figure7Cell::default()),
                ]);
                for (idx, (stage, change)) in staged.iter().enumerate() {
                    if change.class != rule.subject_class() {
                        continue;
                    }
                    let object = classify_dag_pair(&rule, &change.old_dag(), &change.new_dag());
                    let class = if object == program_class[idx] {
                        object
                    } else {
                        ChangeClass::NonSemantic
                    };
                    let cell = cells.get_mut(&class).expect("all classes present");
                    cell.total += 1;
                    match stage {
                        FilterStage::FSame => cell.fsame += 1,
                        FilterStage::FAdd => cell.fadd += 1,
                        FilterStage::FRem => cell.frem += 1,
                        FilterStage::FDup => cell.fdup += 1,
                        FilterStage::Remaining => cell.remaining += 1,
                    }
                }
                Figure7Row {
                    rule_id: rule.id.clone(),
                    class: rule.subject_class().to_owned(),
                    fix: cells[&ChangeClass::Fix],
                    bug: cells[&ChangeClass::Bug],
                    none: cells[&ChangeClass::NonSemantic],
                }
            })
            .collect()
    }

    /// Renders Figure 7 as a text table.
    pub fn figure7_table(&self) -> String {
        let mut table = Table::new([
            "Rule",
            "Type",
            "Total",
            "fsame",
            "fadd",
            "frem",
            "fdup",
            "Remaining",
        ]);
        for row in self.figure7() {
            for (label, cell) in [("fix", row.fix), ("bug", row.bug), ("none", row.none)] {
                table.row([
                    row.rule_id.clone(),
                    label.to_owned(),
                    cell.total.to_string(),
                    cell.fsame.to_string(),
                    cell.fadd.to_string(),
                    cell.frem.to_string(),
                    cell.fdup.to_string(),
                    cell.remaining.to_string(),
                ]);
            }
        }
        table.render()
    }

    // ------------------------------------------------------------------
    // Figure 8
    // ------------------------------------------------------------------

    /// Figure 8: hierarchical clustering of the filtered usage changes
    /// for one target class (the paper shows `Cipher`).
    pub fn figure8(&self, class: &str, threshold: f64) -> Figure8Output {
        let (filtered, _) = self.filtered_class(class);
        let elicitation = elicit(&filtered, threshold);
        let rendering = render_dendrogram(&filtered, &elicitation.dendrogram);
        Figure8Output {
            filtered,
            elicitation,
            rendering,
        }
    }

    // ------------------------------------------------------------------
    // Figure 10
    // ------------------------------------------------------------------

    /// Builds the checker's view of each project (HEAD files analyzed).
    pub fn checked_projects(&mut self) -> Vec<CheckedProject> {
        let corpus = self.corpus.clone();
        corpus
            .projects
            .iter()
            .map(|project| CheckedProject {
                name: project.full_name(),
                usages: project
                    .head_files()
                    .values()
                    .filter_map(|src| self.pipeline.analyze_source(src).ok())
                    .map(|rc| (*rc).clone())
                    .collect(),
                context: ProjectContext {
                    min_sdk_version: project.facts.min_sdk_version,
                    has_lprng_fix: project.facts.has_lprng_fix,
                },
            })
            .collect()
    }

    /// Figure 10: CryptoChecker over the corpus projects.
    pub fn figure10(&mut self) -> Figure10Output {
        let projects = self.checked_projects();
        let checker = CryptoChecker::standard();
        let rows = checker.check_all(&projects);
        let any_violation = checker.projects_with_any_violation(&projects);
        Figure10Output {
            rows,
            total_projects: projects.len(),
            any_violation,
        }
    }
}

/// One Figure 6 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure6Row {
    /// Target API class.
    pub class: String,
    /// The filtering funnel.
    pub stats: FilterStats,
}

/// Counts for one (rule, change type) Figure 7 cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Figure7Cell {
    /// Usage changes of the rule's class with this classification.
    pub total: usize,
    /// Removed by `fsame`.
    pub fsame: usize,
    /// Removed by `fadd`.
    pub fadd: usize,
    /// Removed by `frem`.
    pub frem: usize,
    /// Removed by `fdup`.
    pub fdup: usize,
    /// Surviving all filters.
    pub remaining: usize,
}

/// One Figure 7 row (one CryptoLint rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure7Row {
    /// Oracle rule id (CL1–CL5).
    pub rule_id: String,
    /// The rule's subject class.
    pub class: String,
    /// Security fixes.
    pub fix: Figure7Cell,
    /// Buggy changes.
    pub bug: Figure7Cell,
    /// Non-semantic changes.
    pub none: Figure7Cell,
}

/// Figure 8 output.
#[derive(Debug)]
pub struct Figure8Output {
    /// The filtered changes that were clustered.
    pub filtered: Vec<MinedUsageChange>,
    /// Dendrogram and clusters.
    pub elicitation: Elicitation,
    /// ASCII rendering of the dendrogram.
    pub rendering: String,
}

/// Figure 10 output.
#[derive(Debug, Clone)]
pub struct Figure10Output {
    /// Per-rule statistics.
    pub rows: Vec<RuleStats>,
    /// Number of checked projects.
    pub total_projects: usize,
    /// Projects violating at least one rule.
    pub any_violation: usize,
}

impl Figure10Output {
    /// Renders the Figure 10 table.
    pub fn table(&self) -> String {
        let mut table = Table::new(["Rule", "Applicable (% of total)", "Matching (% of appl.)"]);
        for row in &self.rows {
            table.row([
                row.rule_id.clone(),
                format!(
                    "{} ({:.1}%)",
                    row.applicable,
                    row.applicable_pct(self.total_projects)
                ),
                format!("{} ({:.1}%)", row.matching, row.matching_pct()),
            ]);
        }
        table.render()
    }
}

/// Figure 9: the rule table itself, with the per-rule citations as
/// footnotes.
pub fn figure9_table() -> String {
    let mut table = Table::new(["ID", "Description", "Rule"]);
    let rules = all_rules();
    for rule in &rules {
        let display = rule.display.replace('\n', " ");
        table.row([rule.id.clone(), rule.description.clone(), display]);
    }
    let mut out = table.render();
    out.push_str("\nReferences:\n");
    for rule in &rules {
        for reference in &rule.references {
            out.push_str(&format!("  {:4} {reference}\n", rule.id));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::GeneratorConfig;

    fn small_experiments() -> Experiments {
        Experiments::new(corpus::generate(&GeneratorConfig::small(12, 2024)))
    }

    #[test]
    fn figure6_funnel_is_monotone() {
        let exp = small_experiments();
        let rows = exp.figure6();
        assert_eq!(rows.len(), 6);
        let mut any_changes = false;
        for row in &rows {
            let s = &row.stats;
            assert!(s.total >= s.after_fsame);
            assert!(s.after_fsame >= s.after_fadd);
            assert!(s.after_fadd >= s.after_frem);
            assert!(s.after_frem >= s.after_fdup);
            if s.total > 0 {
                any_changes = true;
                // Abstraction filters the overwhelming majority.
                assert!(
                    (s.after_fsame as f64) < 0.35 * s.total as f64,
                    "{}: {s:?}",
                    row.class
                );
            }
        }
        assert!(any_changes);
    }

    #[test]
    fn figure7_fixes_dominate_bugs() {
        let exp = Experiments::new(corpus::generate(&GeneratorConfig::small(150, 7)));
        let rows = exp.figure7();
        assert_eq!(rows.len(), 5);
        let fixes: usize = rows.iter().map(|r| r.fix.total).sum();
        let bugs: usize = rows.iter().map(|r| r.bug.total).sum();
        assert!(fixes > bugs, "fixes={fixes} bugs={bugs}");
        // Fixes survive filtering: fsame never removes a fix.
        for row in &rows {
            assert_eq!(row.fix.fsame, 0, "{row:?}");
            assert_eq!(row.bug.fsame, 0, "{row:?}");
        }
    }

    #[test]
    fn figure9_lists_thirteen_rules() {
        let table = figure9_table();
        for i in 1..=13 {
            assert!(table.contains(&format!("R{i}")), "{table}");
        }
    }

    #[test]
    fn figure10_majority_violates_something() {
        let mut exp = small_experiments();
        let out = exp.figure10();
        assert_eq!(out.total_projects, 12);
        assert!(
            out.any_violation * 100 / out.total_projects >= 57,
            "{}/{}",
            out.any_violation,
            out.total_projects
        );
        assert_eq!(out.rows.len(), 13);
        let table = out.table();
        assert!(table.contains("R1"));
    }
}
