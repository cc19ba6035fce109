//! Property-based tests over the core data structures and invariants.

use absdomain::AValue;
use cluster::{agglomerate, label_similarity, levenshtein, path_dist, paths_dist};
use proptest::prelude::*;
use usagegraph::matching::min_cost_assignment;
use usagegraph::{FeaturePath, UsageDag};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn avalue() -> impl Strategy<Value = AValue> {
    prop_oneof![
        any::<i64>().prop_map(AValue::Int),
        Just(AValue::TopInt),
        "[a-zA-Z/]{0,12}".prop_map(|s| AValue::Str(s.into())),
        Just(AValue::TopStr),
        Just(AValue::ConstByte),
        Just(AValue::TopByte),
        Just(AValue::ConstByteArray),
        Just(AValue::TopByteArray),
        any::<bool>().prop_map(AValue::Bool),
        Just(AValue::Null),
        Just(AValue::Unknown),
        ("[A-Z][a-zA-Z]{0,8}", "[A-Z_]{1,10}").prop_map(|(class, name)| AValue::ApiConst {
            class: class.into(),
            name: name.into(),
        }),
    ]
}

fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("getInstance".to_owned()),
        Just("init".to_owned()),
        Just("<init>".to_owned()),
        "arg[1-3]:[A-Za-z/\\-0-9]{1,14}",
        Just("arg1:\u{22a4}byte[]".to_owned()),
        Just("arg1:constbyte[]".to_owned()),
    ]
}

fn feature_path() -> impl Strategy<Value = FeaturePath> {
    proptest::collection::vec(label(), 1..5).prop_map(|mut labels| {
        labels.insert(0, "Cipher".to_owned());
        FeaturePath(labels.into_iter().map(usagegraph::Label::from).collect())
    })
}

fn usage_dag() -> impl Strategy<Value = UsageDag> {
    proptest::collection::btree_set(feature_path(), 0..8).prop_map(|mut paths| {
        paths.insert(FeaturePath(vec![usagegraph::Label::from("Cipher")]));
        UsageDag {
            root_type: "Cipher".into(),
            paths,
        }
    })
}

// ---------------------------------------------------------------------
// absdomain: join is a semilattice (on the value level)
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn join_is_idempotent(v in avalue()) {
        prop_assert_eq!(v.clone().join(v.clone()), v);
    }

    #[test]
    fn join_is_commutative(a in avalue(), b in avalue()) {
        prop_assert_eq!(a.clone().join(b.clone()), b.join(a));
    }

    #[test]
    fn join_is_associative(a in avalue(), b in avalue(), c in avalue()) {
        let left = a.clone().join(b.clone()).join(c.clone());
        let right = a.join(b.join(c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn join_absorbs_toward_top(a in avalue(), b in avalue()) {
        let joined = a.clone().join(b);
        // Joining again with one operand changes nothing.
        prop_assert_eq!(joined.clone().join(a), joined);
    }
}

// ---------------------------------------------------------------------
// Levenshtein / label similarity
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn levenshtein_is_a_metric(
        a in "[a-z]{0,12}",
        b in "[a-z]{0,12}",
        c in "[a-z]{0,12}",
    ) {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        let cv: Vec<char> = c.chars().collect();
        let ab = levenshtein(&av, &bv);
        let ba = levenshtein(&bv, &av);
        prop_assert_eq!(ab, ba, "symmetry");
        prop_assert_eq!(levenshtein(&av, &av), 0, "identity");
        let ac = levenshtein(&av, &cv);
        let cb = levenshtein(&cv, &bv);
        prop_assert!(ab <= ac + cb, "triangle: {} > {} + {}", ab, ac, cb);
        prop_assert!(ab <= av.len().max(bv.len()), "upper bound");
    }

    #[test]
    fn label_similarity_bounded_symmetric(a in label(), b in label()) {
        let ab = label_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - label_similarity(&b, &a)).abs() < 1e-12);
        prop_assert!((label_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------
// Path and path-set distances
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn path_dist_bounded_symmetric_identity(p in feature_path(), q in feature_path()) {
        let pq = path_dist(&p, &q);
        prop_assert!((0.0..=1.0).contains(&pq));
        prop_assert!((pq - path_dist(&q, &p)).abs() < 1e-12);
        prop_assert!(path_dist(&p, &p).abs() < 1e-12);
        if p != q {
            prop_assert!(pq > 0.0, "distinct paths have positive distance");
        }
    }

    #[test]
    fn paths_dist_zero_iff_permutation(
        paths in proptest::collection::vec(feature_path(), 0..5)
    ) {
        let mut shuffled = paths.clone();
        shuffled.reverse();
        prop_assert!(paths_dist(&paths, &shuffled).abs() < 1e-9);
    }

    #[test]
    fn paths_dist_unmatched_costs_one(
        paths in proptest::collection::vec(feature_path(), 1..5)
    ) {
        let d = paths_dist(&paths, &[]);
        prop_assert!((d - paths.len() as f64).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// Usage DAGs: IoU distance
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn dag_distance_is_bounded_symmetric(a in usage_dag(), b in usage_dag()) {
        let ab = a.distance(&b);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - b.distance(&a)).abs() < 1e-12);
        prop_assert!(a.distance(&a).abs() < 1e-12);
    }

    #[test]
    fn dag_distance_never_one_for_same_root(a in usage_dag(), b in usage_dag()) {
        // Both share the root path, so the intersection is non-empty.
        prop_assert!(a.distance(&b) < 1.0);
    }
}

// ---------------------------------------------------------------------
// Hungarian assignment
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn assignment_is_permutation_and_not_worse_than_samples(
        n in 1usize..6,
        values in proptest::collection::vec(0.0f64..1.0, 36),
    ) {
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| values[i * 6 + j]).collect())
            .collect();
        let (assignment, total) = min_cost_assignment(&cost);
        let mut sorted = assignment.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "permutation");

        // Identity and reverse permutations can never beat the optimum.
        let identity: f64 = (0..n).map(|i| cost[i][i]).sum();
        let reverse: f64 = (0..n).map(|i| cost[i][n - 1 - i]).sum();
        prop_assert!(total <= identity + 1e-9);
        prop_assert!(total <= reverse + 1e-9);
    }
}

// ---------------------------------------------------------------------
// Hierarchical clustering
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn dendrogram_structure(coords in proptest::collection::vec(0.0f64..100.0, 1..12)) {
        let n = coords.len();
        let d = agglomerate(n, |i, j| (coords[i] - coords[j]).abs());
        prop_assert_eq!(d.n_leaves, n);
        prop_assert_eq!(d.merges.len(), n - 1);
        // Complete linkage produces monotone merge distances.
        for w in d.merges.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance + 1e-9);
        }
        // Any cut partitions the leaves.
        for threshold in [0.0, 1.0, 50.0, f64::INFINITY] {
            let clusters = d.cut(threshold);
            let total: usize = clusters.iter().map(Vec::len).sum();
            prop_assert_eq!(total, n);
        }
        prop_assert_eq!(d.cut(f64::INFINITY).len(), 1);
    }
}

// ---------------------------------------------------------------------
// Parser: printing and re-parsing generated corpus code is stable
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn corpus_sources_roundtrip_through_printer(seed in 0u64..5000) {
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(1, seed));
        let change = corpus.code_changes().next();
        if let Some(change) = change {
            let unit1 = javalang::parse_compilation_unit(change.new).unwrap();
            let printed1 = javalang::pretty_print(&unit1);
            let unit2 = javalang::parse_compilation_unit(&printed1).unwrap();
            let printed2 = javalang::pretty_print(&unit2);
            prop_assert_eq!(printed1, printed2);
        }
    }

    #[test]
    fn printed_normal_form_is_arena_fixed_point(seed in 0u64..5000) {
        // Once a unit has been printed and re-parsed, it has reached the
        // printer's normal form: parsing that form again must be a true
        // fixed point *at the arena level* — identical text AND
        // identical expression/statement arena sizes. This pins the
        // arena representation against silently accumulating orphan
        // slots (from speculative parses) or dropping nodes on a
        // round-trip: normal-form text must always re-parse into an
        // arena of the same shape.
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(1, seed));
        let change = corpus.code_changes().next();
        if let Some(change) = change {
            let unit1 = javalang::parse_compilation_unit(change.old).unwrap();
            let unit2 = javalang::parse_compilation_unit(
                &javalang::pretty_print(&unit1)).unwrap();
            let printed2 = javalang::pretty_print(&unit2);
            let unit3 = javalang::parse_compilation_unit(&printed2).unwrap();
            prop_assert_eq!(&javalang::pretty_print(&unit3), &printed2);
            prop_assert_eq!(unit3.ast.expr_count(), unit2.ast.expr_count());
            prop_assert_eq!(unit3.ast.stmt_count(), unit2.ast.stmt_count());
        }
    }

    #[test]
    fn filter_funnel_is_monotone(seed in 0u64..3000, n_projects in 1usize..4) {
        // Figure 6's funnel only ever narrows: every stage passes a
        // subset of its input, and the final count is what callers get.
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(n_projects, seed));
        let mut dc = diffcode::DiffCode::new();
        let mined = dc.mine(&corpus, &["Cipher", "SecureRandom", "MessageDigest"], None);
        let mut registry = obs::Recorder::new();
        let (kept, stats) = diffcode::apply_filters(
            &mined.changes,
            &mut diffcode::SeenDups::new(),
            &mut registry,
        );
        prop_assert!(stats.total >= stats.after_fsame);
        prop_assert!(stats.after_fsame >= stats.after_fadd);
        prop_assert!(stats.after_fadd >= stats.after_frem);
        prop_assert!(stats.after_frem >= stats.after_fdup);
        prop_assert_eq!(stats.after_fdup, kept.len());
        prop_assert!(stats.is_monotone());

        // And the published counters report the same funnel.
        prop_assert_eq!(registry.counter("filter.total"), stats.total as u64);
        prop_assert_eq!(registry.counter("filter.after_fdup"), stats.after_fdup as u64);
        prop_assert!(obs::check_funnel(&registry, &diffcode::FILTER_FUNNEL).is_ok());
    }

    #[test]
    fn filters_are_idempotent(seed in 0u64..2000) {
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(2, seed));
        let mut dc = diffcode::DiffCode::new();
        let mined = dc.mine(&corpus, &["Cipher", "SecureRandom"], None);
        let filter = |changes: &[diffcode::MinedUsageChange]| {
            diffcode::apply_filters(
                changes,
                &mut diffcode::SeenDups::new(),
                &mut obs::Recorder::new(),
            )
        };
        let (once, stats1) = filter(&mined.changes);
        let n_once = once.len();
        let (twice, stats2) = filter(&once);
        prop_assert_eq!(n_once, twice.len());
        prop_assert_eq!(stats1.after_fdup, stats2.total);
        prop_assert_eq!(stats2.total, stats2.after_fdup, "already filtered");
    }
}

// ---------------------------------------------------------------------
// Robustness: the front end and analyzer never panic on mangled input
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn parser_never_panics_on_mutated_sources(
        seed in 0u64..500,
        cut_start in 0usize..2000,
        cut_len in 0usize..200,
        splice in proptest::option::of("[ -~]{0,40}"),
    ) {
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(1, seed));
        let Some(change) = corpus.code_changes().next() else { return Ok(()) };
        let mut source = change.new.to_owned();
        // Cut a byte range (clamped to char boundaries).
        let start = source
            .char_indices()
            .map(|(i, _)| i)
            .take_while(|i| *i <= cut_start.min(source.len()))
            .last()
            .unwrap_or(0);
        let end = source
            .char_indices()
            .map(|(i, _)| i)
            .find(|i| *i >= (start + cut_len).min(source.len()))
            .unwrap_or(source.len());
        source.replace_range(start..end, splice.as_deref().unwrap_or(""));

        // Must not panic; errors and diagnostics are fine.
        if let Ok(unit) = javalang::parse_snippet(&source) {
            let limits = analysis::AnalysisLimits::DEFAULT;
            let _ = analysis::analyze(&unit, &analysis::ApiModel::standard(), &limits);
        }
    }

    #[test]
    fn analyzer_never_panics_on_random_ascii(source in "[ -~\n]{0,300}") {
        if let Ok(unit) = javalang::parse_snippet(&source) {
            let limits = analysis::AnalysisLimits::DEFAULT;
            // Under the default budget an input may be refused with a
            // typed error; it must never panic.
            if let Ok((usages, _)) =
                analysis::analyze(&unit, &analysis::ApiModel::standard(), &limits)
            {
                // And the downstream DAG construction holds up too.
                for class in analysis::TARGET_CLASSES {
                    for site in usages.objects_of_type(class) {
                        let _ =
                            usagegraph::build_dag(&usages, site, &usagegraph::DagLimits::DEFAULT);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Robustness: the budgeted pipeline is total on raw byte soup
// ---------------------------------------------------------------------

/// Tight budgets: any hang or blow-up under these is a bug, not load.
fn soup_limits() -> javalang::Limits {
    javalang::Limits {
        max_source_bytes: 4096,
        max_tokens: 512,
        max_token_bytes: 64,
        max_nesting: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn budgeted_pipeline_is_total_on_byte_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        // Arbitrary bytes, including invalid UTF-8 (lossily replaced),
        // NULs, and control characters. Every stage must return — Ok or
        // a typed Err — never panic, hang, or overflow the stack.
        let source = String::from_utf8_lossy(&bytes);
        let _ = javalang::lex(&source);
        let limits = analysis::AnalysisLimits { max_steps: 10_000, max_ast_depth: 64 };
        if let Ok(unit) = javalang::parse_snippet_with_limits(&source, soup_limits()) {
            if let Ok((usages, _)) =
                analysis::analyze(&unit, &analysis::ApiModel::standard(), &limits)
            {
                let dag_limits = usagegraph::DagLimits {
                    max_paths: 256,
                    max_objects: 32,
                    ..usagegraph::DagLimits::DEFAULT
                };
                for class in analysis::TARGET_CLASSES {
                    let _ = usagegraph::dags_for_class(&usages, class, &dag_limits);
                }
            }
        }
    }

    #[test]
    fn mining_is_total_on_byte_soup_pairs(
        old in proptest::collection::vec(any::<u8>(), 0..400),
        new in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        // Same property one level up: a whole corpus made of garbage
        // mines to an exactly-accounted result, never an abort.
        let corpus = corpus::Corpus {
            projects: vec![corpus::Project {
                user: "soup".into(),
                name: "soup".into(),
                facts: corpus::ProjectFacts::default(),
                commits: vec![corpus::Commit {
                    id: "deadbeef".into(),
                    author: String::new(),
                    message: "garbage".into(),
                    changes: vec![corpus::FileChange {
                        path: "A.java".into(),
                        old: Some(String::from_utf8_lossy(&old).into_owned()),
                        new: Some(String::from_utf8_lossy(&new).into_owned()),
                    }],
                }],
            }],
        };
        let result = diffcode::DiffCode::new().mine(&corpus, &[], None);
        prop_assert!(result.stats.is_balanced());
        prop_assert_eq!(result.quarantine.len(), result.stats.skipped.total());
    }
}

// ---------------------------------------------------------------------
// Quarantine excerpts: UTF-8 safe on any byte soup
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// `quarantine::excerpt` truncates on char boundaries: for any
    /// input — including multibyte scalars straddling the 80-char cap
    /// and lossily-decoded byte soup — the excerpt is one sanitized
    /// line of at most 80 chars (81 with the ellipsis), never a panic
    /// from slicing mid-scalar and never a control character.
    #[test]
    fn excerpt_is_utf8_safe_on_byte_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        multibyte in "[\u{e9}\u{4e2d}\u{1F510}a \n]{0,200}",
    ) {
        for source in [String::from_utf8_lossy(&bytes).into_owned(), multibyte] {
            let e = diffcode::quarantine::excerpt(&source);
            let n = e.chars().count();
            prop_assert!(n <= 81, "{n} chars from {source:?}");
            if n == 81 {
                prop_assert!(e.ends_with('…'));
            }
            prop_assert!(
                e.chars().all(|c| !c.is_control()),
                "control char leaked into {e:?}"
            );
            prop_assert!(!e.contains('\n'), "excerpt is a single line");
            // Truncation preserved the line's leading chars verbatim
            // (modulo control-char replacement).
            let line: String = source
                .lines()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("")
                .trim_end()
                .chars()
                .take(80)
                .map(|c| if c.is_control() { '\u{b7}' } else { c })
                .collect();
            prop_assert!(e.strip_suffix('…').unwrap_or(&e) == line);
        }
    }
}

// ---------------------------------------------------------------------
// Budget boundaries are exact: a budget of N passes, N-1 rejects
// ---------------------------------------------------------------------

/// Front-end budgets with no size limit, the base each boundary test
/// lowers one budget of. Nesting stays bounded: it guards the stack.
const UNLIMITED: javalang::Limits = javalang::Limits {
    max_source_bytes: usize::MAX,
    max_tokens: usize::MAX,
    max_token_bytes: usize::MAX,
    max_nesting: 512,
};

#[test]
fn nesting_budget_boundary_is_exact() {
    // Find the minimal nesting budget under which the source parses
    // *cleanly* (a type, no recovery diagnostics), then pin the
    // boundary: one level less must reject the deep expression — as a
    // hard NestingTooDeep error or an error-tolerant recovery that
    // records it — and one more paren pair in the source must shift
    // the boundary by exactly one level.
    let source_at = |parens: usize| {
        format!(
            "class A {{ int x = {}1{}; }}",
            "(".repeat(parens),
            ")".repeat(parens)
        )
    };
    let parse = |source: &str, n: usize| {
        javalang::parse_compilation_unit_with_limits(
            source,
            javalang::Limits {
                max_nesting: n,
                ..UNLIMITED
            },
        )
    };
    let min_clean_budget = |source: &str| {
        (1..512)
            .find(|n| {
                parse(source, *n).is_ok_and(|u| !u.types.is_empty() && u.diagnostics.is_empty())
            })
            .expect("source must parse under some budget")
    };
    let shallow = source_at(8);
    let n = min_clean_budget(&shallow);
    match parse(&shallow, n - 1) {
        Err(e) => assert_eq!(e.kind(), javalang::ParseErrorKind::NestingTooDeep),
        Ok(unit) => {
            assert!(
                unit.diagnostics
                    .iter()
                    .any(|d| d.message.contains("nesting")),
                "recovery must record the overrun: {:?}",
                unit.diagnostics
            );
        }
    }
    assert_eq!(
        min_clean_budget(&source_at(9)),
        n + 1,
        "one extra paren pair costs exactly one nesting level"
    );
}

#[test]
fn token_budget_boundary_is_exact() {
    let source = "class A { int x = 1; int y = 2; }";
    let tokens = javalang::lex(source).unwrap().len();
    let at = javalang::Limits {
        max_tokens: tokens,
        ..UNLIMITED
    };
    assert!(javalang::parse_compilation_unit_with_limits(source, at).is_ok());
    let under = javalang::Limits {
        max_tokens: tokens - 1,
        ..UNLIMITED
    };
    let reject = javalang::parse_compilation_unit_with_limits(source, under).unwrap_err();
    assert_eq!(reject.kind(), javalang::ParseErrorKind::TokenBudgetExceeded);
}

#[test]
fn source_size_boundary_is_exact() {
    let source = "class A { int x = 1; }";
    let at = javalang::Limits {
        max_source_bytes: source.len(),
        ..UNLIMITED
    };
    assert!(javalang::parse_compilation_unit_with_limits(source, at).is_ok());
    let under = javalang::Limits {
        max_source_bytes: source.len() - 1,
        ..UNLIMITED
    };
    let reject = javalang::parse_compilation_unit_with_limits(source, under).unwrap_err();
    assert_eq!(reject.kind(), javalang::ParseErrorKind::SourceTooLarge);
}

#[test]
fn token_length_boundary_is_exact() {
    let ident = "a".repeat(40);
    let source = format!("class A {{ int {ident} = 1; }}");
    let at = javalang::Limits {
        max_token_bytes: ident.len(),
        ..UNLIMITED
    };
    assert!(javalang::parse_compilation_unit_with_limits(&source, at).is_ok());
    let under = javalang::Limits {
        max_token_bytes: ident.len() - 1,
        ..UNLIMITED
    };
    let reject = javalang::parse_compilation_unit_with_limits(&source, under).unwrap_err();
    assert_eq!(reject.kind(), javalang::ParseErrorKind::TokenTooLong);
}

// ---------------------------------------------------------------------
// mcache: the cached-outcome codec is lossless and total
// ---------------------------------------------------------------------

fn usage_change() -> impl Strategy<Value = usagegraph::UsageChange> {
    (
        proptest::collection::vec(feature_path(), 0..5),
        proptest::collection::vec(feature_path(), 0..5),
    )
        .prop_map(|(removed, added)| usagegraph::UsageChange {
            class: "Cipher".to_owned(),
            removed,
            added,
        })
}

fn error_kind() -> impl Strategy<Value = diffcode::ErrorKind> {
    prop_oneof![
        Just(diffcode::ErrorKind::Lex),
        Just(diffcode::ErrorKind::Parse),
        Just(diffcode::ErrorKind::AnalysisBudget),
        Just(diffcode::ErrorKind::DagBudget),
        Just(diffcode::ErrorKind::Panic),
    ]
}

fn change_outcome() -> impl Strategy<Value = diffcode::ChangeOutcome> {
    prop_oneof![
        proptest::collection::vec(
            (
                "[A-Z][a-zA-Z]{0,10}",
                usage_dag(),
                usage_dag(),
                usage_change()
            ),
            0..4
        )
        .prop_map(diffcode::ChangeOutcome::Mined),
        (error_kind(), "[ -~]{0,40}", "[ -~]{0,40}").prop_map(|(kind, error, excerpt)| {
            diffcode::ChangeOutcome::Skipped {
                kind,
                error,
                excerpt,
            }
        }),
    ]
}

proptest! {
    /// Round-tripping any outcome — mined tuples or quarantined skips —
    /// through the cache payload codec is lossless. This is what makes
    /// a warm mining run byte-identical to a cold one.
    #[test]
    fn cached_outcome_round_trip_is_lossless(outcome in change_outcome()) {
        let bytes = diffcode::mcache::encode_outcome(&outcome);
        prop_assert_eq!(diffcode::mcache::decode_outcome(&bytes).unwrap(), outcome);
    }

    /// Decoding is total: every strict prefix of a valid payload is a
    /// typed error, never a panic and never a wrong outcome.
    #[test]
    fn cached_outcome_decode_rejects_every_truncation(outcome in change_outcome()) {
        let bytes = diffcode::mcache::encode_outcome(&outcome);
        for cut in 0..bytes.len() {
            prop_assert!(diffcode::mcache::decode_outcome(&bytes[..cut]).is_err());
        }
        let mut trailing = bytes;
        trailing.push(0);
        prop_assert!(diffcode::mcache::decode_outcome(&trailing).is_err());
    }
}

/// A source side for the change-id property: empty, random printable
/// text, or a real Java file with multi-byte characters.
fn source_side() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[ -~\n]{1,300}",
        Just(corpus::fixtures::FIGURE2_OLD.to_owned()),
        Just("class A { String s = \"\u{22a4}\u{1f512}\"; }".to_owned()),
    ]
}

proptest! {
    /// The mining loop hashes a file pair once for both of its ids: the
    /// cache key and the change fingerprint it computes in lockstep must
    /// equal `MiningCache::change_key` and `change_fingerprint` exactly,
    /// for any sources (empty ones included) and any configuration.
    #[test]
    fn one_pass_change_ids_equal_key_and_fingerprint(
        old in source_side(),
        new in source_side(),
        depth in 1usize..8,
    ) {
        let dir = std::env::temp_dir().join(format!("diffcode-prop-ids-{}", std::process::id()));
        let limits = diffcode::PipelineLimits {
            dag: usagegraph::DagLimits { max_depth: depth, ..usagegraph::DagLimits::DEFAULT },
            ..diffcode::PipelineLimits::DEFAULT
        };
        let cache = diffcode::MiningCache::open(&dir, &[], &limits).expect("cache opens");
        let (key, fingerprint) = cache.change_ids(&old, &new);
        prop_assert_eq!(key, cache.change_key(&old, &new));
        prop_assert_eq!(fingerprint.to_string(), diffcode::change_fingerprint(&old, &new));
        let view = cache.view();
        prop_assert_eq!(view.change_ids(&old, &new), (key, fingerprint));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
