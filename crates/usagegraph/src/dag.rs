//! Usage DAGs (paper §3.4).
//!
//! A node's identity is its root-to-node **label path** — this respects
//! the edge structure, makes the node-set intersection/union of the
//! distance metric well-defined across graphs, and directly yields the
//! feature paths of §3.5. On the paper's Figure 2 example this
//! representation reproduces the published distance (`1/2`) and the
//! published removed/added features exactly.

use crate::limits::{DagError, DagLimits};
use crate::matching::min_cost_assignment;
use absdomain::{AValue, AllocSite};
use analysis::Usages;
use intern::intern;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Default maximum path length (the paper's construction depth n = 5).
pub(crate) const DEFAULT_MAX_DEPTH: usize = 5;

/// One node label of a feature path.
///
/// Shared (`Arc<str>`) rather than owned: every path in a DAG repeats
/// its ancestors' labels, so path construction, DAG pairing, and diffs
/// clone labels constantly — with shared labels those clones are
/// refcount bumps instead of string copies. `Arc` (not `Rc`) because
/// mining results cross the pipeline's shard-thread joins.
pub type Label = Arc<str>;

/// One root-to-node label path, e.g.
/// `["Cipher", "getInstance", "arg1:AES"]`.
///
/// Equality and ordering are by label *content* (the order every
/// `BTreeSet` of paths, and therefore every digest, is built on), but
/// the implementations take a pointer-equality fast path first:
/// interned labels with equal content are usually the same `Arc`, so
/// the common case in set intersection/difference and pairing distance
/// is a pointer compare, not a `memcmp`. Pointer inequality proves
/// nothing (labels interned on different threads are distinct `Arc`s)
/// and falls through to the content compare.
#[derive(Debug, Clone, Eq)]
pub struct FeaturePath(pub Vec<Label>);

// Hash by label content, like the derive would: `eq`'s pointer check is
// only a shortcut for content equality (`Arc::ptr_eq` implies equal
// strings), so content hashing stays consistent with it.
impl std::hash::Hash for FeaturePath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq for FeaturePath {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Ord for FeaturePath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            if Arc::ptr_eq(a, b) {
                continue;
            }
            match a.cmp(b) {
                std::cmp::Ordering::Equal => {}
                non_eq => return non_eq,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl PartialOrd for FeaturePath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl FeaturePath {
    /// The labels of the path.
    pub fn labels(&self) -> &[Label] {
        &self.0
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the path has no labels (never produced by builders).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `true` if `self` is a strict prefix of `other`.
    pub(crate) fn is_strict_prefix_of(&self, other: &FeaturePath) -> bool {
        self.0.len() < other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl fmt::Display for FeaturePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.join(" "))
    }
}

/// A rooted usage DAG, represented by its set of root-to-node label
/// paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageDag {
    /// The root object's type (the root node label).
    pub root_type: Label,
    /// All root-to-node label paths, including the trivial root path.
    pub paths: BTreeSet<FeaturePath>,
}

impl UsageDag {
    /// The empty DAG for `root_type`: just the root node. Used to pad
    /// version sides with unequal object counts (paper §3.5).
    pub fn empty(root_type: impl Into<Label>) -> Self {
        let root_type = root_type.into();
        let mut paths = BTreeSet::new();
        paths.insert(FeaturePath(vec![root_type.clone()]));
        UsageDag { root_type, paths }
    }

    /// The intersection-over-union node distance of §3.5:
    /// `1 − |N₁∩N₂| / |N₁∪N₂|`.
    ///
    /// # Example
    ///
    /// ```
    /// use usagegraph::UsageDag;
    ///
    /// let a = UsageDag::empty("Cipher");
    /// assert_eq!(a.distance(&a), 0.0);
    /// let b = UsageDag::empty("MessageDigest");
    /// assert_eq!(a.distance(&b), 1.0, "disjoint node sets");
    /// ```
    pub fn distance(&self, other: &UsageDag) -> f64 {
        // One sorted-merge walk counts the intersection; the union size
        // follows from |A| + |B| − |A∩B|. Equivalent to
        // `intersection().count()` + `union().count()` at half the
        // comparisons — this is the inner loop of DAG pairing.
        let mut inter = 0usize;
        let mut a_iter = self.paths.iter();
        let mut b_iter = other.paths.iter();
        let (mut a, mut b) = (a_iter.next(), b_iter.next());
        while let (Some(x), Some(y)) = (a, b) {
            match x.cmp(y) {
                std::cmp::Ordering::Less => a = a_iter.next(),
                std::cmp::Ordering::Greater => b = b_iter.next(),
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    a = a_iter.next();
                    b = b_iter.next();
                }
            }
        }
        let union = self.paths.len() + other.paths.len() - inter;
        if union == 0 {
            return 0.0;
        }
        1.0 - inter as f64 / union as f64
    }
}

/// Builds the usage DAG for the abstract object at `root`, expanding
/// nested abstract objects breadth-first up to `limits.max_depth`
/// labels per path.
///
/// # Errors
///
/// [`DagError::PathBudgetExceeded`] when the path set outgrows
/// `limits.max_paths`.
pub fn build_dag(
    usages: &Usages,
    root: AllocSite,
    limits: &DagLimits,
) -> Result<UsageDag, DagError> {
    build_dag_with(usages, root, limits, &mut DagScratch::default())
}

/// Reusable working memory for DAG construction. One instance serves
/// any number of [`build_dag_with`] calls over the same `Usages`,
/// so per-site builds don't re-allocate the path prefix, label buffer,
/// and cycle stack.
#[derive(Default)]
struct DagScratch<'u> {
    on_path: Vec<(&'u absdomain::MethodSig, &'u [AValue])>,
}

/// Lifetime-free working buffers for one DAG build: the root-to-here
/// label prefix and the label composition buffer. Kept in a
/// thread-local pool so consecutive builds — including across
/// *different* `Usages`, which the lifetime-carrying [`DagScratch`]
/// cannot outlive — reuse the same allocations. `take()` leaves `None`
/// behind, so a re-entrant build (impossible today, cheap to stay safe
/// against) falls back to fresh buffers instead of aliasing.
#[derive(Default)]
struct BuildBufs {
    prefix: Vec<Label>,
    label_buf: String,
}

thread_local! {
    static BUILD_BUFS: std::cell::Cell<Option<BuildBufs>> = const { std::cell::Cell::new(None) };
}

fn build_dag_with<'u>(
    usages: &'u Usages,
    root: AllocSite,
    limits: &DagLimits,
    scratch: &mut DagScratch<'u>,
) -> Result<UsageDag, DagError> {
    let root_type = intern(usages.type_of(root).unwrap_or("<unknown>"));
    let mut bufs = BUILD_BUFS.with(|cell| cell.take()).unwrap_or_default();
    bufs.prefix.clear();
    bufs.prefix.push(root_type.clone());
    scratch.on_path.clear();
    let mut dag = UsageDag::empty(root_type.clone());
    let expanded = expand(
        usages,
        root,
        &root_type,
        &mut bufs.prefix,
        &mut bufs.label_buf,
        limits,
        &mut dag.paths,
        &mut scratch.on_path,
        /*is_root=*/ true,
    );
    BUILD_BUFS.with(|cell| cell.set(Some(bufs)));
    expanded?;
    Ok(dag)
}

/// Inserts `path` into `paths`, failing once the set holds more than
/// `limits.max_paths` *distinct* paths (repeated identical events
/// re-emit equal paths, which the set collapses).
fn push_path(
    paths: &mut BTreeSet<FeaturePath>,
    path: FeaturePath,
    limits: &DagLimits,
) -> Result<(), DagError> {
    paths.insert(path);
    if paths.len() > limits.max_paths {
        return Err(DagError::PathBudgetExceeded {
            max_paths: limits.max_paths,
        });
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn expand<'u>(
    usages: &'u Usages,
    site: AllocSite,
    owner_type: &str,
    scratch: &mut Vec<Label>,
    label_buf: &mut String,
    limits: &DagLimits,
    paths: &mut BTreeSet<FeaturePath>,
    on_path: &mut Vec<(&'u absdomain::MethodSig, &'u [AValue])>,
    is_root: bool,
) -> Result<(), DagError> {
    // `scratch` holds the labels of the current root-to-here prefix;
    // labels are pushed/popped in place and each inserted path is one
    // `scratch.clone()` — refcount bumps, not string copies.
    if scratch.len() >= limits.max_depth {
        return Ok(());
    }
    for event in usages.events_of(site) {
        // Nested objects expand only with their own class's methods
        // (creation and self-calls); the methods of *other* classes they
        // are passed to already appear above them in the DAG. This is
        // what keeps Figure 2(c)'s IvParameterSpec node to a single
        // `<init>` child.
        if !is_root && &*event.method.class != owner_type {
            continue;
        }
        // Cycle prevention (paper: "add an edge … if it does not
        // introduce a cycle"): an event already on the current expansion
        // path is the same (m, σ) node. Compared by reference into the
        // usages table — no per-event key clone.
        if on_path
            .iter()
            .any(|&(m, a)| m == &event.method && a == &event.args[..])
        {
            continue;
        }
        // Same as `MethodSig::label_for`, but composing the qualified
        // label in the reusable buffer instead of a fresh `format!`
        // String per event occurrence.
        scratch.push(if &*event.method.class == owner_type {
            event.method.name.clone()
        } else {
            label_buf.clear();
            label_buf.push_str(&event.method.class);
            label_buf.push('.');
            label_buf.push_str(&event.method.name);
            intern(label_buf)
        });
        push_path(paths, FeaturePath(scratch.clone()), limits)?;

        if scratch.len() < limits.max_depth {
            for (index, arg) in event.args.iter().enumerate() {
                label_buf.clear();
                label_buf.push_str("arg");
                // Positional indices are tiny; pushing the digit directly
                // skips `write!`'s formatting machinery, which is
                // measurable at this call frequency.
                if index < 9 {
                    label_buf.push((b'1' + index as u8) as char);
                } else {
                    let _ = write!(label_buf, "{}", index + 1);
                }
                label_buf.push(':');
                arg.write_label(label_buf);
                scratch.push(intern(label_buf));
                push_path(paths, FeaturePath(scratch.clone()), limits)?;

                if let AValue::Obj { site: arg_site, ty } = arg {
                    if *arg_site != site {
                        on_path.push((&event.method, &event.args));
                        let result = expand(
                            usages, *arg_site, ty, scratch, label_buf, limits, paths, on_path,
                            /*is_root=*/ false,
                        );
                        on_path.pop();
                        result?;
                    }
                }
                scratch.pop();
            }
        }
        scratch.pop();
    }
    Ok(())
}

/// Builds one DAG per abstract object of type `class` in `usages`,
/// ordered by allocation site. The object count and every DAG's path
/// set must stay within `limits`.
///
/// # Errors
///
/// [`DagError::TooManyObjects`] when the class has more than
/// `limits.max_objects` allocation sites, and any error of
/// [`build_dag`] for the individual DAGs.
pub fn dags_for_class(
    usages: &Usages,
    class: &str,
    limits: &DagLimits,
) -> Result<Vec<UsageDag>, DagError> {
    let objects = usages.objects_of_type(class).count();
    if objects > limits.max_objects {
        return Err(DagError::TooManyObjects {
            objects,
            max_objects: limits.max_objects,
        });
    }
    let mut scratch = DagScratch::default();
    usages
        .objects_of_type(class)
        .map(|site| build_dag_with(usages, site, limits, &mut scratch))
        .collect()
}

/// Pairs old-version DAGs with new-version DAGs by solving a min-cost
/// matching under the IoU distance (§3.5). Sides of unequal size are
/// padded with [`UsageDag::empty`].
///
/// Returns the paired DAGs (old, new) — padded entries appear as
/// trivial DAGs.
pub fn pair_dags(old: Vec<UsageDag>, new: Vec<UsageDag>, class: &str) -> Vec<(UsageDag, UsageDag)> {
    let pairs = assign(&old, &new, class);
    // The inputs are consumed: each DAG moves into its assigned pair,
    // and only padding slots (unequal version sides) allocate.
    let mut old: Vec<Option<UsageDag>> = old.into_iter().map(Some).collect();
    let mut new: Vec<Option<UsageDag>> = new.into_iter().map(Some).collect();
    let take = |side: &mut Vec<Option<UsageDag>>, i: Option<usize>| {
        i.and_then(|i| side.get_mut(i).and_then(Option::take))
            .unwrap_or_else(|| UsageDag::empty(class))
    };
    pairs
        .into_iter()
        .map(|(i, j)| (take(&mut old, i), take(&mut new, j)))
        .collect()
}

/// [`pair_dags`] over borrowed DAG lists: each pair borrows its DAGs
/// from `old` and `new`, and only padding is owned.
pub(crate) fn pair_dag_refs<'a>(
    old: &'a [UsageDag],
    new: &'a [UsageDag],
    class: &str,
) -> Vec<(Cow<'a, UsageDag>, Cow<'a, UsageDag>)> {
    let side = |dags: &'a [UsageDag], i: Option<usize>| {
        i.and_then(|i| dags.get(i))
            .map_or_else(|| Cow::Owned(UsageDag::empty(class)), Cow::Borrowed)
    };
    assign(old, new, class)
        .into_iter()
        .map(|(i, j)| (side(old, i), side(new, j)))
        .collect()
}

/// The min-cost assignment of old-version to new-version DAGs, as index
/// pairs in old-side order; `None` stands for a padding DAG.
fn assign(old: &[UsageDag], new: &[UsageDag], class: &str) -> Vec<(Option<usize>, Option<usize>)> {
    let n = old.len().max(new.len());
    let present = |len: usize, i: usize| (i < len).then_some(i);
    // One DAG per side (or one side absent) — the overwhelmingly common
    // shape per (change, class) — has a forced assignment: skip the
    // cost matrix and Hungarian solve entirely.
    if n <= 1 {
        return (0..n)
            .map(|i| (present(old.len(), i), present(new.len(), i)))
            .collect();
    }
    let pad = UsageDag::empty(class);
    let cost: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let a = old.get(i).unwrap_or(&pad);
            (0..n)
                .map(|j| a.distance(new.get(j).unwrap_or(&pad)))
                .collect()
        })
        .collect();
    let (assignment, _) = min_cost_assignment(&cost);
    assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| (present(old.len(), i), present(new.len(), j)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UsageDag {
        /// `true` if this DAG is just a root node.
        fn is_trivial(&self) -> bool {
            self.paths.len() <= 1
        }
    }
    use analysis::{analyze, AnalysisLimits, ApiModel};

    /// No path or object cap: the reference the budget-boundary tests
    /// compare against.
    const UNLIMITED: DagLimits = DagLimits {
        max_paths: usize::MAX,
        max_objects: usize::MAX,
        ..DagLimits::DEFAULT
    };

    fn usages_of(src: &str) -> Usages {
        let unit = javalang::parse_compilation_unit(src).unwrap();
        analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
            .unwrap()
            .0
    }

    fn dag_of(src: &str, class: &str) -> Vec<UsageDag> {
        dags_for_class(&usages_of(src), class, &DagLimits::DEFAULT).unwrap()
    }

    const FIGURE2_OLD: &str = r#"
        class AESCipher {
            Cipher enc, dec;
            final String algorithm = "AES";
            protected void setKey(Secret key) {
                try {
                    enc = Cipher.getInstance(algorithm);
                    enc.init(Cipher.ENCRYPT_MODE, key);
                    dec = Cipher.getInstance(algorithm);
                    dec.init(Cipher.DECRYPT_MODE, key);
                } catch (Exception e) { }
            }
        }
    "#;

    const FIGURE2_NEW: &str = r#"
        class AESCipher {
            Cipher enc, dec;
            final String algorithm = "AES/CBC/PKCS5Padding";
            protected void setKeyAndIV(Secret key, String iv) {
                byte[] ivBytes;
                IvParameterSpec ivSpec;
                try {
                    ivBytes = Hex.decodeHex(iv.toCharArray());
                    ivSpec = new IvParameterSpec(ivBytes);
                    enc = Cipher.getInstance(algorithm);
                    enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
                    dec = Cipher.getInstance(algorithm);
                    dec.init(Cipher.DECRYPT_MODE, key, ivSpec);
                } catch (Exception e) { }
            }
        }
    "#;

    fn paths_of(dag: &UsageDag) -> Vec<String> {
        dag.paths.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn figure2b_old_enc_dag() {
        let dags = dag_of(FIGURE2_OLD, "Cipher");
        assert_eq!(dags.len(), 2);
        let enc = &dags[0];
        let expected: BTreeSet<String> = [
            "Cipher",
            "Cipher getInstance",
            "Cipher getInstance arg1:AES",
            "Cipher init",
            "Cipher init arg1:ENCRYPT_MODE",
            "Cipher init arg2:Secret",
        ]
        .into_iter()
        .map(str::to_owned)
        .collect();
        let got: BTreeSet<String> = paths_of(enc).into_iter().collect();
        assert_eq!(got, expected, "Figure 2(b) node set");
    }

    #[test]
    fn figure2c_new_enc_dag() {
        let dags = dag_of(FIGURE2_NEW, "Cipher");
        let enc = &dags[0];
        let expected: BTreeSet<String> = [
            "Cipher",
            "Cipher getInstance",
            "Cipher getInstance arg1:AES/CBC/PKCS5Padding",
            "Cipher init",
            "Cipher init arg1:ENCRYPT_MODE",
            "Cipher init arg2:Secret",
            "Cipher init arg3:IvParameterSpec",
            "Cipher init arg3:IvParameterSpec <init>",
            "Cipher init arg3:IvParameterSpec <init> arg1:\u{22a4}byte[]",
        ]
        .into_iter()
        .map(str::to_owned)
        .collect();
        let got: BTreeSet<String> = paths_of(enc).into_iter().collect();
        assert_eq!(got, expected, "Figure 2(c) node set with cycle-free <init>");
    }

    #[test]
    fn figure2_distance_is_one_half() {
        let old = dag_of(FIGURE2_OLD, "Cipher");
        let new = dag_of(FIGURE2_NEW, "Cipher");
        let d = old[0].distance(&new[0]);
        assert!((d - 0.5).abs() < 1e-9, "paper reports dist = 1/2, got {d}");
    }

    #[test]
    fn distance_is_a_metric_on_examples() {
        let old = dag_of(FIGURE2_OLD, "Cipher");
        let new = dag_of(FIGURE2_NEW, "Cipher");
        for a in old.iter().chain(new.iter()) {
            assert!(a.distance(a).abs() < 1e-9, "d(x,x) = 0");
            for b in old.iter().chain(new.iter()) {
                let ab = a.distance(b);
                assert!((ab - b.distance(a)).abs() < 1e-9, "symmetry");
                assert!((0.0..=1.0).contains(&ab));
            }
        }
    }

    #[test]
    fn pairing_matches_like_with_like() {
        let old = dag_of(FIGURE2_OLD, "Cipher");
        let new = dag_of(FIGURE2_NEW, "Cipher");
        let pairs = pair_dags(old, new, "Cipher");
        assert_eq!(pairs.len(), 2);
        // enc pairs with enc (both use ENCRYPT_MODE), dec with dec.
        let enc_pair = &pairs[0];
        assert!(enc_pair
            .0
            .paths
            .iter()
            .any(|p| p.to_string().contains("ENCRYPT")));
        assert!(enc_pair
            .1
            .paths
            .iter()
            .any(|p| p.to_string().contains("ENCRYPT")));
    }

    #[test]
    fn pairing_pads_unequal_sides() {
        let old = dag_of(FIGURE2_OLD, "Cipher");
        let pairs = pair_dags(old, Vec::new(), "Cipher");
        assert_eq!(pairs.len(), 2);
        assert!(pairs.iter().all(|(_, new)| new.is_trivial()));
    }

    #[test]
    fn empty_dag_distance_to_itself_is_zero() {
        let a = UsageDag::empty("Cipher");
        let b = UsageDag::empty("Cipher");
        assert!(a.distance(&b).abs() < 1e-9);
    }

    #[test]
    fn path_budget_boundary_is_exact() {
        let usages = usages_of(FIGURE2_NEW);
        let site = usages.objects_of_type("Cipher").next().unwrap();
        let full = build_dag(&usages, site, &UNLIMITED).unwrap();
        let n = full.paths.len();

        let exact = DagLimits {
            max_paths: n,
            ..DagLimits::DEFAULT
        };
        assert_eq!(build_dag(&usages, site, &exact), Ok(full));

        let short = DagLimits {
            max_paths: n - 1,
            ..DagLimits::DEFAULT
        };
        assert_eq!(
            build_dag(&usages, site, &short),
            Err(DagError::PathBudgetExceeded { max_paths: n - 1 })
        );
    }

    #[test]
    fn object_cap_rejects_crowded_classes() {
        let usages = usages_of(FIGURE2_NEW);
        let tight = DagLimits {
            max_objects: 1,
            ..DagLimits::DEFAULT
        };
        assert_eq!(
            dags_for_class(&usages, "Cipher", &tight),
            Err(DagError::TooManyObjects {
                objects: 2,
                max_objects: 1
            })
        );
        let loose = DagLimits {
            max_objects: 2,
            ..DagLimits::DEFAULT
        };
        let dags = dags_for_class(&usages, "Cipher", &loose).unwrap();
        assert_eq!(dags, dags_for_class(&usages, "Cipher", &UNLIMITED).unwrap());
    }

    #[test]
    fn strict_prefix() {
        let a = FeaturePath(vec!["A".into(), "b".into()]);
        let b = FeaturePath(vec!["A".into(), "b".into(), "c".into()]);
        assert!(a.is_strict_prefix_of(&b));
        assert!(!b.is_strict_prefix_of(&a));
        assert!(!a.is_strict_prefix_of(&a));
    }
}
