//! From DAG pairs to usage changes (paper §3.5).

use crate::dag::{FeaturePath, UsageDag};
use std::fmt;

/// The semantic diff of one paired (old, new) DAG:
/// `Diff(G₁,G₂) = (F⁻, F⁺)` with
/// `F⁻ = Removed(G₁,G₂)` and `F⁺ = Removed(G₂,G₁)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UsageChange {
    /// The target API class this change concerns.
    pub class: String,
    /// Shortest feature paths present in the old version only.
    pub removed: Vec<FeaturePath>,
    /// Shortest feature paths present in the new version only.
    pub added: Vec<FeaturePath>,
}

impl UsageChange {
    /// `true` if neither features were removed nor added — the usage is
    /// identical under the abstraction (filter `fsame`).
    pub fn is_same(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }

    /// `true` if features were only added (filter `fadd`: a new API
    /// usage was introduced, not fixed).
    pub fn is_pure_addition(&self) -> bool {
        self.removed.is_empty() && !self.added.is_empty()
    }

    /// `true` if features were only removed (filter `frem`).
    pub fn is_pure_removal(&self) -> bool {
        !self.removed.is_empty() && self.added.is_empty()
    }
}

impl fmt::Display for UsageChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.removed {
            writeln!(f, "- {p}")?;
        }
        for p in &self.added {
            writeln!(f, "+ {p}")?;
        }
        Ok(())
    }
}

/// `Removed(G₁,G₂) = Shortest(Paths(G₁) \ Paths(G₂))`.
pub fn removed(g1: &UsageDag, g2: &UsageDag) -> Vec<FeaturePath> {
    // Work on borrowed difference entries (already in sorted set
    // order); only the surviving shortest paths are cloned.
    let diff: Vec<&FeaturePath> = g1.paths.difference(&g2.paths).collect();
    diff.iter()
        .filter(|p| !diff.iter().any(|q| q.is_strict_prefix_of(p)))
        .map(|p| (*p).clone())
        .collect()
}

/// Computes the usage change for a paired (old, new) DAG.
pub(crate) fn diff_dags(old: &UsageDag, new: &UsageDag) -> UsageChange {
    UsageChange {
        class: old.root_type.to_string(),
        removed: removed(old, new),
        added: removed(new, old),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Label;
    use crate::dag::{dags_for_class, pair_dags};
    use crate::DagLimits;
    use analysis::{analyze, AnalysisLimits, ApiModel};
    use std::collections::BTreeSet;

    fn dags(src: &str, class: &str) -> Vec<UsageDag> {
        let unit = javalang::parse_compilation_unit(src).unwrap();
        let (usages, _) = analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT).unwrap();
        dags_for_class(&usages, class, &DagLimits::DEFAULT).unwrap()
    }

    /// `Shortest(P)`: keeps a path iff no other path in `P` is a strict
    /// prefix of it.
    fn shortest(paths: &BTreeSet<FeaturePath>) -> Vec<FeaturePath> {
        paths
            .iter()
            .filter(|p| !paths.iter().any(|q| q.is_strict_prefix_of(p)))
            .cloned()
            .collect()
    }

    fn path(labels: &[&str]) -> FeaturePath {
        FeaturePath(labels.iter().copied().map(Label::from).collect())
    }

    #[test]
    fn shortest_drops_extensions() {
        let mut set = BTreeSet::new();
        set.insert(path(&["a", "b"]));
        set.insert(path(&["a", "b", "c"]));
        set.insert(path(&["b", "c"]));
        let s = shortest(&set);
        assert_eq!(s, vec![path(&["a", "b"]), path(&["b", "c"])]);
    }

    #[test]
    fn figure2d_removed_and_added_features() {
        let old_src = r#"
            class AESCipher {
                Cipher enc;
                final String algorithm = "AES";
                protected void setKey(Secret key) {
                    enc = Cipher.getInstance(algorithm);
                    enc.init(Cipher.ENCRYPT_MODE, key);
                }
            }
        "#;
        let new_src = r#"
            class AESCipher {
                Cipher enc;
                final String algorithm = "AES/CBC/PKCS5Padding";
                protected void setKeyAndIV(Secret key, String iv) {
                    byte[] ivBytes = Hex.decodeHex(iv.toCharArray());
                    IvParameterSpec ivSpec = new IvParameterSpec(ivBytes);
                    enc = Cipher.getInstance(algorithm);
                    enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
                }
            }
        "#;
        let old = dags(old_src, "Cipher");
        let new = dags(new_src, "Cipher");
        let pairs = pair_dags(old, new, "Cipher");
        assert_eq!(pairs.len(), 1);
        let change = diff_dags(&pairs[0].0, &pairs[0].1);

        assert_eq!(
            change.removed,
            vec![path(&["Cipher", "getInstance", "arg1:AES"])],
            "Figure 2(d) removed features"
        );
        // `init/2` and `init/3` are different signatures, so the old
        // init arity-2 call also disappears; the paper's figure elides
        // arity. The essential added features must be present:
        let added: Vec<String> = change.added.iter().map(|p| p.to_string()).collect();
        assert!(
            added.contains(&"Cipher getInstance arg1:AES/CBC/PKCS5Padding".to_owned()),
            "{added:?}"
        );
        assert!(
            added.contains(&"Cipher init arg3:IvParameterSpec".to_owned()),
            "{added:?}"
        );
    }

    #[test]
    fn refactoring_produces_same() {
        let old_src = r#"
            class C {
                void m() throws Exception {
                    Cipher c = Cipher.getInstance("AES/GCM/NoPadding");
                }
            }
        "#;
        let new_src = r#"
            class C {
                // Renamed local + extracted constant: same abstraction.
                static final String A = "AES/GCM/NoPadding";
                void encryptPayload() throws Exception {
                    Cipher cipherInstance = Cipher.getInstance(A);
                }
            }
        "#;
        let old = dags(old_src, "Cipher");
        let new = dags(new_src, "Cipher");
        let pairs = pair_dags(old, new, "Cipher");
        let change = diff_dags(&pairs[0].0, &pairs[0].1);
        assert!(change.is_same(), "{change}");
    }

    #[test]
    fn pure_addition_detected() {
        let old = UsageDag::empty("Cipher");
        let new_src = r#"
            class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }
        "#;
        let new = dags(new_src, "Cipher");
        let change = diff_dags(&old, &new[0]);
        assert!(change.is_pure_addition());
        assert!(!change.is_pure_removal());
        assert!(!change.is_same());
    }

    #[test]
    fn display_shows_plus_minus() {
        let change = UsageChange {
            class: "Cipher".into(),
            removed: vec![path(&["Cipher", "getInstance", "arg1:AES"])],
            added: vec![path(&["Cipher", "getInstance", "arg1:AES/GCM"])],
        };
        let s = change.to_string();
        assert!(s.contains("- Cipher getInstance arg1:AES\n"));
        assert!(s.contains("+ Cipher getInstance arg1:AES/GCM\n"));
    }
}
