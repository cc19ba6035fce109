//! Structural properties of usage-DAG construction: depth bounds,
//! cycle prevention, nested expansion, and pairing stability.

use analysis::{analyze, AnalysisLimits, ApiModel, Usages};
use std::borrow::Cow;
use usagegraph::{
    build_dag, dags_for_class, diff_dag_lists, pair_dags, usage_changes, DagLimits, UsageDag,
};

fn usages(src: &str) -> Usages {
    let unit = javalang::parse_compilation_unit(src).unwrap();
    analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
        .unwrap()
        .0
}

/// The default budgets at DAG depth `max_depth`.
fn at_depth(max_depth: usize) -> DagLimits {
    DagLimits {
        max_depth,
        ..DagLimits::DEFAULT
    }
}

fn dag(src: &str, class: &str, depth: usize) -> UsageDag {
    let u = usages(src);
    let site = u.objects_of_type(class).next().expect("object");
    build_dag(&u, site, &at_depth(depth)).unwrap()
}

const NESTED: &str = r#"
    class C {
        void m(Key key, byte[] ivBytes) throws Exception {
            IvParameterSpec iv = new IvParameterSpec(ivBytes);
            Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding");
            c.init(Cipher.ENCRYPT_MODE, key, iv);
        }
    }
"#;

#[test]
fn paths_respect_depth_bound() {
    for depth in 1..=6 {
        let d = dag(NESTED, "Cipher", depth);
        assert!(
            d.paths.iter().all(|p| p.len() <= depth),
            "depth {depth}: {:?}",
            d.paths
        );
    }
}

#[test]
fn deeper_dags_are_supersets() {
    let shallow = dag(NESTED, "Cipher", 3);
    let deep = dag(NESTED, "Cipher", 5);
    assert!(shallow.paths.is_subset(&deep.paths));
    assert!(shallow.paths.len() < deep.paths.len());
}

#[test]
fn every_non_root_path_extends_a_parent() {
    let d = dag(NESTED, "Cipher", 5);
    for p in &d.paths {
        if p.len() <= 1 {
            continue;
        }
        let parent = usagegraph::FeaturePath(p.labels()[..p.len() - 1].to_vec());
        assert!(
            d.paths.contains(&parent),
            "path {p} has no parent in the DAG"
        );
    }
}

#[test]
fn root_path_always_present() {
    let d = dag(NESTED, "Cipher", 5);
    assert!(d
        .paths
        .contains(&usagegraph::FeaturePath(vec!["Cipher".into()])));
}

#[test]
fn mutual_usage_does_not_loop() {
    // The IV spec flows into two ciphers, which both reference it; the
    // construction must terminate and not re-expand the same event.
    let src = r#"
        class C {
            void m(Key key, byte[] ivBytes) throws Exception {
                IvParameterSpec iv = new IvParameterSpec(ivBytes);
                Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
                a.init(Cipher.ENCRYPT_MODE, key, iv);
                Cipher b = Cipher.getInstance("AES/CBC/PKCS5Padding");
                b.init(Cipher.DECRYPT_MODE, key, iv);
            }
        }
    "#;
    let u = usages(src);
    for site in u.objects_of_type("Cipher") {
        let d = build_dag(&u, site, &at_depth(8)).unwrap();
        assert!(d.paths.len() < 60, "expansion exploded: {}", d.paths.len());
    }
    // The IvParameterSpec root DAG carries the foreign Cipher.init usage.
    let iv_site = u.objects_of_type("IvParameterSpec").next().unwrap();
    let iv_dag = build_dag(&u, iv_site, &DagLimits::DEFAULT).unwrap();
    assert!(
        iv_dag
            .paths
            .iter()
            .any(|p| p.to_string().contains("Cipher.init")),
        "{:?}",
        iv_dag.paths
    );
}

#[test]
fn pairing_is_stable_under_reordering() {
    let old_u = usages(NESTED);
    let old = dags_for_class(&old_u, "Cipher", &DagLimits::DEFAULT).unwrap();
    let new = old.clone();
    let pairs = pair_dags(old.clone(), new, "Cipher");
    for (a, b) in &pairs {
        assert_eq!(a, b, "identical versions must pair each DAG with itself");
    }
}

#[test]
fn usage_changes_with_smaller_depth_lose_nested_features() {
    let old = usages(
        r#"class C { void m(Key k) throws Exception {
            Cipher c = Cipher.getInstance("AES");
            c.init(Cipher.ENCRYPT_MODE, k);
        } }"#,
    );
    let new = usages(NESTED);
    let at5 = usage_changes(&old, &new, "Cipher", &at_depth(5)).unwrap();
    let at2 = usage_changes(&old, &new, "Cipher", &at_depth(2)).unwrap();
    let f5: Vec<String> = at5[0].2.added.iter().map(|p| p.to_string()).collect();
    let f2: Vec<String> = at2[0].2.added.iter().map(|p| p.to_string()).collect();
    assert!(
        f5.iter().any(|p| p.contains("arg3:IvParameterSpec")),
        "{f5:?}"
    );
    assert!(
        !f2.iter().any(|p| p.contains("arg3")),
        "depth 2 cannot see argument features: {f2:?}"
    );
}

#[test]
fn distance_monotone_under_feature_removal() {
    // Removing a differing feature cannot increase the distance.
    let a = dag(NESTED, "Cipher", 5);
    let mut b = a.clone();
    let extra = usagegraph::FeaturePath(vec![
        "Cipher".into(),
        "getInstance".into(),
        "arg2:BC".into(),
    ]);
    b.paths.insert(extra.clone());
    let with_extra = a.distance(&b);
    b.paths.remove(&extra);
    let without = a.distance(&b);
    assert!(without <= with_extra);
    assert_eq!(without, 0.0);
}

#[test]
fn diffing_borrowed_dag_lists_equals_usage_changes() {
    // One Cipher object against two (padding on the old side), two
    // against two (a Hungarian solve), two against none, and none
    // against none.
    let one = r#"class C { void m() throws Exception {
        Cipher c = Cipher.getInstance("AES");
    } }"#;
    let two = r#"class C { void m() throws Exception {
        Cipher a = Cipher.getInstance("AES/GCM/NoPadding");
        Cipher b = Cipher.getInstance("DES");
        b.init(Cipher.DECRYPT_MODE, null);
    } }"#;
    let none = "class C { void m() { int x = 1; } }";
    for (old_src, new_src) in [
        (one, two),
        (two, two),
        (two, NESTED),
        (two, none),
        (none, none),
    ] {
        let (old, new) = (usages(old_src), usages(new_src));
        let limits = DagLimits::DEFAULT;
        let owned = usage_changes(&old, &new, "Cipher", &limits).unwrap();
        let old_dags = dags_for_class(&old, "Cipher", &limits).unwrap();
        let new_dags = dags_for_class(&new, "Cipher", &limits).unwrap();
        let borrowed = diff_dag_lists(&old_dags, &new_dags, "Cipher");
        assert_eq!(borrowed.len(), owned.len());
        for ((a, b, change), (old_dag, new_dag, owned_change)) in borrowed.iter().zip(&owned) {
            assert_eq!((&**a, &**b, change), (old_dag, new_dag, owned_change));
            // A paired DAG borrows from its list; only padding is owned.
            for (dag, list) in [(a, &old_dags), (b, &new_dags)] {
                match dag {
                    Cow::Borrowed(dag) => assert!(list.iter().any(|d| std::ptr::eq(d, *dag))),
                    Cow::Owned(dag) => assert_eq!(dag, &UsageDag::empty("Cipher")),
                }
            }
        }
    }
}
