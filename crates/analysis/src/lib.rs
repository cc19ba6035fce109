//! Lightweight AST-based static analysis deriving abstract crypto-API
//! usages from (partial) Java programs — DiffCode's §5.1 analyzer.
//!
//! The analyzer computes, for each allocation site of a tracked API
//! class, the set of [`UsageEvent`]s observed on the abstract object:
//! the constructor/factory call that created it, the methods invoked on
//! it, and the methods of *other* classes it was passed to.
//!
//! # Example
//!
//! Every analysis runs under an [`AnalysisLimits`] budget: the same
//! fuel bounds mining, checking, and the command-line tools.
//!
//! ```
//! use analysis::{analyze, AnalysisLimits, ApiModel};
//!
//! let unit = javalang::parse_compilation_unit(
//!     r#"
//!     class KeyUtil {
//!         javax.crypto.SecretKey load() throws Exception {
//!             javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("AES");
//!             return null;
//!         }
//!     }
//!     "#,
//! )?;
//! let (usages, steps) = analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)?;
//! let ciphers: Vec<_> = usages.objects_of_type("Cipher").collect();
//! assert_eq!(ciphers.len(), 1);
//! assert_eq!(usages.events_of(ciphers[0]).len(), 1);
//! assert!(steps < AnalysisLimits::DEFAULT.max_steps);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod analyzer;
mod api;
mod limits;

pub use analyzer::{analyze, UsageEvent, Usages};
pub use api::{ApiModel, TARGET_CLASSES};
pub use limits::{AnalysisError, AnalysisLimits};

#[cfg(test)]
mod tests {
    use super::*;
    use absdomain::AValue;

    /// No step budget and no depth check: the reference the
    /// budget-boundary tests compare against.
    const UNLIMITED: AnalysisLimits = AnalysisLimits {
        max_steps: u64::MAX,
        max_ast_depth: usize::MAX,
    };

    fn usages_of(src: &str) -> Usages {
        let unit = javalang::parse_compilation_unit(src).expect("parse");
        analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
            .expect("within budget")
            .0
    }

    /// The paper's Figure 2 example, new version.
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

    #[test]
    fn figure2_two_cipher_objects() {
        let usages = usages_of(FIGURE2_NEW);
        let ciphers: Vec<_> = usages.objects_of_type("Cipher").collect();
        assert_eq!(ciphers.len(), 2, "one abstract object per getInstance site");
        let ivs: Vec<_> = usages.objects_of_type("IvParameterSpec").collect();
        assert_eq!(ivs.len(), 1);
    }

    #[test]
    fn figure2_enc_usage_events() {
        let usages = usages_of(FIGURE2_NEW);
        let enc = usages.objects_of_type("Cipher").next().unwrap();
        let events = usages.events_of(enc);
        assert_eq!(events.len(), 2, "getInstance + init: {events:?}");

        let get_instance = &events[0];
        assert_eq!(&*get_instance.method.name, "getInstance");
        assert_eq!(
            get_instance.args,
            vec![AValue::Str("AES/CBC/PKCS5Padding".into())],
            "field constant must flow into the factory call"
        );

        let init = &events[1];
        assert_eq!(&*init.method.name, "init");
        assert_eq!(init.args.len(), 3);
        assert_eq!(
            init.args[0],
            AValue::ApiConst {
                class: "Cipher".into(),
                name: "ENCRYPT_MODE".into()
            }
        );
        assert_eq!(
            init.args[1],
            AValue::TopObj {
                ty: Some("Secret".into())
            }
        );
        assert!(matches!(init.args[2], AValue::Obj { ref ty, .. } if &**ty == "IvParameterSpec"));
    }

    #[test]
    fn figure2_iv_spec_has_ctor_and_foreign_init() {
        let usages = usages_of(FIGURE2_NEW);
        let iv = usages.objects_of_type("IvParameterSpec").next().unwrap();
        let events = usages.events_of(iv);
        // <init>(⊤byte[]), Cipher.init (from enc), Cipher.init (from dec —
        // deduplicated because the abstract args are identical except the
        // mode constant).
        assert!(events.iter().any(|e| e.method.is_ctor()));
        let ctor = events.iter().find(|e| e.method.is_ctor()).unwrap();
        assert_eq!(
            ctor.args,
            vec![AValue::TopByteArray],
            "IV bytes derive from a parameter, hence ⊤byte[]"
        );
        assert!(
            events
                .iter()
                .any(|e| &*e.method.name == "init" && &*e.method.class == "Cipher"),
            "passing the spec to Cipher.init is a usage of the spec: {events:?}"
        );
    }

    #[test]
    fn static_byte_array_is_const() {
        let usages = usages_of(
            r#"
            class C {
                void m(Key key) throws Exception {
                    byte[] iv = { 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15 };
                    IvParameterSpec spec = new IvParameterSpec(iv);
                }
            }
            "#,
        );
        let iv = usages.objects_of_type("IvParameterSpec").next().unwrap();
        let ctor = &usages.events_of(iv)[0];
        assert_eq!(ctor.args, vec![AValue::ConstByteArray]);
    }

    #[test]
    fn new_byte_array_without_randomization_is_const() {
        let usages = usages_of(
            r#"
            class C {
                void m() {
                    byte[] iv = new byte[16];
                    IvParameterSpec spec = new IvParameterSpec(iv);
                }
            }
            "#,
        );
        let iv = usages.objects_of_type("IvParameterSpec").next().unwrap();
        assert_eq!(usages.events_of(iv)[0].args, vec![AValue::ConstByteArray]);
    }

    #[test]
    fn next_bytes_havocs_the_array() {
        let usages = usages_of(
            r#"
            class C {
                void m() throws Exception {
                    byte[] iv = new byte[16];
                    SecureRandom random = new SecureRandom();
                    random.nextBytes(iv);
                    IvParameterSpec spec = new IvParameterSpec(iv);
                }
            }
            "#,
        );
        let iv = usages.objects_of_type("IvParameterSpec").next().unwrap();
        assert_eq!(
            usages.events_of(iv)[0].args,
            vec![AValue::TopByteArray],
            "randomized IV must not look constant"
        );
    }

    #[test]
    fn branches_fork_and_join() {
        let usages = usages_of(
            r#"
            class C {
                void m(boolean strong) throws Exception {
                    String algo;
                    if (strong) { algo = "SHA-256"; } else { algo = "SHA-1"; }
                    MessageDigest d = MessageDigest.getInstance(algo);
                    MessageDigest fixed = MessageDigest.getInstance("MD5");
                }
            }
            "#,
        );
        let digests: Vec<_> = usages.objects_of_type("MessageDigest").collect();
        assert_eq!(digests.len(), 2);
        assert_eq!(
            usages.events_of(digests[0])[0].args,
            vec![AValue::TopStr],
            "joined branches give ⊤str"
        );
        assert_eq!(
            usages.events_of(digests[1])[0].args,
            vec![AValue::Str("MD5".into())]
        );
    }

    #[test]
    fn helper_methods_are_inlined() {
        let usages = usages_of(
            r#"
            class C {
                Cipher create(String algo) throws Exception {
                    return Cipher.getInstance(algo);
                }
                void use(Key key) throws Exception {
                    Cipher c = create("DES");
                    c.init(Cipher.ENCRYPT_MODE, key);
                }
            }
            "#,
        );
        let ciphers: Vec<_> = usages.objects_of_type("Cipher").collect();
        assert_eq!(ciphers.len(), 1, "one allocation site inside the helper");
        let events = usages.events_of(ciphers[0]);
        assert!(
            events
                .iter()
                .any(|e| &*e.method.name == "getInstance"
                    && e.args == vec![AValue::Str("DES".into())]),
            "constant must flow through the inlined helper: {events:?}"
        );
        assert!(events.iter().any(|e| &*e.method.name == "init"));
    }

    #[test]
    fn recursion_terminates() {
        let usages = usages_of(
            r#"
            class C {
                void a(int n) { b(n); }
                void b(int n) { a(n); }
            }
            "#,
        );
        assert!(usages.objects.is_empty());
    }

    #[test]
    fn string_concat_folds() {
        let usages = usages_of(
            r#"
            class C {
                void m() throws Exception {
                    String mode = "CBC";
                    Cipher c = Cipher.getInstance("AES/" + mode + "/PKCS5Padding");
                }
            }
            "#,
        );
        let cipher = usages.objects_of_type("Cipher").next().unwrap();
        assert_eq!(
            usages.events_of(cipher)[0].args,
            vec![AValue::Str("AES/CBC/PKCS5Padding".into())]
        );
    }

    #[test]
    fn secure_random_set_seed_constant_detected() {
        let usages = usages_of(
            r#"
            class C {
                void m() {
                    SecureRandom r = new SecureRandom();
                    byte[] seed = { 1, 2, 3 };
                    r.setSeed(seed);
                }
            }
            "#,
        );
        let rng = usages.objects_of_type("SecureRandom").next().unwrap();
        let events = usages.events_of(rng);
        let set_seed = events
            .iter()
            .find(|e| &*e.method.name == "setSeed")
            .unwrap();
        assert_eq!(set_seed.args, vec![AValue::ConstByteArray]);
    }

    #[test]
    fn pbe_key_spec_iterations_tracked() {
        let usages = usages_of(
            r#"
            class C {
                void m(char[] password) {
                    byte[] salt = new byte[8];
                    PBEKeySpec spec = new PBEKeySpec(password, salt, 100, 256);
                }
            }
            "#,
        );
        let spec = usages.objects_of_type("PBEKeySpec").next().unwrap();
        let ctor = &usages.events_of(spec)[0];
        assert_eq!(ctor.args.len(), 4);
        assert_eq!(ctor.args[2], AValue::Int(100));
    }

    #[test]
    fn loops_analyze_body_once() {
        let usages = usages_of(
            r#"
            class C {
                void m() throws Exception {
                    for (int i = 0; i < 10; i++) {
                        MessageDigest d = MessageDigest.getInstance("SHA-256");
                    }
                }
            }
            "#,
        );
        assert_eq!(usages.objects_of_type("MessageDigest").count(), 1);
    }

    #[test]
    fn untracked_classes_get_sites_but_no_target_objects() {
        let usages =
            usages_of(r#"class C { void m() { StringBuilder sb = new StringBuilder(); } }"#);
        // Every allocation site is an abstract object (heap abstraction)…
        assert_eq!(usages.objects_of_type("StringBuilder").count(), 1);
        // …but no target-class objects exist.
        for class in crate::TARGET_CLASSES {
            assert_eq!(usages.objects_of_type(class).count(), 0);
        }
    }

    #[test]
    fn heap_tracks_fields_of_user_objects() {
        let usages = usages_of(
            r#"
            class Config {
                void m() throws Exception {
                    Settings settings = new Settings();
                    settings.algo = "SHA-256";
                    MessageDigest d = MessageDigest.getInstance(settings.algo);
                }
            }
            "#,
        );
        let digest = usages.objects_of_type("MessageDigest").next().unwrap();
        assert_eq!(
            usages.events_of(digest)[0].args,
            vec![AValue::Str("SHA-256".into())],
            "constant must flow through the object field"
        );
    }

    #[test]
    fn heap_joins_across_branches() {
        let usages = usages_of(
            r#"
            class Config {
                void m(boolean strong) throws Exception {
                    Settings settings = new Settings();
                    if (strong) { settings.algo = "SHA-256"; }
                    else { settings.algo = "SHA-1"; }
                    MessageDigest d = MessageDigest.getInstance(settings.algo);
                }
            }
            "#,
        );
        let digest = usages.objects_of_type("MessageDigest").next().unwrap();
        assert_eq!(usages.events_of(digest)[0].args, vec![AValue::TopStr]);
    }

    #[test]
    fn heap_chained_field_reads() {
        let usages = usages_of(
            r#"
            class Config {
                void m() throws Exception {
                    Outer outer = new Outer();
                    outer.inner = new Inner();
                    outer.inner.algo = "MD5";
                    MessageDigest d = MessageDigest.getInstance(outer.inner.algo);
                }
            }
            "#,
        );
        let digest = usages.objects_of_type("MessageDigest").next().unwrap();
        assert_eq!(
            usages.events_of(digest)[0].args,
            vec![AValue::Str("MD5".into())]
        );
    }

    #[test]
    fn step_budget_boundary_is_exact() {
        let unit = javalang::parse_compilation_unit(FIXTURE).expect("parse");
        let api = ApiModel::standard();
        let (full, steps) = analyze(&unit, &api, &UNLIMITED).expect("unlimited");
        assert!(steps > 0);

        let exact = AnalysisLimits {
            max_steps: steps,
            ..AnalysisLimits::DEFAULT
        };
        assert_eq!(
            analyze(&unit, &api, &exact),
            Ok((full, steps)),
            "exact budget suffices and matches the unlimited run"
        );

        let short = AnalysisLimits {
            max_steps: steps - 1,
            ..AnalysisLimits::DEFAULT
        };
        assert_eq!(
            analyze(&unit, &api, &short),
            Err(AnalysisError::StepBudgetExceeded {
                max_steps: steps - 1
            })
        );
    }

    const FIXTURE: &str = r#"
        class C {
            void m(boolean strong) throws Exception {
                String algo;
                if (strong) { algo = "SHA-256"; } else { algo = "SHA-1"; }
                MessageDigest d = MessageDigest.getInstance(algo);
            }
        }
    "#;

    #[test]
    fn ast_depth_limit_rejects_deep_trees() {
        let unit = javalang::parse_compilation_unit(FIXTURE).expect("parse");
        let api = ApiModel::standard();
        let depth = javalang::visit::ast_depth(&unit);
        let tight = AnalysisLimits {
            max_ast_depth: depth - 1,
            ..AnalysisLimits::DEFAULT
        };
        assert_eq!(
            analyze(&unit, &api, &tight),
            Err(AnalysisError::AstTooDeep {
                depth,
                max_depth: depth - 1
            })
        );
        let loose = AnalysisLimits {
            max_ast_depth: depth,
            ..AnalysisLimits::DEFAULT
        };
        assert!(analyze(&unit, &api, &loose).is_ok());
    }

    #[test]
    fn default_budget_handles_real_sources() {
        let unit = javalang::parse_compilation_unit(FIGURE2_NEW).expect("parse");
        let api = ApiModel::standard();
        let usages = analyze(&unit, &api, &AnalysisLimits::DEFAULT).expect("figure 2 is tiny");
        assert_eq!(usages, analyze(&unit, &api, &UNLIMITED).expect("unlimited"));
    }

    #[test]
    fn events_deduplicate_identical_usages() {
        let usages = usages_of(
            r#"
            class C {
                void m() throws Exception {
                    MessageDigest d = MessageDigest.getInstance("SHA-256");
                    d.reset();
                    d.reset();
                }
            }
            "#,
        );
        let d = usages.objects_of_type("MessageDigest").next().unwrap();
        let resets = usages
            .events_of(d)
            .iter()
            .filter(|e| &*e.method.name == "reset")
            .count();
        assert_eq!(resets, 1);
    }
}
