//! Abstract-interpretation semantics: each test pins one behaviour of
//! the analyzer on a realistic crypto snippet.

use absdomain::AValue;
use analysis::{analyze, AnalysisLimits, ApiModel, Usages};

fn usages(src: &str) -> Usages {
    let unit = javalang::parse_compilation_unit(src).expect("parse");
    assert!(unit.diagnostics.is_empty(), "{:?}", unit.diagnostics);
    analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
        .expect("within budget")
        .0
}

fn first_arg_of(usages: &Usages, class: &str, method: &str) -> AValue {
    let site = usages.objects_of_type(class).next().unwrap_or_else(|| {
        panic!("no {class} object");
    });
    usages
        .events_of(site)
        .iter()
        .find(|e| &*e.method.name == method)
        .unwrap_or_else(|| panic!("no {method} on {class}"))
        .args[0]
        .clone()
}

#[test]
fn switch_arms_join() {
    let u = usages(
        r#"
        class C {
            void m(int mode) throws Exception {
                String algo;
                switch (mode) {
                    case 1: algo = "SHA-256"; break;
                    case 2: algo = "SHA-512"; break;
                    default: algo = "SHA-256"; break;
                }
                MessageDigest d = MessageDigest.getInstance(algo);
            }
        }
        "#,
    );
    assert_eq!(
        first_arg_of(&u, "MessageDigest", "getInstance"),
        AValue::TopStr,
        "different arms force the join to ⊤str"
    );
}

#[test]
fn switch_with_identical_arms_keeps_constant() {
    let u = usages(
        r#"
        class C {
            void m(int mode) throws Exception {
                String algo = "SHA-256";
                switch (mode) {
                    case 1: log(); break;
                    default: log2(); break;
                }
                MessageDigest d = MessageDigest.getInstance(algo);
            }
        }
        "#,
    );
    assert_eq!(
        first_arg_of(&u, "MessageDigest", "getInstance"),
        AValue::Str("SHA-256".into())
    );
}

#[test]
fn conditional_expression_joins() {
    let u = usages(
        r#"
        class C {
            void m(boolean strong) throws Exception {
                MessageDigest d =
                    MessageDigest.getInstance(strong ? "SHA-512" : "SHA-256");
            }
        }
        "#,
    );
    assert_eq!(
        first_arg_of(&u, "MessageDigest", "getInstance"),
        AValue::TopStr
    );
}

#[test]
fn try_catch_fallback_joins() {
    let u = usages(
        r#"
        class C {
            void m() throws Exception {
                String algo = "SHA-256";
                try {
                    probe();
                } catch (Exception e) {
                    algo = "SHA-1";
                }
                MessageDigest d = MessageDigest.getInstance(algo);
            }
        }
        "#,
    );
    assert_eq!(
        first_arg_of(&u, "MessageDigest", "getInstance"),
        AValue::TopStr,
        "catch path must join into the fall-through state"
    );
}

#[test]
fn foreach_element_is_top() {
    let u = usages(
        r#"
        class C {
            void m(String[] algos) throws Exception {
                for (String algo : algos) {
                    MessageDigest d = MessageDigest.getInstance(algo);
                }
            }
        }
        "#,
    );
    assert_eq!(
        first_arg_of(&u, "MessageDigest", "getInstance"),
        AValue::TopStr
    );
}

#[test]
fn string_array_constant_indexing() {
    let u = usages(
        r#"
        class C {
            void m(int i) throws Exception {
                String[] algos = { "SHA-256", "SHA-512" };
                MessageDigest d = MessageDigest.getInstance(algos[i]);
            }
        }
        "#,
    );
    // Element reads of even constant arrays are ⊤str (index unknown).
    assert_eq!(
        first_arg_of(&u, "MessageDigest", "getInstance"),
        AValue::TopStr
    );
}

#[test]
fn compound_string_concat_in_loop_stays_sound() {
    let u = usages(
        r#"
        class C {
            void m() throws Exception {
                String algo = "AES";
                algo += "/CBC";
                algo += "/PKCS5Padding";
                Cipher c = Cipher.getInstance(algo);
            }
        }
        "#,
    );
    assert_eq!(
        first_arg_of(&u, "Cipher", "getInstance"),
        AValue::Str("AES/CBC/PKCS5Padding".into())
    );
}

#[test]
fn interprocedural_argument_flow() {
    let u = usages(
        r#"
        class C {
            private MessageDigest make(String algo) throws Exception {
                return MessageDigest.getInstance(algo);
            }
            void a() throws Exception { MessageDigest d = make("SHA-1"); }
        }
        "#,
    );
    // The helper is analyzed both standalone (algo = ⊤str) and inlined
    // from `a` (algo = "SHA-1"); the constant event must be present.
    let site = u.objects_of_type("MessageDigest").next().unwrap();
    let algos: Vec<String> = u
        .events_of(site)
        .iter()
        .filter(|e| &*e.method.name == "getInstance")
        .map(|e| e.args[0].label())
        .collect();
    assert!(algos.contains(&"SHA-1".to_owned()), "{algos:?}");
}

#[test]
fn helper_called_from_two_entries_merges_events() {
    let u = usages(
        r#"
        class C {
            private MessageDigest make(String algo) throws Exception {
                return MessageDigest.getInstance(algo);
            }
            void a() throws Exception { MessageDigest d = make("SHA-1"); }
            void b() throws Exception { MessageDigest d = make("SHA-256"); }
        }
        "#,
    );
    // Same allocation site, two distinct getInstance events.
    let site = u.objects_of_type("MessageDigest").next().unwrap();
    let algos: Vec<String> = u
        .events_of(site)
        .iter()
        .filter(|e| &*e.method.name == "getInstance")
        .map(|e| e.args[0].label())
        .collect();
    assert_eq!(u.objects_of_type("MessageDigest").count(), 1);
    assert!(algos.contains(&"SHA-1".to_owned()), "{algos:?}");
    assert!(algos.contains(&"SHA-256".to_owned()), "{algos:?}");
}

#[test]
fn field_mutation_through_helper_is_visible() {
    let u = usages(
        r#"
        class C {
            String algo = "SHA-1";
            private void upgrade() { algo = "SHA-256"; }
            void m() throws Exception {
                upgrade();
                MessageDigest d = MessageDigest.getInstance(algo);
            }
        }
        "#,
    );
    assert_eq!(
        first_arg_of(&u, "MessageDigest", "getInstance"),
        AValue::Str("SHA-256".into())
    );
}

#[test]
fn do_while_executes_body_once() {
    let u = usages(
        r#"
        class C {
            void m() throws Exception {
                do {
                    MessageDigest d = MessageDigest.getInstance("MD5");
                } while (retry());
            }
        }
        "#,
    );
    assert_eq!(u.objects_of_type("MessageDigest").count(), 1);
}

#[test]
fn static_call_on_fully_qualified_class() {
    let u = usages(
        r#"
        class C {
            void m() throws Exception {
                javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("DES");
            }
        }
        "#,
    );
    assert_eq!(
        first_arg_of(&u, "Cipher", "getInstance"),
        AValue::Str("DES".into())
    );
}

#[test]
fn cipher_modes_via_api_constants() {
    let u = usages(
        r#"
        class C {
            void m(Key key) throws Exception {
                Cipher c = Cipher.getInstance("AES");
                c.init(Cipher.DECRYPT_MODE, key);
            }
        }
        "#,
    );
    let site = u.objects_of_type("Cipher").next().unwrap();
    let init = u
        .events_of(site)
        .iter()
        .find(|e| &*e.method.name == "init")
        .unwrap();
    assert_eq!(
        init.args[0],
        AValue::ApiConst {
            class: "Cipher".into(),
            name: "DECRYPT_MODE".into()
        }
    );
}

#[test]
fn int_arithmetic_folds_into_iteration_count() {
    let u = usages(
        r#"
        class C {
            void m(char[] pw, byte[] salt) {
                int base = 1 << 10;
                PBEKeySpec spec = new PBEKeySpec(pw, salt, base * 64, 256);
            }
        }
        "#,
    );
    let site = u.objects_of_type("PBEKeySpec").next().unwrap();
    assert_eq!(u.events_of(site)[0].args[2], AValue::Int(65536));
}

#[test]
fn array_store_of_runtime_byte_havocs_constness() {
    let u = usages(
        r#"
        class C {
            void m(byte b) {
                byte[] iv = new byte[16];
                iv[0] = b;
                IvParameterSpec spec = new IvParameterSpec(iv);
            }
        }
        "#,
    );
    let site = u.objects_of_type("IvParameterSpec").next().unwrap();
    assert_eq!(u.events_of(site)[0].args[0], AValue::TopByteArray);
}

#[test]
fn array_store_of_constant_byte_keeps_constness() {
    let u = usages(
        r#"
        class C {
            void m() {
                byte[] iv = new byte[16];
                iv[0] = 7;
                IvParameterSpec spec = new IvParameterSpec(iv);
            }
        }
        "#,
    );
    let site = u.objects_of_type("IvParameterSpec").next().unwrap();
    assert_eq!(u.events_of(site)[0].args[0], AValue::ConstByteArray);
}

#[test]
fn mac_and_keygenerator_are_tracked() {
    let u = usages(
        r#"
        class C {
            void m(byte[] data, Key k) throws Exception {
                Mac mac = Mac.getInstance("HmacSHA256");
                mac.init(k);
                KeyGenerator kg = KeyGenerator.getInstance("AES");
                kg.init(256);
            }
        }
        "#,
    );
    assert_eq!(u.objects_of_type("Mac").count(), 1);
    assert_eq!(u.objects_of_type("KeyGenerator").count(), 1);
    let kg = u.objects_of_type("KeyGenerator").next().unwrap();
    let init = u
        .events_of(kg)
        .iter()
        .find(|e| &*e.method.name == "init")
        .unwrap();
    assert_eq!(init.args[0], AValue::Int(256));
}

#[test]
fn partial_program_with_unknown_types_still_analyzes() {
    let u = usages(
        r#"
        class C extends SomeUnknownBase implements Weird {
            void m(MysteryType mystery) throws Exception {
                MessageDigest d = MessageDigest.getInstance("SHA-256");
                mystery.consume(d.digest(mystery.payload()));
            }
        }
        "#,
    );
    assert_eq!(u.objects_of_type("MessageDigest").count(), 1);
}

#[test]
fn anonymous_class_body_does_not_break_analysis() {
    let u = usages(
        r#"
        class C {
            void m() throws Exception {
                Runnable r = new Runnable() { public void run() { } };
                Cipher c = Cipher.getInstance("AES");
            }
        }
        "#,
    );
    assert_eq!(u.objects_of_type("Cipher").count(), 1);
}

#[test]
fn constants_holder_class_resolves_across_classes() {
    let u = usages(
        r#"
        class Constants {
            static final String HASH_ALGO = "SHA-1";
            static final byte[] SHARED_IV = { 1, 2, 3, 4 };
        }
        class Worker {
            void m() throws Exception {
                MessageDigest d = MessageDigest.getInstance(Constants.HASH_ALGO);
                IvParameterSpec iv = new IvParameterSpec(Constants.SHARED_IV);
            }
        }
        "#,
    );
    assert_eq!(
        first_arg_of(&u, "MessageDigest", "getInstance"),
        AValue::Str("SHA-1".into())
    );
    let iv = u.objects_of_type("IvParameterSpec").next().unwrap();
    assert_eq!(
        u.events_of(iv)[0].args[0],
        AValue::ConstByteArray,
        "a shared hard-coded IV is still constant material"
    );
}

#[test]
fn non_final_cross_class_fields_stay_unknown() {
    let u = usages(
        r#"
        class Config { static String algo = "SHA-1"; }
        class Worker {
            void m() throws Exception {
                MessageDigest d = MessageDigest.getInstance(Config.algo);
            }
        }
        "#,
    );
    // Mutable statics are not constants; the analyzer must not assume
    // the initializer value.
    assert_ne!(
        first_arg_of(&u, "MessageDigest", "getInstance"),
        AValue::Str("SHA-1".into())
    );
}
