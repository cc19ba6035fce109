//! End-to-end tests of the compiled `diffcode` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn diffcode(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diffcode"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diffcode-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const INSECURE: &str = r#"
class Demo {
    byte[] encrypt(byte[] data, javax.crypto.SecretKey key) throws Exception {
        Cipher c = Cipher.getInstance("AES");
        c.init(Cipher.ENCRYPT_MODE, key);
        return c.doFinal(data);
    }
}
"#;

const SECURE: &str = r#"
class Demo {
    byte[] encrypt(byte[] data, javax.crypto.SecretKey key, byte[] iv) throws Exception {
        Cipher c = Cipher.getInstance("AES/GCM/NoPadding", "BC");
        c.init(Cipher.ENCRYPT_MODE, key, new GCMParameterSpec(128, iv));
        return c.doFinal(data);
    }
}
"#;

#[test]
fn no_args_prints_usage_and_exits_2() {
    let out = diffcode(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_errors() {
    let out = diffcode(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn chaos_prints_exact_accounting() {
    let out = diffcode(&["chaos", "--seed", "7", "--rate", "0.5", "--projects", "3"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chaos run: seed 7"), "{stdout}");
    assert!(stdout.contains("quarantine rate:"), "{stdout}");
    assert!(stdout.contains("accounting exact"), "{stdout}");
}

#[test]
fn chaos_rejects_bad_rate() {
    let out = diffcode(&["chaos", "--rate", "1.5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not in 0..1"));
}

#[test]
fn rules_prints_figure9() {
    let out = diffcode(&["rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R7"));
    assert!(stdout.contains("R13"));
    assert!(stdout.contains("References:"));
}

#[test]
fn analyze_prints_dag() {
    let path = write_temp("Analyze.java", INSECURE);
    let out = diffcode(&["analyze", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Cipher getInstance arg1:AES"), "{stdout}");
}

#[test]
fn diff_prints_usage_change() {
    let old = write_temp("Old.java", INSECURE);
    let new = write_temp("New.java", SECURE);
    let out = diffcode(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("- Cipher getInstance arg1:AES"), "{stdout}");
    assert!(
        stdout.contains("+ Cipher getInstance arg1:AES/GCM/NoPadding"),
        "{stdout}"
    );
}

#[test]
fn check_exit_codes_reflect_findings() {
    let insecure = write_temp("Insecure.java", INSECURE);
    let out = diffcode(&["check", insecure.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "violations -> exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R7"), "{stdout}");

    let secure = write_temp("Secure.java", SECURE);
    let out = diffcode(&["check", secure.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "clean -> exit 0");
}

/// A file padded past the analysis budget can never pass a check
/// clean, and `analyze`/`diff` refuse it with the typed error.
#[test]
fn files_over_the_budget_are_not_analyzed_and_exit_2() {
    let bomb = write_temp("Bomb.java", &corpus::chaos::call_chain_bomb(80, 0));
    let secure = write_temp("Secure.java", SECURE);
    let insecure = write_temp("Insecure.java", INSECURE);

    let out = diffcode(&["check", bomb.to_str().unwrap(), secure.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unanalyzed file, no violation: {stdout}"
    );
    assert!(
        stdout.contains("Bomb.java: analysis exceeded its budget"),
        "{stdout}"
    );
    assert!(
        stdout.contains("no rule violations in 2 file(s) (1 not analyzed)"),
        "{stdout}"
    );

    let out = diffcode(&["check", bomb.to_str().unwrap(), insecure.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "a violation wins: {stdout}");
    assert!(
        stdout.contains("in 2 file(s) (1 not analyzed):"),
        "{stdout}"
    );

    for args in [
        vec!["analyze", bomb.to_str().unwrap()],
        vec!["diff", secure.to_str().unwrap(), bomb.to_str().unwrap()],
    ] {
        let out = diffcode(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: analysis exceeded its budget of 2000000 steps"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn check_android_context_enables_r6() {
    let src = r#"
    class T {
        byte[] token() {
            SecureRandom r = new SecureRandom();
            byte[] b = new byte[16];
            r.nextBytes(b);
            return b;
        }
    }
    "#;
    let path = write_temp("Token.java", src);
    let plain = diffcode(&["check", path.to_str().unwrap()]);
    assert!(!String::from_utf8_lossy(&plain.stdout).contains("R6"));
    let android = diffcode(&["check", path.to_str().unwrap(), "--android", "17"]);
    assert!(
        String::from_utf8_lossy(&android.stdout).contains("R6"),
        "{}",
        String::from_utf8_lossy(&android.stdout)
    );
}

#[test]
fn check_walks_directories() {
    let dir = std::env::temp_dir().join(format!("diffcode-cli-dirtest-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("nested")).unwrap();
    std::fs::write(dir.join("A.java"), INSECURE).unwrap();
    std::fs::write(dir.join("nested/B.java"), SECURE).unwrap();
    std::fs::write(dir.join("README.md"), "not java").unwrap();
    let out = diffcode(&["check", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 file(s)"), "{stdout}");
}

#[test]
fn bad_flag_reports_error() {
    let out = diffcode(&["check", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn check_materialized_generated_project() {
    // Generated corpus -> real files on disk -> the CLI checks them.
    let corpus = corpus::generate(&corpus::GeneratorConfig::small(6, 0xD15C));
    let dir = std::env::temp_dir().join(format!("diffcode-materialize-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let project = &corpus.projects[0];
    let written = project.materialize(&dir).unwrap();
    assert!(!written.is_empty());

    let out = diffcode(&["check", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Exit code 0 or 1 depending on the project's state; never a usage
    // error, and the report must count the right number of files.
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "{stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&format!("{} file(s)", written.len())),
        "{stdout}"
    );
}

/// Every entry under `root` with its bytes (`None` for a directory),
/// sorted by path; empty when `root` does not exist.
fn snapshot(root: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return out;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.push((path.clone(), None));
            out.extend(snapshot(&path));
        } else {
            out.push((path.clone(), Some(std::fs::read(&path).unwrap())));
        }
    }
    out.sort();
    out
}

#[test]
fn cache_commands_need_an_existing_log_and_create_nothing() {
    let base = std::env::temp_dir().join(format!("diffcode-cache-cmd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let missing = base.join("missing");
    // A cache directory that holds only the other namespace's log.
    let cluster_only = base.join("cluster-only");
    std::fs::create_dir_all(&cluster_only).unwrap();
    std::fs::write(cluster_only.join("cluster.log"), b"not the mining log").unwrap();

    for action in ["stats", "vacuum", "verify"] {
        // (directory, --namespace flag, namespace it resolves to)
        for (dir, flag, namespace) in [
            (&missing, None, "cache"),
            (&missing, Some("cluster"), "cluster"),
            (&cluster_only, None, "cache"),
        ] {
            let mut args = vec!["cache", action, "--cache-dir", dir.to_str().unwrap()];
            if let Some(ns) = flag {
                args.extend(["--namespace", ns]);
            }
            let before = snapshot(&base);
            let out = diffcode(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{action} {namespace}: {stderr}");
            let log = dir.join(format!("{namespace}.log"));
            let expected = format!("error: no {namespace} log at {}", log.display());
            assert!(stderr.contains(&expected), "{action}: {stderr}");
            assert!(out.stdout.is_empty(), "{action} printed a report");
            assert_eq!(snapshot(&base), before, "{action} touched the file system");
            assert!(!missing.exists(), "{action} created {}", missing.display());
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
