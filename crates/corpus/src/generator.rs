//! The seeded corpus generator — the stand-in for the paper's GitHub
//! crawl (§6.1: 461 projects, 11 551 code changes).
//!
//! Every distribution below is calibrated against the proportions the
//! paper reports (Figures 6, 7, and 10); EXPERIMENTS.md records the
//! calibration targets next to the measured outcomes. Generation is
//! fully deterministic for a given [`GeneratorConfig::seed`].

use crate::model::{Commit, Corpus, FileChange, Project, ProjectFacts, GENERATED_AUTHOR};
use crate::templates::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic corpus.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of projects (the paper trains on 461 and checks 519).
    pub n_projects: usize,
    /// RNG seed; same seed → identical corpus.
    pub seed: u64,
    /// Inclusive range of crypto-touching commits per project (the
    /// paper mines ≈ 25 per project).
    pub commits_per_project: (usize, usize),
    /// Fraction of Android projects (rule R6 context).
    pub android_fraction: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            n_projects: 461,
            seed: 0xD1FF_C0DE,
            commits_per_project: (18, 32),
            android_fraction: 0.20,
        }
    }
}

impl GeneratorConfig {
    /// A small corpus for tests and quick demos.
    pub fn small(n_projects: usize, seed: u64) -> Self {
        GeneratorConfig {
            n_projects,
            seed,
            ..GeneratorConfig::default()
        }
    }
}

/// Generates a corpus.
pub fn generate(config: &GeneratorConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let projects = (0..config.n_projects)
        .map(|idx| generate_project(idx, config, &mut rng))
        .collect();
    Corpus { projects }
}

// ---------------------------------------------------------------------
// Modules
// ---------------------------------------------------------------------

/// One evolving crypto-relevant source file of a project.
#[derive(Debug, Clone)]
enum Module {
    Cipher(CipherScenario),
    Digest(DigestScenario),
    Random(RandomScenario),
    Pbe(PbeScenario),
    Signature(SignatureScenario),
}

impl Module {
    fn path(&self, pkg_segment: &str) -> String {
        format!(
            "src/main/java/com/{pkg_segment}/crypto/{}.java",
            self.class_name()
        )
    }

    fn class_name(&self) -> &'static str {
        match self {
            Module::Cipher(_) => "CryptoService",
            Module::Digest(_) => "Hasher",
            Module::Random(_) => "TokenGenerator",
            Module::Pbe(_) => "PasswordCrypto",
            Module::Signature(_) => "Signer",
        }
    }

    fn render(&self, pkg_segment: &str) -> String {
        let package = format!("com.{pkg_segment}.crypto");
        match self {
            Module::Cipher(s) => s.render(self.class_name(), &package),
            Module::Digest(s) => s.render(self.class_name(), &package),
            Module::Random(s) => s.render(self.class_name(), &package),
            Module::Pbe(s) => s.render(self.class_name(), &package),
            Module::Signature(s) => s.render(self.class_name(), &package),
        }
    }

    fn style_mut(&mut self) -> &mut StyleKnobs {
        match self {
            Module::Cipher(s) => &mut s.style,
            Module::Digest(s) => &mut s.style,
            Module::Random(s) => &mut s.style,
            Module::Pbe(s) => &mut s.style,
            Module::Signature(s) => &mut s.style,
        }
    }
}

// ---------------------------------------------------------------------
// Initial-state sampling (calibrated to Figure 10 match rates)
// ---------------------------------------------------------------------

fn weighted<'a, T>(rng: &mut StdRng, items: &'a [(T, f64)]) -> &'a T {
    let total: f64 = items.iter().map(|(_, w)| w).sum();
    let mut roll = rng.random::<f64>() * total;
    for (item, weight) in items {
        roll -= weight;
        if roll <= 0.0 {
            return item;
        }
    }
    &items[items.len() - 1].0
}

fn sample_cipher(rng: &mut StdRng) -> CipherScenario {
    use CipherAlgo::*;
    let algo = *weighted(
        rng,
        &[
            (AesDefault, 0.22),
            (AesEcb, 0.10),
            (AesCbc, 0.27),
            (AesCtr, 0.05),
            (AesGcm, 0.09),
            (Des, 0.10),
            (DesEde, 0.05),
            (Blowfish, 0.05),
            (Rsa, 0.07),
        ],
    );
    let iv = if algo.needs_iv() {
        *weighted(
            rng,
            &[
                (IvKind::Static, 0.08),
                (IvKind::Random, 0.55),
                (IvKind::Param, 0.37),
            ],
        )
    } else {
        IvKind::Absent
    };
    let key = *weighted(
        rng,
        &[
            (KeyKind::Hardcoded, 0.06),
            (KeyKind::Param, 0.70),
            (KeyKind::Generated, 0.24),
        ],
    );
    let rsa_wrap = rng.random_bool(0.09);
    let with_mac = rsa_wrap && rng.random_bool(0.5);
    CipherScenario {
        algo,
        padding: *weighted(
            rng,
            &[
                (Padding::Pkcs5, 0.70),
                (Padding::None, 0.20),
                (Padding::Pkcs7, 0.10),
            ],
        ),
        bc_provider: rng.random_bool(0.03),
        iv,
        key,
        rsa_wrap,
        with_mac,
        extra_usages: *weighted(rng, &[(0u8, 0.6), (1, 0.3), (2, 0.1)]),
        style: sample_style(rng),
    }
}

fn sample_digest_algo(rng: &mut StdRng) -> String {
    weighted(
        rng,
        &[
            ("SHA-1".to_owned(), 0.30),
            ("MD5".to_owned(), 0.22),
            ("SHA-256".to_owned(), 0.38),
            ("SHA-512".to_owned(), 0.10),
        ],
    )
    .clone()
}

fn sample_digest(rng: &mut StdRng) -> DigestScenario {
    let n_extra = *weighted(rng, &[(0usize, 0.55), (1, 0.3), (2, 0.15)]);
    DigestScenario {
        algo: sample_digest_algo(rng),
        extra: (0..n_extra).map(|_| sample_digest_algo(rng)).collect(),
        style: sample_style(rng),
    }
}

fn sample_random(rng: &mut StdRng) -> RandomScenario {
    RandomScenario {
        ctor: *weighted(
            rng,
            &[
                (RngCtor::Default, 0.95),
                (RngCtor::Sha1Prng, 0.035),
                (RngCtor::Strong, 0.015),
            ],
        ),
        sun_provider: rng.random_bool(0.25),
        seed: *weighted(
            rng,
            &[
                (SeedKind::Absent, 0.93),
                (SeedKind::Static, 0.012),
                (SeedKind::Param, 0.058),
            ],
        ),
        extra_usages: *weighted(rng, &[(0u8, 0.6), (1, 0.3), (2, 0.1)]),
        style: sample_style(rng),
    }
}

fn sample_pbe(rng: &mut StdRng) -> PbeScenario {
    PbeScenario {
        iterations: *weighted(
            rng,
            &[
                (64i64, 0.06),
                (100, 0.13),
                (500, 0.09),
                (1000, 0.24),
                (10000, 0.33),
                (65536, 0.15),
            ],
        ),
        salt: *weighted(
            rng,
            &[
                (SaltKind::Static, 0.12),
                (SaltKind::Random, 0.50),
                (SaltKind::Param, 0.38),
            ],
        ),
        style: sample_style(rng),
    }
}

fn sample_signature(rng: &mut StdRng) -> SignatureScenario {
    SignatureScenario {
        algo: weighted(
            rng,
            &[
                ("SHA1withRSA".to_owned(), 0.38),
                ("MD5withRSA".to_owned(), 0.10),
                ("SHA256withRSA".to_owned(), 0.40),
                ("SHA256withECDSA".to_owned(), 0.12),
            ],
        )
        .clone(),
        style: sample_style(rng),
    }
}

fn sample_style(rng: &mut StdRng) -> StyleKnobs {
    StyleKnobs {
        naming: rng.random_range(0..4),
        extract_const: rng.random_bool(0.4),
        helper: rng.random_bool(0.25),
        log_method: rng.random_bool(0.3),
        revision: 1,
    }
}

// ---------------------------------------------------------------------
// Change kinds (calibrated to Figure 6's filtering funnel)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChangeKind {
    /// Touches the file without touching crypto (comment bumps,
    /// logging) — filtered by `fsame`.
    Unrelated,
    /// Renames/extracts/reshuffles without semantic change — `fsame`.
    Refactor,
    /// Introduces a new API usage — `fadd`.
    AddUsage,
    /// Deletes an API usage — `frem`.
    RemoveUsage,
    /// A security fix (the signal).
    Fix,
    /// A change that introduces a violation.
    Bug,
}

fn sample_change_kind(rng: &mut StdRng) -> ChangeKind {
    *weighted(
        rng,
        &[
            (ChangeKind::Unrelated, 0.705),
            (ChangeKind::Refactor, 0.250),
            (ChangeKind::AddUsage, 0.014),
            (ChangeKind::RemoveUsage, 0.009),
            (ChangeKind::Fix, 0.021),
            (ChangeKind::Bug, 0.001),
        ],
    )
}

/// Applies a change of the given kind to the module; returns the commit
/// message. Kinds that do not apply to the current state degrade to a
/// refactoring or comment bump (exactly like real histories, where most
/// commits do not change crypto semantics).
fn apply_change(module: &mut Module, kind: ChangeKind, rng: &mut StdRng) -> String {
    match kind {
        ChangeKind::Unrelated => {
            module.style_mut().revision += 1;
            "Update internal bookkeeping".to_owned()
        }
        ChangeKind::Refactor => {
            apply_refactor(module, rng);
            "Refactor crypto helper for readability".to_owned()
        }
        ChangeKind::AddUsage => match module {
            Module::Cipher(s) if s.extra_usages < 4 => {
                s.extra_usages += 1;
                "Add legacy encryption entry point".to_owned()
            }
            Module::Digest(s) if s.extra.len() < 4 => {
                let algo = sample_digest_algo(rng);
                s.extra.push(algo);
                "Add fingerprint helper".to_owned()
            }
            Module::Random(s) if s.extra_usages < 4 => {
                s.extra_usages += 1;
                "Add dice-roll utility".to_owned()
            }
            other => apply_change(other, ChangeKind::Refactor, rng),
        },
        ChangeKind::RemoveUsage => match module {
            Module::Cipher(s) if s.extra_usages > 0 => {
                s.extra_usages -= 1;
                "Remove unused legacy encryption".to_owned()
            }
            Module::Digest(s) if !s.extra.is_empty() => {
                s.extra.pop();
                "Remove dead fingerprint helper".to_owned()
            }
            Module::Random(s) if s.extra_usages > 0 => {
                s.extra_usages -= 1;
                "Drop unused dice-roll utility".to_owned()
            }
            other => apply_change(other, ChangeKind::Unrelated, rng),
        },
        ChangeKind::Fix => apply_fix(module, rng),
        ChangeKind::Bug => apply_bug(module, rng),
    }
}

fn apply_refactor(module: &mut Module, rng: &mut StdRng) {
    let style = module.style_mut();
    match rng.random_range(0..4) {
        0 => style.naming = (style.naming + 1) % 4,
        1 => style.extract_const = !style.extract_const,
        2 => style.helper = !style.helper,
        _ => style.log_method = !style.log_method,
    }
    style.revision += 1;
}

fn apply_fix(module: &mut Module, rng: &mut StdRng) -> String {
    match module {
        Module::Cipher(s) => {
            type CipherFix = (&'static str, fn(&mut CipherScenario, &mut StdRng));
            let mut fixes: Vec<CipherFix> = Vec::new();
            if matches!(s.algo, CipherAlgo::AesDefault | CipherAlgo::AesEcb) {
                fixes.push(("Switch AES from ECB to CBC with a fresh IV", |s, rng| {
                    s.algo = CipherAlgo::AesCbc;
                    s.iv = if rng.random_bool(0.7) {
                        IvKind::Random
                    } else {
                        IvKind::Param
                    };
                }));
                fixes.push(("Use authenticated AES/GCM instead of ECB", |s, _| {
                    s.algo = CipherAlgo::AesGcm;
                    s.iv = IvKind::Random;
                }));
            }
            if matches!(
                s.algo,
                CipherAlgo::Des | CipherAlgo::DesEde | CipherAlgo::Blowfish
            ) {
                fixes.push(("Replace weak cipher with AES/CBC", |s, _| {
                    s.algo = CipherAlgo::AesCbc;
                    if s.iv == IvKind::Absent {
                        s.iv = IvKind::Random;
                    }
                }));
            }
            if !s.bc_provider && !matches!(s.algo, CipherAlgo::Rsa) {
                fixes.push(("Use the BouncyCastle provider", |s, _| {
                    s.bc_provider = true;
                }));
            }
            if s.iv == IvKind::Static {
                fixes.push(("Generate the IV with SecureRandom", |s, _| {
                    s.iv = IvKind::Random;
                }));
            }
            if s.key == KeyKind::Hardcoded {
                fixes.push(("Stop hard-coding the secret key", |s, _| {
                    s.key = KeyKind::Param;
                }));
            }
            if s.rsa_wrap && !s.with_mac {
                fixes.push((
                    "Add HMAC integrity protection after key exchange",
                    |s, _| {
                        s.with_mac = true;
                    },
                ));
            }
            if fixes.is_empty() {
                return apply_change(module, ChangeKind::Refactor, rng);
            }
            let idx = rng.random_range(0..fixes.len());
            let (message, f) = fixes[idx];
            f(s, rng);
            format!("Security: {message}")
        }
        Module::Digest(s) => {
            let weak = |a: &str| matches!(a, "SHA-1" | "SHA1" | "MD5" | "MD2");
            let target = if rng.random_bool(0.7) {
                "SHA-256"
            } else {
                "SHA-512"
            };
            if weak(&s.algo) {
                s.algo = target.to_owned();
                return format!("Security: migrate hash to {target}");
            }
            if let Some(slot) = s.extra.iter_mut().find(|a| weak(a)) {
                *slot = target.to_owned();
                return format!("Security: migrate fingerprint hash to {target}");
            }
            apply_change(module, ChangeKind::Refactor, rng)
        }
        Module::Random(s) => {
            if s.seed == SeedKind::Static {
                s.seed = SeedKind::Absent;
                return "Security: remove static PRNG seed".to_owned();
            }
            match s.ctor {
                RngCtor::Default => {
                    s.ctor = RngCtor::Sha1Prng;
                    s.sun_provider = rng.random_bool(0.3);
                    "Security: request SHA1PRNG explicitly".to_owned()
                }
                RngCtor::Strong => {
                    s.ctor = RngCtor::Sha1Prng;
                    "Avoid blocking getInstanceStrong on servers".to_owned()
                }
                RngCtor::Sha1Prng => apply_change(module, ChangeKind::Refactor, rng),
            }
        }
        Module::Pbe(s) => {
            if s.iterations < 1000 {
                s.iterations = *weighted(
                    rng,
                    &[(2048i64, 0.15), (4096, 0.15), (10000, 0.45), (65536, 0.25)],
                );
                return "Security: raise PBKDF2 iteration count".to_owned();
            }
            if s.salt == SaltKind::Static {
                s.salt = SaltKind::Random;
                return "Security: use a random salt".to_owned();
            }
            apply_change(module, ChangeKind::Refactor, rng)
        }
        Module::Signature(s) => {
            if matches!(s.algo.as_str(), "SHA1withRSA" | "MD5withRSA") {
                s.algo = if rng.random_bool(0.8) {
                    "SHA256withRSA".to_owned()
                } else {
                    "SHA256withECDSA".to_owned()
                };
                return "Security: sign with a SHA-256 based algorithm".to_owned();
            }
            apply_change(module, ChangeKind::Refactor, rng)
        }
    }
}

fn apply_bug(module: &mut Module, rng: &mut StdRng) -> String {
    match module {
        Module::Cipher(s) => {
            if matches!(
                s.algo,
                CipherAlgo::AesCbc | CipherAlgo::AesGcm | CipherAlgo::AesCtr
            ) {
                s.algo = CipherAlgo::AesDefault;
                s.iv = IvKind::Absent;
                return "Simplify cipher configuration".to_owned();
            }
            apply_change(module, ChangeKind::Refactor, rng)
        }
        Module::Digest(s) => {
            if s.algo == "SHA-256" || s.algo == "SHA-512" {
                s.algo = "SHA-1".to_owned();
                return "Use faster hash for checksums".to_owned();
            }
            apply_change(module, ChangeKind::Refactor, rng)
        }
        Module::Random(s) => {
            if s.seed == SeedKind::Absent && rng.random_bool(0.5) {
                s.seed = SeedKind::Static;
                return "Make token generation reproducible".to_owned();
            }
            apply_change(module, ChangeKind::Refactor, rng)
        }
        Module::Pbe(s) => {
            if s.iterations >= 1000 {
                s.iterations = 100;
                return "Speed up key derivation".to_owned();
            }
            apply_change(module, ChangeKind::Refactor, rng)
        }
        Module::Signature(s) => {
            if s.algo.starts_with("SHA256") {
                s.algo = "SHA1withRSA".to_owned();
                return "Use faster signature algorithm".to_owned();
            }
            apply_change(module, ChangeKind::Refactor, rng)
        }
    }
}

// ---------------------------------------------------------------------
// Project assembly
// ---------------------------------------------------------------------

const PROJECT_FLAVORS: [&str; 12] = [
    "wallet", "chat", "sync", "vault", "backup", "mail", "notes", "gateway", "cache", "ledger",
    "auth", "relay",
];

fn generate_project(idx: usize, config: &GeneratorConfig, rng: &mut StdRng) -> Project {
    // 461 projects from 397 distinct users in the paper: reuse some.
    let user = format!("user{}", idx % 397);
    let flavor = PROJECT_FLAVORS[idx % PROJECT_FLAVORS.len()];
    let name = format!("{flavor}-{idx}");
    let pkg_segment = format!("{flavor}{idx}");

    let facts = if rng.random_bool(config.android_fraction) {
        let min_sdk = if rng.random_bool(0.85) {
            rng.random_range(16..=18)
        } else {
            rng.random_range(19..=26)
        };
        ProjectFacts {
            min_sdk_version: Some(min_sdk),
            has_lprng_fix: rng.random_bool(0.05),
        }
    } else {
        ProjectFacts::default()
    };

    // Module mix (independent inclusion, at least one).
    let mut modules: Vec<Module> = Vec::new();
    if rng.random_bool(0.42) {
        modules.push(Module::Cipher(sample_cipher(rng)));
    }
    if rng.random_bool(0.45) {
        modules.push(Module::Random(sample_random(rng)));
    }
    if rng.random_bool(0.48) {
        modules.push(Module::Digest(sample_digest(rng)));
    }
    if rng.random_bool(0.14) {
        modules.push(Module::Pbe(sample_pbe(rng)));
    }
    if rng.random_bool(0.22) {
        modules.push(Module::Signature(sample_signature(rng)));
    }
    if modules.is_empty() {
        modules.push(Module::Random(sample_random(rng)));
    }

    let mut commits = Vec::new();

    // Each module's text as last rendered. `render` is pure and draws
    // nothing from the RNG, so a module's next `old` is this text: each
    // file version is rendered once.
    let mut rendered: Vec<String> = modules.iter().map(|m| m.render(&pkg_segment)).collect();

    // Initial commit adds every module file.
    let initial_changes: Vec<FileChange> = modules
        .iter()
        .zip(&rendered)
        .map(|(m, text)| FileChange {
            path: m.path(&pkg_segment),
            old: None,
            new: Some(text.clone()),
        })
        .collect();
    commits.push(Commit {
        id: commit_id(idx, 0),
        author: GENERATED_AUTHOR.to_owned(),
        message: "Initial import".to_owned(),
        changes: initial_changes,
    });

    let (lo, hi) = config.commits_per_project;
    let n_commits = rng.random_range(lo..=hi);
    for c in 1..=n_commits {
        let module_idx = rng.random_range(0..modules.len());
        let kind = sample_change_kind(rng);
        let message = apply_change(&mut modules[module_idx], kind, rng);
        let mut changes = vec![rerender(
            &modules[module_idx],
            &mut rendered[module_idx],
            &pkg_segment,
        )];
        // Sweeping commits occasionally touch a second crypto file
        // (comment/bookkeeping only), like real repository-wide edits.
        if modules.len() > 1 && rng.random_bool(0.08) {
            let other_idx = (module_idx + 1) % modules.len();
            modules[other_idx].style_mut().revision += 1;
            changes.push(rerender(
                &modules[other_idx],
                &mut rendered[other_idx],
                &pkg_segment,
            ));
        }
        commits.push(Commit {
            id: commit_id(idx, c),
            author: GENERATED_AUTHOR.to_owned(),
            message,
            changes,
        });
    }

    Project {
        user,
        name,
        facts,
        commits,
    }
}

/// The change to `module`'s file since `last`, its previous render:
/// `last` is the old text, and becomes the new one.
fn rerender(module: &Module, last: &mut String, pkg_segment: &str) -> FileChange {
    let new = module.render(pkg_segment);
    FileChange {
        path: module.path(pkg_segment),
        old: Some(std::mem::replace(last, new.clone())),
        new: Some(new),
    }
}

fn commit_id(project: usize, commit: usize) -> String {
    // FNV-1a over the pair, rendered as 10 hex chars.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in project
        .to_le_bytes()
        .into_iter()
        .chain(commit.to_le_bytes())
    {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    format!("{hash:010x}")[..10].to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&GeneratorConfig::small(5, 42));
        let b = generate(&GeneratorConfig::small(5, 42));
        assert_eq!(a, b);
        let c = generate(&GeneratorConfig::small(5, 43));
        assert_ne!(a, c);
    }

    #[test]
    fn projects_have_expected_commit_counts() {
        let corpus = generate(&GeneratorConfig::small(10, 7));
        assert_eq!(corpus.projects.len(), 10);
        for p in &corpus.projects {
            // initial + 18..=32 evolution commits
            assert!(
                p.commits.len() >= 19 && p.commits.len() <= 33,
                "{}",
                p.commits.len()
            );
            assert!(!p.commits[0].changes.is_empty());
        }
    }

    #[test]
    fn every_generated_source_parses() {
        let corpus = generate(&GeneratorConfig::small(6, 99));
        let mut checked = 0;
        for change in corpus.code_changes() {
            for src in [change.old, change.new] {
                let unit = javalang::parse_compilation_unit(src).expect("parse");
                assert!(
                    unit.diagnostics.is_empty(),
                    "diagnostics in generated code:\n{src}"
                );
                checked += 1;
            }
        }
        assert!(checked > 100, "corpus too small: {checked}");
    }

    #[test]
    fn histories_chain_old_to_new() {
        let corpus = generate(&GeneratorConfig::small(4, 1));
        for project in &corpus.projects {
            let mut current: std::collections::BTreeMap<String, String> = Default::default();
            for commit in &project.commits {
                for fc in &commit.changes {
                    if let Some(old) = &fc.old {
                        assert_eq!(
                            current.get(&fc.path),
                            Some(old),
                            "old side must equal tracked state"
                        );
                    }
                    if let Some(new) = &fc.new {
                        current.insert(fc.path.clone(), new.clone());
                    }
                }
            }
        }
    }

    #[test]
    fn most_changes_are_non_semantic() {
        let corpus = generate(&GeneratorConfig::small(20, 5));
        let n_fix_messages = corpus
            .projects
            .iter()
            .flat_map(|p| &p.commits)
            .filter(|c| c.message.starts_with("Security:"))
            .count();
        let total = corpus.total_commits();
        assert!(
            (n_fix_messages as f64) < 0.05 * total as f64,
            "fixes are rare: {n_fix_messages}/{total}"
        );
        assert!(n_fix_messages > 0, "but they exist");
    }

    #[test]
    fn some_projects_are_android() {
        let corpus = generate(&GeneratorConfig::small(50, 3));
        let android = corpus
            .projects
            .iter()
            .filter(|p| p.facts.min_sdk_version.is_some())
            .count();
        assert!(android > 0 && android < 50);
    }
}
