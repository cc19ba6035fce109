//! Pins every byte the generator emits for a few seeds and sizes.
//!
//! Mining caches are keyed by file bytes and the printed digests cover
//! provenance, so a generator change that alters one rendered byte, one
//! RNG draw or one commit id changes every downstream result. Each
//! constant below is an FNV-1a 64 over the whole corpus: per project
//! its name and facts, per commit its id, author and message, and per
//! file change its path and both texts, each field length-prefixed.

use corpus::{generate, Corpus, GeneratorConfig};

fn fingerprint(corpus: &Corpus) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut field = |bytes: &[u8]| {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for project in &corpus.projects {
        field(project.full_name().as_bytes());
        field(format!("{:?}", project.facts).as_bytes());
        for commit in &project.commits {
            field(commit.id.as_bytes());
            field(commit.author.as_bytes());
            field(commit.message.as_bytes());
            for change in &commit.changes {
                field(change.path.as_bytes());
                for text in [&change.old, &change.new] {
                    match text {
                        Some(text) => field(text.as_bytes()),
                        None => field(b"\xff"),
                    }
                }
            }
        }
    }
    hash
}

#[test]
fn generated_corpora_are_byte_identical() {
    // (seed, projects, fingerprint)
    let pinned: [(u64, usize, u64); 8] = [
        (1, 40, 0x02f8a83135221d61),
        (1, 144, 0x5487022e12936bb6),
        (42, 40, 0x4016c6d7c21f8545),
        (42, 144, 0x2dfc61bb5e7f88c1),
        (1000, 40, 0xb3570771a78f50d8),
        (1000, 144, 0x1261609720e4b340),
        (7000, 40, 0xcf786916bf635d2b),
        (7000, 144, 0xbb2af90fab1d4861),
    ];
    let got: Vec<u64> = pinned
        .iter()
        .map(|&(seed, n, _)| fingerprint(&generate(&GeneratorConfig::small(n, seed))))
        .collect();
    for (&(seed, n, want), got_one) in pinned.iter().zip(&got) {
        assert_eq!(
            want, *got_one,
            "seed {seed}, {n} projects: {got_one:#018x}; all: {got:#018x?}"
        );
    }
}
