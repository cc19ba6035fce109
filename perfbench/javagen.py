"""Deterministic Java crypto-client sources and git histories for the benchmark.

Every input the benchmark feeds the program comes from here, drawn from a
`random.Random` seeded by the caller, so the same seed always yields the same
sources, the same change pairs and the same git commits (fixed identities and
dates make the commit hashes repeat too).

A *module* is the security-relevant state of one Java class: the cipher
transformation, IV discipline, digest algorithm, RNG seeding and PBE
iteration count, plus some non-crypto helper methods that give the lexer and
parser realistic work. Mutating one knob and re-rendering yields a semantic
usage change the miner reports.
"""

import random

# The project shape of the seeded corpus generator (crates/corpus,
# `generate_project`): each crypto module joins a project with its own
# odds (at least one joins), an initial import is followed by 18..=32
# commits that each change one module, and 8% of those commits also make
# a bookkeeping-only edit to the next module.
MODULE_ODDS = [0.42, 0.45, 0.48, 0.14, 0.22]
COMMITS_PER_PROJECT = (18, 32)
SWEEP_ODDS = 0.08

TRANSFORMS = [
    "AES",
    "AES/ECB/PKCS5Padding",
    "AES/CBC/PKCS5Padding",
    "AES/CTR/NoPadding",
    "AES/GCM/NoPadding",
    "DES/CBC/PKCS5Padding",
    "DESede/CBC/PKCS5Padding",
    "Blowfish/CBC/PKCS5Padding",
]
DIGESTS = ["MD5", "SHA-1", "SHA-256", "SHA-512"]
IV_KINDS = ["static", "random"]
ITERATIONS = [1000, 10000, 65536]


def new_module(rng):
    return {
        "transform": rng.choice(TRANSFORMS),
        "iv": rng.choice(IV_KINDS),
        "digest": rng.choice(DIGESTS),
        "seeded_rng": rng.random() < 0.3,
        "iterations": rng.choice(ITERATIONS),
        "helpers": rng.randint(2, 8),
        "revision": 0,
    }


def needs_iv(transform):
    return "/" in transform and "/ECB/" not in transform


def mutate(module, rng):
    """Returns a copy of `module` with one security knob changed, so the
    rendered source changes too."""
    out = dict(module)
    knobs = ["transform", "iv", "digest", "seeded_rng", "iterations"]
    if not needs_iv(module["transform"]):
        # The IV discipline does not show in a mode that takes no IV.
        knobs.remove("iv")
    knob = rng.choice(knobs)
    if knob == "seeded_rng":
        out[knob] = not out[knob]
        return out
    choices = {
        "transform": TRANSFORMS,
        "iv": IV_KINDS,
        "digest": DIGESTS,
        "iterations": ITERATIONS,
    }[knob]
    out[knob] = rng.choice([c for c in choices if c != out[knob]])
    return out


def render(module, package, name):
    m = module
    lines = [
        f"package {package};",
        "",
        "import javax.crypto.Cipher;",
        "import javax.crypto.SecretKeyFactory;",
        "import javax.crypto.spec.IvParameterSpec;",
        "import javax.crypto.spec.PBEKeySpec;",
        "import javax.crypto.spec.SecretKeySpec;",
        "import java.security.MessageDigest;",
        "import java.security.SecureRandom;",
        "",
        f"public class {name} {{",
        f"    // revision {m['revision']}",
        "    public byte[] encrypt(byte[] keyBytes, byte[] data) throws Exception {",
        f'        SecretKeySpec keySpec = new SecretKeySpec(keyBytes, "{m["transform"].split("/")[0]}");',
        f'        Cipher cipher = Cipher.getInstance("{m["transform"]}");',
    ]
    if needs_iv(m["transform"]):
        lines.append("        byte[] iv = new byte[16];")
        if m["iv"] == "random":
            lines.append("        SecureRandom ivSource = new SecureRandom();")
            lines.append("        ivSource.nextBytes(iv);")
        lines.append("        IvParameterSpec ivSpec = new IvParameterSpec(iv);")
        lines.append("        cipher.init(Cipher.ENCRYPT_MODE, keySpec, ivSpec);")
    else:
        lines.append("        cipher.init(Cipher.ENCRYPT_MODE, keySpec);")
    lines += [
        "        return cipher.doFinal(data);",
        "    }",
        "",
        "    public byte[] fingerprint(byte[] input) throws Exception {",
        f'        MessageDigest digest = MessageDigest.getInstance("{m["digest"]}");',
        "        return digest.digest(input);",
        "    }",
        "",
        "    public byte[] salt() {",
        "        SecureRandom random = new SecureRandom();",
    ]
    if m["seeded_rng"]:
        lines.append("        random.setSeed(42L);")
    lines += [
        "        byte[] salt = new byte[16];",
        "        random.nextBytes(salt);",
        "        return salt;",
        "    }",
        "",
        "    public byte[] deriveKey(char[] password, byte[] salt) throws Exception {",
        f"        PBEKeySpec spec = new PBEKeySpec(password, salt, {m['iterations']}, 256);",
        '        SecretKeyFactory factory = SecretKeyFactory.getInstance("PBKDF2WithHmacSHA256");',
        "        return factory.generateSecret(spec).getEncoded();",
        "    }",
    ]
    for i in range(m["helpers"]):
        lines += [
            "",
            f"    private int checksum{i}(String text, int rounds) {{",
            f"        int acc = {i + 7};",
            "        for (int r = 0; r < rounds; r++) {",
            "            for (int k = 0; k < text.length(); k++) {",
            "                acc = acc * 31 + text.charAt(k);",
            "            }",
            "        }",
            '        System.out.println("checksum " + acc);',
            "        return acc;",
            "    }",
        ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def change_pair(rng, package, name):
    """One (old, new) source pair that differs in one security knob."""
    old = new_module(rng)
    new = mutate(old, rng)
    return render(old, package, name), render(new, package, name)


def project_history(rng):
    """A `git fast-import` stream of one project's history on `main`, in
    the corpus generator's project shape (see `MODULE_ODDS`). Returns the
    stream as bytes."""
    n_files = max(1, sum(rng.random() < p for p in MODULE_ODDS))
    modules = [new_module(rng) for _ in range(n_files)]
    n_commits = rng.randint(*COMMITS_PER_PROJECT)
    out = bytearray()

    def data(payload):
        out.extend(f"data {len(payload)}\n".encode())
        out.extend(payload)
        out.extend(b"\n")

    for c in range(n_commits + 1):
        if c == 0:
            touched = range(n_files)
        else:
            f = rng.randrange(n_files)
            modules[f] = mutate(modules[f], rng)
            touched = [f]
            if n_files > 1 and rng.random() < SWEEP_ODDS:
                g = (f + 1) % n_files
                modules[g] = dict(modules[g], revision=modules[g]["revision"] + 1)
                touched.append(g)
        when = 1_591_012_800 + 60 * c
        out.extend(f"commit refs/heads/main\nmark :{c + 1}\n".encode())
        out.extend(f"author Bench Author <author@perfbench.test> {when} +0000\n".encode())
        out.extend(f"committer Bench Committer <committer@perfbench.test> {when} +0000\n".encode())
        data(f"commit {c}".encode())
        if c > 0:
            out.extend(f"from :{c}\n".encode())
        for f in touched:
            out.extend(f"M 100644 inline src/bench/Module{f}.java\n".encode())
            data(render(modules[f], "bench", f"Module{f}").encode())
    return bytes(out)


def seeded(seed, *salt):
    """A generator for one named input stream of one benchmark seed."""
    return random.Random("/".join(map(str, (seed,) + salt)))
