//! Curated fixtures: the paper's own Figure 2 example and a handful of
//! realistic security-fix pairs used by tests, examples, and the
//! Figure 8 experiment.

/// The old version of the paper's Figure 2(a) `AESCipher` class.
pub const FIGURE2_OLD: &str = r#"
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

/// The new version of the paper's Figure 2(a) `AESCipher` class.
pub const FIGURE2_NEW: &str = r#"
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

/// A named (old, new) fix pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixPair {
    /// Short identifier.
    pub name: &'static str,
    /// What the fix does.
    pub description: &'static str,
    /// Source before the fix.
    pub old: &'static str,
    /// Source after the fix.
    pub new: &'static str,
}

/// ECB → CBC (explicit ECB before), as in Figure 8's first leaf.
pub const ECB_TO_CBC: FixPair = FixPair {
    name: "ecb-to-cbc",
    description: "switch from explicit AES/ECB to AES/CBC with an IV",
    old: r#"
class PayloadCrypto {
    byte[] encrypt(byte[] data, SecretKeySpec key) throws Exception {
        Cipher cipher = Cipher.getInstance("AES/ECB/PKCS5Padding");
        cipher.init(Cipher.ENCRYPT_MODE, key);
        return cipher.doFinal(data);
    }
}
"#,
    new: r#"
class PayloadCrypto {
    byte[] encrypt(byte[] data, SecretKeySpec key, byte[] ivBytes) throws Exception {
        IvParameterSpec iv = new IvParameterSpec(ivBytes);
        Cipher cipher = Cipher.getInstance("AES/CBC/PKCS5Padding");
        cipher.init(Cipher.ENCRYPT_MODE, key, iv);
        return cipher.doFinal(data);
    }
}
"#,
};

/// ECB → GCM, as in Figure 8's second leaf.
pub const ECB_TO_GCM: FixPair = FixPair {
    name: "ecb-to-gcm",
    description: "switch from explicit AES/ECB to authenticated AES/GCM",
    old: r#"
class MessageCrypto {
    byte[] seal(byte[] data, SecretKeySpec key) throws Exception {
        Cipher cipher = Cipher.getInstance("AES/ECB/PKCS5Padding");
        cipher.init(Cipher.ENCRYPT_MODE, key);
        return cipher.doFinal(data);
    }
}
"#,
    new: r#"
class MessageCrypto {
    byte[] seal(byte[] data, SecretKeySpec key, byte[] nonce) throws Exception {
        IvParameterSpec iv = new IvParameterSpec(nonce);
        Cipher cipher = Cipher.getInstance("AES/GCM/NoPadding");
        cipher.init(Cipher.ENCRYPT_MODE, key, iv);
        return cipher.doFinal(data);
    }
}
"#,
};

/// Default `"AES"` (implicit ECB) → CBC, Figure 8's third leaf.
pub const DEFAULT_AES_TO_CBC: FixPair = FixPair {
    name: "default-aes-to-cbc",
    description: "replace default (ECB) AES with explicit CBC and an IV",
    old: r#"
class FileCrypto {
    byte[] protect(byte[] data, SecretKeySpec key) throws Exception {
        Cipher cipher = Cipher.getInstance("AES");
        cipher.init(Cipher.ENCRYPT_MODE, key);
        return cipher.doFinal(data);
    }
}
"#,
    new: r#"
class FileCrypto {
    byte[] protect(byte[] data, SecretKeySpec key, byte[] ivBytes) throws Exception {
        IvParameterSpec iv = new IvParameterSpec(ivBytes);
        Cipher cipher = Cipher.getInstance("AES/CBC/PKCS5Padding");
        cipher.init(Cipher.ENCRYPT_MODE, key, iv);
        return cipher.doFinal(data);
    }
}
"#,
};

/// SHA-1 → SHA-256 (rule R1).
pub const SHA1_TO_SHA256: FixPair = FixPair {
    name: "sha1-to-sha256",
    description: "migrate message digest from SHA-1 to SHA-256",
    old: r#"
class Checksums {
    byte[] checksum(byte[] input) throws Exception {
        MessageDigest digest = MessageDigest.getInstance("SHA-1");
        return digest.digest(input);
    }
}
"#,
    new: r#"
class Checksums {
    byte[] checksum(byte[] input) throws Exception {
        MessageDigest digest = MessageDigest.getInstance("SHA-256");
        return digest.digest(input);
    }
}
"#,
};

/// Static IV → SecureRandom IV (rule R9).
pub const STATIC_IV_TO_RANDOM: FixPair = FixPair {
    name: "static-iv-to-random",
    description: "replace a constant IV with a SecureRandom-generated one",
    old: r#"
class SessionCrypto {
    byte[] encrypt(byte[] data, SecretKeySpec key) throws Exception {
        byte[] ivBytes = new byte[16];
        IvParameterSpec iv = new IvParameterSpec(ivBytes);
        Cipher cipher = Cipher.getInstance("AES/CBC/PKCS5Padding");
        cipher.init(Cipher.ENCRYPT_MODE, key, iv);
        return cipher.doFinal(data);
    }
}
"#,
    new: r#"
class SessionCrypto {
    byte[] encrypt(byte[] data, SecretKeySpec key) throws Exception {
        byte[] ivBytes = new byte[16];
        SecureRandom random = new SecureRandom();
        random.nextBytes(ivBytes);
        IvParameterSpec iv = new IvParameterSpec(ivBytes);
        Cipher cipher = Cipher.getInstance("AES/CBC/PKCS5Padding");
        cipher.init(Cipher.ENCRYPT_MODE, key, iv);
        return cipher.doFinal(data);
    }
}
"#,
};

/// Low PBKDF2 iteration count → 64k (rule R2).
pub const RAISE_PBE_ITERATIONS: FixPair = FixPair {
    name: "raise-pbe-iterations",
    description: "raise the PBKDF2 iteration count above 1000",
    old: r#"
class KeyDeriver {
    PBEKeySpec spec(char[] password, byte[] salt) {
        return new PBEKeySpec(password, salt, 100, 256);
    }
}
"#,
    new: r#"
class KeyDeriver {
    PBEKeySpec spec(char[] password, byte[] salt) {
        return new PBEKeySpec(password, salt, 65536, 256);
    }
}
"#,
};

/// DES → AES/CBC (rule R8).
pub(crate) const DES_TO_AES: FixPair = FixPair {
    name: "des-to-aes",
    description: "replace the broken DES cipher with AES/CBC",
    old: r#"
class LegacyCrypto {
    byte[] encode(byte[] data, SecretKeySpec key, byte[] ivBytes) throws Exception {
        IvParameterSpec iv = new IvParameterSpec(ivBytes);
        Cipher cipher = Cipher.getInstance("DES/CBC/PKCS5Padding");
        cipher.init(Cipher.ENCRYPT_MODE, key, iv);
        return cipher.doFinal(data);
    }
}
"#,
    new: r#"
class LegacyCrypto {
    byte[] encode(byte[] data, SecretKeySpec key, byte[] ivBytes) throws Exception {
        IvParameterSpec iv = new IvParameterSpec(ivBytes);
        Cipher cipher = Cipher.getInstance("AES/CBC/PKCS5Padding");
        cipher.init(Cipher.ENCRYPT_MODE, key, iv);
        return cipher.doFinal(data);
    }
}
"#,
};

/// Default provider → BouncyCastle (rule R5).
pub(crate) const ADD_BC_PROVIDER: FixPair = FixPair {
    name: "add-bc-provider",
    description: "request the BouncyCastle provider explicitly",
    old: r#"
class ProviderCrypto {
    Cipher build() throws Exception {
        return Cipher.getInstance("AES/CBC/PKCS5Padding");
    }
}
"#,
    new: r#"
class ProviderCrypto {
    Cipher build() throws Exception {
        return Cipher.getInstance("AES/CBC/PKCS5Padding", "BC");
    }
}
"#,
};

/// `getInstanceStrong()` → `getInstance("SHA1PRNG")` (rules R3/R4).
pub(crate) const AVOID_GET_INSTANCE_STRONG: FixPair = FixPair {
    name: "avoid-get-instance-strong",
    description: "avoid the potentially blocking getInstanceStrong on servers",
    old: r#"
class ServerTokens {
    byte[] token(int n) throws Exception {
        SecureRandom random = SecureRandom.getInstanceStrong();
        byte[] out = new byte[n];
        random.nextBytes(out);
        return out;
    }
}
"#,
    new: r#"
class ServerTokens {
    byte[] token(int n) throws Exception {
        SecureRandom random = SecureRandom.getInstance("SHA1PRNG");
        byte[] out = new byte[n];
        random.nextBytes(out);
        return out;
    }
}
"#,
};

/// Hard-coded key → key parameter (rule R10).
pub(crate) const HARDCODED_KEY_TO_PARAM: FixPair = FixPair {
    name: "hardcoded-key-to-param",
    description: "stop hard-coding the AES key",
    old: r#"
class KeyedCrypto {
    static final byte[] KEY = { 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16 };

    SecretKeySpec key() {
        return new SecretKeySpec(KEY, "AES");
    }
}
"#,
    new: r#"
class KeyedCrypto {
    SecretKeySpec key(byte[] keyBytes) {
        return new SecretKeySpec(keyBytes, "AES");
    }
}
"#,
};

/// All curated fix pairs.
pub fn all_fix_pairs() -> Vec<FixPair> {
    vec![
        ECB_TO_CBC,
        ECB_TO_GCM,
        DEFAULT_AES_TO_CBC,
        SHA1_TO_SHA256,
        STATIC_IV_TO_RANDOM,
        RAISE_PBE_ITERATIONS,
        DES_TO_AES,
        ADD_BC_PROVIDER,
        AVOID_GET_INSTANCE_STRONG,
        HARDCODED_KEY_TO_PARAM,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fixtures_parse() {
        for pair in all_fix_pairs() {
            for src in [pair.old, pair.new] {
                let unit = javalang::parse_compilation_unit(src).expect(pair.name);
                assert!(unit.diagnostics.is_empty(), "{}", pair.name);
            }
        }
        for src in [FIGURE2_OLD, FIGURE2_NEW] {
            let unit = javalang::parse_compilation_unit(src).unwrap();
            assert!(unit.diagnostics.is_empty());
        }
    }
}
