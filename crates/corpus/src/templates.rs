//! Java source templates for crypto-using modules.
//!
//! Each module is a *scenario* — the security-relevant state (cipher
//! mode, IV discipline, key material, digest algorithm, RNG
//! construction, PBE parameters) plus *style knobs* (names, constant
//! extraction, helper methods, logging). Rendering a scenario yields a
//! parseable Java class; changing only style knobs yields a pure
//! refactoring (identical under the DiffCode abstraction), while
//! changing the security state yields a semantic usage change.

use std::fmt::Write as _;

/// Cipher transformations used in the wild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub(crate) enum CipherAlgo {
    /// `"AES"` — ECB by default (insecure).
    AesDefault,
    AesEcb,
    AesCbc,
    AesCtr,
    AesGcm,
    Des,
    DesEde,
    Blowfish,
    Rsa,
}

/// Padding schemes for block-cipher transformations (diversifies the
/// transformation strings the way real repositories do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) enum Padding {
    /// `PKCS5Padding`.
    #[default]
    Pkcs5,
    /// `NoPadding`.
    None,
    /// `PKCS7Padding` (BouncyCastle spelling).
    Pkcs7,
}

impl Padding {
    /// The suffix in the transformation string.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Padding::Pkcs5 => "PKCS5Padding",
            Padding::None => "NoPadding",
            Padding::Pkcs7 => "PKCS7Padding",
        }
    }
}

impl CipherAlgo {
    /// The transformation string passed to `Cipher.getInstance`.
    pub(crate) fn transformation(self, padding: Padding) -> String {
        let p = padding.as_str();
        match self {
            CipherAlgo::AesDefault => "AES".to_owned(),
            CipherAlgo::AesEcb => format!("AES/ECB/{p}"),
            CipherAlgo::AesCbc => format!("AES/CBC/{p}"),
            CipherAlgo::AesCtr => "AES/CTR/NoPadding".to_owned(),
            CipherAlgo::AesGcm => "AES/GCM/NoPadding".to_owned(),
            CipherAlgo::Des => format!("DES/CBC/{p}"),
            CipherAlgo::DesEde => format!("DESede/CBC/{p}"),
            CipherAlgo::Blowfish => format!("Blowfish/CBC/{p}"),
            CipherAlgo::Rsa => "RSA/ECB/OAEPWithSHA-256AndMGF1Padding".to_owned(),
        }
    }

    /// Whether the mode requires an IV.
    pub(crate) fn needs_iv(self) -> bool {
        !matches!(
            self,
            CipherAlgo::AesDefault | CipherAlgo::AesEcb | CipherAlgo::Rsa
        )
    }

    /// Whether the IV parameter is a `GCMParameterSpec`.
    pub(crate) fn uses_gcm_spec(self) -> bool {
        matches!(self, CipherAlgo::AesGcm)
    }

    /// The key algorithm name for `SecretKeySpec`.
    pub(crate) fn key_algo(self) -> &'static str {
        match self {
            CipherAlgo::Des => "DES",
            CipherAlgo::DesEde => "DESede",
            CipherAlgo::Blowfish => "Blowfish",
            _ => "AES",
        }
    }
}

/// How the IV is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum IvKind {
    /// No IV is passed (ECB / default mode).
    Absent,
    /// A hard-coded / zero IV (violates R9).
    Static,
    /// A `SecureRandom`-generated IV.
    Random,
    /// The IV arrives as a method parameter.
    Param,
}

/// Where the secret key comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KeyKind {
    /// A hard-coded key constant (violates R10).
    Hardcoded,
    /// Key bytes arrive as a parameter.
    Param,
    /// A `KeyGenerator`-generated key.
    Generated,
}

/// Style knobs — changing these is a refactoring, never a semantic
/// change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct StyleKnobs {
    /// Index into the naming tables.
    pub naming: u8,
    /// Extract the transformation string into a `static final` field.
    pub extract_const: bool,
    /// Create the engine object through a private helper method.
    pub helper: bool,
    /// Include an unrelated logging method.
    pub log_method: bool,
    /// A comment revision counter (bumping it is a trivially unrelated
    /// edit).
    pub revision: u32,
}

const METHOD_NAMES: [&str; 4] = ["encrypt", "encryptData", "doEncrypt", "encryptBytes"];
const VAR_NAMES: [&str; 4] = ["cipher", "enc", "aesCipher", "c"];
const HASH_NAMES: [&str; 4] = ["hash", "digestOf", "computeHash", "checksum"];
const TOKEN_NAMES: [&str; 4] = ["nextToken", "randomBytes", "generateToken", "makeNonce"];
const DERIVE_NAMES: [&str; 4] = ["deriveKey", "keyFromPassword", "derive", "pbkdf"];

/// A module that encrypts data with a symmetric cipher — exercises
/// `Cipher`, `SecretKeySpec`, `IvParameterSpec`/`GCMParameterSpec`,
/// `SecureRandom`, and optionally `Mac` and an RSA key-wrap cipher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CipherScenario {
    /// The transformation.
    pub algo: CipherAlgo,
    /// Padding scheme for block modes.
    pub padding: Padding,
    /// Explicit provider (`Some("BC")` satisfies R5).
    pub bc_provider: bool,
    /// IV discipline.
    pub iv: IvKind,
    /// Key material source.
    pub key: KeyKind,
    /// Include an RSA key-wrap cipher (R13 precondition).
    pub rsa_wrap: bool,
    /// Include an HMAC (R13 remedy).
    pub with_mac: bool,
    /// Number of extra independent cipher usages.
    pub extra_usages: u8,
    /// Style.
    pub style: StyleKnobs,
}

impl CipherScenario {
    /// Renders the Java source for this scenario.
    pub(crate) fn render(&self, class_name: &str, package: &str) -> String {
        let s = &self.style;
        let n = s.naming as usize;
        let method = METHOD_NAMES[n % METHOD_NAMES.len()];
        let var = VAR_NAMES[n % VAR_NAMES.len()];
        let transform = self.algo.transformation(self.padding);
        let key_algo = self.algo.key_algo();

        let mut out = String::new();
        let _ = writeln!(out, "package {package};");
        out.push('\n');
        out.push_str("import javax.crypto.Cipher;\n");
        out.push_str("import javax.crypto.Mac;\n");
        out.push_str("import javax.crypto.spec.SecretKeySpec;\n");
        out.push_str("import javax.crypto.spec.IvParameterSpec;\n");
        out.push_str("import javax.crypto.spec.GCMParameterSpec;\n");
        out.push_str("import java.security.SecureRandom;\n");
        out.push('\n');
        let _ = writeln!(out, "// rev {}", s.revision);
        let _ = writeln!(out, "public class {class_name} {{");

        if s.extract_const {
            let _ = writeln!(
                out,
                "    private static final String TRANSFORM = \"{transform}\";"
            );
        }
        if self.key == KeyKind::Hardcoded {
            out.push_str(
                "    private static final byte[] KEY_BYTES = { 0x13, 0x37, 0x42, 0x07, 0x13, 0x37, 0x42, 0x07, 0x13, 0x37, 0x42, 0x07, 0x13, 0x37, 0x42, 0x07 };\n",
            );
        }
        if self.iv == IvKind::Static {
            out.push_str("    private static final byte[] IV = new byte[16];\n");
        }
        out.push('\n');

        // Parameters of the encrypt method.
        let mut params = vec!["byte[] data".to_owned()];
        if self.key == KeyKind::Param {
            params.push("byte[] keyBytes".to_owned());
        }
        if self.iv == IvKind::Param {
            params.push("byte[] ivBytes".to_owned());
        }

        let transform_expr = if s.extract_const {
            "TRANSFORM".to_owned()
        } else {
            format!("\"{transform}\"")
        };
        let get_instance = if self.bc_provider {
            format!("Cipher.getInstance({transform_expr}, \"BC\")")
        } else {
            format!("Cipher.getInstance({transform_expr})")
        };

        let _ = writeln!(
            out,
            "    public byte[] {method}({}) throws Exception {{",
            params.join(", ")
        );

        // Key material.
        match self.key {
            KeyKind::Hardcoded => {
                let _ = writeln!(
                    out,
                    "        SecretKeySpec keySpec = new SecretKeySpec(KEY_BYTES, \"{key_algo}\");"
                );
            }
            KeyKind::Param => {
                let _ = writeln!(
                    out,
                    "        SecretKeySpec keySpec = new SecretKeySpec(keyBytes, \"{key_algo}\");"
                );
            }
            KeyKind::Generated => {
                let _ = writeln!(
                    out,
                    "        javax.crypto.KeyGenerator keyGen = javax.crypto.KeyGenerator.getInstance(\"{key_algo}\");"
                );
                out.push_str("        javax.crypto.SecretKey keySpec = keyGen.generateKey();\n");
            }
        }

        // IV.
        let iv_var = match self.iv {
            IvKind::Absent => None,
            IvKind::Static => Some("IV".to_owned()),
            IvKind::Random => {
                out.push_str("        byte[] ivBytes = new byte[16];\n");
                out.push_str("        SecureRandom ivRandom = new SecureRandom();\n");
                out.push_str("        ivRandom.nextBytes(ivBytes);\n");
                Some("ivBytes".to_owned())
            }
            IvKind::Param => Some("ivBytes".to_owned()),
        };
        let spec_var = if let Some(iv) = &iv_var {
            if self.algo.uses_gcm_spec() {
                let _ = writeln!(
                    out,
                    "        GCMParameterSpec paramSpec = new GCMParameterSpec(128, {iv});"
                );
            } else {
                let _ = writeln!(
                    out,
                    "        IvParameterSpec paramSpec = new IvParameterSpec({iv});"
                );
            }
            Some("paramSpec")
        } else {
            None
        };

        // Cipher creation + init.
        if s.helper {
            let _ = writeln!(out, "        Cipher {var} = createCipher();");
        } else {
            let _ = writeln!(out, "        Cipher {var} = {get_instance};");
        }
        match spec_var {
            Some(spec) => {
                let _ = writeln!(
                    out,
                    "        {var}.init(Cipher.ENCRYPT_MODE, keySpec, {spec});"
                );
            }
            None => {
                let _ = writeln!(out, "        {var}.init(Cipher.ENCRYPT_MODE, keySpec);");
            }
        }
        let _ = writeln!(out, "        return {var}.doFinal(data);");
        out.push_str("    }\n");

        if s.helper {
            out.push('\n');
            out.push_str("    private Cipher createCipher() throws Exception {\n");
            let _ = writeln!(out, "        return {get_instance};");
            out.push_str("    }\n");
        }

        if self.rsa_wrap {
            out.push('\n');
            out.push_str(
                "    public byte[] wrapSessionKey(java.security.Key publicKey, byte[] sessionKey) throws Exception {\n",
            );
            out.push_str("        Cipher rsa = Cipher.getInstance(\"RSA\");\n");
            out.push_str("        rsa.init(Cipher.WRAP_MODE, publicKey);\n");
            out.push_str("        return rsa.doFinal(sessionKey);\n");
            out.push_str("    }\n");
        }

        if self.with_mac {
            out.push('\n');
            out.push_str(
                "    public byte[] authenticate(byte[] message, byte[] macKey) throws Exception {\n",
            );
            out.push_str("        Mac mac = Mac.getInstance(\"HmacSHA256\");\n");
            out.push_str(
                "        SecretKeySpec macKeySpec = new SecretKeySpec(macKey, \"HmacSHA256\");\n",
            );
            out.push_str("        mac.init(macKeySpec);\n");
            out.push_str("        return mac.doFinal(message);\n");
            out.push_str("    }\n");
        }

        for i in 0..self.extra_usages {
            out.push('\n');
            let _ = writeln!(
                out,
                "    public byte[] legacyEncrypt{i}(byte[] data, byte[] keyBytes) throws Exception {{"
            );
            let _ = writeln!(
                out,
                "        SecretKeySpec legacyKey{i} = new SecretKeySpec(keyBytes, \"{key_algo}\");"
            );
            let _ = writeln!(
                out,
                "        Cipher legacy{i} = Cipher.getInstance({transform_expr});"
            );
            let _ = writeln!(
                out,
                "        legacy{i}.init(Cipher.ENCRYPT_MODE, legacyKey{i});"
            );
            let _ = writeln!(out, "        return legacy{i}.doFinal(data);");
            out.push_str("    }\n");
        }

        if s.log_method {
            out.push('\n');
            out.push_str("    private void logOperation(String op) {\n");
            out.push_str("        System.out.println(\"crypto op: \" + op);\n");
            out.push_str("    }\n");
        }
        out.push_str("}\n");
        out
    }
}

/// A message-digest module (`MessageDigest`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct DigestScenario {
    /// Digest algorithm of the main usage.
    pub algo: String,
    /// Extra independent digest usages (algorithm per usage).
    pub extra: Vec<String>,
    /// Style.
    pub style: StyleKnobs,
}

impl DigestScenario {
    /// Renders the Java source for this scenario.
    pub(crate) fn render(&self, class_name: &str, package: &str) -> String {
        let s = &self.style;
        let n = s.naming as usize;
        let method = HASH_NAMES[n % HASH_NAMES.len()];
        let mut out = String::new();
        let _ = writeln!(out, "package {package};");
        out.push('\n');
        out.push_str("import java.security.MessageDigest;\n");
        out.push('\n');
        let _ = writeln!(out, "// rev {}", s.revision);
        let _ = writeln!(out, "public class {class_name} {{");
        if s.extract_const {
            let _ = writeln!(
                out,
                "    private static final String HASH_ALGO = \"{}\";",
                self.algo
            );
        }
        let algo_expr = if s.extract_const {
            "HASH_ALGO".to_owned()
        } else {
            format!("\"{}\"", self.algo)
        };
        let _ = writeln!(
            out,
            "    public byte[] {method}(byte[] input) throws Exception {{"
        );
        if s.helper {
            out.push_str("        MessageDigest digest = newDigest();\n");
        } else {
            let _ = writeln!(
                out,
                "        MessageDigest digest = MessageDigest.getInstance({algo_expr});"
            );
        }
        out.push_str("        return digest.digest(input);\n");
        out.push_str("    }\n");
        if s.helper {
            out.push('\n');
            out.push_str("    private MessageDigest newDigest() throws Exception {\n");
            let _ = writeln!(
                out,
                "        return MessageDigest.getInstance({algo_expr});"
            );
            out.push_str("    }\n");
        }
        for (i, algo) in self.extra.iter().enumerate() {
            out.push('\n');
            let _ = writeln!(
                out,
                "    public byte[] fingerprint{i}(byte[] input) throws Exception {{"
            );
            let _ = writeln!(
                out,
                "        MessageDigest d{i} = MessageDigest.getInstance(\"{algo}\");"
            );
            let _ = writeln!(out, "        return d{i}.digest(input);");
            out.push_str("    }\n");
        }
        if s.log_method {
            out.push('\n');
            out.push_str("    private void trace(String what) {\n");
            out.push_str("        System.err.println(what);\n");
            out.push_str("    }\n");
        }
        out.push_str("}\n");
        out
    }
}

/// How a `SecureRandom` is constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RngCtor {
    /// `new SecureRandom()`.
    Default,
    /// `SecureRandom.getInstance("SHA1PRNG")` (R3-compliant).
    Sha1Prng,
    /// `SecureRandom.getInstanceStrong()` (violates R4).
    Strong,
}

/// How the RNG is seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SeedKind {
    /// Not explicitly seeded.
    Absent,
    /// A hard-coded seed (violates R12).
    Static,
    /// Seeded from a parameter.
    Param,
}

/// A token/nonce generator module (`SecureRandom`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RandomScenario {
    /// Construction of the RNG.
    pub ctor: RngCtor,
    /// Pass an explicit `"SUN"` provider to `getInstance` (diversifies
    /// the fix features).
    pub sun_provider: bool,
    /// Seeding discipline.
    pub seed: SeedKind,
    /// Extra independent RNG usages.
    pub extra_usages: u8,
    /// Style.
    pub style: StyleKnobs,
}

impl RandomScenario {
    /// Renders the Java source for this scenario.
    pub(crate) fn render(&self, class_name: &str, package: &str) -> String {
        let s = &self.style;
        let n = s.naming as usize;
        let method = TOKEN_NAMES[n % TOKEN_NAMES.len()];
        let mut out = String::new();
        let _ = writeln!(out, "package {package};");
        out.push('\n');
        out.push_str("import java.security.SecureRandom;\n");
        out.push('\n');
        let _ = writeln!(out, "// rev {}", s.revision);
        let _ = writeln!(out, "public class {class_name} {{");
        let ctor_expr = match self.ctor {
            RngCtor::Default => "new SecureRandom()".to_owned(),
            RngCtor::Sha1Prng if self.sun_provider => {
                "SecureRandom.getInstance(\"SHA1PRNG\", \"SUN\")".to_owned()
            }
            RngCtor::Sha1Prng => "SecureRandom.getInstance(\"SHA1PRNG\")".to_owned(),
            RngCtor::Strong => "SecureRandom.getInstanceStrong()".to_owned(),
        };
        let mut params = vec!["int size".to_owned()];
        if self.seed == SeedKind::Param {
            params.push("byte[] seed".to_owned());
        }
        let _ = writeln!(
            out,
            "    public byte[] {method}({}) throws Exception {{",
            params.join(", ")
        );
        let _ = writeln!(out, "        SecureRandom random = {ctor_expr};");
        match self.seed {
            SeedKind::Absent => {}
            SeedKind::Static => {
                out.push_str(
                    "        byte[] seed = { 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08 };\n",
                );
                out.push_str("        random.setSeed(seed);\n");
            }
            SeedKind::Param => {
                out.push_str("        random.setSeed(seed);\n");
            }
        }
        out.push_str("        byte[] buffer = new byte[size];\n");
        out.push_str("        random.nextBytes(buffer);\n");
        out.push_str("        return buffer;\n");
        out.push_str("    }\n");
        for i in 0..self.extra_usages {
            out.push('\n');
            let _ = writeln!(out, "    public long rollDice{i}() throws Exception {{");
            let _ = writeln!(out, "        SecureRandom extra{i} = {ctor_expr};");
            let _ = writeln!(out, "        return extra{i}.nextLong();");
            out.push_str("    }\n");
        }
        if s.log_method {
            out.push('\n');
            out.push_str("    private void audit(String event) {\n");
            out.push_str("        System.out.println(event);\n");
            out.push_str("    }\n");
        }
        out.push_str("}\n");
        out
    }
}

/// Salt discipline for password-based encryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SaltKind {
    /// A hard-coded salt (violates R11 / CL4).
    Static,
    /// A `SecureRandom`-generated salt.
    Random,
    /// Salt arrives as a parameter.
    Param,
}

/// A password-based key-derivation module (`PBEKeySpec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PbeScenario {
    /// PBKDF2 iteration count (R2 / CL5 care about < 1000).
    pub iterations: i64,
    /// Salt discipline.
    pub salt: SaltKind,
    /// Style.
    pub style: StyleKnobs,
}

impl PbeScenario {
    /// Renders the Java source for this scenario.
    pub(crate) fn render(&self, class_name: &str, package: &str) -> String {
        let s = &self.style;
        let n = s.naming as usize;
        let method = DERIVE_NAMES[n % DERIVE_NAMES.len()];
        let mut out = String::new();
        let _ = writeln!(out, "package {package};");
        out.push('\n');
        out.push_str("import javax.crypto.SecretKeyFactory;\n");
        out.push_str("import javax.crypto.spec.PBEKeySpec;\n");
        out.push_str("import java.security.SecureRandom;\n");
        out.push('\n');
        let _ = writeln!(out, "// rev {}", s.revision);
        let _ = writeln!(out, "public class {class_name} {{");
        let mut params = vec!["char[] password".to_owned()];
        if self.salt == SaltKind::Param {
            params.push("byte[] salt".to_owned());
        }
        let _ = writeln!(
            out,
            "    public javax.crypto.SecretKey {method}({}) throws Exception {{",
            params.join(", ")
        );
        match self.salt {
            SaltKind::Static => {
                out.push_str(
                    "        byte[] salt = { 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x11 };\n",
                );
            }
            SaltKind::Random => {
                out.push_str("        byte[] salt = new byte[8];\n");
                out.push_str("        SecureRandom saltRandom = new SecureRandom();\n");
                out.push_str("        saltRandom.nextBytes(salt);\n");
            }
            SaltKind::Param => {}
        }
        let _ = writeln!(
            out,
            "        PBEKeySpec spec = new PBEKeySpec(password, salt, {}, 256);",
            self.iterations
        );
        out.push_str(
            "        SecretKeyFactory factory = SecretKeyFactory.getInstance(\"PBKDF2WithHmacSHA1\");\n",
        );
        out.push_str("        return factory.generateSecret(spec);\n");
        out.push_str("    }\n");
        if s.log_method {
            out.push('\n');
            out.push_str("    private void note(String m) {\n");
            out.push_str("        System.out.println(m);\n");
            out.push_str("    }\n");
        }
        out.push_str("}\n");
        out
    }
}

/// A digital-signature module (`Signature`) — outside the paper's six
/// target classes; used by the generalization experiment
/// (`diffcode-bench --bin extension`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SignatureScenario {
    /// Signature algorithm (e.g. `SHA1withRSA`).
    pub algo: String,
    /// Style.
    pub style: StyleKnobs,
}

impl SignatureScenario {
    /// Renders the Java source for this scenario.
    pub(crate) fn render(&self, class_name: &str, package: &str) -> String {
        let s = &self.style;
        let mut out = String::new();
        let _ = writeln!(out, "package {package};");
        out.push('\n');
        out.push_str("import java.security.Signature;\n");
        out.push('\n');
        let _ = writeln!(out, "// rev {}", s.revision);
        let _ = writeln!(out, "public class {class_name} {{");
        if s.extract_const {
            let _ = writeln!(
                out,
                "    private static final String SIG_ALGO = \"{}\";",
                self.algo
            );
        }
        let algo_expr = if s.extract_const {
            "SIG_ALGO".to_owned()
        } else {
            format!("\"{}\"", self.algo)
        };
        let _ = writeln!(
            out,
            "    public byte[] sign(byte[] data, java.security.PrivateKey key) throws Exception {{"
        );
        let _ = writeln!(
            out,
            "        Signature signer = Signature.getInstance({algo_expr});"
        );
        out.push_str("        signer.initSign(key);\n");
        out.push_str("        signer.update(data);\n");
        out.push_str("        return signer.sign();\n");
        out.push_str("    }\n\n");
        let _ = writeln!(
            out,
            "    public boolean verify(byte[] data, byte[] sig, java.security.PublicKey key) throws Exception {{"
        );
        let _ = writeln!(
            out,
            "        Signature verifier = Signature.getInstance({algo_expr});"
        );
        out.push_str("        verifier.initVerify(key);\n");
        out.push_str("        verifier.update(data);\n");
        out.push_str("        return verifier.verify(sig);\n");
        out.push_str("    }\n");
        if s.log_method {
            out.push('\n');
            out.push_str("    private void record(String what) {\n");
            out.push_str("        System.out.println(what);\n");
            out.push_str("    }\n");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_parses(src: &str) {
        let unit = javalang::parse_compilation_unit(src).expect("parse");
        assert!(
            unit.diagnostics.is_empty(),
            "diagnostics for:\n{src}\n{:?}",
            unit.diagnostics
        );
        assert_eq!(unit.types.len(), 1);
    }

    fn all_styles() -> Vec<StyleKnobs> {
        let mut out = Vec::new();
        for naming in 0..4 {
            for extract_const in [false, true] {
                for helper in [false, true] {
                    for log_method in [false, true] {
                        out.push(StyleKnobs {
                            naming,
                            extract_const,
                            helper,
                            log_method,
                            revision: naming as u32,
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn cipher_scenarios_all_parse() {
        let algos = [
            CipherAlgo::AesDefault,
            CipherAlgo::AesEcb,
            CipherAlgo::AesCbc,
            CipherAlgo::AesCtr,
            CipherAlgo::AesGcm,
            CipherAlgo::Des,
            CipherAlgo::DesEde,
            CipherAlgo::Blowfish,
        ];
        for algo in algos {
            for iv in [
                IvKind::Absent,
                IvKind::Static,
                IvKind::Random,
                IvKind::Param,
            ] {
                for key in [KeyKind::Hardcoded, KeyKind::Param, KeyKind::Generated] {
                    let scenario = CipherScenario {
                        algo,
                        padding: Padding::Pkcs5,
                        bc_provider: algo == CipherAlgo::AesCbc,
                        iv,
                        key,
                        rsa_wrap: iv == IvKind::Param,
                        with_mac: key == KeyKind::Param,
                        extra_usages: 1,
                        style: StyleKnobs::default(),
                    };
                    assert_parses(&scenario.render("CryptoService", "com.example"));
                }
            }
        }
    }

    #[test]
    fn style_changes_keep_code_parseable() {
        for style in all_styles() {
            let scenario = CipherScenario {
                algo: CipherAlgo::AesCbc,
                padding: Padding::Pkcs5,
                bc_provider: false,
                iv: IvKind::Random,
                key: KeyKind::Param,
                rsa_wrap: false,
                with_mac: false,
                extra_usages: 0,
                style,
            };
            assert_parses(&scenario.render("CryptoService", "com.example"));
        }
    }

    #[test]
    fn digest_scenarios_parse() {
        for style in all_styles().into_iter().take(8) {
            let scenario = DigestScenario {
                algo: "SHA-1".to_owned(),
                extra: vec!["MD5".to_owned(), "SHA-256".to_owned()],
                style,
            };
            assert_parses(&scenario.render("Hasher", "com.example"));
        }
    }

    #[test]
    fn random_scenarios_parse() {
        for ctor in [RngCtor::Default, RngCtor::Sha1Prng, RngCtor::Strong] {
            for seed in [SeedKind::Absent, SeedKind::Static, SeedKind::Param] {
                let scenario = RandomScenario {
                    ctor,
                    sun_provider: ctor == RngCtor::Sha1Prng,
                    seed,
                    extra_usages: 2,
                    style: StyleKnobs::default(),
                };
                assert_parses(&scenario.render("TokenGenerator", "com.example"));
            }
        }
    }

    #[test]
    fn pbe_scenarios_parse() {
        for salt in [SaltKind::Static, SaltKind::Random, SaltKind::Param] {
            for iterations in [100, 1000, 65536] {
                let scenario = PbeScenario {
                    iterations,
                    salt,
                    style: StyleKnobs::default(),
                };
                assert_parses(&scenario.render("PasswordCrypto", "com.example"));
            }
        }
    }

    #[test]
    fn refactoring_styles_render_differently() {
        let base = DigestScenario {
            algo: "SHA-256".to_owned(),
            extra: vec![],
            style: StyleKnobs::default(),
        };
        let mut refactored = base.clone();
        refactored.style.naming = 1;
        refactored.style.extract_const = true;
        assert_ne!(
            base.render("Hasher", "p"),
            refactored.render("Hasher", "p"),
            "style changes must change the text"
        );
    }

    #[test]
    fn signature_scenarios_parse() {
        for algo in [
            "SHA1withRSA",
            "MD5withRSA",
            "SHA256withRSA",
            "SHA256withECDSA",
        ] {
            for extract_const in [false, true] {
                let scenario = SignatureScenario {
                    algo: algo.to_owned(),
                    style: StyleKnobs {
                        extract_const,
                        ..StyleKnobs::default()
                    },
                };
                let src = scenario.render("Signer", "com.example");
                let unit = javalang::parse_compilation_unit(&src).unwrap();
                assert!(unit.diagnostics.is_empty(), "{src}");
            }
        }
    }
}
