//! A model of the Java Crypto API (and the few JDK helpers that matter
//! for tracking how constants flow into it).

use absdomain::{AValue, ValueKind};

/// The six target API classes of the paper's case study (Figure 5).
pub const TARGET_CLASSES: [&str; 6] = [
    "Cipher",
    "IvParameterSpec",
    "MessageDigest",
    "SecretKeySpec",
    "SecureRandom",
    "PBEKeySpec",
];

/// Crypto-API classes the analyzer tracks allocation sites for, beyond
/// the six targets (they appear as arguments/peers in usages and in
/// composite rules such as R13).
pub(crate) const TRACKED_CLASSES: [&str; 14] = [
    "Cipher",
    "IvParameterSpec",
    "MessageDigest",
    "SecretKeySpec",
    "SecureRandom",
    "PBEKeySpec",
    "Mac",
    "KeyGenerator",
    "KeyPairGenerator",
    "SecretKeyFactory",
    "KeyFactory",
    "Signature",
    "KeyStore",
    "GCMParameterSpec",
];

/// Static knowledge about the APIs the analyzer models.
#[derive(Debug, Clone, Default)]
pub struct ApiModel {
    _private: (),
}

impl ApiModel {
    /// The standard model used throughout the reproduction.
    pub fn standard() -> Self {
        ApiModel::default()
    }

    /// `true` if allocation sites of `class` should become abstract
    /// objects with tracked usage.
    pub(crate) fn is_tracked_class(&self, class: &str) -> bool {
        TRACKED_CLASSES.contains(&class)
    }

    /// `true` if the *static* call `class.method(..)` is a factory that
    /// returns an instance of `class`. The JCA convention is uniform:
    /// every engine class exposes `getInstance` overloads.
    pub(crate) fn is_factory(&self, class: &str, method: &str) -> bool {
        looks_like_class_name(class) && (method == "getInstance" || method == "getInstanceStrong")
    }

    /// The abstract result of calling `method` with `args`, for the few
    /// byte/char-array producers whose constness we propagate
    /// (`"iv".toCharArray()` is a constant array; `password.getBytes()`
    /// on an unknown string is `⊤byte[]`).
    pub(crate) fn eval_known_call(
        &self,
        method: &str,
        receiver: Option<&AValue>,
        args: &[AValue],
    ) -> Option<AValue> {
        match method {
            // char[]/byte[] producers that preserve constness. The
            // constness scan only runs once a producer matched — most
            // calls fall through to `None` on the name alone.
            "toCharArray" | "getBytes" | "decodeHex" | "decode" | "parseHexBinary" | "copyOf"
            | "copyOfRange" | "clone" => {
                let const_inputs = receiver.into_iter().chain(args.iter()).all(|v| {
                    matches!(
                        v.kind(),
                        ValueKind::Str | ValueKind::Int | ValueKind::Byte | ValueKind::ByteArray
                    ) && !v.is_top()
                });
                Some(if const_inputs {
                    AValue::ConstByteArray
                } else {
                    AValue::TopByteArray
                })
            }
            // Inherently data-dependent producers.
            "digest" | "doFinal" | "update" | "generateSeed" | "getEncoded" | "generateKey"
            | "generateSecret" | "sign" | "wrap" | "unwrap" => Some(AValue::TopByteArray),
            _ => None,
        }
    }

    /// `true` if calling `method` havocs the array passed to it (e.g.
    /// `SecureRandom.nextBytes(iv)` turns a zero-initialized constant
    /// array into runtime data).
    pub(crate) fn is_array_havoc(&self, method: &str) -> bool {
        matches!(method, "nextBytes" | "engineNextBytes" | "read")
    }
}

/// Heuristic used when a dotted name does not resolve to a local or
/// field: a capitalized segment is read as a class name.
pub(crate) fn looks_like_class_name(segment: &str) -> bool {
    segment
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_uppercase())
}

/// Heuristic for API constants: `Cipher.ENCRYPT_MODE`,
/// `Build.MIN_SDK_VERSION` — an ALL_CAPS terminal segment on a
/// class-like qualifier.
pub(crate) fn looks_like_const_name(segment: &str) -> bool {
    !segment.is_empty()
        && segment
            .chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        && segment
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_follow_jca_convention() {
        let api = ApiModel::standard();
        assert!(api.is_factory("Cipher", "getInstance"));
        assert!(api.is_factory("SecureRandom", "getInstanceStrong"));
        assert!(api.is_factory("Mac", "getInstance"));
        assert!(!api.is_factory("cipher", "getInstance"));
        assert!(!api.is_factory("Cipher", "init"));
    }

    #[test]
    fn const_heuristics() {
        assert!(looks_like_const_name("ENCRYPT_MODE"));
        assert!(looks_like_const_name("SDK_INT"));
        assert!(!looks_like_const_name("getInstance"));
        assert!(!looks_like_const_name("Cipher"));
        assert!(looks_like_class_name("Cipher"));
        assert!(!looks_like_class_name("enc"));
    }

    #[test]
    fn known_calls_preserve_constness() {
        let api = ApiModel::standard();
        let const_str = AValue::Str("0011223344556677".into());
        assert_eq!(
            api.eval_known_call("toCharArray", Some(&const_str), &[]),
            Some(AValue::ConstByteArray)
        );
        assert_eq!(
            api.eval_known_call("toCharArray", Some(&AValue::TopStr), &[]),
            Some(AValue::TopByteArray)
        );
        assert_eq!(
            api.eval_known_call("digest", Some(&const_str), &[]),
            Some(AValue::TopByteArray)
        );
        assert_eq!(api.eval_known_call("frobnicate", None, &[]), None);
    }

    #[test]
    fn target_classes_match_paper_figure_5() {
        assert_eq!(TARGET_CLASSES.len(), 6);
        assert!(TARGET_CLASSES.contains(&"Cipher"));
        assert!(TARGET_CLASSES.contains(&"PBEKeySpec"));
        for t in TARGET_CLASSES {
            assert!(TRACKED_CLASSES.contains(&t));
        }
    }
}
