//! Abstract values.

use intern::Sym;
use std::fmt;

/// Identifies one allocation site — the paper's abstract object `l_n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocSite(pub u32);

impl fmt::Display for AllocSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// An abstract value: an abstract object or an abstract base-type value
/// (paper Figure 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AValue {
    /// An object allocated at a known site, with its (erased) type name.
    Obj {
        /// The allocation site.
        site: AllocSite,
        /// The erased simple type name (e.g. `Cipher`).
        ty: Sym,
    },
    /// `⊤obj` — an object whose allocation is outside the analyzed code;
    /// the static type is kept when known (it labels DAG nodes, e.g.
    /// `arg2:Secret`).
    TopObj {
        /// Static type if known.
        ty: Option<Sym>,
    },
    /// A known constant from `Ints(P)`.
    Int(i64),
    /// `⊤int`.
    TopInt,
    /// A known constant array from `IntArrays(P)`.
    IntArray(Vec<i64>),
    /// `⊤int[]`.
    TopIntArray,
    /// A known constant from `Strs(P)`.
    Str(Sym),
    /// `⊤str`.
    TopStr,
    /// A known constant array from `StrArrays(P)`.
    StrArray(Vec<Sym>),
    /// `⊤str[]`.
    TopStrArray,
    /// `constbyte` — a byte whose value is a program constant.
    ConstByte,
    /// `⊤byte`.
    TopByte,
    /// `constbyte[]` — a byte array built entirely from program
    /// constants (e.g. a hard-coded key or IV).
    ConstByteArray,
    /// `⊤byte[]` — a byte array with runtime-dependent contents.
    TopByteArray,
    /// A boolean constant.
    Bool(bool),
    /// `⊤bool`.
    TopBool,
    /// A named API constant such as `Cipher.ENCRYPT_MODE`; kept by name
    /// because the numeric value is an API detail.
    ApiConst {
        /// Defining class.
        class: Sym,
        /// Constant name.
        name: Sym,
    },
    /// The `null` literal.
    Null,
    /// `⊤` of unknown type.
    Unknown,
}

/// The coarse kind of an abstract value; joins happen within a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ValueKind {
    Obj,
    Int,
    IntArray,
    Str,
    StrArray,
    Byte,
    ByteArray,
    Bool,
    Null,
    Unknown,
}

impl AValue {
    /// The kind used to decide join compatibility.
    pub fn kind(&self) -> ValueKind {
        match self {
            AValue::Obj { .. } | AValue::TopObj { .. } => ValueKind::Obj,
            AValue::Int(_) | AValue::TopInt | AValue::ApiConst { .. } => ValueKind::Int,
            AValue::IntArray(_) | AValue::TopIntArray => ValueKind::IntArray,
            AValue::Str(_) | AValue::TopStr => ValueKind::Str,
            AValue::StrArray(_) | AValue::TopStrArray => ValueKind::StrArray,
            AValue::ConstByte | AValue::TopByte => ValueKind::Byte,
            AValue::ConstByteArray | AValue::TopByteArray => ValueKind::ByteArray,
            AValue::Bool(_) | AValue::TopBool => ValueKind::Bool,
            AValue::Null => ValueKind::Null,
            AValue::Unknown => ValueKind::Unknown,
        }
    }

    /// `true` if this value is one of the `⊤` elements.
    pub fn is_top(&self) -> bool {
        matches!(
            self,
            AValue::TopObj { .. }
                | AValue::TopInt
                | AValue::TopIntArray
                | AValue::TopStr
                | AValue::TopStrArray
                | AValue::TopByte
                | AValue::TopByteArray
                | AValue::TopBool
                | AValue::Unknown
        )
    }

    /// The least upper bound of two abstract values.
    ///
    /// Equal values join to themselves; unequal values of the same kind
    /// join to that kind's `⊤`; kind mismatches join to [`AValue::Unknown`].
    pub fn join(self, other: AValue) -> AValue {
        if self == other {
            return self;
        }
        // `null` (the default for uninitialized locals/fields) is
        // absorbed by any value: a branch that assigns wins over one
        // that leaves the variable null.
        match (&self, &other) {
            (AValue::Null, _) => return other,
            (_, AValue::Null) => return self,
            _ => {}
        }
        if self.kind() != other.kind() {
            return AValue::Unknown;
        }
        match self.kind() {
            ValueKind::Obj => {
                let ty = match (&self, &other) {
                    (AValue::Obj { ty: a, .. }, AValue::Obj { ty: b, .. })
                    | (AValue::Obj { ty: a, .. }, AValue::TopObj { ty: Some(b) })
                    | (AValue::TopObj { ty: Some(a) }, AValue::Obj { ty: b, .. })
                    | (AValue::TopObj { ty: Some(a) }, AValue::TopObj { ty: Some(b) }) => {
                        if a == b {
                            Some(a.clone())
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                AValue::TopObj { ty }
            }
            ValueKind::Int => AValue::TopInt,
            ValueKind::IntArray => AValue::TopIntArray,
            ValueKind::Str => AValue::TopStr,
            ValueKind::StrArray => AValue::TopStrArray,
            ValueKind::Byte => AValue::TopByte,
            ValueKind::ByteArray => AValue::TopByteArray,
            ValueKind::Bool => AValue::TopBool,
            ValueKind::Null | ValueKind::Unknown => AValue::Unknown,
        }
    }

    /// The label used for DAG argument nodes (paper §3.4): constants
    /// print their value, tops print `⊤kind`, objects print their type.
    pub fn label(&self) -> String {
        let mut out = String::new();
        self.write_label(&mut out);
        out
    }

    /// Appends [`AValue::label`] to `out` without intermediate
    /// allocations — the DAG builder's hot path composes labels like
    /// `arg1:AES` into a reused scratch buffer.
    pub fn write_label(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            AValue::Obj { ty, .. } => out.push_str(ty),
            AValue::TopObj { ty: Some(ty) } => out.push_str(ty),
            AValue::TopObj { ty: None } => out.push_str("\u{22a4}obj"),
            AValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            AValue::TopInt => out.push_str("\u{22a4}int"),
            AValue::IntArray(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            }
            AValue::TopIntArray => out.push_str("\u{22a4}int[]"),
            AValue::Str(s) => out.push_str(s),
            AValue::TopStr => out.push_str("\u{22a4}str"),
            AValue::StrArray(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(v);
                }
                out.push(']');
            }
            AValue::TopStrArray => out.push_str("\u{22a4}str[]"),
            AValue::ConstByte => out.push_str("constbyte"),
            AValue::TopByte => out.push_str("\u{22a4}byte"),
            AValue::ConstByteArray => out.push_str("constbyte[]"),
            AValue::TopByteArray => out.push_str("\u{22a4}byte[]"),
            AValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            AValue::TopBool => out.push_str("\u{22a4}bool"),
            AValue::ApiConst { name, .. } => out.push_str(name),
            AValue::Null => out.push_str("null"),
            AValue::Unknown => out.push('\u{22a4}'),
        }
    }
}

impl fmt::Display for AValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(site: u32, ty: &str) -> AValue {
        AValue::Obj {
            site: AllocSite(site),
            ty: ty.into(),
        }
    }

    #[test]
    fn join_equal_is_identity() {
        assert_eq!(AValue::Int(5).join(AValue::Int(5)), AValue::Int(5));
        assert_eq!(obj(1, "Cipher").join(obj(1, "Cipher")), obj(1, "Cipher"));
    }

    #[test]
    fn join_same_kind_goes_top() {
        assert_eq!(AValue::Int(1).join(AValue::Int(2)), AValue::TopInt);
        assert_eq!(
            AValue::Str("AES".into()).join(AValue::Str("DES".into())),
            AValue::TopStr
        );
        assert_eq!(
            AValue::ConstByteArray.join(AValue::TopByteArray),
            AValue::TopByteArray
        );
    }

    #[test]
    fn join_objects_keeps_common_type() {
        assert_eq!(
            obj(1, "Cipher").join(obj(2, "Cipher")),
            AValue::TopObj {
                ty: Some("Cipher".into())
            }
        );
        assert_eq!(
            obj(1, "Cipher").join(obj(2, "Mac")),
            AValue::TopObj { ty: None }
        );
    }

    #[test]
    fn join_null_with_object_is_object() {
        assert_eq!(AValue::Null.join(obj(3, "Cipher")), obj(3, "Cipher"));
        assert_eq!(obj(3, "Cipher").join(AValue::Null), obj(3, "Cipher"));
    }

    #[test]
    fn join_kind_mismatch_is_unknown() {
        assert_eq!(
            AValue::Int(1).join(AValue::Str("x".into())),
            AValue::Unknown
        );
    }

    #[test]
    fn api_const_joins_with_int() {
        let c = AValue::ApiConst {
            class: "Cipher".into(),
            name: "ENCRYPT_MODE".into(),
        };
        assert_eq!(c.clone().join(c.clone()), c.clone());
        assert_eq!(c.join(AValue::Int(7)), AValue::TopInt);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(AValue::TopByteArray.label(), "\u{22a4}byte[]");
        assert_eq!(AValue::ConstByteArray.label(), "constbyte[]");
        assert_eq!(AValue::Str("AES/CBC".into()).label(), "AES/CBC");
        assert_eq!(
            AValue::ApiConst {
                class: "Cipher".into(),
                name: "ENCRYPT_MODE".into()
            }
            .label(),
            "ENCRYPT_MODE"
        );
        assert_eq!(
            AValue::TopObj {
                ty: Some("Secret".into())
            }
            .label(),
            "Secret"
        );
    }

    #[test]
    fn top_detection() {
        assert!(AValue::TopInt.is_top());
        assert!(!AValue::Int(0).is_top());
        assert!(AValue::Unknown.is_top());
    }
}
