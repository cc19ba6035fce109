//! The rule formula language (paper §6.3): rules have the form `t : φ`
//! where `φ` is interpreted over the set of (method, abstract state)
//! pairs of an abstract object of type `t`.

use absdomain::AValue;
use analysis::UsageEvent;

/// A constraint on one argument position of a call.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgConstraint {
    /// Always satisfied.
    Any,
    /// The argument is the string constant `s`.
    EqStr(String),
    /// The argument is one of the given string constants.
    InStrs(Vec<String>),
    /// The argument is *not* any of the given string constants
    /// (a missing or non-constant argument satisfies this).
    NotInStrs(Vec<String>),
    /// The argument is a string constant starting with the prefix.
    StartsWith(String),
    /// The argument is an integer constant less than `n`.
    IntLt(i64),
    /// The argument is an integer constant greater than or equal to `n`.
    IntGe(i64),
    /// The argument is exactly the integer constant `n`.
    EqInt(i64),
    /// The argument is program-constant data — a hard-coded key, IV,
    /// salt, or seed (`X ≠ ⊤byte[]` in the paper's notation).
    ConstData,
    /// The argument is an abstract object of the given type.
    IsObjectOfType(String),
}

impl ArgConstraint {
    /// Evaluates the constraint against an argument value; `None` means
    /// the call has no argument at that position.
    pub(crate) fn matches(&self, value: Option<&AValue>) -> bool {
        match self {
            ArgConstraint::Any => true,
            ArgConstraint::EqStr(s) => {
                matches!(value, Some(AValue::Str(v)) if &**v == s.as_str())
            }
            ArgConstraint::InStrs(set) => {
                matches!(value, Some(AValue::Str(v)) if set.iter().any(|x| x == &**v))
            }
            ArgConstraint::NotInStrs(set) => match value {
                Some(AValue::Str(v)) => !set.iter().any(|x| x == &**v),
                // Missing or non-constant argument: not one of the
                // required constants.
                _ => true,
            },
            ArgConstraint::StartsWith(prefix) => {
                matches!(value, Some(AValue::Str(v)) if v.starts_with(prefix.as_str()))
            }
            ArgConstraint::IntLt(n) => {
                matches!(value, Some(AValue::Int(v)) if v < n)
            }
            ArgConstraint::IntGe(n) => {
                matches!(value, Some(AValue::Int(v)) if v >= n)
            }
            ArgConstraint::EqInt(n) => {
                matches!(value, Some(AValue::Int(v)) if v == n)
            }
            ArgConstraint::ConstData => matches!(
                value,
                Some(
                    AValue::ConstByteArray
                        | AValue::Int(_)
                        | AValue::IntArray(_)
                        | AValue::Str(_)
                        | AValue::StrArray(_)
                        | AValue::ConstByte
                )
            ),
            ArgConstraint::IsObjectOfType(ty) => match value {
                Some(AValue::Obj { ty: t, .. }) => &**t == ty.as_str(),
                Some(AValue::TopObj { ty: Some(t) }) => &**t == ty.as_str(),
                _ => false,
            },
        }
    }
}

/// A predicate over a single usage event.
#[derive(Debug, Clone, PartialEq)]
pub struct CallPred {
    /// Method names that match; empty means any method. `<init>`
    /// matches constructors.
    pub methods: Vec<String>,
    /// 1-based argument constraints.
    pub args: Vec<(usize, ArgConstraint)>,
}

impl CallPred {
    /// A predicate on one method name with no argument constraints.
    pub(crate) fn method(name: impl Into<String>) -> Self {
        CallPred {
            methods: vec![name.into()],
            args: Vec::new(),
        }
    }

    /// Adds an argument constraint (1-based index).
    pub(crate) fn arg(mut self, index: usize, constraint: ArgConstraint) -> Self {
        self.args.push((index, constraint));
        self
    }

    /// A predicate matching object creation: constructor or any
    /// `getInstance` factory.
    pub(crate) fn creation() -> Self {
        CallPred {
            methods: vec![
                "<init>".to_owned(),
                "getInstance".to_owned(),
                "getInstanceStrong".to_owned(),
            ],
            args: Vec::new(),
        }
    }

    /// Evaluates the predicate on one event.
    pub(crate) fn matches(&self, event: &UsageEvent) -> bool {
        if !self.methods.is_empty()
            && !self
                .methods
                .iter()
                .any(|m| m.as_str() == &*event.method.name)
        {
            return false;
        }
        self.args
            .iter()
            .all(|(index, constraint)| constraint.matches(event.args.get(index - 1)))
    }
}

/// A formula over the set of usage events of one abstract object.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// `∃(m,σ) ∈ S . pred`
    Exists(CallPred),
    /// `¬∃(m,σ) ∈ S . pred`
    NotExists(CallPred),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// Evaluates against the events of one abstract object.
    pub(crate) fn eval(&self, events: &[UsageEvent]) -> bool {
        match self {
            Formula::Exists(pred) => events.iter().any(|e| pred.matches(e)),
            Formula::NotExists(pred) => !events.iter().any(|e| pred.matches(e)),
            Formula::And(fs) => fs.iter().all(|f| f.eval(events)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval(events)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absdomain::MethodSig;

    fn event(name: &str, args: Vec<AValue>) -> UsageEvent {
        let arity = args.len();
        UsageEvent {
            method: MethodSig::new("Cipher", name, arity),
            args,
        }
    }

    #[test]
    fn eq_str_constraint() {
        let c = ArgConstraint::EqStr("AES".into());
        assert!(c.matches(Some(&AValue::Str("AES".into()))));
        assert!(!c.matches(Some(&AValue::Str("DES".into()))));
        assert!(!c.matches(Some(&AValue::TopStr)));
        assert!(!c.matches(None));
    }

    #[test]
    fn not_in_strs_matches_missing_and_top() {
        let c = ArgConstraint::NotInStrs(vec!["BC".into()]);
        assert!(c.matches(None), "missing provider argument");
        assert!(c.matches(Some(&AValue::TopStr)));
        assert!(c.matches(Some(&AValue::Str("SunJCE".into()))));
        assert!(!c.matches(Some(&AValue::Str("BC".into()))));
    }

    #[test]
    fn const_data_matches_static_material() {
        let c = ArgConstraint::ConstData;
        assert!(c.matches(Some(&AValue::ConstByteArray)));
        assert!(c.matches(Some(&AValue::Int(42))));
        assert!(!c.matches(Some(&AValue::TopByteArray)));
        assert!(!c.matches(None));
    }

    #[test]
    fn int_lt() {
        let c = ArgConstraint::IntLt(1000);
        assert!(c.matches(Some(&AValue::Int(100))));
        assert!(!c.matches(Some(&AValue::Int(1000))));
        assert!(!c.matches(Some(&AValue::TopInt)));
    }

    #[test]
    fn call_pred_on_events() {
        let pred = CallPred::method("getInstance").arg(1, ArgConstraint::EqStr("DES".into()));
        assert!(pred.matches(&event("getInstance", vec![AValue::Str("DES".into())])));
        assert!(!pred.matches(&event("getInstance", vec![AValue::Str("AES".into())])));
        assert!(!pred.matches(&event("init", vec![AValue::Str("DES".into())])));
    }

    #[test]
    fn creation_pred_matches_ctor_and_factory() {
        let pred = CallPred::creation();
        assert!(pred.matches(&event("<init>", vec![])));
        assert!(pred.matches(&event("getInstance", vec![AValue::Str("X".into())])));
        assert!(!pred.matches(&event("init", vec![])));
    }

    #[test]
    fn formula_connectives() {
        let events = vec![
            event("getInstance", vec![AValue::Str("AES".into())]),
            event("init", vec![AValue::TopInt]),
        ];
        let has_aes = Formula::Exists(
            CallPred::method("getInstance").arg(1, ArgConstraint::EqStr("AES".into())),
        );
        let has_des = Formula::Exists(
            CallPred::method("getInstance").arg(1, ArgConstraint::EqStr("DES".into())),
        );
        assert!(has_aes.eval(&events));
        assert!(!has_des.eval(&events));
        assert!(Formula::And(vec![has_aes.clone()]).eval(&events));
        assert!(Formula::Or(vec![has_des.clone(), has_aes.clone()]).eval(&events));
        assert!(!Formula::And(vec![has_aes, has_des.clone()]).eval(&events));
        assert!(Formula::NotExists(
            CallPred::method("getInstance").arg(1, ArgConstraint::EqStr("DES".into()))
        )
        .eval(&events));
    }
}
