//! A textual rule language in the paper's Figure 9 notation.
//!
//! ```text
//! MessageDigest : getInstance(X) ∧ X=SHA-1
//! PBEKeySpec : <init>(_,_,X,_) ∧ X<1000
//! Cipher : getInstance(X) ∧ (X=AES ∨ X=AES/ECB)
//! (Cipher : getInstance(X) ∧ startsWith(X,AES/CBC))
//!   ∧ (Cipher : getInstance(Y) ∧ Y=RSA)
//!   ∧ ¬(Mac : getInstance(Z) ∧ startsWith(Z,Hmac))
//! ```
//!
//! ASCII spellings are accepted everywhere: `&&` for `∧`, `||` for
//! `∨`, `!` for `¬`, `!=` for `≠`, `>=` for `≥`, `T byte[]` as
//! `^byte[]` is not needed — `⊤byte[]` may be written `top`.
//!
//! The parsed formula is the **violation predicate**: a project matches
//! the rule when the formula holds. `X ≠ ⊤byte[]` follows the paper's
//! reading — "the argument is a *program constant*" (hard-coded key,
//! IV, salt, or seed).
//!
//! Supported shape (covers all 13 paper rules): a conjunction of
//! clauses; each clause is `[¬] Class : body` where the body is a
//! conjunction of method atoms (optionally negated), variable
//! constraints, `startsWith(Var, prefix)` atoms, and disjunctions of
//! constraints on one variable.

use crate::formula::{ArgConstraint, CallPred, Formula};
use crate::rule::{Applicability, ClassClause, ContextCond, Rule};
use std::error::Error;
use std::fmt;

/// An error produced while parsing a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRuleError {
    message: String,
}

impl ParseRuleError {
    fn new(message: impl Into<String>) -> Self {
        ParseRuleError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseRuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rule: {}", self.message)
    }
}

impl Error for ParseRuleError {}

/// Parses a rule in Figure 9 notation.
///
/// # Errors
///
/// Returns [`ParseRuleError`] when the text does not fit the supported
/// shape (see module docs).
///
/// # Example
///
/// ```
/// let rule = rules::dsl::parse_rule(
///     "RX",
///     "no SHA-1",
///     "MessageDigest : getInstance(X) \u{2227} X=SHA-1",
/// )?;
/// assert_eq!(rule.subject_class(), "MessageDigest");
/// # Ok::<(), rules::dsl::ParseRuleError>(())
/// ```
pub fn parse_rule(id: &str, description: &str, text: &str) -> Result<Rule, ParseRuleError> {
    let normalized = normalize(text);
    let clause_texts = split_top_level(&normalized)?;
    let mut positive = Vec::new();
    let mut negative = Vec::new();
    let mut context = ContextCond::None;

    for clause_text in clause_texts {
        let (negated, body) = strip_negation(clause_text.trim());
        let body = strip_outer_parens(body.trim());
        let Some((class, formula_text)) = body.split_once(':') else {
            return Err(ParseRuleError::new(format!(
                "clause `{body}` has no `Class :` prefix"
            )));
        };
        let class = class.trim();
        if class.is_empty() || !class.chars().all(|c| c.is_alphanumeric()) {
            return Err(ParseRuleError::new(format!("bad class name `{class}`")));
        }
        let (formula, clause_context) = parse_clause_body(formula_text.trim())?;
        if clause_context == ContextCond::AndroidPrngVulnerable {
            context = ContextCond::AndroidPrngVulnerable;
        }
        let clause = ClassClause::new(class, formula);
        if negated {
            negative.push(clause);
        } else {
            positive.push(clause);
        }
    }

    if positive.is_empty() {
        return Err(ParseRuleError::new(
            "rule needs at least one positive clause",
        ));
    }
    let applicability = if positive.len() > 1 {
        Applicability::PositiveClausesMatch
    } else if context == ContextCond::AndroidPrngVulnerable {
        Applicability::ClassPresentWithContext(positive[0].class.clone())
    } else {
        Applicability::ClassPresent(positive[0].class.clone())
    };
    Ok(Rule {
        id: id.to_owned(),
        description: description.to_owned(),
        display: text.to_owned(),
        positive,
        negative,
        context,
        applicability,
        references: Vec::new(),
    })
}

fn normalize(text: &str) -> String {
    text.replace("&&", "\u{2227}")
        .replace("||", "\u{2228}")
        .replace("!=", "\u{2260}")
        .replace(">=", "\u{2265}")
        .replace("<=", "\u{2264}")
        .replace('!', "\u{00ac}")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Splits a conjunction at top-level `∧` (not inside parentheses).
/// Only splits between clauses when more than one `Class :` clause is
/// present; a single un-parenthesized clause stays whole.
fn split_top_level(text: &str) -> Result<Vec<String>, ParseRuleError> {
    // If the text starts with `(` or `¬(`, it is a multi-clause rule.
    let trimmed = text.trim();
    let multi = trimmed.starts_with('(') || trimmed.starts_with('\u{00ac}');
    if !multi {
        return Ok(vec![trimmed.to_owned()]);
    }
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in trimmed.chars() {
        match c {
            '(' => {
                depth += 1;
                current.push(c);
            }
            ')' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| ParseRuleError::new("unbalanced `)`"))?;
                current.push(c);
            }
            '\u{2227}' if depth == 0 => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if depth != 0 {
        return Err(ParseRuleError::new("unbalanced `(`"));
    }
    if !current.trim().is_empty() {
        parts.push(current);
    }
    Ok(parts)
}

fn strip_negation(text: &str) -> (bool, &str) {
    match text.strip_prefix('\u{00ac}') {
        Some(rest) => (true, rest.trim_start()),
        None => (false, text),
    }
}

fn strip_outer_parens(text: &str) -> &str {
    let t = text.trim();
    if !t.starts_with('(') || !t.ends_with(')') {
        return t;
    }
    // Only strip if the parens match each other.
    let inner = &t[1..t.len() - 1];
    let mut depth = 0i64;
    for c in inner.chars() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth < 0 {
                    return t;
                }
            }
            _ => {}
        }
    }
    inner.trim()
}

/// One parsed conjunct of a clause body.
#[derive(Debug, Clone, PartialEq)]
enum Item {
    /// `getInstance(X,_)` or `getInstanceStrong` — a (possibly negated)
    /// call atom with variable/placeholder parameters.
    Call {
        negated: bool,
        name: String,
        params: Vec<Option<char>>,
    },
    /// `X=SHA-1`, `X<1000`, `startsWith(X,AES/CBC)`, …
    Constraint {
        var: char,
        constraint: ArgConstraint,
    },
    /// `(X=AES ∨ X=AES/ECB)` — all disjuncts on the same variable.
    OrConstraints {
        var: char,
        constraints: Vec<ArgConstraint>,
    },
    /// `¬LPRNG` / `MIN_SDK_VERSION≥16` — project context.
    Context,
}

fn parse_clause_body(text: &str) -> Result<(Formula, ContextCond), ParseRuleError> {
    let conjuncts = split_conjunction(text)?;
    let mut items = Vec::new();
    let mut context_items = 0usize;
    for conjunct in &conjuncts {
        let item = parse_item(conjunct.trim())?;
        if item == Item::Context {
            context_items += 1;
        }
        items.push(item);
    }
    let context = if context_items > 0 {
        ContextCond::AndroidPrngVulnerable
    } else {
        ContextCond::None
    };

    // Bind variables to (call index, 1-based position).
    let calls: Vec<(usize, &Item)> = items
        .iter()
        .enumerate()
        .filter(|(_, it)| matches!(it, Item::Call { .. }))
        .collect();
    if calls.is_empty() {
        return Err(ParseRuleError::new(format!(
            "clause `{text}` has no method atom"
        )));
    }
    let mut var_slot: Vec<(char, usize, usize)> = Vec::new(); // (var, call idx, pos)
    for (idx, item) in &calls {
        if let Item::Call { params, .. } = item {
            for (pos, p) in params.iter().enumerate() {
                if let Some(var) = p {
                    var_slot.push((*var, *idx, pos + 1));
                }
            }
        }
    }
    let slot_of = |var: char| -> Result<(usize, usize), ParseRuleError> {
        var_slot
            .iter()
            .find(|(v, _, _)| *v == var)
            .map(|(_, i, p)| (*i, *p))
            .ok_or_else(|| {
                ParseRuleError::new(format!("variable `{var}` is not bound by any call"))
            })
    };

    // Attach plain constraints to their calls.
    let mut call_args: Vec<Vec<(usize, ArgConstraint)>> = vec![Vec::new(); items.len()];
    let mut or_groups: Vec<(usize, usize, Vec<ArgConstraint>)> = Vec::new();
    for item in &items {
        match item {
            Item::Constraint { var, constraint } => {
                let (call_idx, pos) = slot_of(*var)?;
                call_args[call_idx].push((pos, constraint.clone()));
            }
            Item::OrConstraints { var, constraints } => {
                let (call_idx, pos) = slot_of(*var)?;
                or_groups.push((call_idx, pos, constraints.clone()));
            }
            _ => {}
        }
    }

    // Build the formula: one Exists/NotExists per call; a call with an
    // or-group becomes a disjunction of its variants.
    let mut parts = Vec::new();
    for (idx, item) in items.iter().enumerate() {
        let Item::Call {
            negated,
            name,
            params,
        } = item
        else {
            continue;
        };
        let base = CallPred {
            methods: vec![name.clone()],
            args: call_args[idx]
                .iter()
                .map(|(pos, c)| (*pos, c.clone()))
                .collect(),
        };
        let _ = params;
        let groups: Vec<&(usize, usize, Vec<ArgConstraint>)> =
            or_groups.iter().filter(|(ci, _, _)| *ci == idx).collect();
        let positive_formula = if groups.is_empty() {
            Formula::Exists(base.clone())
        } else {
            // Cartesian expansion over or-groups (in practice one).
            let mut variants: Vec<CallPred> = vec![base.clone()];
            for (_, pos, constraints) in groups {
                let mut next = Vec::new();
                for variant in &variants {
                    for constraint in constraints {
                        let mut v = variant.clone();
                        v.args.push((*pos, constraint.clone()));
                        next.push(v);
                    }
                }
                variants = next;
            }
            Formula::Or(variants.into_iter().map(Formula::Exists).collect())
        };
        parts.push(if *negated {
            match positive_formula {
                Formula::Exists(p) => Formula::NotExists(p),
                other => Formula::And(vec![]).clone_not(other),
            }
        } else {
            positive_formula
        });
    }
    let formula = if parts.len() == 1 {
        parts.pop().expect("one part")
    } else {
        Formula::And(parts)
    };
    Ok((formula, context))
}

/// Helper to negate a non-atomic formula (rare path).
trait CloneNot {
    fn clone_not(&self, f: Formula) -> Formula;
}

impl CloneNot for Formula {
    fn clone_not(&self, f: Formula) -> Formula {
        match f {
            Formula::Exists(p) => Formula::NotExists(p),
            Formula::NotExists(p) => Formula::Exists(p),
            Formula::Or(fs) => Formula::And(fs.into_iter().map(|x| self.clone_not(x)).collect()),
            Formula::And(fs) => Formula::Or(fs.into_iter().map(|x| self.clone_not(x)).collect()),
        }
    }
}

/// Splits a clause body at `∧` outside parentheses.
fn split_conjunction(text: &str) -> Result<Vec<String>, ParseRuleError> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in text.chars() {
        match c {
            '(' => {
                depth += 1;
                current.push(c);
            }
            ')' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| ParseRuleError::new("unbalanced `)`"))?;
                current.push(c);
            }
            '\u{2227}' if depth == 0 => parts.push(std::mem::take(&mut current)),
            _ => current.push(c),
        }
    }
    if depth != 0 {
        return Err(ParseRuleError::new("unbalanced `(`"));
    }
    parts.push(current);
    Ok(parts)
}

fn parse_item(text: &str) -> Result<Item, ParseRuleError> {
    let (negated, body) = strip_negation(text);
    let body = body.trim();

    // Context atoms.
    if body == "LPRNG" || body == "HAS_LPRNG" {
        return Ok(Item::Context);
    }
    if body.starts_with("MIN_SDK_VERSION") {
        return Ok(Item::Context);
    }

    // `startsWith(X,prefix)`.
    if let Some(rest) = body.strip_prefix("startsWith(") {
        let inner = rest
            .strip_suffix(')')
            .ok_or_else(|| ParseRuleError::new("unterminated startsWith"))?;
        let (var, prefix) = inner
            .split_once(',')
            .ok_or_else(|| ParseRuleError::new("startsWith needs two arguments"))?;
        let var = parse_var(var.trim())?;
        if negated {
            return Err(ParseRuleError::new("negated startsWith is not supported"));
        }
        return Ok(Item::Constraint {
            var,
            constraint: ArgConstraint::StartsWith(prefix.trim().to_owned()),
        });
    }

    // Parenthesized disjunction of constraints.
    if body.starts_with('(') && body.ends_with(')') {
        let inner = &body[1..body.len() - 1];
        let disjuncts: Vec<&str> = inner.split('\u{2228}').collect();
        if disjuncts.len() < 2 {
            return Err(ParseRuleError::new(format!(
                "parenthesized group `{body}` is not a disjunction"
            )));
        }
        let mut var = None;
        let mut constraints = Vec::new();
        for d in disjuncts {
            let Item::Constraint { var: v, constraint } = parse_item(d.trim())? else {
                return Err(ParseRuleError::new(
                    "disjunctions may only contain variable constraints",
                ));
            };
            if *var.get_or_insert(v) != v {
                return Err(ParseRuleError::new(
                    "disjuncts must constrain the same variable",
                ));
            }
            constraints.push(constraint);
        }
        return Ok(Item::OrConstraints {
            var: var.expect("nonempty"),
            constraints,
        });
    }

    // Variable constraint `X=…` / `X≠…` / `X<…` / `X≥…`.
    for (op, make) in CONSTRAINT_OPS {
        if let Some((lhs, rhs)) = body.split_once(*op) {
            let lhs = lhs.trim();
            if lhs.len() == 1 {
                let var = parse_var(lhs)?;
                return Ok(Item::Constraint {
                    var,
                    constraint: make(rhs.trim())?,
                });
            }
        }
    }

    // Method atom `name(params)` or bare `name`.
    let (name, params) = match body.split_once('(') {
        Some((name, rest)) => {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| ParseRuleError::new(format!("unterminated call `{body}`")))?;
            let params = if inner.trim().is_empty() {
                Vec::new()
            } else {
                inner
                    .split(',')
                    .map(|p| {
                        let p = p.trim();
                        if p == "_" {
                            Ok(None)
                        } else {
                            parse_var(p).map(Some)
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            (name.trim(), params)
        }
        None => (body, Vec::new()),
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_alphanumeric() || c == '<' || c == '>' || c == '_')
    {
        return Err(ParseRuleError::new(format!("bad method name `{name}`")));
    }
    Ok(Item::Call {
        negated,
        name: name.to_owned(),
        params,
    })
}

type ConstraintBuilder = fn(&str) -> Result<ArgConstraint, ParseRuleError>;

const CONSTRAINT_OPS: &[(&str, ConstraintBuilder)] = &[
    ("\u{2260}", |rhs| {
        if rhs == "\u{22a4}byte[]" || rhs.eq_ignore_ascii_case("top") {
            // `X ≠ ⊤byte[]`: the argument is a program constant.
            Ok(ArgConstraint::ConstData)
        } else {
            Ok(ArgConstraint::NotInStrs(vec![rhs.to_owned()]))
        }
    }),
    ("\u{2265}", |rhs| {
        rhs.parse()
            .map(ArgConstraint::IntGe)
            .map_err(|_| ParseRuleError::new(format!("`≥` needs an integer, got `{rhs}`")))
    }),
    ("<", |rhs| {
        rhs.parse()
            .map(ArgConstraint::IntLt)
            .map_err(|_| ParseRuleError::new(format!("`<` needs an integer, got `{rhs}`")))
    }),
    ("=", |rhs| {
        Ok(match rhs.parse::<i64>() {
            Ok(n) => ArgConstraint::EqInt(n),
            Err(_) => ArgConstraint::EqStr(rhs.to_owned()),
        })
    }),
];

fn parse_var(text: &str) -> Result<char, ParseRuleError> {
    let mut chars = text.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) if c.is_ascii_uppercase() => Ok(c),
        _ => Err(ParseRuleError::new(format!(
            "expected a variable (single uppercase letter), got `{text}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::ProjectContext;
    use analysis::{analyze, AnalysisLimits, ApiModel, Usages};

    fn usages(src: &str) -> Usages {
        let unit = javalang::parse_compilation_unit(src).unwrap();
        analyze(&unit, &ApiModel::standard(), &AnalysisLimits::DEFAULT)
            .unwrap()
            .0
    }

    fn plain() -> ProjectContext {
        ProjectContext::plain()
    }

    #[test]
    fn parses_all_thirteen_paper_displays() {
        for rule in crate::builtin::all_rules() {
            let parsed = parse_rule(&rule.id, &rule.description, &rule.display);
            assert!(parsed.is_ok(), "{}: {:?}", rule.id, parsed.err());
        }
    }

    #[test]
    fn r1_semantics_via_dsl() {
        let rule = parse_rule(
            "R1",
            "no SHA-1",
            "MessageDigest : getInstance(X) \u{2227} X=SHA-1",
        )
        .unwrap();
        let bad = usages(
            r#"class C { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-1"); } }"#,
        );
        let good = usages(
            r#"class C { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-256"); } }"#,
        );
        assert!(rule.matches(&bad, &plain()));
        assert!(!rule.matches(&good, &plain()));
    }

    #[test]
    fn ascii_spellings_accepted() {
        let rule = parse_rule("RX", "ascii", "PBEKeySpec : <init>(_,_,X,_) && X<1000").unwrap();
        let bad = usages(
            r#"class C { void m(char[] p, byte[] s) { PBEKeySpec k = new PBEKeySpec(p, s, 100, 256); } }"#,
        );
        assert!(rule.matches(&bad, &plain()));
    }

    #[test]
    fn disjunction_expands() {
        let rule = parse_rule(
            "R7",
            "no ecb",
            "Cipher : getInstance(X) \u{2227} (X=AES \u{2228} X=AES/ECB/PKCS5Padding)",
        )
        .unwrap();
        let default_aes = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }"#,
        );
        let explicit = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/ECB/PKCS5Padding"); } }"#,
        );
        let cbc = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding"); } }"#,
        );
        assert!(rule.matches(&default_aes, &plain()));
        assert!(rule.matches(&explicit, &plain()));
        assert!(!rule.matches(&cbc, &plain()));
    }

    #[test]
    fn top_byte_array_means_constant() {
        let rule = parse_rule(
            "R9",
            "no static IV",
            "IvParameterSpec : <init>(X) \u{2227} X\u{2260}\u{22a4}byte[]",
        )
        .unwrap();
        let bad = usages(
            r#"class C { void m() { IvParameterSpec s = new IvParameterSpec(new byte[16]); } }"#,
        );
        let good = usages(
            r#"class C { void m(byte[] iv) { IvParameterSpec s = new IvParameterSpec(iv); } }"#,
        );
        assert!(rule.matches(&bad, &plain()));
        assert!(!rule.matches(&good, &plain()));
    }

    #[test]
    fn composite_rule_with_negated_clause() {
        let rule = parse_rule(
            "R13",
            "missing mac",
            "(Cipher : getInstance(X) \u{2227} startsWith(X,AES/CBC)) \u{2227} \
             (Cipher : getInstance(Y) \u{2227} Y=RSA) \u{2227} \
             \u{00ac}(Mac : getInstance(Z) \u{2227} startsWith(Z,Hmac))",
        )
        .unwrap();
        assert_eq!(rule.positive.len(), 2);
        assert_eq!(rule.negative.len(), 1);
        assert_eq!(rule.applicability, Applicability::PositiveClausesMatch);

        let bad = usages(
            r#"
            class C {
                void m() throws Exception {
                    Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
                    Cipher b = Cipher.getInstance("RSA");
                }
            }
            "#,
        );
        let good = usages(
            r#"
            class C {
                void m() throws Exception {
                    Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
                    Cipher b = Cipher.getInstance("RSA");
                    Mac m = Mac.getInstance("HmacSHA256");
                }
            }
            "#,
        );
        assert!(rule.matches(&bad, &plain()));
        assert!(!rule.matches(&good, &plain()));
    }

    #[test]
    fn android_context_detected() {
        let rule = parse_rule(
            "R6",
            "android prng",
            "SecureRandom : <init>(_) \u{2227} \u{00ac}LPRNG \u{2227} MIN_SDK_VERSION\u{2265}16",
        )
        .unwrap();
        assert_eq!(rule.context, ContextCond::AndroidPrngVulnerable);
        let u = usages(r#"class C { void m() { SecureRandom r = new SecureRandom(); } }"#);
        assert!(!rule.matches(&u, &plain()));
        assert!(rule.matches(&u, &ProjectContext::android(17)));
    }

    #[test]
    fn negated_method_atom() {
        let rule = parse_rule(
            "RX",
            "must call init",
            "Cipher : getInstance(_) \u{2227} \u{00ac}init",
        )
        .unwrap();
        let uninitialized = usages(
            r#"class C { void m() throws Exception { Cipher c = Cipher.getInstance("AES"); } }"#,
        );
        let initialized = usages(
            r#"class C { void m(Key k) throws Exception { Cipher c = Cipher.getInstance("AES"); c.init(Cipher.ENCRYPT_MODE, k); } }"#,
        );
        assert!(rule.matches(&uninitialized, &plain()));
        assert!(!rule.matches(&initialized, &plain()));
    }

    #[test]
    fn error_cases() {
        assert!(parse_rule("E", "", "no colon here").is_err());
        assert!(
            parse_rule("E", "", "Cipher : X=AES").is_err(),
            "unbound variable"
        );
        assert!(parse_rule("E", "", "Cipher : getInstance(X").is_err());
        assert!(
            parse_rule("E", "", "\u{00ac}(Cipher : getInstance(_))").is_err(),
            "needs a positive clause"
        );
        assert!(parse_rule("E", "", "Cipher : getInstance(X) \u{2227} Y=Z").is_err());
        assert!(parse_rule("E", "", "PBEKeySpec : <init>(_,_,X,_) \u{2227} X<abc").is_err());
    }

    #[test]
    fn parsed_equivalents_agree_with_builtins() {
        // For rules whose Figure 9 display *is* the violation formula,
        // the DSL-parsed rule must agree with the hand-built one.
        let programs = [
            r#"class A { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-1"); } }"#,
            r#"class B { void m() throws Exception { MessageDigest d = MessageDigest.getInstance("SHA-256"); } }"#,
            r#"class C { void m(char[] p, byte[] s) { PBEKeySpec k = new PBEKeySpec(p, s, 999, 128); } }"#,
            r#"class D { void m(char[] p) { byte[] s = { 1 }; PBEKeySpec k = new PBEKeySpec(p, s, 4096, 128); } }"#,
            r#"class E { void m() { byte[] iv = new byte[16]; IvParameterSpec s = new IvParameterSpec(iv); } }"#,
            r#"class F { void m() { SecureRandom r = new SecureRandom(); byte[] x = { 1 }; r.setSeed(x); } }"#,
        ];
        let equivalent = ["R1", "R2", "R9", "R10", "R11", "R12"];
        for builtin in crate::builtin::all_rules() {
            if !equivalent.contains(&builtin.id.as_str()) {
                continue;
            }
            let parsed = parse_rule(&builtin.id, &builtin.description, &builtin.display).unwrap();
            for src in &programs {
                let u = usages(src);
                assert_eq!(
                    parsed.matches(&u, &plain()),
                    builtin.matches(&u, &plain()),
                    "{} disagrees on {src}",
                    builtin.id
                );
            }
        }
    }
}
