//! The forward abstract interpreter (paper §5.1).
//!
//! For every class in a compilation unit the analyzer evaluates field
//! initializers, then treats **every method as an entry method** —
//! exactly what the paper does for partial programs, where any public
//! method may be the entry. Execution forks at branches, loop bodies
//! are analyzed once (with a join back), and unqualified calls to
//! methods of the same class are inlined up to a small depth.
//!
//! The output is the paper's `AUses : AObjs → P(Methods × AStates)`
//! restricted to what DAG construction needs: for each allocation site,
//! the set of (method, abstract-argument-vector) events observed on it.

use crate::api::{looks_like_class_name, looks_like_const_name, ApiModel};
use crate::limits::{AnalysisError, AnalysisLimits};
use absdomain::{AValue, AllocSite, Env, MethodSig};
use intern::{intern, intern_owned, Sym};
use javalang::ast::*;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;

/// One observed API interaction: a method together with the abstract
/// state of its arguments at the call.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UsageEvent {
    /// The invoked method.
    pub method: MethodSig,
    /// Abstract argument values, in positional order (receiver not
    /// included; argument indices are 1-based in DAG labels).
    pub args: Vec<AValue>,
}

/// The abstract usages of one program version.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Usages {
    /// Type of each abstract object, keyed by allocation site.
    pub objects: BTreeMap<AllocSite, Sym>,
    /// Usage events per abstract object.
    pub events: BTreeMap<AllocSite, Vec<UsageEvent>>,
}

impl Usages {
    /// All allocation sites whose object has type `ty`, in site order.
    pub fn objects_of_type<'a>(&'a self, ty: &'a str) -> impl Iterator<Item = AllocSite> + 'a {
        self.objects
            .iter()
            .filter(move |&(_, t)| &**t == ty)
            .map(|(site, _)| *site)
    }

    /// The usage events recorded for `site`.
    pub fn events_of(&self, site: AllocSite) -> &[UsageEvent] {
        self.events.get(&site).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The type of the object at `site`.
    pub fn type_of(&self, site: AllocSite) -> Option<&str> {
        self.objects.get(&site).map(|t| &**t)
    }
}

/// Analyzes a parsed compilation unit under `limits`, returning its
/// abstract usages and the number of interpreter steps the analysis
/// consumed. The pipeline's observability layer aggregates the step
/// counts into its `analysis.steps` counter, turning the fuel budget
/// into a measurable per-corpus cost.
///
/// # Errors
///
/// [`AnalysisError::AstTooDeep`] if the unit's tree is deeper than
/// `limits.max_ast_depth` (measured iteratively, before any recursion),
/// and [`AnalysisError::StepBudgetExceeded`] if the interpreter burns
/// through `limits.max_steps` before finishing.
pub fn analyze(
    unit: &CompilationUnit,
    api: &ApiModel,
    limits: &AnalysisLimits,
) -> Result<(Usages, u64), AnalysisError> {
    let depth = javalang::visit::ast_depth(unit);
    if depth > limits.max_ast_depth {
        return Err(AnalysisError::AstTooDeep {
            depth,
            max_depth: limits.max_ast_depth,
        });
    }
    let mut analyzer = Analyzer::new(api, &unit.ast, limits.max_steps);
    analyzer.run_unit(unit);
    if analyzer.exhausted {
        return Err(AnalysisError::StepBudgetExceeded {
            max_steps: limits.max_steps,
        });
    }
    let steps = limits.max_steps - analyzer.fuel;
    Ok((analyzer.usages, steps))
}

const MAX_INLINE_DEPTH: usize = 3;

struct Analyzer<'a> {
    api: &'a ApiModel,
    /// The unit's expression/statement arena; child links in the tree
    /// are ids into it.
    ast: &'a Ast,
    /// Allocation sites interned by arena id, so re-analysis of a
    /// helper from several entry methods maps to the same site.
    sites: HashMap<ExprId, AllocSite>,
    next_site: u32,
    usages: Usages,
    /// `static final` constants of every class in the unit, keyed
    /// `Class.FIELD` — resolves the common constants-holder pattern
    /// (`Constants.HASH_ALGO`) across classes of the same file.
    unit_constants: BTreeMap<String, AValue>,
    /// Reusable scratch for composing `Class.FIELD` lookup keys
    /// without a per-lookup allocation.
    key_buf: String,
    /// Remaining step budget.
    fuel: u64,
    /// Set once the budget runs out; every interpreter entry point
    /// then returns immediately, unwinding the analysis without
    /// recursion or panics. The partial result is discarded by
    /// [`analyze`].
    exhausted: bool,
    /// De-duplicates each site's recorded events.
    event_index: EventIndex,
}

/// Finds a recorded event equal to a new one without scanning its
/// site's event list. Every event is indexed by a keyed hash of its
/// site and content (std `RandomState`, so no input can be crafted to
/// collide on every run); a hash hit is confirmed by an exact
/// comparison, and only a real collision falls back to the linear
/// scan. The step budget charges a few steps per event, so a scan of
/// every earlier event would let a file with n distinct calls on one
/// object cost O(n²) inside budget.
#[derive(Default)]
struct EventIndex<S = RandomState> {
    /// Hash of (site, event) → position of the first event with that
    /// hash in the site's event list.
    first: HashMap<u64, usize, S>,
}

impl<S: BuildHasher> EventIndex<S> {
    /// Appends `event` to `events` (the event list of `site`) unless an
    /// equal event is already there.
    fn push_unique(&mut self, site: AllocSite, events: &mut Vec<UsageEvent>, event: UsageEvent) {
        let hash = self.first.hasher().hash_one((site, &event));
        match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(events.len());
                events.push(event);
            }
            Entry::Occupied(slot) => {
                if events.get(*slot.get()) != Some(&event) && !events.contains(&event) {
                    events.push(event);
                }
            }
        }
    }
}

/// Per-entry execution context.
struct Ctx<'a> {
    class: &'a TypeDecl,
    depth: usize,
    call_stack: Vec<Sym>,
    /// Join of `return` expressions seen while inlining.
    ret: Option<AValue>,
}

impl<'a> Analyzer<'a> {
    fn new(api: &'a ApiModel, ast: &'a Ast, fuel: u64) -> Analyzer<'a> {
        Analyzer {
            api,
            ast,
            sites: HashMap::new(),
            next_site: 0,
            usages: Usages::default(),
            unit_constants: BTreeMap::new(),
            key_buf: String::new(),
            fuel,
            exhausted: false,
            event_index: EventIndex::default(),
        }
    }

    fn run_unit(&mut self, unit: &'a CompilationUnit) {
        self.collect_unit_constants(unit);
        for class in unit.all_types() {
            self.analyze_class(class);
        }
    }

    /// Consumes `cost` steps; returns `true` when the budget is gone
    /// and the caller should bail out.
    fn charge(&mut self, cost: u64) -> bool {
        if self.exhausted {
            return true;
        }
        if self.fuel < cost {
            self.fuel = 0;
            self.exhausted = true;
            return true;
        }
        self.fuel -= cost;
        false
    }

    /// Clones `env` for a branch/inline fork, charging its size. The
    /// clone is a copy-on-write pointer bump, but the charge stays
    /// proportional to the env because the *potential* work a fork
    /// enables (first write unshares, join walks the bindings) is
    /// O(|env|) — and keeping the historical cost model keeps fuel
    /// accounting, and thus every mined artifact, bit-identical. When
    /// the budget is already gone the clone is skipped (the result
    /// will be discarded anyway).
    fn fork_env(&mut self, env: &Env) -> Env {
        if self.charge(1 + env.len() as u64) {
            return Env::new();
        }
        env.clone()
    }

    /// Collects `static final` field constants (strings, ints, and
    /// constant arrays) of every class, so sibling classes can resolve
    /// `Holder.CONST` references.
    fn collect_unit_constants(&mut self, unit: &'a CompilationUnit) {
        let ast = self.ast;
        for class in unit.all_types() {
            for field in class.fields() {
                if !(field.modifiers.is_static && field.modifiers.is_final) {
                    continue;
                }
                for d in &field.declarators {
                    let value = match d.init.map(|init| ast.expr(init)) {
                        Some(Expr::Literal(Lit::Str(v))) => AValue::Str(v.clone()),
                        Some(Expr::Literal(Lit::Int(v))) => AValue::Int(*v),
                        Some(Expr::Literal(Lit::Bool(v))) => AValue::Bool(*v),
                        Some(Expr::ArrayInit(_)) | Some(Expr::NewArray { .. }) => {
                            // Shared hard-coded material (keys, IVs).
                            match &field.ty {
                                Type::Array(inner) => match inner.as_ref() {
                                    Type::Primitive(PrimitiveType::Byte | PrimitiveType::Char) => {
                                        AValue::ConstByteArray
                                    }
                                    _ => continue,
                                },
                                _ => continue,
                            }
                        }
                        _ => continue,
                    };
                    self.unit_constants
                        .insert(format!("{}.{}", class.name, d.name), value);
                }
            }
        }
    }

    fn analyze_class(&mut self, class: &'a TypeDecl) {
        let ast = self.ast;
        // Pass 1: field initializers, evaluated in source order so later
        // fields can reference earlier constants.
        let mut fields = Env::new();
        let mut ctx = Ctx {
            class,
            depth: 0,
            call_stack: Vec::new(),
            ret: None,
        };
        for member in &class.members {
            if let Member::Field(field) = member {
                for d in &field.declarators {
                    let value = match d.init {
                        Some(init) => match ast.expr(init) {
                            Expr::ArrayInit(elems) => {
                                self.eval_array_literal(elems, &field.ty, &mut fields, &mut ctx)
                            }
                            _ => self.eval(init, &mut fields, &mut ctx),
                        },
                        None => AValue::Null,
                    };
                    fields.set(d.name.clone(), value);
                }
            }
        }
        // Initializer blocks share the field environment.
        for member in &class.members {
            if let Member::Initializer { body, .. } = member {
                let mut env = self.fork_env(&fields);
                let mut ctx = Ctx {
                    class,
                    depth: 0,
                    call_stack: Vec::new(),
                    ret: None,
                };
                self.exec_block(body, &mut env, &mut ctx);
            }
        }
        // Pass 2: every method is an entry method.
        for method in class.methods() {
            let Some(body) = &method.body else { continue };
            let mut env = self.fork_env(&fields);
            for param in &method.params {
                env.set(param.name.clone(), top_for_type(&param.ty));
            }
            let mut ctx = Ctx {
                class,
                depth: 0,
                call_stack: vec![method.name.clone()],
                ret: None,
            };
            self.exec_block(body, &mut env, &mut ctx);
        }
    }

    fn fresh_site(&mut self, key: ExprId, ty: &str) -> AllocSite {
        if let Some(site) = self.sites.get(&key) {
            return *site;
        }
        let site = AllocSite(self.next_site);
        self.next_site += 1;
        self.sites.insert(key, site);
        self.usages.objects.insert(site, intern(ty));
        site
    }

    fn record(&mut self, site: AllocSite, method: MethodSig, args: Vec<AValue>) {
        // Objects typically see a handful of calls (getInstance, init,
        // doFinal…); starting at capacity 4 skips the 1→2→4 growth
        // reallocations for the common case.
        let events = self
            .usages
            .events
            .entry(site)
            .or_insert_with(|| Vec::with_capacity(4));
        self.event_index
            .push_unique(site, events, UsageEvent { method, args });
    }

    /// Records `event` also on every argument that is a site-bound
    /// object — the paper's `Methods_t` includes methods *accepting* an
    /// instance of `t`.
    fn record_on_args(&mut self, method: &MethodSig, args: &[AValue]) {
        for arg in args {
            if let AValue::Obj { site, .. } = arg {
                self.record(*site, method.clone(), args.to_vec());
            }
        }
    }

    /// [`Analyzer::record`] at `site` followed by
    /// [`Analyzer::record_on_args`], taking ownership of `args`: the
    /// defensive argument-vector clone is paid only when some argument
    /// actually is a site-bound object — for the common
    /// constant-and-array argument lists the vector moves straight into
    /// the event.
    fn record_call(&mut self, site: AllocSite, method: &MethodSig, args: Vec<AValue>) {
        if args.iter().any(|a| matches!(a, AValue::Obj { .. })) {
            self.record(site, method.clone(), args.clone());
            self.record_on_args(method, &args);
        } else {
            self.record(site, method.clone(), args);
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn exec_block(&mut self, block: &Block, env: &mut Env, ctx: &mut Ctx<'a>) {
        for stmt in &block.stmts {
            self.exec_stmt(*stmt, env, ctx);
        }
    }

    fn exec_stmt(&mut self, stmt: StmtId, env: &mut Env, ctx: &mut Ctx<'a>) {
        if self.charge(1) {
            return;
        }
        let ast = self.ast;
        match ast.stmt(stmt) {
            Stmt::Block(b) => self.exec_block(b, env, ctx),
            Stmt::LocalVar { ty, declarators } => {
                for d in declarators {
                    let value = match d.init {
                        Some(init) => match ast.expr(init) {
                            Expr::ArrayInit(elems) => self.eval_array_literal(elems, ty, env, ctx),
                            _ => self.eval(init, env, ctx),
                        },
                        None => AValue::Null,
                    };
                    env.set(d.name.clone(), value);
                }
            }
            Stmt::Expr(e) | Stmt::Throw(e) | Stmt::Assert(e) => {
                self.eval(*e, env, ctx);
            }
            Stmt::If { cond, then, alt } => {
                self.eval(*cond, env, ctx);
                let mut then_env = self.fork_env(env);
                self.exec_stmt(*then, &mut then_env, ctx);
                match alt {
                    Some(alt) => {
                        let mut alt_env = self.fork_env(env);
                        self.exec_stmt(*alt, &mut alt_env, ctx);
                        then_env.join_with(alt_env);
                        *env = then_env;
                    }
                    None => env.join_with(then_env),
                }
            }
            Stmt::While { cond, body } => {
                self.eval(*cond, env, ctx);
                let mut body_env = self.fork_env(env);
                self.exec_stmt(*body, &mut body_env, ctx);
                env.join_with(body_env);
            }
            Stmt::DoWhile { body, cond } => {
                // The body executes at least once.
                self.exec_stmt(*body, env, ctx);
                self.eval(*cond, env, ctx);
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                for s in init {
                    self.exec_stmt(*s, env, ctx);
                }
                if let Some(c) = cond {
                    self.eval(*c, env, ctx);
                }
                let mut body_env = self.fork_env(env);
                self.exec_stmt(*body, &mut body_env, ctx);
                for u in update {
                    self.eval(*u, &mut body_env, ctx);
                }
                env.join_with(body_env);
            }
            Stmt::ForEach {
                ty,
                name,
                iterable,
                body,
            } => {
                self.eval(*iterable, env, ctx);
                let mut body_env = self.fork_env(env);
                body_env.set(name.clone(), top_for_type(ty));
                self.exec_stmt(*body, &mut body_env, ctx);
                body_env.remove(name);
                env.join_with(body_env);
            }
            Stmt::Return(value) => {
                if let Some(value) = value {
                    let v = self.eval(*value, env, ctx);
                    ctx.ret = Some(match ctx.ret.take() {
                        Some(prev) => prev.join(v),
                        None => v,
                    });
                }
            }
            Stmt::Try {
                resources,
                block,
                catches,
                finally,
            } => {
                for r in resources {
                    self.exec_stmt(*r, env, ctx);
                }
                self.exec_block(block, env, ctx);
                for catch in catches {
                    let mut catch_env = self.fork_env(env);
                    let exc_ty = catch
                        .types
                        .first()
                        .and_then(|t| t.simple_name())
                        .map(intern);
                    catch_env.set(catch.name.clone(), AValue::TopObj { ty: exc_ty });
                    self.exec_block(&catch.body, &mut catch_env, ctx);
                    catch_env.remove(&catch.name);
                    env.join_with(catch_env);
                }
                if let Some(f) = finally {
                    self.exec_block(f, env, ctx);
                }
            }
            Stmt::Switch { scrutinee, cases } => {
                self.eval(*scrutinee, env, ctx);
                let base = self.fork_env(env);
                for case in cases {
                    for label in &case.labels {
                        self.eval(*label, env, ctx);
                    }
                    let mut case_env = self.fork_env(&base);
                    for s in &case.body {
                        self.exec_stmt(*s, &mut case_env, ctx);
                    }
                    env.join_with(case_env);
                }
            }
            Stmt::Synchronized { monitor, body } => {
                self.eval(*monitor, env, ctx);
                self.exec_block(body, env, ctx);
            }
            Stmt::LocalType(_) | Stmt::Break | Stmt::Continue | Stmt::Empty | Stmt::Unparsed => {}
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn eval(&mut self, expr: ExprId, env: &mut Env, ctx: &mut Ctx<'a>) -> AValue {
        if self.charge(1) {
            return AValue::Unknown;
        }
        let ast = self.ast;
        match ast.expr(expr) {
            Expr::Literal(lit) => match lit {
                Lit::Int(v) => AValue::Int(*v),
                Lit::Float(_) => AValue::TopInt,
                Lit::Bool(b) => AValue::Bool(*b),
                Lit::Char(_) => AValue::ConstByte,
                Lit::Str(s) => AValue::Str(s.clone()),
                Lit::Null => AValue::Null,
            },
            Expr::Name(dotted) => self.eval_name(dotted, env),
            Expr::FieldAccess { target, name } => {
                if *ast.expr(*target) == Expr::This {
                    return env.get(name).cloned().unwrap_or(AValue::Unknown);
                }
                let receiver = self.eval(*target, env, ctx);
                match receiver {
                    AValue::Obj { site, .. } => env
                        .get(&heap_key(site, name))
                        .cloned()
                        .unwrap_or(AValue::Unknown),
                    _ => AValue::Unknown,
                }
            }
            Expr::MethodCall { target, name, args } => {
                self.eval_call(expr, *target, name, args, env, ctx)
            }
            Expr::New { ty, args, .. } => {
                let arg_vals: Vec<AValue> = args.iter().map(|a| self.eval(*a, env, ctx)).collect();
                let class = display_sym(ty);
                if ty.simple_name().is_some() {
                    // Per-allocation-site heap abstraction (paper §3.3):
                    // every constructor site is one abstract object, for
                    // tracked *and* untracked classes — the latter give
                    // field sensitivity (`holder.key = ...`) and argument
                    // usage events.
                    let site = self.fresh_site(expr, &class);
                    let sig = MethodSig::ctor(class.clone(), arg_vals.len());
                    self.record_call(site, &sig, arg_vals);
                    AValue::Obj { site, ty: class }
                } else {
                    AValue::TopObj {
                        ty: ty.simple_name().map(intern),
                    }
                }
            }
            Expr::NewArray { ty, dims, init } => {
                for d in dims {
                    self.eval(*d, env, ctx);
                }
                match init {
                    Some(elems) => {
                        let vals: Vec<AValue> =
                            elems.iter().map(|e| self.eval(*e, env, ctx)).collect();
                        array_value(ty, &vals, /*explicit_literal=*/ true)
                    }
                    None => {
                        // `new byte[16]` — a zero-filled, program-constant
                        // array (the classic static-IV idiom).
                        match ty {
                            Type::Primitive(PrimitiveType::Byte | PrimitiveType::Char) => {
                                AValue::ConstByteArray
                            }
                            Type::Primitive(PrimitiveType::Int) => AValue::TopIntArray,
                            _ => AValue::Unknown,
                        }
                    }
                }
            }
            Expr::ArrayInit(elems) => {
                let vals: Vec<AValue> = elems.iter().map(|e| self.eval(*e, env, ctx)).collect();
                infer_array_literal(&vals)
            }
            Expr::Assign { lhs, op, rhs } => {
                let rhs_val = if let Expr::ArrayInit(elems) = ast.expr(*rhs) {
                    let vals: Vec<AValue> = elems.iter().map(|e| self.eval(*e, env, ctx)).collect();
                    infer_array_literal(&vals)
                } else {
                    self.eval(*rhs, env, ctx)
                };
                let value = match op {
                    AssignOp::Assign => rhs_val,
                    _ => {
                        let old = self.eval_lvalue(*lhs, env);
                        // Compound assignment: fold when both constant.
                        match (&old, &rhs_val) {
                            (AValue::Str(a), AValue::Str(b)) if *op == AssignOp::Add => {
                                AValue::Str(intern_owned(format!("{a}{b}")))
                            }
                            (AValue::Str(a), AValue::Int(b)) if *op == AssignOp::Add => {
                                AValue::Str(intern_owned(format!("{a}{b}")))
                            }
                            (AValue::Int(a), AValue::Int(b)) => fold_int_assign(*a, *b, *op),
                            _ => old.join(rhs_val),
                        }
                    }
                };
                self.assign_lvalue(*lhs, value.clone(), env, ctx);
                value
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(*lhs, env, ctx);
                let r = self.eval(*rhs, env, ctx);
                fold_binary(*op, l, r)
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(*expr, env, ctx);
                match (op, &v) {
                    (UnOp::Neg, AValue::Int(n)) => AValue::Int(-n),
                    (UnOp::BitNot, AValue::Int(n)) => AValue::Int(!n),
                    (UnOp::Not, AValue::Bool(b)) => AValue::Bool(!b),
                    (UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec, _) => {
                        // Increment havocs the variable.
                        if let Expr::Name(name) = ast.expr(*expr) {
                            if !name.contains('.') && env.get(name).is_some() {
                                env.set(name.clone(), AValue::TopInt);
                            }
                        }
                        AValue::TopInt
                    }
                    _ => v,
                }
            }
            Expr::Cast { ty, expr } => {
                let v = self.eval(*expr, env, ctx);
                if v == AValue::Unknown || matches!(v, AValue::TopObj { ty: None }) {
                    top_for_type(ty)
                } else {
                    v
                }
            }
            Expr::ArrayAccess { array, index } => {
                let a = self.eval(*array, env, ctx);
                self.eval(*index, env, ctx);
                match a {
                    AValue::IntArray(_) | AValue::TopIntArray => AValue::TopInt,
                    AValue::ConstByteArray => AValue::ConstByte,
                    AValue::TopByteArray => AValue::TopByte,
                    AValue::StrArray(_) | AValue::TopStrArray => AValue::TopStr,
                    _ => AValue::Unknown,
                }
            }
            Expr::Conditional { cond, then, alt } => {
                self.eval(*cond, env, ctx);
                let t = self.eval(*then, env, ctx);
                let a = self.eval(*alt, env, ctx);
                t.join(a)
            }
            Expr::InstanceOf { expr, .. } => {
                self.eval(*expr, env, ctx);
                AValue::TopBool
            }
            Expr::This => AValue::TopObj {
                ty: Some(ctx.class.name.clone()),
            },
            Expr::Super => AValue::TopObj {
                ty: ctx
                    .class
                    .extends
                    .as_ref()
                    .and_then(|t| t.simple_name())
                    .map(intern),
            },
            Expr::ClassLiteral(_) | Expr::Lambda | Expr::MethodRef | Expr::Unparsed => {
                AValue::Unknown
            }
        }
    }

    /// Resolves a (possibly dotted) name without splitting it into an
    /// allocated segment list: the first segment is checked against the
    /// environment, the rest walk the abstract heap.
    fn eval_name(&mut self, name: &str, env: &Env) -> AValue {
        if name.is_empty() {
            return AValue::Unknown;
        }
        let (first, rest) = match name.split_once('.') {
            Some((first, rest)) => (first, Some(rest)),
            None => (name, None),
        };
        if let Some(v) = env.get(first) {
            let Some(rest) = rest else {
                return v.clone();
            };
            // Field access on an abstract object: abstract heap lookup
            // `η(o, f)` (paper §3.3), chained for `a.b.c`.
            let mut current = v.clone();
            for field in rest.split('.') {
                let AValue::Obj { site, .. } = current else {
                    return AValue::Unknown;
                };
                current = env
                    .get(&heap_key(site, field))
                    .cloned()
                    .unwrap_or(AValue::Unknown);
            }
            return current;
        }
        if let Some((prefix, last)) = name.rsplit_once('.') {
            let qualifier = prefix.rsplit_once('.').map_or(prefix, |(_, q)| q);
            // Constants defined by a sibling class in the same unit
            // (`Constants.HASH_ALGO`).
            self.key_buf.clear();
            self.key_buf.push_str(qualifier);
            self.key_buf.push('.');
            self.key_buf.push_str(last);
            if let Some(v) = self.unit_constants.get(self.key_buf.as_str()) {
                return v.clone();
            }
            // `Cipher.ENCRYPT_MODE`-style API constants.
            if looks_like_const_name(last) && looks_like_class_name(qualifier) {
                return AValue::ApiConst {
                    class: intern(qualifier),
                    name: intern(last),
                };
            }
        }
        AValue::Unknown
    }

    /// Reads the current value of an assignment target.
    fn eval_lvalue(&mut self, lhs: ExprId, env: &Env) -> AValue {
        let ast = self.ast;
        match ast.expr(lhs) {
            Expr::Name(name) => match name.split_once('.') {
                None => env.get(name).cloned().unwrap_or(AValue::Unknown),
                Some((first, field)) if !field.contains('.') => match env.get(first) {
                    Some(AValue::Obj { site, .. }) => env
                        .get(&heap_key(*site, field))
                        .cloned()
                        .unwrap_or(AValue::Unknown),
                    _ => AValue::Unknown,
                },
                Some(_) => AValue::Unknown,
            },
            Expr::FieldAccess { target, name } if *ast.expr(*target) == Expr::This => {
                env.get(name).cloned().unwrap_or(AValue::Unknown)
            }
            _ => AValue::Unknown,
        }
    }

    fn assign_lvalue(&mut self, lhs: ExprId, value: AValue, env: &mut Env, ctx: &mut Ctx<'a>) {
        let ast = self.ast;
        match ast.expr(lhs) {
            Expr::Name(name) => match name.rsplit_once('.') {
                None => {
                    env.set(name.clone(), value);
                }
                Some((prefix, last)) => {
                    // `holder.field = value` (possibly chained) — abstract
                    // heap store. Strong update is sound here because each
                    // allocation site is a distinct abstract object.
                    let (first, path) = match prefix.split_once('.') {
                        Some((first, path)) => (first, path),
                        None => (prefix, ""),
                    };
                    let mut current = env.get(first).cloned();
                    for field in path.split('.').filter(|f| !f.is_empty()) {
                        current = match current {
                            Some(AValue::Obj { site, .. }) => {
                                env.get(&heap_key(site, field)).cloned()
                            }
                            _ => None,
                        };
                    }
                    if let Some(AValue::Obj { site, .. }) = current {
                        env.set(heap_key(site, last), value);
                    }
                }
            },
            Expr::FieldAccess { target, name } if *ast.expr(*target) == Expr::This => {
                env.set(name.clone(), value);
            }
            Expr::FieldAccess { target, name } => {
                if let AValue::Obj { site, .. } = self.eval(*target, env, ctx) {
                    env.set(heap_key(site, name), value);
                }
            }
            Expr::ArrayAccess { array, .. } => {
                // Storing a runtime value into a constant array havocs it.
                if let Expr::Name(name) = ast.expr(*array) {
                    if !name.contains('.') {
                        if let Some(old) = env.get(name).cloned() {
                            let havocked = match old {
                                AValue::ConstByteArray if value_is_const(&value) => {
                                    AValue::ConstByteArray
                                }
                                AValue::ConstByteArray | AValue::TopByteArray => {
                                    AValue::TopByteArray
                                }
                                AValue::IntArray(_) if value_is_const(&value) => old,
                                AValue::IntArray(_) | AValue::TopIntArray => AValue::TopIntArray,
                                AValue::StrArray(_) if value_is_const(&value) => old,
                                AValue::StrArray(_) | AValue::TopStrArray => AValue::TopStrArray,
                                other => other,
                            };
                            env.set(name.clone(), havocked);
                        }
                    }
                }
            }
            _ => {
                // Evaluate for side effects (e.g. `obj.field[i] = x`).
                let _ = self.eval(lhs, env, ctx);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_call(
        &mut self,
        call_expr: ExprId,
        target: Option<ExprId>,
        name: &str,
        args: &[ExprId],
        env: &mut Env,
        ctx: &mut Ctx<'a>,
    ) -> AValue {
        let ast = self.ast;
        let arg_vals: Vec<AValue> = args.iter().map(|a| self.eval(*a, env, ctx)).collect();

        // Array-havoc methods mutate their argument in place
        // (`random.nextBytes(iv)`).
        if self.api.is_array_havoc(name) {
            for arg in args {
                if let Expr::Name(arg_name) = ast.expr(*arg) {
                    if !arg_name.contains('.') {
                        if let Some(v) = env.get(arg_name).cloned() {
                            let havocked = match v {
                                AValue::ConstByteArray | AValue::TopByteArray => {
                                    AValue::TopByteArray
                                }
                                AValue::IntArray(_) | AValue::TopIntArray => AValue::TopIntArray,
                                other => other,
                            };
                            env.set(arg_name.clone(), havocked);
                        }
                    }
                }
            }
        }

        // Unqualified (or this-qualified) call: constructor chain, local
        // helper, or unknown static import.
        let is_this_call = match target {
            None => true,
            Some(t) => *ast.expr(t) == Expr::This,
        };
        if is_this_call {
            if name == "this" || name == "super" {
                return AValue::Unknown;
            }
            return self.inline_local_call(name, arg_vals, env, ctx);
        }
        let Some(target) = target else {
            // Unreachable given the `is_this_call` early return, but a
            // skip is the right degradation if that invariant drifts.
            return AValue::Unknown;
        };

        // Static call on a class name?
        if let Expr::Name(dotted) = ast.expr(target) {
            let first = dotted.split_once('.').map_or(&**dotted, |(f, _)| f);
            let last = dotted.rsplit_once('.').map_or(&**dotted, |(_, l)| l);
            if !first.is_empty() && env.get(first).is_none() {
                let class = last.to_owned();
                if looks_like_class_name(&class) {
                    return self.eval_static_call(call_expr, &class, name, arg_vals);
                }
            }
        }

        // Instance call.
        let recv = self.eval(target, env, ctx);
        let recv_class = match &recv {
            AValue::Obj { ty, .. } => Some(ty.clone()),
            AValue::TopObj { ty } => ty.clone(),
            _ => None,
        };
        let sig = MethodSig::new(
            recv_class.clone().unwrap_or_else(|| intern("?")),
            intern(name),
            arg_vals.len(),
        );
        // `eval_known_call` only reads the (immutable) API model, so
        // evaluating it first lets `arg_vals` move into the recorded
        // event instead of being cloned.
        let out = self
            .api
            .eval_known_call(name, Some(&recv), &arg_vals)
            .unwrap_or(AValue::Unknown);
        if let AValue::Obj { site, .. } = &recv {
            self.record_call(*site, &sig, arg_vals);
        } else {
            self.record_on_args(&sig, &arg_vals);
        }
        out
    }

    fn eval_static_call(
        &mut self,
        call_expr: ExprId,
        class: &str,
        name: &str,
        arg_vals: Vec<AValue>,
    ) -> AValue {
        if self.api.is_factory(class, name) && self.api.is_tracked_class(class) {
            let site = self.fresh_site(call_expr, class);
            let sig = MethodSig::new(intern(class), intern(name), arg_vals.len());
            self.record_call(site, &sig, arg_vals);
            return AValue::Obj {
                site,
                ty: intern(class),
            };
        }
        let sig = MethodSig::new(intern(class), intern(name), arg_vals.len());
        self.record_on_args(&sig, &arg_vals);
        if self.api.is_factory(class, name) {
            // Factory of an untracked class.
            return AValue::TopObj {
                ty: Some(intern(class)),
            };
        }
        self.api
            .eval_known_call(name, None, &arg_vals)
            .unwrap_or(AValue::Unknown)
    }

    fn inline_local_call(
        &mut self,
        name: &str,
        arg_vals: Vec<AValue>,
        env: &mut Env,
        ctx: &mut Ctx<'a>,
    ) -> AValue {
        if ctx.depth >= MAX_INLINE_DEPTH || ctx.call_stack.iter().any(|m| &**m == name) {
            return AValue::Unknown;
        }
        let callee = ctx
            .class
            .methods()
            .find(|m| &*m.name == name && m.params.len() == arg_vals.len() && m.body.is_some());
        let Some(callee) = callee else {
            return AValue::Unknown;
        };
        let Some(body) = callee.body.as_ref() else {
            return AValue::Unknown;
        };

        let mut callee_env = self.fork_env(env);
        for (param, value) in callee.params.iter().zip(arg_vals) {
            callee_env.set(param.name.clone(), value);
        }
        let mut callee_ctx = Ctx {
            class: ctx.class,
            depth: ctx.depth + 1,
            call_stack: {
                let mut s = ctx.call_stack.clone();
                s.push(intern(name));
                s
            },
            ret: None,
        };
        self.exec_block(body, &mut callee_env, &mut callee_ctx);

        // Propagate callee effects on variables the caller can see
        // (fields and shadow-free locals).
        let updates: Vec<(Sym, AValue)> = env
            .iter()
            .filter(|(k, _)| !callee.params.iter().any(|p| &p.name == *k))
            .filter_map(|(k, _)| callee_env.get(k).map(|v| (k.clone(), v.clone())))
            .collect();
        for (k, v) in updates {
            env.set(k, v);
        }
        callee_ctx.ret.unwrap_or(AValue::Unknown)
    }

    fn eval_array_literal(
        &mut self,
        elems: &[ExprId],
        declared: &Type,
        env: &mut Env,
        ctx: &mut Ctx<'a>,
    ) -> AValue {
        let vals: Vec<AValue> = elems.iter().map(|e| self.eval(*e, env, ctx)).collect();
        // Unwrap the declared array element type.
        let elem_ty = match declared {
            Type::Array(inner) => inner.as_ref().clone(),
            other => other.clone(),
        };
        array_value(&elem_ty, &vals, true)
    }
}

/// The env key used to store abstract heap entries `η(o, f)`. The `#`
/// separator cannot occur in a Java identifier, so heap entries never
/// collide with locals or fields of `this`.
fn heap_key(site: AllocSite, field: &str) -> String {
    format!("{site}#{field}")
}

/// [`Type::display_name`] as an interned symbol, without the
/// intermediate `String` for plain named types — the symbol the parser
/// interned *is* the display name when the type has no package
/// qualifier.
fn display_sym(ty: &Type) -> Sym {
    match ty {
        Type::Named { name, .. } => match name.rfind('.') {
            None => name.clone(),
            Some(dot) => intern(&name[dot + 1..]),
        },
        other => intern_owned(other.display_name()),
    }
}

/// `⊤`-value for a declared type (used for parameters and casts).
fn top_for_type(ty: &Type) -> AValue {
    match ty {
        Type::Primitive(p) => match p {
            PrimitiveType::Int | PrimitiveType::Long | PrimitiveType::Short => AValue::TopInt,
            PrimitiveType::Byte | PrimitiveType::Char => AValue::TopByte,
            PrimitiveType::Boolean => AValue::TopBool,
            PrimitiveType::Float | PrimitiveType::Double | PrimitiveType::Void => AValue::Unknown,
        },
        Type::Array(inner) => match inner.as_ref() {
            Type::Primitive(PrimitiveType::Byte | PrimitiveType::Char) => AValue::TopByteArray,
            Type::Primitive(PrimitiveType::Int | PrimitiveType::Long) => AValue::TopIntArray,
            Type::Named { name, .. } if name.ends_with("String") => AValue::TopStrArray,
            _ => AValue::Unknown,
        },
        Type::Named { .. } => match ty.simple_name() {
            Some("String") => AValue::TopStr,
            Some("Integer") | Some("Long") | Some("Short") => AValue::TopInt,
            Some("Boolean") => AValue::TopBool,
            Some("Byte") | Some("Character") => AValue::TopByte,
            other => AValue::TopObj {
                ty: other.map(intern),
            },
        },
        Type::Wildcard | Type::Unknown => AValue::Unknown,
    }
}

fn value_is_const(v: &AValue) -> bool {
    matches!(
        v,
        AValue::Int(_)
            | AValue::Str(_)
            | AValue::ConstByte
            | AValue::Bool(_)
            | AValue::ApiConst { .. }
    )
}

/// Abstracts an array literal with a known element type.
fn array_value(elem_ty: &Type, vals: &[AValue], _explicit: bool) -> AValue {
    match elem_ty {
        Type::Primitive(PrimitiveType::Byte | PrimitiveType::Char) => {
            if vals.iter().all(value_is_const) {
                AValue::ConstByteArray
            } else {
                AValue::TopByteArray
            }
        }
        Type::Primitive(PrimitiveType::Int | PrimitiveType::Long | PrimitiveType::Short) => {
            let consts: Option<Vec<i64>> = vals
                .iter()
                .map(|v| match v {
                    AValue::Int(n) => Some(*n),
                    _ => None,
                })
                .collect();
            match consts {
                Some(ns) => AValue::IntArray(ns),
                None => AValue::TopIntArray,
            }
        }
        Type::Named { name, .. } if name.ends_with("String") => {
            let consts: Option<Vec<Sym>> = vals
                .iter()
                .map(|v| match v {
                    AValue::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect();
            match consts {
                Some(ss) => AValue::StrArray(ss),
                None => AValue::TopStrArray,
            }
        }
        _ => infer_array_literal(vals),
    }
}

/// Infers the abstraction of an array literal from its elements when no
/// declared type is available.
fn infer_array_literal(vals: &[AValue]) -> AValue {
    if !vals.is_empty() {
        let ints: Vec<i64> = vals
            .iter()
            .filter_map(|v| match v {
                AValue::Int(n) => Some(*n),
                _ => None,
            })
            .collect();
        if ints.len() == vals.len() {
            return AValue::IntArray(ints);
        }
        let strs: Vec<Sym> = vals
            .iter()
            .filter_map(|v| match v {
                AValue::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        if strs.len() == vals.len() {
            return AValue::StrArray(strs);
        }
    }
    if vals.iter().all(value_is_const) {
        AValue::ConstByteArray
    } else {
        AValue::TopByteArray
    }
}

fn fold_binary(op: BinOp, l: AValue, r: AValue) -> AValue {
    use BinOp::*;
    match (&l, &r) {
        (AValue::Str(a), AValue::Str(b)) if op == Add => {
            return AValue::Str(intern_owned(format!("{a}{b}")));
        }
        (AValue::Str(a), AValue::Int(b)) if op == Add => {
            return AValue::Str(intern_owned(format!("{a}{b}")));
        }
        (AValue::Int(a), AValue::Str(b)) if op == Add => {
            return AValue::Str(intern_owned(format!("{a}{b}")));
        }
        (AValue::Int(a), AValue::Int(b)) => {
            return match op {
                Add => AValue::Int(a.wrapping_add(*b)),
                Sub => AValue::Int(a.wrapping_sub(*b)),
                Mul => AValue::Int(a.wrapping_mul(*b)),
                Div if *b != 0 => AValue::Int(a / b),
                Rem if *b != 0 => AValue::Int(a % b),
                Shl => AValue::Int(a.wrapping_shl(*b as u32)),
                Shr => AValue::Int(a.wrapping_shr(*b as u32)),
                UShr => AValue::Int(((*a as u64) >> (*b as u64 % 64)) as i64),
                BitAnd => AValue::Int(a & b),
                BitOr => AValue::Int(a | b),
                BitXor => AValue::Int(a ^ b),
                Eq => AValue::Bool(a == b),
                Ne => AValue::Bool(a != b),
                Lt => AValue::Bool(a < b),
                Gt => AValue::Bool(a > b),
                Le => AValue::Bool(a <= b),
                Ge => AValue::Bool(a >= b),
                Div | Rem => AValue::TopInt,
                AndAnd | OrOr => AValue::TopBool,
            };
        }
        _ => {}
    }
    match op {
        Eq | Ne | Lt | Gt | Le | Ge | AndAnd | OrOr => AValue::TopBool,
        Add if l.kind() == absdomain::ValueKind::Str || r.kind() == absdomain::ValueKind::Str => {
            AValue::TopStr
        }
        _ => {
            if l.kind() == r.kind() {
                // Same kind but not constant-foldable: the kind's top.
                match l {
                    _ if l == r => l,
                    _ => l.join(r),
                }
            } else {
                AValue::Unknown
            }
        }
    }
}

fn fold_int_assign(a: i64, b: i64, op: AssignOp) -> AValue {
    match op {
        AssignOp::Add => AValue::Int(a.wrapping_add(b)),
        AssignOp::Sub => AValue::Int(a.wrapping_sub(b)),
        AssignOp::Mul => AValue::Int(a.wrapping_mul(b)),
        AssignOp::Div if b != 0 => AValue::Int(a / b),
        AssignOp::Rem if b != 0 => AValue::Int(a % b),
        AssignOp::And => AValue::Int(a & b),
        AssignOp::Or => AValue::Int(a | b),
        AssignOp::Xor => AValue::Int(a ^ b),
        AssignOp::Shl => AValue::Int(a.wrapping_shl(b as u32)),
        AssignOp::Shr => AValue::Int(a.wrapping_shr(b as u32)),
        AssignOp::UShr => AValue::Int(((a as u64) >> (b as u64 % 64)) as i64),
        _ => AValue::TopInt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(method: &str, arg: i64) -> UsageEvent {
        UsageEvent {
            method: MethodSig::new("Cipher", method, 1),
            args: vec![AValue::Int(arg)],
        }
    }

    /// The reference de-duplication: one linear scan per event.
    fn linear(stream: &[(AllocSite, UsageEvent)]) -> BTreeMap<AllocSite, Vec<UsageEvent>> {
        let mut out: BTreeMap<AllocSite, Vec<UsageEvent>> = BTreeMap::new();
        for (site, e) in stream {
            let events = out.entry(*site).or_default();
            if !events.contains(e) {
                events.push(e.clone());
            }
        }
        out
    }

    fn indexed<S: BuildHasher + Default>(
        stream: &[(AllocSite, UsageEvent)],
    ) -> BTreeMap<AllocSite, Vec<UsageEvent>> {
        let mut index = EventIndex::<S>::default();
        let mut out: BTreeMap<AllocSite, Vec<UsageEvent>> = BTreeMap::new();
        for (site, e) in stream {
            index.push_unique(*site, out.entry(*site).or_default(), e.clone());
        }
        out
    }

    /// A hasher that maps every event into one of `N` buckets, so most
    /// hash hits are real collisions.
    #[derive(Default)]
    struct Buckets<const N: u64>(u64);

    impl<const N: u64> std::hash::Hasher for Buckets<N> {
        fn finish(&self) -> u64 {
            self.0 % N
        }
        fn write(&mut self, bytes: &[u8]) {
            for b in bytes {
                self.0 = self.0.wrapping_mul(31).wrapping_add(u64::from(*b));
            }
        }
    }

    #[test]
    fn indexed_dedup_equals_linear_scan() {
        // Three sites, two methods, 23 argument values: 100 events per
        // site of which 46 are distinct, interleaved across sites.
        let stream: Vec<(AllocSite, UsageEvent)> = (0..300u32)
            .map(|i| {
                let method = if i % 2 == 0 { "init" } else { "update" };
                (AllocSite(i % 3), event(method, i64::from(i * 7 % 23)))
            })
            .collect();
        let reference = linear(&stream);
        assert!(reference.values().all(|events| events.len() == 46));
        assert_eq!(indexed::<RandomState>(&stream), reference);
        // Every hash colliding drives each lookup through the fallback.
        type Collide = std::hash::BuildHasherDefault<Buckets<1>>;
        assert_eq!(indexed::<Collide>(&stream), reference);
        // Partial collisions: hits that are and are not duplicates.
        type Three = std::hash::BuildHasherDefault<Buckets<3>>;
        assert_eq!(indexed::<Three>(&stream), reference);
    }
}
