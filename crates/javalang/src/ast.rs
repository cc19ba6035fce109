//! The abstract syntax tree produced by the parser.
//!
//! The tree is deliberately permissive: type names are kept as dotted
//! strings rather than resolved symbols, because DiffCode analyzes
//! partial programs where resolution is impossible.
//!
//! # Arena layout
//!
//! Expressions and statements live in a per-file [`Ast`] arena carried
//! by the [`CompilationUnit`]; child links are typed indices
//! ([`ExprId`], [`StmtId`]) instead of `Box` pointers. The parser
//! allocates a node only when it becomes a child of another node, so
//! children always precede their parent in the arena. Two properties
//! follow:
//!
//! * **Bulk allocation** — a whole file's expressions are two `Vec`s,
//!   not thousands of individual heap boxes, and dropping a unit is a
//!   flat `Vec` drop (no recursive drop glue, however deep the tree).
//! * **Bounded node count** — the arena length is the node budget:
//!   parser-produced units allocate at most one node per consumed
//!   token, so [`crate::limits::Limits::max_tokens`] bounds the arena
//!   without separate accounting.
//!
//! Declarations (types, members, parameters) keep their tree shape:
//! they are few per file and never hot.

use crate::error::Span;
use std::fmt;

/// An interned name: shared, immutable, compared by content. Every
/// identifier-shaped string in the AST (names, dotted paths, type
/// names, string literals) is one of these, so repeated occurrences
/// share storage and cloning into downstream layers is a refcount
/// bump.
pub(crate) type Name = intern::Sym;

/// Index of an expression in a [`CompilationUnit`]'s [`Ast`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

/// Index of a statement in a [`CompilationUnit`]'s [`Ast`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(u32);

/// The bump arena holding every expression and statement of one parsed
/// file. Nodes are reached from the declaration tree via [`ExprId`] /
/// [`StmtId`] links; children always have smaller indices than the
/// node that references them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ast {
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
}

impl Ast {
    /// An empty arena pre-sized from a token count. Measured over the
    /// mining corpus, parsed sources land near one expression per three
    /// tokens and one statement per eight, so these capacities make
    /// arena growth a single allocation each instead of a doubling
    /// series.
    pub(crate) fn with_token_estimate(n_tokens: usize) -> Self {
        Ast {
            exprs: Vec::with_capacity(n_tokens / 3 + 4),
            stmts: Vec::with_capacity(n_tokens / 8 + 4),
        }
    }

    /// Appends an expression, returning its id.
    pub(crate) fn alloc_expr(&mut self, expr: Expr) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(expr);
        id
    }

    /// Appends a statement, returning its id.
    pub(crate) fn alloc_stmt(&mut self, stmt: Stmt) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(stmt);
        id
    }

    /// The expression behind `id`.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// The statement behind `id`.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    /// Number of expressions in the arena (allocated, not necessarily
    /// all reachable — parser backtracking can orphan a few).
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// Number of statements in the arena.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }
}

impl std::ops::Index<ExprId> for Ast {
    type Output = Expr;
    fn index(&self, id: ExprId) -> &Expr {
        self.expr(id)
    }
}

impl std::ops::Index<StmtId> for Ast {
    type Output = Stmt;
    fn index(&self, id: StmtId) -> &Stmt {
        self.stmt(id)
    }
}

/// A parsed source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompilationUnit {
    /// The `package` declaration, if present.
    pub package: Option<Name>,
    /// `import` declarations in source order.
    pub imports: Vec<Import>,
    /// Top-level type declarations.
    pub types: Vec<TypeDecl>,
    /// Recoverable problems encountered while parsing this unit.
    pub diagnostics: Vec<crate::error::ParseDiagnostic>,
    /// The arena holding this unit's expressions and statements.
    pub ast: Ast,
}

impl CompilationUnit {
    /// Iterates over all type declarations, including nested ones.
    pub fn all_types(&self) -> Vec<&TypeDecl> {
        let mut out = Vec::new();
        fn walk<'a>(t: &'a TypeDecl, out: &mut Vec<&'a TypeDecl>) {
            out.push(t);
            for m in &t.members {
                if let Member::Type(nested) = m {
                    walk(nested, out);
                }
            }
        }
        for t in &self.types {
            walk(t, &mut out);
        }
        out
    }
}

/// An `import` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// `true` for `import static`.
    pub is_static: bool,
    /// The dotted path, without any trailing `.*`.
    pub path: Name,
    /// `true` for on-demand (`.*`) imports.
    pub on_demand: bool,
}

/// The kind of a type declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    /// A `class`.
    Class,
    /// An `interface`.
    Interface,
    /// An `enum`.
    Enum,
    /// An `@interface` annotation declaration.
    Annotation,
}

/// Modifier flags. Only the ones the analysis cares about are tracked
/// individually; the rest are recorded by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Modifiers {
    /// `static`
    pub is_static: bool,
    /// `final`
    pub is_final: bool,
    /// `public` / `protected` / `private` / package-private.
    pub visibility: Visibility,
    /// `abstract`
    pub is_abstract: bool,
}

/// Java visibility levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Visibility {
    /// `public`
    Public,
    /// `protected`
    Protected,
    /// No modifier.
    #[default]
    Package,
    /// `private`
    Private,
}

/// A class/interface/enum declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDecl {
    /// What kind of type this is.
    pub kind: TypeKind,
    /// Declared modifiers.
    pub modifiers: Modifiers,
    /// The simple name.
    pub name: Name,
    /// The `extends` clause, if any (single name for classes).
    pub extends: Option<Type>,
    /// The `implements` clause.
    pub implements: Vec<Type>,
    /// Enum constants (empty for non-enums).
    pub enum_constants: Vec<Name>,
    /// Members in source order.
    pub members: Vec<Member>,
    /// Source location.
    pub span: Span,
}

impl TypeDecl {
    /// All field declarations of this type.
    pub fn fields(&self) -> impl Iterator<Item = &FieldDecl> {
        self.members.iter().filter_map(|m| match m {
            Member::Field(f) => Some(f),
            _ => None,
        })
    }

    /// All method declarations of this type (constructors included).
    pub fn methods(&self) -> impl Iterator<Item = &MethodDecl> {
        self.members.iter().filter_map(|m| match m {
            Member::Method(m) => Some(m),
            _ => None,
        })
    }
}

/// A class member.
#[derive(Debug, Clone, PartialEq)]
pub enum Member {
    /// A field declaration (possibly with several declarators).
    Field(FieldDecl),
    /// A method or constructor.
    Method(MethodDecl),
    /// A static or instance initializer block.
    Initializer {
        /// `true` for `static { ... }`.
        is_static: bool,
        /// The body.
        body: Block,
    },
    /// A nested type.
    Type(TypeDecl),
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Declared modifiers.
    pub modifiers: Modifiers,
    /// The declared type.
    pub ty: Type,
    /// One declarator per comma-separated name.
    pub declarators: Vec<Declarator>,
    /// Source location.
    pub span: Span,
}

/// A single `name = init` declarator.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    /// The variable name.
    pub name: Name,
    /// Extra array dimensions declared after the name (`int x[]`).
    pub extra_dims: usize,
    /// The initializer, if any.
    pub init: Option<ExprId>,
}

/// A method or constructor declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Declared modifiers.
    pub modifiers: Modifiers,
    /// Return type; `None` for constructors.
    pub return_type: Option<Type>,
    /// The method name (class name for constructors).
    pub name: Name,
    /// `true` if this is a constructor.
    pub is_constructor: bool,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Declared thrown types.
    pub throws: Vec<Type>,
    /// The body; `None` for abstract/native methods.
    pub body: Option<Block>,
    /// Source location.
    pub span: Span,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// The declared type.
    pub ty: Type,
    /// The parameter name.
    pub name: Name,
    /// `true` for varargs (`Type... name`).
    pub varargs: bool,
}

/// A type reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// A primitive type.
    Primitive(PrimitiveType),
    /// A (possibly dotted, possibly generic) named type. Generic
    /// arguments are recorded but erased for analysis.
    Named {
        /// Dotted name as written (e.g. `javax.crypto.Cipher`).
        name: Name,
        /// Type arguments, if written.
        args: Vec<Type>,
    },
    /// An array type.
    Array(Box<Type>),
    /// `?` or `? extends X` wildcards inside generics.
    Wildcard,
    /// `var` or a type the parser could not make sense of.
    Unknown,
}

impl Type {
    /// Convenience constructor for a non-generic named type.
    pub(crate) fn named(name: impl Into<Name>) -> Type {
        Type::Named {
            name: name.into(),
            args: Vec::new(),
        }
    }

    /// The simple (last-segment, erased) name of this type, or `None`
    /// for primitives/arrays/wildcards.
    pub fn simple_name(&self) -> Option<&str> {
        match self {
            Type::Named { name, .. } => Some(name.rsplit('.').next().unwrap_or(name)),
            _ => None,
        }
    }

    /// A display string in the abstraction's notation: `byte[]`, `int`,
    /// `Cipher`, …
    pub fn display_name(&self) -> String {
        match self {
            Type::Primitive(p) => p.as_str().to_owned(),
            Type::Named { name, .. } => name.rsplit('.').next().unwrap_or(name).to_owned(),
            Type::Array(inner) => format!("{}[]", inner.display_name()),
            Type::Wildcard => "?".to_owned(),
            Type::Unknown => "<unknown>".to_owned(),
        }
    }
}

/// Java's primitive types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum PrimitiveType {
    Boolean,
    Byte,
    Short,
    Int,
    Long,
    Char,
    Float,
    Double,
    Void,
}

impl PrimitiveType {
    /// The keyword spelling.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            PrimitiveType::Boolean => "boolean",
            PrimitiveType::Byte => "byte",
            PrimitiveType::Short => "short",
            PrimitiveType::Int => "int",
            PrimitiveType::Long => "long",
            PrimitiveType::Char => "char",
            PrimitiveType::Float => "float",
            PrimitiveType::Double => "double",
            PrimitiveType::Void => "void",
        }
    }
}

impl fmt::Display for PrimitiveType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A `{ ... }` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements in order, as arena ids.
    pub stmts: Vec<StmtId>,
}

/// A statement. Child statements and expressions are arena ids into
/// the owning [`CompilationUnit`]'s [`Ast`].
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A nested block.
    Block(Block),
    /// A local variable declaration.
    LocalVar {
        /// Declared type (or [`Type::Unknown`] for `var`).
        ty: Type,
        /// Declarators.
        declarators: Vec<Declarator>,
    },
    /// An expression statement.
    Expr(ExprId),
    /// `if (cond) then else alt`.
    If {
        /// Condition.
        cond: ExprId,
        /// Then branch.
        then: StmtId,
        /// Else branch, if present.
        alt: Option<StmtId>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: ExprId,
        /// Loop body.
        body: StmtId,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Loop body.
        body: StmtId,
        /// Loop condition.
        cond: ExprId,
    },
    /// A classic `for` loop.
    For {
        /// Initializers (declarations or expression statements).
        init: Vec<StmtId>,
        /// The loop condition, if present.
        cond: Option<ExprId>,
        /// Update expressions.
        update: Vec<ExprId>,
        /// Loop body.
        body: StmtId,
    },
    /// An enhanced `for (T x : iterable)` loop.
    ForEach {
        /// Element type.
        ty: Type,
        /// Element variable name.
        name: Name,
        /// The iterated expression.
        iterable: ExprId,
        /// Loop body.
        body: StmtId,
    },
    /// `return expr;`
    Return(Option<ExprId>),
    /// `throw expr;`
    Throw(ExprId),
    /// `try { .. } catch (..) { .. } finally { .. }` with optional
    /// resources.
    Try {
        /// try-with-resources declarations.
        resources: Vec<StmtId>,
        /// The guarded block.
        block: Block,
        /// Catch clauses.
        catches: Vec<CatchClause>,
        /// The finally block, if present.
        finally: Option<Block>,
    },
    /// A `switch` statement (cases flattened; analysis treats all arms
    /// as may-execute).
    Switch {
        /// The scrutinee.
        scrutinee: ExprId,
        /// Case bodies.
        cases: Vec<SwitchCase>,
    },
    /// `synchronized (expr) { .. }`
    Synchronized {
        /// The monitor expression.
        monitor: ExprId,
        /// The body.
        body: Block,
    },
    /// `break;` (labels ignored).
    Break,
    /// `continue;` (labels ignored).
    Continue,
    /// `assert expr;` / `assert expr : msg;`
    Assert(ExprId),
    /// An empty statement.
    Empty,
    /// A local class declaration.
    LocalType(TypeDecl),
    /// A statement the parser skipped after an error.
    Unparsed,
}

/// One `case`/`default` arm of a switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// The case label expressions; empty for `default`.
    pub labels: Vec<ExprId>,
    /// The statements of the arm.
    pub body: Vec<StmtId>,
}

/// A catch clause.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchClause {
    /// Caught exception types (multi-catch allowed).
    pub types: Vec<Type>,
    /// Binder name.
    pub name: Name,
    /// Handler body.
    pub body: Block,
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AssignOp {
    Assign,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    UShr,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    UShr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Pos,
    Not,
    BitNot,
    PreInc,
    PreDec,
    PostInc,
    PostDec,
}

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// `int`/`long` literal.
    Int(i64),
    /// `float`/`double` literal.
    Float(f64),
    /// `boolean` literal.
    Bool(bool),
    /// `char` literal.
    Char(char),
    /// String literal.
    Str(Name),
    /// `null`.
    Null,
}

/// An expression. Child expressions are arena ids into the owning
/// [`CompilationUnit`]'s [`Ast`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Literal(Lit),
    /// A simple or qualified name as a dotted string (`x`,
    /// `Cipher.ENCRYPT_MODE`). Names are kept unresolved; the analyzer
    /// decides what each segment is.
    Name(Name),
    /// `target.field` where target is a non-name expression.
    FieldAccess {
        /// The receiver expression.
        target: ExprId,
        /// The accessed field.
        name: Name,
    },
    /// A method invocation.
    MethodCall {
        /// Explicit receiver, if any. `None` for unqualified calls.
        target: Option<ExprId>,
        /// The method name.
        name: Name,
        /// Argument expressions.
        args: Vec<ExprId>,
    },
    /// `new T(args)` (anonymous class bodies recorded but opaque).
    New {
        /// The instantiated type.
        ty: Type,
        /// Constructor arguments.
        args: Vec<ExprId>,
        /// `true` if an anonymous class body followed.
        anon_body: bool,
    },
    /// `new T[dims]` or `new T[]{...}`.
    NewArray {
        /// Element type.
        ty: Type,
        /// Explicit dimension expressions.
        dims: Vec<ExprId>,
        /// The array initializer, if given.
        init: Option<Vec<ExprId>>,
    },
    /// A bare `{...}` array initializer (only valid in declarations).
    ArrayInit(Vec<ExprId>),
    /// An assignment (also compound assignments).
    Assign {
        /// Assignment target.
        lhs: ExprId,
        /// Which operator.
        op: AssignOp,
        /// Assigned value.
        rhs: ExprId,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: ExprId,
    },
    /// `(T) expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// The casted expression.
        expr: ExprId,
    },
    /// `array[index]`.
    ArrayAccess {
        /// Array expression.
        array: ExprId,
        /// Index expression.
        index: ExprId,
    },
    /// `cond ? then : alt`.
    Conditional {
        /// Condition.
        cond: ExprId,
        /// Value when true.
        then: ExprId,
        /// Value when false.
        alt: ExprId,
    },
    /// `expr instanceof T`.
    InstanceOf {
        /// Tested expression.
        expr: ExprId,
        /// Tested type.
        ty: Type,
    },
    /// `this`.
    This,
    /// `super`.
    Super,
    /// `T.class`.
    ClassLiteral(Type),
    /// A lambda expression; the body is kept opaque.
    Lambda,
    /// A method reference (`T::m`); kept opaque.
    MethodRef,
    /// An expression the parser skipped after an error.
    Unparsed,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Literal constructors shared by the crate's unit tests.
    impl Expr {
        pub(crate) fn str_lit(s: impl Into<Name>) -> Expr {
            Expr::Literal(Lit::Str(s.into()))
        }

        pub(crate) fn int_lit(v: i64) -> Expr {
            Expr::Literal(Lit::Int(v))
        }
    }

    #[test]
    fn type_display_names() {
        assert_eq!(Type::named("javax.crypto.Cipher").display_name(), "Cipher");
        assert_eq!(
            Type::Array(Box::new(Type::Primitive(PrimitiveType::Byte))).display_name(),
            "byte[]"
        );
        assert_eq!(Type::Primitive(PrimitiveType::Int).display_name(), "int");
    }

    #[test]
    fn simple_name_strips_qualifier() {
        let t = Type::named("a.b.C");
        assert_eq!(t.simple_name(), Some("C"));
        assert_eq!(Type::Primitive(PrimitiveType::Int).simple_name(), None);
    }

    #[test]
    fn arena_ids_roundtrip() {
        let mut ast = Ast::default();
        let a = ast.alloc_expr(Expr::int_lit(1));
        let b = ast.alloc_expr(Expr::int_lit(2));
        let sum = ast.alloc_expr(Expr::Binary {
            op: BinOp::Add,
            lhs: a,
            rhs: b,
        });
        assert_eq!(ast.expr_count(), 3);
        assert_eq!(ast[a], Expr::int_lit(1));
        let Expr::Binary { lhs, rhs, .. } = &ast[sum] else {
            panic!("expected binary")
        };
        // Children precede their parent in the arena.
        assert!(*lhs < sum && *rhs < sum);
    }

    #[test]
    fn all_types_walks_nested() {
        let inner = TypeDecl {
            kind: TypeKind::Class,
            modifiers: Modifiers::default(),
            name: "Inner".into(),
            extends: None,
            implements: vec![],
            enum_constants: vec![],
            members: vec![],
            span: Span::default(),
        };
        let outer = TypeDecl {
            kind: TypeKind::Class,
            modifiers: Modifiers::default(),
            name: "Outer".into(),
            extends: None,
            implements: vec![],
            enum_constants: vec![],
            members: vec![Member::Type(inner)],
            span: Span::default(),
        };
        let unit = CompilationUnit {
            types: vec![outer],
            ..CompilationUnit::default()
        };
        let names: Vec<_> = unit.all_types().iter().map(|t| &*t.name).collect();
        assert_eq!(names, vec!["Outer", "Inner"]);
    }
}
