//! Read-only traversal of the AST: [`ast_depth`] measures a unit's
//! nesting without recursion. Child expressions and statements live in
//! the unit's [`Ast`] arena.

use crate::ast::*;

/// A node reference on the [`ast_depth`] worklist.
enum Node<'a> {
    Type(&'a TypeDecl),
    Stmt(StmtId),
    Expr(ExprId),
}

/// The maximum nesting depth of `unit` across type declarations,
/// statements, and expressions, computed **iteratively** (explicit
/// worklist, no recursion) so it is safe to call on arbitrarily deep
/// trees.
///
/// Parser-produced units are bounded by [`crate::Limits::max_nesting`],
/// but `analyze` accepts any [`CompilationUnit`]; this lets it reject
/// pathological trees *before* recursing into them.
pub fn ast_depth(unit: &CompilationUnit) -> usize {
    let ast = &unit.ast;
    let mut max = 0usize;
    let mut work: Vec<(Node<'_>, usize)> = unit.types.iter().map(|t| (Node::Type(t), 1)).collect();
    fn push_block<'a>(work: &mut Vec<(Node<'a>, usize)>, b: &Block, d: usize) {
        for s in &b.stmts {
            work.push((Node::Stmt(*s), d));
        }
    }
    while let Some((node, d)) = work.pop() {
        max = max.max(d);
        match node {
            Node::Type(t) => {
                for m in &t.members {
                    match m {
                        Member::Field(f) => {
                            for decl in &f.declarators {
                                if let Some(init) = decl.init {
                                    work.push((Node::Expr(init), d + 1));
                                }
                            }
                        }
                        Member::Method(m) => {
                            if let Some(body) = &m.body {
                                push_block(&mut work, body, d + 1);
                            }
                        }
                        Member::Initializer { body, .. } => {
                            push_block(&mut work, body, d + 1);
                        }
                        Member::Type(nested) => work.push((Node::Type(nested), d + 1)),
                    }
                }
            }
            Node::Stmt(stmt) => match &ast[stmt] {
                Stmt::Block(b) => push_block(&mut work, b, d + 1),
                Stmt::LocalVar { declarators, .. } => {
                    for decl in declarators {
                        if let Some(init) = decl.init {
                            work.push((Node::Expr(init), d + 1));
                        }
                    }
                }
                Stmt::Expr(e) | Stmt::Throw(e) | Stmt::Assert(e) => {
                    work.push((Node::Expr(*e), d + 1));
                }
                Stmt::If { cond, then, alt } => {
                    work.push((Node::Expr(*cond), d + 1));
                    work.push((Node::Stmt(*then), d + 1));
                    if let Some(alt) = alt {
                        work.push((Node::Stmt(*alt), d + 1));
                    }
                }
                Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                    work.push((Node::Expr(*cond), d + 1));
                    work.push((Node::Stmt(*body), d + 1));
                }
                Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                } => {
                    for s in init {
                        work.push((Node::Stmt(*s), d + 1));
                    }
                    if let Some(c) = cond {
                        work.push((Node::Expr(*c), d + 1));
                    }
                    for u in update {
                        work.push((Node::Expr(*u), d + 1));
                    }
                    work.push((Node::Stmt(*body), d + 1));
                }
                Stmt::ForEach { iterable, body, .. } => {
                    work.push((Node::Expr(*iterable), d + 1));
                    work.push((Node::Stmt(*body), d + 1));
                }
                Stmt::Return(value) => {
                    if let Some(value) = value {
                        work.push((Node::Expr(*value), d + 1));
                    }
                }
                Stmt::Try {
                    resources,
                    block,
                    catches,
                    finally,
                } => {
                    for r in resources {
                        work.push((Node::Stmt(*r), d + 1));
                    }
                    push_block(&mut work, block, d + 1);
                    for c in catches {
                        push_block(&mut work, &c.body, d + 1);
                    }
                    if let Some(f) = finally {
                        push_block(&mut work, f, d + 1);
                    }
                }
                Stmt::Switch { scrutinee, cases } => {
                    work.push((Node::Expr(*scrutinee), d + 1));
                    for c in cases {
                        for l in &c.labels {
                            work.push((Node::Expr(*l), d + 1));
                        }
                        for s in &c.body {
                            work.push((Node::Stmt(*s), d + 1));
                        }
                    }
                }
                Stmt::Synchronized { monitor, body } => {
                    work.push((Node::Expr(*monitor), d + 1));
                    push_block(&mut work, body, d + 1);
                }
                Stmt::LocalType(t) => work.push((Node::Type(t), d + 1)),
                Stmt::Break | Stmt::Continue | Stmt::Empty | Stmt::Unparsed => {}
            },
            Node::Expr(expr) => match &ast[expr] {
                Expr::FieldAccess { target, .. } => {
                    work.push((Node::Expr(*target), d + 1));
                }
                Expr::MethodCall { target, args, .. } => {
                    if let Some(t) = target {
                        work.push((Node::Expr(*t), d + 1));
                    }
                    for a in args {
                        work.push((Node::Expr(*a), d + 1));
                    }
                }
                Expr::New { args, .. } => {
                    for a in args {
                        work.push((Node::Expr(*a), d + 1));
                    }
                }
                Expr::NewArray { dims, init, .. } => {
                    for dim in dims {
                        work.push((Node::Expr(*dim), d + 1));
                    }
                    if let Some(init) = init {
                        for e in init {
                            work.push((Node::Expr(*e), d + 1));
                        }
                    }
                }
                Expr::ArrayInit(elems) => {
                    for e in elems {
                        work.push((Node::Expr(*e), d + 1));
                    }
                }
                Expr::Assign { lhs, rhs, .. } | Expr::Binary { lhs, rhs, .. } => {
                    work.push((Node::Expr(*lhs), d + 1));
                    work.push((Node::Expr(*rhs), d + 1));
                }
                Expr::Unary { expr, .. }
                | Expr::Cast { expr, .. }
                | Expr::InstanceOf { expr, .. } => {
                    work.push((Node::Expr(*expr), d + 1));
                }
                Expr::ArrayAccess { array, index } => {
                    work.push((Node::Expr(*array), d + 1));
                    work.push((Node::Expr(*index), d + 1));
                }
                Expr::Conditional { cond, then, alt } => {
                    work.push((Node::Expr(*cond), d + 1));
                    work.push((Node::Expr(*then), d + 1));
                    work.push((Node::Expr(*alt), d + 1));
                }
                Expr::Literal(_)
                | Expr::Name(_)
                | Expr::This
                | Expr::Super
                | Expr::ClassLiteral(_)
                | Expr::Lambda
                | Expr::MethodRef
                | Expr::Unparsed => {}
            },
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_compilation_unit;

    #[test]
    fn ast_depth_grows_with_nesting() {
        let shallow = parse_compilation_unit("class A { int x = 1; }").unwrap();
        let deep =
            parse_compilation_unit("class A { void m() { if (a) { if (b) { c(d(e())); } } } }")
                .unwrap();
        assert!(ast_depth(&shallow) < ast_depth(&deep));
        assert!(ast_depth(&CompilationUnit::default()) == 0);
    }

    #[test]
    fn ast_depth_survives_pathological_trees() {
        // A 100k-deep expression would overflow the stack in a recursive
        // walker; the iterative depth must handle it. The arena also
        // makes dropping the unit non-recursive, so no leak is needed.
        let mut ast = Ast::default();
        let mut expr = ast.alloc_expr(Expr::int_lit(1));
        for _ in 0..100_000 {
            expr = ast.alloc_expr(Expr::Unary {
                op: UnOp::Neg,
                expr,
            });
        }
        let unit = CompilationUnit {
            ast,
            types: vec![TypeDecl {
                kind: TypeKind::Class,
                modifiers: Modifiers::default(),
                name: "A".into(),
                extends: None,
                implements: vec![],
                enum_constants: vec![],
                members: vec![Member::Field(FieldDecl {
                    modifiers: Modifiers::default(),
                    ty: Type::Primitive(PrimitiveType::Int),
                    declarators: vec![Declarator {
                        name: "x".into(),
                        extra_dims: 0,
                        init: Some(expr),
                    }],
                    span: crate::error::Span::default(),
                })],
                span: crate::error::Span::default(),
            }],
            ..CompilationUnit::default()
        };
        assert!(ast_depth(&unit) > 100_000);
    }
}
