//! A source-code emitter for the AST.
//!
//! Used by the synthetic corpus generator to render generated programs,
//! and by round-trip tests (`print ∘ parse ∘ print = print`).

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a compilation unit back to Java source.
pub fn pretty_print(unit: &CompilationUnit) -> String {
    let mut p = Printer {
        ast: &unit.ast,
        out: String::new(),
        indent: 0,
    };
    p.unit(unit);
    p.out
}

struct Printer<'a> {
    ast: &'a Ast,
    out: String,
    indent: usize,
}

impl Printer<'_> {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn unit(&mut self, unit: &CompilationUnit) {
        if let Some(pkg) = &unit.package {
            self.line(&format!("package {pkg};"));
            self.out.push('\n');
        }
        for import in &unit.imports {
            let stat = if import.is_static { "static " } else { "" };
            let star = if import.on_demand { ".*" } else { "" };
            self.line(&format!("import {stat}{}{star};", import.path));
        }
        if !unit.imports.is_empty() {
            self.out.push('\n');
        }
        for t in &unit.types {
            self.type_decl(t);
        }
    }

    fn modifiers(m: &Modifiers) -> String {
        let mut s = String::new();
        match m.visibility {
            Visibility::Public => s.push_str("public "),
            Visibility::Protected => s.push_str("protected "),
            Visibility::Private => s.push_str("private "),
            Visibility::Package => {}
        }
        if m.is_static {
            s.push_str("static ");
        }
        if m.is_abstract {
            s.push_str("abstract ");
        }
        if m.is_final {
            s.push_str("final ");
        }
        s
    }

    fn type_decl(&mut self, t: &TypeDecl) {
        let kw = match t.kind {
            TypeKind::Class => "class",
            TypeKind::Interface => "interface",
            TypeKind::Enum => "enum",
            TypeKind::Annotation => "@interface",
        };
        let mut header = format!("{}{kw} {}", Self::modifiers(&t.modifiers), t.name);
        if let Some(ext) = &t.extends {
            let _ = write!(header, " extends {}", type_str(ext));
        }
        if !t.implements.is_empty() {
            let list: Vec<_> = t.implements.iter().map(type_str).collect();
            let _ = write!(header, " implements {}", list.join(", "));
        }
        header.push_str(" {");
        self.line(&header);
        self.indent += 1;
        if !t.enum_constants.is_empty() {
            let consts = t.enum_constants.join(", ");
            self.line(&format!("{consts};"));
        }
        for m in &t.members {
            self.member(m);
        }
        self.indent -= 1;
        self.line("}");
    }

    fn member(&mut self, m: &Member) {
        match m {
            Member::Field(f) => {
                let decls: Vec<_> = f
                    .declarators
                    .iter()
                    .map(|d| declarator_str(self.ast, d))
                    .collect();
                self.line(&format!(
                    "{}{} {};",
                    Self::modifiers(&f.modifiers),
                    type_str(&f.ty),
                    decls.join(", ")
                ));
            }
            Member::Method(m) => self.method(m),
            Member::Initializer { is_static, body } => {
                self.line(if *is_static { "static {" } else { "{" });
                self.indent += 1;
                for s in &body.stmts {
                    self.stmt(&self.ast[*s]);
                }
                self.indent -= 1;
                self.line("}");
            }
            Member::Type(t) => self.type_decl(t),
        }
    }

    fn method(&mut self, m: &MethodDecl) {
        let mut header = Self::modifiers(&m.modifiers);
        if let Some(rt) = &m.return_type {
            let _ = write!(header, "{} ", type_str(rt));
        }
        let params: Vec<_> = m
            .params
            .iter()
            .map(|p| {
                format!(
                    "{}{} {}",
                    type_str(&p.ty),
                    if p.varargs { "..." } else { "" },
                    p.name
                )
            })
            .collect();
        let _ = write!(header, "{}({})", m.name, params.join(", "));
        if !m.throws.is_empty() {
            let list: Vec<_> = m.throws.iter().map(type_str).collect();
            let _ = write!(header, " throws {}", list.join(", "));
        }
        match &m.body {
            None => {
                header.push(';');
                self.line(&header);
            }
            Some(body) => {
                header.push_str(" {");
                self.line(&header);
                self.indent += 1;
                for s in &body.stmts {
                    self.stmt(&self.ast[*s]);
                }
                self.indent -= 1;
                self.line("}");
            }
        }
    }

    fn block_inline(&mut self, b: &Block) {
        self.indent += 1;
        for s in &b.stmts {
            self.stmt(&self.ast[*s]);
        }
        self.indent -= 1;
    }

    /// Renders a `for`-init / try-resource statement without its `;`.
    fn header_stmt_str(&self, s: StmtId) -> String {
        match &self.ast[s] {
            Stmt::LocalVar { ty, declarators } => {
                let decls: Vec<_> = declarators
                    .iter()
                    .map(|d| declarator_str(self.ast, d))
                    .collect();
                format!("{} {}", type_str(ty), decls.join(", "))
            }
            Stmt::Expr(e) => expr_str(self.ast, &self.ast[*e]),
            _ => String::new(),
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        let ast = self.ast;
        match s {
            Stmt::Block(b) => {
                self.line("{");
                self.block_inline(b);
                self.line("}");
            }
            Stmt::LocalVar { ty, declarators } => {
                let decls: Vec<_> = declarators.iter().map(|d| declarator_str(ast, d)).collect();
                self.line(&format!("{} {};", type_str(ty), decls.join(", ")));
            }
            Stmt::Expr(e) => self.line(&format!("{};", expr_str(ast, &ast[*e]))),
            Stmt::If { cond, then, alt } => {
                self.line(&format!("if ({}) {{", expr_str(ast, &ast[*cond])));
                self.indent += 1;
                self.stmt_unwrapped(&ast[*then]);
                self.indent -= 1;
                match alt {
                    Some(alt) => {
                        self.line("} else {");
                        self.indent += 1;
                        self.stmt_unwrapped(&ast[*alt]);
                        self.indent -= 1;
                        self.line("}");
                    }
                    None => self.line("}"),
                }
            }
            Stmt::While { cond, body } => {
                self.line(&format!("while ({}) {{", expr_str(ast, &ast[*cond])));
                self.indent += 1;
                self.stmt_unwrapped(&ast[*body]);
                self.indent -= 1;
                self.line("}");
            }
            Stmt::DoWhile { body, cond } => {
                self.line("do {");
                self.indent += 1;
                self.stmt_unwrapped(&ast[*body]);
                self.indent -= 1;
                self.line(&format!("}} while ({});", expr_str(ast, &ast[*cond])));
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                let init_s: Vec<_> = init.iter().map(|s| self.header_stmt_str(*s)).collect();
                let cond_s = cond.map(|c| expr_str(ast, &ast[c])).unwrap_or_default();
                let update_s: Vec<_> = update.iter().map(|u| expr_str(ast, &ast[*u])).collect();
                self.line(&format!(
                    "for ({}; {}; {}) {{",
                    init_s.join(", "),
                    cond_s,
                    update_s.join(", ")
                ));
                self.indent += 1;
                self.stmt_unwrapped(&ast[*body]);
                self.indent -= 1;
                self.line("}");
            }
            Stmt::ForEach {
                ty,
                name,
                iterable,
                body,
            } => {
                self.line(&format!(
                    "for ({} {} : {}) {{",
                    type_str(ty),
                    name,
                    expr_str(ast, &ast[*iterable])
                ));
                self.indent += 1;
                self.stmt_unwrapped(&ast[*body]);
                self.indent -= 1;
                self.line("}");
            }
            Stmt::Return(v) => match v {
                Some(v) => self.line(&format!("return {};", expr_str(ast, &ast[*v]))),
                None => self.line("return;"),
            },
            Stmt::Throw(v) => self.line(&format!("throw {};", expr_str(ast, &ast[*v]))),
            Stmt::Try {
                resources,
                block,
                catches,
                finally,
            } => {
                if resources.is_empty() {
                    self.line("try {");
                } else {
                    let res: Vec<_> = resources.iter().map(|s| self.header_stmt_str(*s)).collect();
                    self.line(&format!("try ({}) {{", res.join("; ")));
                }
                self.block_inline(block);
                for c in catches {
                    let types: Vec<_> = c.types.iter().map(type_str).collect();
                    self.line(&format!("}} catch ({} {}) {{", types.join(" | "), c.name));
                    self.block_inline(&c.body);
                }
                if let Some(f) = finally {
                    self.line("} finally {");
                    self.block_inline(f);
                }
                self.line("}");
            }
            Stmt::Switch { scrutinee, cases } => {
                self.line(&format!("switch ({}) {{", expr_str(ast, &ast[*scrutinee])));
                self.indent += 1;
                for case in cases {
                    if case.labels.is_empty() {
                        self.line("default:");
                    } else {
                        for l in &case.labels {
                            self.line(&format!("case {}:", expr_str(ast, &ast[*l])));
                        }
                    }
                    self.indent += 1;
                    for s in &case.body {
                        self.stmt(&ast[*s]);
                    }
                    self.indent -= 1;
                }
                self.indent -= 1;
                self.line("}");
            }
            Stmt::Synchronized { monitor, body } => {
                self.line(&format!(
                    "synchronized ({}) {{",
                    expr_str(ast, &ast[*monitor])
                ));
                self.block_inline(body);
                self.line("}");
            }
            Stmt::Break => self.line("break;"),
            Stmt::Continue => self.line("continue;"),
            Stmt::Assert(e) => self.line(&format!("assert {};", expr_str(ast, &ast[*e]))),
            Stmt::Empty => self.line(";"),
            Stmt::LocalType(t) => self.type_decl(t),
            Stmt::Unparsed => self.line("/* unparsed */;"),
        }
    }

    /// Prints the body of a statement that the caller already wrapped in
    /// braces; flattens one level of block nesting.
    fn stmt_unwrapped(&mut self, s: &Stmt) {
        match s {
            Stmt::Block(b) => {
                for s in &b.stmts {
                    self.stmt(&self.ast[*s]);
                }
            }
            other => self.stmt(other),
        }
    }
}

fn declarator_str(ast: &Ast, d: &Declarator) -> String {
    let dims = "[]".repeat(d.extra_dims);
    match d.init {
        Some(init) => format!("{}{dims} = {}", d.name, expr_str(ast, &ast[init])),
        None => format!("{}{dims}", d.name),
    }
}

/// Renders a type reference.
pub(crate) fn type_str(t: &Type) -> String {
    match t {
        Type::Primitive(p) => p.as_str().to_owned(),
        Type::Named { name, args } => {
            if args.is_empty() {
                name.to_string()
            } else {
                let list: Vec<_> = args.iter().map(type_str).collect();
                format!("{name}<{}>", list.join(", "))
            }
        }
        Type::Array(inner) => format!("{}[]", type_str(inner)),
        Type::Wildcard => "?".to_owned(),
        Type::Unknown => "var".to_owned(),
    }
}

fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

fn escape_char(c: char) -> String {
    match c {
        '\'' => "\\'".to_owned(),
        '\\' => "\\\\".to_owned(),
        '\n' => "\\n".to_owned(),
        '\t' => "\\t".to_owned(),
        '\r' => "\\r".to_owned(),
        other => other.to_string(),
    }
}

/// Renders an expression; child nodes are resolved through `ast`.
pub(crate) fn expr_str(ast: &Ast, e: &Expr) -> String {
    let sub = |id: &ExprId| expr_str(ast, &ast[*id]);
    match e {
        Expr::Literal(l) => match l {
            Lit::Int(v) => v.to_string(),
            Lit::Float(v) => {
                if v.fract() == 0.0 {
                    format!("{v:.1}")
                } else {
                    v.to_string()
                }
            }
            Lit::Bool(b) => b.to_string(),
            Lit::Char(c) => format!("'{}'", escape_char(*c)),
            Lit::Str(s) => format!("\"{}\"", escape_str(s)),
            Lit::Null => "null".to_owned(),
        },
        Expr::Name(dotted) => dotted.to_string(),
        Expr::FieldAccess { target, name } => {
            format!("{}.{name}", sub(target))
        }
        Expr::MethodCall { target, name, args } => {
            let args_s: Vec<_> = args.iter().map(sub).collect();
            match target {
                Some(t) => format!("{}.{name}({})", sub(t), args_s.join(", ")),
                None => format!("{name}({})", args_s.join(", ")),
            }
        }
        Expr::New {
            ty,
            args,
            anon_body,
        } => {
            let args_s: Vec<_> = args.iter().map(sub).collect();
            let body = if *anon_body { " { }" } else { "" };
            format!("new {}({}){body}", type_str(ty), args_s.join(", "))
        }
        Expr::NewArray { ty, dims, init } => {
            let mut s = format!("new {}", type_str(ty));
            for d in dims {
                let _ = write!(s, "[{}]", sub(d));
            }
            if let Some(init) = init {
                if dims.is_empty() {
                    s.push_str("[]");
                }
                let elems: Vec<_> = init.iter().map(sub).collect();
                let _ = write!(s, " {{ {} }}", elems.join(", "));
            }
            s
        }
        Expr::ArrayInit(elems) => {
            let elems_s: Vec<_> = elems.iter().map(sub).collect();
            format!("{{ {} }}", elems_s.join(", "))
        }
        Expr::Assign { lhs, op, rhs } => {
            let op_s = match op {
                AssignOp::Assign => "=",
                AssignOp::Add => "+=",
                AssignOp::Sub => "-=",
                AssignOp::Mul => "*=",
                AssignOp::Div => "/=",
                AssignOp::Rem => "%=",
                AssignOp::And => "&=",
                AssignOp::Or => "|=",
                AssignOp::Xor => "^=",
                AssignOp::Shl => "<<=",
                AssignOp::Shr => ">>=",
                AssignOp::UShr => ">>>=",
            };
            format!("{} {op_s} {}", sub(lhs), sub(rhs))
        }
        Expr::Binary { op, lhs, rhs } => {
            let op_s = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Gt => ">",
                BinOp::Le => "<=",
                BinOp::Ge => ">=",
                BinOp::AndAnd => "&&",
                BinOp::OrOr => "||",
                BinOp::BitAnd => "&",
                BinOp::BitOr => "|",
                BinOp::BitXor => "^",
                BinOp::Shl => "<<",
                BinOp::Shr => ">>",
                BinOp::UShr => ">>>",
            };
            format!("({} {op_s} {})", sub(lhs), sub(rhs))
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Neg => format!("-{}", sub(expr)),
            UnOp::Pos => format!("+{}", sub(expr)),
            UnOp::Not => format!("!{}", sub(expr)),
            UnOp::BitNot => format!("~{}", sub(expr)),
            UnOp::PreInc => format!("++{}", sub(expr)),
            UnOp::PreDec => format!("--{}", sub(expr)),
            UnOp::PostInc => format!("{}++", sub(expr)),
            UnOp::PostDec => format!("{}--", sub(expr)),
        },
        Expr::Cast { ty, expr } => format!("({}) {}", type_str(ty), sub(expr)),
        Expr::ArrayAccess { array, index } => {
            format!("{}[{}]", sub(array), sub(index))
        }
        Expr::Conditional { cond, then, alt } => {
            format!("({} ? {} : {})", sub(cond), sub(then), sub(alt))
        }
        Expr::InstanceOf { expr, ty } => {
            format!("({} instanceof {})", sub(expr), type_str(ty))
        }
        Expr::This => "this".to_owned(),
        Expr::Super => "super".to_owned(),
        Expr::ClassLiteral(ty) => format!("{}.class", type_str(ty)),
        Expr::Lambda => "() -> { }".to_owned(),
        Expr::MethodRef => "Object::toString".to_owned(),
        Expr::Unparsed => "/* unparsed */ null".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_compilation_unit;

    #[test]
    fn roundtrip_is_stable() {
        let src = r#"
            package demo;
            import javax.crypto.Cipher;
            public class AESCipher {
                private static final String ALGO = "AES/CBC/PKCS5Padding";
                Cipher enc;
                protected void setKey(Secret key, String iv) throws Exception {
                    byte[] ivBytes = Hex.decodeHex(iv.toCharArray());
                    IvParameterSpec ivSpec = new IvParameterSpec(ivBytes);
                    enc = Cipher.getInstance(ALGO);
                    enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
                }
            }
        "#;
        let unit1 = parse_compilation_unit(src).unwrap();
        let printed1 = pretty_print(&unit1);
        let unit2 = parse_compilation_unit(&printed1).unwrap();
        let printed2 = pretty_print(&unit2);
        assert_eq!(printed1, printed2);
    }

    #[test]
    fn prints_escapes() {
        assert_eq!(
            expr_str(&Ast::default(), &Expr::str_lit("a\"b\\c\n")),
            r#""a\"b\\c\n""#
        );
    }

    #[test]
    fn prints_array_literal() {
        let mut ast = Ast::default();
        let one = ast.alloc_expr(Expr::int_lit(1));
        let two = ast.alloc_expr(Expr::int_lit(2));
        let e = Expr::NewArray {
            ty: Type::Primitive(PrimitiveType::Byte),
            dims: vec![],
            init: Some(vec![one, two]),
        };
        assert_eq!(expr_str(&ast, &e), "new byte[] { 1, 2 }");
    }
}
