//! An error-tolerant recursive-descent parser for the Java subset.
//!
//! Recovery model: parse errors inside a class member (or at top level)
//! do not abort the file. The offending region is skipped — up to a `;`
//! or a balanced `{...}` — a [`ParseDiagnostic`] is recorded on the
//! [`CompilationUnit`], and parsing resumes. This mirrors DiffCode's
//! requirement to analyze partial programs mined from version control.
//!
//! Expressions and statements are allocated into the unit's [`Ast`]
//! arena lazily — a node is pushed only when it becomes the child of
//! another node — so backtracking productions (casts, declarator
//! lookahead, generic-argument disambiguation) at worst orphan a few
//! arena slots instead of repeatedly allocating and freeing boxes.

use crate::ast::*;
use crate::error::{ParseDiagnostic, ParseError, ParseErrorKind, Span};
use crate::lexer::Lexer;
use crate::limits::Limits;
use crate::token::{Keyword, Punct, SpannedToken, Token};
use intern::{intern, intern_owned};

/// Parses a whole source file with [`Limits::DEFAULT`] budgets.
///
/// # Errors
///
/// Returns an error only if the file cannot be lexed or no top-level
/// structure could be recovered at all; member-level problems are
/// reported via [`CompilationUnit::diagnostics`].
pub fn parse_compilation_unit(source: &str) -> Result<CompilationUnit, ParseError> {
    parse_compilation_unit_with_limits(source, Limits::DEFAULT)
}

/// Parses a whole source file with explicit resource budgets.
///
/// # Errors
///
/// As [`parse_compilation_unit`], plus typed budget errors
/// ([`ParseErrorKind::SourceTooLarge`] and friends) when `limits` are
/// exceeded.
pub fn parse_compilation_unit_with_limits(
    source: &str,
    limits: Limits,
) -> Result<CompilationUnit, ParseError> {
    let tokens = Lexer::with_limits(source, limits).tokenize()?;
    Parser::with_limits(tokens, limits).parse_unit()
}

/// The recursive-descent parser. Borrows the source through its
/// zero-copy token stream.
#[derive(Debug)]
pub(crate) struct Parser<'s> {
    tokens: Vec<SpannedToken<'s>>,
    pos: usize,
    /// Cache of `tokens[pos].token`, so the very hottest operation —
    /// peeking the current token — is one field load with no bounds
    /// check. Kept in sync by `bump` and `rewind`.
    cur: Token<'s>,
    diagnostics: Vec<ParseDiagnostic>,
    /// The arena the parsed unit's expressions and statements land in.
    ast: Ast,
    /// Current nesting depth across *all* recursive paths (statements,
    /// expressions, types, array initialisers, nested type
    /// declarations) — guards the stack against adversarial inputs.
    depth: usize,
    /// Depth at which [`Parser::nested`] gives up.
    max_nesting: usize,
    /// Reusable scratch for composing dotted names before interning.
    /// Used stack-wise: callers record `name_buf.len()`, append, intern
    /// the suffix, and truncate back, so recursive productions (type
    /// arguments inside dotted type names) can share one buffer.
    name_buf: String,
}

type PResult<T> = Result<T, ParseError>;

impl<'s> Parser<'s> {
    /// Creates a parser over a pre-lexed token stream with explicit
    /// resource budgets. A missing trailing [`Token::Eof`] is appended
    /// rather than rejected.
    pub(crate) fn with_limits(mut tokens: Vec<SpannedToken<'s>>, limits: Limits) -> Self {
        if !matches!(tokens.last(), Some(t) if t.token == Token::Eof) {
            let span = tokens.last().map(|t| t.span).unwrap_or_default();
            tokens.push(SpannedToken {
                token: Token::Eof,
                span,
            });
        }
        Parser {
            ast: Ast::with_token_estimate(tokens.len()),
            cur: tokens[0].token,
            tokens,
            pos: 0,
            diagnostics: Vec::new(),
            depth: 0,
            max_nesting: limits.max_nesting,
            name_buf: String::new(),
        }
    }

    /// Runs `f` one nesting level deeper, failing fast past
    /// [`Limits::max_nesting`] so adversarial inputs cannot exhaust
    /// the stack.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth >= self.max_nesting {
            return Err(ParseError::with_kind(
                ParseErrorKind::NestingTooDeep,
                "expression or statement nesting too deep",
                self.span(),
            ));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    // ------------------------------------------------------------------
    // Token-stream helpers
    // ------------------------------------------------------------------

    fn peek(&self) -> Token<'s> {
        self.cur
    }

    fn peek_at(&self, k: usize) -> Token<'s> {
        let idx = (self.pos + k).min(self.tokens.len() - 1);
        self.tokens[idx].token
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token<'s> {
        let tok = self.cur;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        self.cur = self.tokens[self.pos].token;
        tok
    }

    /// Moves the cursor to an earlier (saved) position, keeping the
    /// cached current token in sync. All speculative-parse backtracking
    /// goes through here.
    fn rewind(&mut self, pos: usize) {
        self.pos = pos;
        self.cur = self.tokens[pos].token;
    }

    fn at_eof(&self) -> bool {
        self.peek() == Token::Eof
    }

    fn check_punct(&self, p: Punct) -> bool {
        self.peek() == Token::Punct(p)
    }

    fn check_keyword(&self, k: Keyword) -> bool {
        self.peek() == Token::Keyword(k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.check_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.check_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> PResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`, found `{}`", p, self.peek())))
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> PResult<()> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`, found `{}`", k, self.peek())))
        }
    }

    fn expect_ident(&mut self) -> PResult<Name> {
        match self.peek() {
            Token::Ident(name) => {
                self.bump();
                Ok(intern(name))
            }
            // Allow a handful of keywords in identifier position where
            // real-world code uses them as names via imports.
            other => Err(self.error(format!("expected identifier, found `{other}`"))),
        }
    }

    fn error(&self, message: impl Into<std::borrow::Cow<'static, str>>) -> ParseError {
        ParseError::new(message, self.span())
    }

    fn alloc_expr(&mut self, expr: Expr) -> ExprId {
        self.ast.alloc_expr(expr)
    }

    fn alloc_stmt(&mut self, stmt: Stmt) -> StmtId {
        self.ast.alloc_stmt(stmt)
    }

    /// `>`-`>` adjacency check used to reassemble shift operators.
    fn gt_adjacent(&self) -> bool {
        if self.check_punct(Punct::Gt) && self.peek_at(1) == Token::Punct(Punct::Gt) {
            let a = self.tokens[self.pos].span;
            let b = self.tokens[self.pos + 1].span;
            a.end == b.start
        } else {
            false
        }
    }

    /// Skips a balanced `open ... close` region, assuming the current
    /// token is `open`. Never fails: stops at EOF.
    fn skip_balanced(&mut self, open: Punct, close: Punct) {
        debug_assert!(self.check_punct(open));
        let mut depth = 0usize;
        while !self.at_eof() {
            if self.check_punct(open) {
                depth += 1;
            } else if self.check_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Skips any annotations (`@Foo`, `@Foo(...)`) at the cursor.
    fn skip_annotations(&mut self) {
        while self.check_punct(Punct::At) {
            // `@interface` is a declaration, not an annotation use.
            if self.peek_at(1) == Token::Keyword(Keyword::Interface) {
                return;
            }
            self.bump(); // @
                         // Dotted annotation name.
            if matches!(self.peek(), Token::Ident(_)) {
                self.bump();
                while self.check_punct(Punct::Dot) && matches!(self.peek_at(1), Token::Ident(_)) {
                    self.bump();
                    self.bump();
                }
            }
            if self.check_punct(Punct::LParen) {
                self.skip_balanced(Punct::LParen, Punct::RParen);
            }
        }
    }

    /// Skips a `<...>` type-parameter/argument region if present. If the
    /// region turns out not to be balanced before a `;`/`{`, the cursor
    /// is restored (we mis-identified a less-than).
    fn skip_type_params(&mut self) {
        if !self.check_punct(Punct::Lt) {
            return;
        }
        let save = self.pos;
        let mut depth = 0usize;
        while !self.at_eof() {
            if self.check_punct(Punct::Lt) {
                depth += 1;
            } else if self.check_punct(Punct::Gt) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            } else if self.check_punct(Punct::Semi) || self.check_punct(Punct::LBrace) {
                self.rewind(save);
                return;
            }
            self.bump();
        }
        self.rewind(save);
    }

    // ------------------------------------------------------------------
    // Compilation unit
    // ------------------------------------------------------------------

    /// Parses the whole token stream into a [`CompilationUnit`].
    ///
    /// # Errors
    ///
    /// See [`parse_compilation_unit`].
    pub(crate) fn parse_unit(mut self) -> Result<CompilationUnit, ParseError> {
        let mut unit = CompilationUnit::default();

        self.skip_annotations();
        if self.eat_keyword(Keyword::Package) {
            let start = self.name_buf.len();
            while let Token::Ident(seg) = self.peek() {
                self.bump();
                self.name_buf.push_str(seg);
                if self.eat_punct(Punct::Dot) {
                    self.name_buf.push('.');
                } else {
                    break;
                }
            }
            let _ = self.expect_punct(Punct::Semi);
            unit.package = Some(intern(&self.name_buf[start..]));
            self.name_buf.truncate(start);
        }

        while self.check_keyword(Keyword::Import) {
            self.bump();
            let is_static = self.eat_keyword(Keyword::Static);
            let start = self.name_buf.len();
            let mut on_demand = false;
            loop {
                match self.peek() {
                    Token::Ident(seg) => {
                        self.bump();
                        self.name_buf.push_str(seg);
                    }
                    Token::Punct(Punct::Star) => {
                        self.bump();
                        on_demand = true;
                        // strip trailing dot
                        if self.name_buf.len() > start && self.name_buf.ends_with('.') {
                            self.name_buf.pop();
                        }
                        break;
                    }
                    _ => break,
                }
                if self.eat_punct(Punct::Dot) {
                    self.name_buf.push('.');
                } else {
                    break;
                }
            }
            let _ = self.expect_punct(Punct::Semi);
            unit.imports.push(Import {
                is_static,
                path: intern(&self.name_buf[start..]),
                on_demand,
            });
            self.name_buf.truncate(start);
        }

        while !self.at_eof() {
            self.skip_annotations();
            if self.eat_punct(Punct::Semi) {
                continue;
            }
            if self.at_eof() {
                break;
            }
            let before = self.pos;
            match self.parse_type_decl() {
                Ok(decl) => unit.types.push(decl),
                Err(err) => {
                    self.diagnostics.push(ParseDiagnostic {
                        message: err.message().to_owned(),
                        span: err.span(),
                    });
                    if self.pos == before {
                        self.bump();
                    }
                    self.recover_to_member_boundary();
                }
            }
        }
        unit.diagnostics = std::mem::take(&mut self.diagnostics);
        unit.ast = self.ast;
        Ok(unit)
    }

    // ------------------------------------------------------------------
    // Type declarations
    // ------------------------------------------------------------------

    /// Nested type declarations (`class A { class B { ... } }`) recurse
    /// through [`Parser::parse_member`], so the whole production runs
    /// under the nesting guard.
    fn parse_type_decl(&mut self) -> PResult<TypeDecl> {
        self.nested(|p| p.parse_type_decl_inner())
    }

    fn parse_type_decl_inner(&mut self) -> PResult<TypeDecl> {
        let start = self.span();
        self.skip_annotations();
        let modifiers = self.parse_modifiers();
        self.skip_annotations();

        let kind = if self.eat_keyword(Keyword::Class) {
            TypeKind::Class
        } else if self.eat_keyword(Keyword::Interface) {
            TypeKind::Interface
        } else if self.eat_keyword(Keyword::Enum) {
            TypeKind::Enum
        } else if self.check_punct(Punct::At)
            && self.peek_at(1) == Token::Keyword(Keyword::Interface)
        {
            self.bump();
            self.bump();
            TypeKind::Annotation
        } else if let Token::Ident(word) = self.peek() {
            // `record Name(...)` — treat as a class-like declaration.
            if word == "record" && matches!(self.peek_at(1), Token::Ident(_)) {
                self.bump();
                TypeKind::Class
            } else {
                return Err(self.error(format!(
                    "expected type declaration, found `{}`",
                    self.peek()
                )));
            }
        } else {
            return Err(self.error(format!(
                "expected type declaration, found `{}`",
                self.peek()
            )));
        };

        let name = self.expect_ident()?;
        self.skip_type_params();

        // Record headers: `record R(int a, String b)`.
        if self.check_punct(Punct::LParen) {
            self.skip_balanced(Punct::LParen, Punct::RParen);
        }

        let mut extends = None;
        let mut implements = Vec::new();
        if self.eat_keyword(Keyword::Extends) {
            extends = Some(self.parse_type()?);
            // Interfaces may extend several types.
            while self.eat_punct(Punct::Comma) {
                implements.push(self.parse_type()?);
            }
        }
        if self.eat_keyword(Keyword::Implements) {
            implements.push(self.parse_type()?);
            while self.eat_punct(Punct::Comma) {
                implements.push(self.parse_type()?);
            }
        }
        // `permits` clauses (sealed types) — skip to body.
        while !self.check_punct(Punct::LBrace) && !self.at_eof() {
            self.bump();
        }
        self.expect_punct(Punct::LBrace)?;

        let mut enum_constants = Vec::new();
        if kind == TypeKind::Enum {
            // Constants up to `;` or `}`.
            loop {
                self.skip_annotations();
                match self.peek() {
                    Token::Ident(constant) => {
                        self.bump();
                        enum_constants.push(intern(constant));
                        if self.check_punct(Punct::LParen) {
                            self.skip_balanced(Punct::LParen, Punct::RParen);
                        }
                        if self.check_punct(Punct::LBrace) {
                            self.skip_balanced(Punct::LBrace, Punct::RBrace);
                        }
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            self.eat_punct(Punct::Semi);
        }

        let members = self.parse_type_body(&name);
        let span = start.merge(self.span());
        Ok(TypeDecl {
            kind,
            modifiers,
            name,
            extends,
            implements,
            enum_constants,
            members,
            span,
        })
    }

    /// Parses members until the closing `}` of the type body. Member
    /// errors are recovered.
    fn parse_type_body(&mut self, class_name: &str) -> Vec<Member> {
        let mut members = Vec::new();
        loop {
            if self.eat_punct(Punct::RBrace) || self.at_eof() {
                return members;
            }
            if self.eat_punct(Punct::Semi) {
                continue;
            }
            let before = self.pos;
            match self.parse_member(class_name) {
                Ok(member) => members.push(member),
                Err(err) => {
                    self.diagnostics.push(ParseDiagnostic {
                        message: err.message().to_owned(),
                        span: err.span(),
                    });
                    if self.pos == before {
                        self.bump();
                    }
                    self.recover_to_member_boundary();
                }
            }
        }
    }

    /// Skips past the current broken construct: consumes until a `;` at
    /// depth 0 or a balanced `{...}` completes, without consuming the
    /// enclosing class's `}`.
    fn recover_to_member_boundary(&mut self) {
        let mut depth = 0i32;
        while !self.at_eof() {
            match self.peek() {
                Token::Punct(Punct::LBrace) => {
                    depth += 1;
                    self.bump();
                }
                Token::Punct(Punct::RBrace) => {
                    if depth == 0 {
                        return; // enclosing `}` — leave for the caller
                    }
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                }
                Token::Punct(Punct::Semi) if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn parse_member(&mut self, class_name: &str) -> PResult<Member> {
        let start = self.span();
        self.skip_annotations();
        let modifiers = self.parse_modifiers();
        self.skip_annotations();

        // Initializer block.
        if self.check_punct(Punct::LBrace) {
            let body = self.parse_block()?;
            return Ok(Member::Initializer {
                is_static: modifiers.is_static,
                body,
            });
        }

        // Nested type.
        if self.check_keyword(Keyword::Class)
            || self.check_keyword(Keyword::Interface)
            || self.check_keyword(Keyword::Enum)
            || (self.check_punct(Punct::At)
                && self.peek_at(1) == Token::Keyword(Keyword::Interface))
        {
            // Re-parse with the modifiers we already consumed folded in.
            let mut decl = self.parse_type_decl()?;
            decl.modifiers = modifiers;
            return Ok(Member::Type(decl));
        }

        // Generic method type parameters.
        self.skip_type_params();
        self.skip_annotations();

        // Constructor? `Name (` where Name == enclosing class.
        if let Token::Ident(word) = self.peek() {
            if word == class_name && self.peek_at(1) == Token::Punct(Punct::LParen) {
                let name = self.expect_ident()?;
                return self.parse_method_rest(modifiers, None, name, true, start);
            }
        }

        let ty = self.parse_type()?;
        self.skip_annotations();
        let name = self.expect_ident()?;

        if self.check_punct(Punct::LParen) {
            return self.parse_method_rest(modifiers, Some(ty), name, false, start);
        }

        // Field declaration.
        let declarators = self.parse_declarators(name)?;
        self.expect_punct(Punct::Semi)?;
        let span = start.merge(self.span());
        Ok(Member::Field(FieldDecl {
            modifiers,
            ty,
            declarators,
            span,
        }))
    }

    fn parse_method_rest(
        &mut self,
        modifiers: Modifiers,
        return_type: Option<Type>,
        name: Name,
        is_constructor: bool,
        start: Span,
    ) -> PResult<Member> {
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.check_punct(Punct::RParen) {
            loop {
                self.skip_annotations();
                // `final` on params.
                while self.eat_keyword(Keyword::Final) {
                    self.skip_annotations();
                }
                let ty = self.parse_type()?;
                self.skip_annotations();
                let varargs = self.eat_punct(Punct::Ellipsis);
                let pname = self.expect_ident()?;
                let mut ty = ty;
                // `int x[]` post-name dims.
                while self.check_punct(Punct::LBracket)
                    && self.peek_at(1) == Token::Punct(Punct::RBracket)
                {
                    self.bump();
                    self.bump();
                    ty = Type::Array(Box::new(ty));
                }
                params.push(Param {
                    ty,
                    name: pname,
                    varargs,
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;

        // `int m()[]` — archaic; skip.
        while self.check_punct(Punct::LBracket) && self.peek_at(1) == Token::Punct(Punct::RBracket)
        {
            self.bump();
            self.bump();
        }

        let mut throws = Vec::new();
        if self.eat_keyword(Keyword::Throws) {
            throws.push(self.parse_type()?);
            while self.eat_punct(Punct::Comma) {
                throws.push(self.parse_type()?);
            }
        }

        // `default` clause of annotation members.
        if self.eat_keyword(Keyword::Default) {
            while !self.check_punct(Punct::Semi) && !self.at_eof() {
                self.bump();
            }
        }

        let body = if self.eat_punct(Punct::Semi) {
            None
        } else {
            Some(self.parse_block_recovering()?)
        };
        let span = start.merge(self.span());
        Ok(Member::Method(MethodDecl {
            modifiers,
            return_type,
            name,
            is_constructor,
            params,
            throws,
            body,
            span,
        }))
    }

    /// Parses a method body; if a statement inside fails to parse the
    /// rest of the body is skipped (balanced) and a diagnostic recorded,
    /// keeping the statements parsed so far.
    fn parse_block_recovering(&mut self) -> PResult<Block> {
        let open_pos = self.pos;
        match self.parse_block() {
            Ok(b) => Ok(b),
            Err(err) => {
                self.diagnostics.push(ParseDiagnostic {
                    message: err.message().to_owned(),
                    span: err.span(),
                });
                self.rewind(open_pos);
                if self.check_punct(Punct::LBrace) {
                    self.skip_balanced(Punct::LBrace, Punct::RBrace);
                }
                Ok(Block::default())
            }
        }
    }

    fn parse_modifiers(&mut self) -> Modifiers {
        let mut m = Modifiers::default();
        loop {
            self.skip_annotations();
            match self.peek() {
                Token::Keyword(Keyword::Public) => {
                    m.visibility = Visibility::Public;
                    self.bump();
                }
                Token::Keyword(Keyword::Protected) => {
                    m.visibility = Visibility::Protected;
                    self.bump();
                }
                Token::Keyword(Keyword::Private) => {
                    m.visibility = Visibility::Private;
                    self.bump();
                }
                Token::Keyword(Keyword::Static) => {
                    m.is_static = true;
                    self.bump();
                }
                Token::Keyword(Keyword::Final) => {
                    m.is_final = true;
                    self.bump();
                }
                Token::Keyword(Keyword::Abstract) => {
                    m.is_abstract = true;
                    self.bump();
                }
                Token::Keyword(
                    Keyword::Native
                    | Keyword::Synchronized
                    | Keyword::Transient
                    | Keyword::Volatile
                    | Keyword::Strictfp
                    | Keyword::Default,
                ) => {
                    // `synchronized` as a modifier only when followed by
                    // something other than `(`.
                    if self.check_keyword(Keyword::Synchronized)
                        && self.peek_at(1) == Token::Punct(Punct::LParen)
                    {
                        return m;
                    }
                    self.bump();
                }
                Token::Ident(w) if w == "sealed" || w == "non" => {
                    // `sealed` / `non-sealed` (the latter lexes as
                    // `non - sealed`); consume conservatively.
                    if w == "non" {
                        if self.peek_at(1) == Token::Punct(Punct::Minus)
                            && matches!(self.peek_at(2), Token::Ident(s) if s == "sealed")
                        {
                            self.bump();
                            self.bump();
                            self.bump();
                        } else {
                            return m;
                        }
                    } else {
                        self.bump();
                    }
                }
                _ => return m,
            }
        }
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    /// Parses a type reference.
    fn parse_type(&mut self) -> PResult<Type> {
        // Types recurse through type arguments (`A<B<C<...>>>`) and
        // wildcard bounds, so they run under the nesting guard too.
        self.nested(|p| p.parse_type_inner())
    }

    fn parse_type_inner(&mut self) -> PResult<Type> {
        self.skip_annotations();
        let base = match self.peek() {
            Token::Keyword(kw) => {
                let prim = match kw {
                    Keyword::Boolean => PrimitiveType::Boolean,
                    Keyword::Byte => PrimitiveType::Byte,
                    Keyword::Short => PrimitiveType::Short,
                    Keyword::Int => PrimitiveType::Int,
                    Keyword::Long => PrimitiveType::Long,
                    Keyword::Char => PrimitiveType::Char,
                    Keyword::Float => PrimitiveType::Float,
                    Keyword::Double => PrimitiveType::Double,
                    Keyword::Void => PrimitiveType::Void,
                    _ => return Err(self.error(format!("expected type, found `{kw}`"))),
                };
                self.bump();
                Type::Primitive(prim)
            }
            Token::Punct(Punct::Question) => {
                self.bump();
                if self.eat_keyword(Keyword::Extends) || self.eat_keyword(Keyword::Super) {
                    let _ = self.parse_type()?;
                }
                Type::Wildcard
            }
            Token::Ident(first) => {
                self.bump();
                // Simple (un-dotted) names — the overwhelmingly common
                // case — intern the token slice directly; the dotted
                // path is composed in the shared scratch buffer only on
                // a `.` segment. `parse_type_args` can recurse back
                // into `parse_type`, but recursive users of `name_buf`
                // append after our suffix and truncate back, so the
                // `start..` slice stays intact across the calls.
                let mut start: Option<usize> = None;
                let mut args = self.parse_type_args()?;
                while self.check_punct(Punct::Dot) && matches!(self.peek_at(1), Token::Ident(_)) {
                    self.bump();
                    let Token::Ident(seg) = self.bump() else {
                        // Checked by the loop condition; reported as a
                        // typed error instead of a panic so one bad
                        // file cannot abort a mining run.
                        return Err(ParseError::with_kind(
                            ParseErrorKind::Internal,
                            "expected identifier after `.` in type name",
                            self.span(),
                        ));
                    };
                    let s = *start.get_or_insert_with(|| {
                        let s = self.name_buf.len();
                        self.name_buf.push_str(first);
                        s
                    });
                    debug_assert!(self.name_buf.len() >= s);
                    self.name_buf.push('.');
                    self.name_buf.push_str(seg);
                    args = self.parse_type_args()?;
                }
                match start {
                    None if first == "var" => Type::Unknown,
                    None => Type::Named {
                        name: intern(first),
                        args,
                    },
                    Some(s) => {
                        let name = intern(&self.name_buf[s..]);
                        self.name_buf.truncate(s);
                        Type::Named { name, args }
                    }
                }
            }
            other => return Err(self.error(format!("expected type, found `{other}`"))),
        };

        let mut ty = base;
        loop {
            self.skip_annotations();
            if self.check_punct(Punct::LBracket) && self.peek_at(1) == Token::Punct(Punct::RBracket)
            {
                self.bump();
                self.bump();
                ty = Type::Array(Box::new(ty));
            } else {
                break;
            }
        }
        Ok(ty)
    }

    /// Parses `<T, ...>` type arguments if present; returns the parsed
    /// argument list (empty for a diamond or absent arguments).
    fn parse_type_args(&mut self) -> PResult<Vec<Type>> {
        if !self.check_punct(Punct::Lt) {
            return Ok(Vec::new());
        }
        let save = self.pos;
        self.bump();
        // Diamond `<>`.
        if self.eat_punct(Punct::Gt) {
            return Ok(Vec::new());
        }
        let mut args = Vec::new();
        loop {
            match self.parse_type() {
                Ok(t) => args.push(t),
                Err(_) => {
                    self.rewind(save);
                    return Ok(Vec::new());
                }
            }
            if self.eat_punct(Punct::Comma) {
                continue;
            }
            if self.eat_punct(Punct::Gt) {
                return Ok(args);
            }
            // Not a generic argument list after all (e.g. `a < b`).
            self.rewind(save);
            return Ok(Vec::new());
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Parses a `{ ... }` block.
    fn parse_block(&mut self) -> PResult<Block> {
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.check_punct(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.error("unterminated block"));
            }
            let stmt = self.parse_stmt()?;
            stmts.push(self.alloc_stmt(stmt));
        }
        self.bump(); // `}`
        Ok(Block { stmts })
    }

    /// Parses a single statement, returning it by value; the caller
    /// allocates it into the arena where an id is needed.
    fn parse_stmt(&mut self) -> PResult<Stmt> {
        self.nested(|p| p.parse_stmt_inner())
    }

    /// Parses a statement and allocates it, for the common child case.
    fn parse_stmt_id(&mut self) -> PResult<StmtId> {
        let stmt = self.parse_stmt()?;
        Ok(self.alloc_stmt(stmt))
    }

    /// Parses an expression and allocates it.
    fn parse_expr_id(&mut self) -> PResult<ExprId> {
        let expr = self.parse_expr()?;
        Ok(self.alloc_expr(expr))
    }

    fn parse_stmt_inner(&mut self) -> PResult<Stmt> {
        self.skip_annotations();
        match self.peek() {
            Token::Punct(Punct::LBrace) => Ok(Stmt::Block(self.parse_block()?)),
            Token::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Token::Keyword(Keyword::If) => self.parse_if(),
            Token::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr_id()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_stmt_id()?;
                Ok(Stmt::While { cond, body })
            }
            Token::Keyword(Keyword::Do) => {
                self.bump();
                let body = self.parse_stmt_id()?;
                self.expect_keyword(Keyword::While)?;
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr_id()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Token::Keyword(Keyword::For) => self.parse_for(),
            Token::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.check_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr_id()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Return(value))
            }
            Token::Keyword(Keyword::Throw) => {
                self.bump();
                let value = self.parse_expr_id()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Throw(value))
            }
            Token::Keyword(Keyword::Try) => self.parse_try(),
            Token::Keyword(Keyword::Switch) => self.parse_switch(),
            Token::Keyword(Keyword::Synchronized) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let monitor = self.parse_expr_id()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_block()?;
                Ok(Stmt::Synchronized { monitor, body })
            }
            Token::Keyword(Keyword::Break) => {
                self.bump();
                if let Token::Ident(_) = self.peek() {
                    self.bump(); // label
                }
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Break)
            }
            Token::Keyword(Keyword::Continue) => {
                self.bump();
                if let Token::Ident(_) = self.peek() {
                    self.bump(); // label
                }
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Continue)
            }
            Token::Keyword(Keyword::Assert) => {
                self.bump();
                let value = self.parse_expr_id()?;
                if self.eat_punct(Punct::Colon) {
                    let _ = self.parse_expr()?;
                }
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Assert(value))
            }
            Token::Keyword(Keyword::Class | Keyword::Interface | Keyword::Enum) => {
                Ok(Stmt::LocalType(self.parse_type_decl()?))
            }
            Token::Keyword(Keyword::Final | Keyword::Static | Keyword::Abstract) => {
                // Could be a local class or a final local variable.
                let save = self.pos;
                self.parse_modifiers();
                if self.check_keyword(Keyword::Class)
                    || self.check_keyword(Keyword::Interface)
                    || self.check_keyword(Keyword::Enum)
                {
                    self.rewind(save);
                    return Ok(Stmt::LocalType(self.parse_type_decl()?));
                }
                self.rewind(save);
                match self.try_parse_local_var()? {
                    Some(stmt) => Ok(stmt),
                    None => Err(self.error("expected declaration after modifiers")),
                }
            }
            Token::Ident(label)
                if self.peek_at(1) == Token::Punct(Punct::Colon)
                    && self.peek_at(2) != Token::Punct(Punct::Colon) =>
            {
                // Labeled statement — drop the label.
                let _ = label;
                self.bump();
                self.bump();
                self.parse_stmt()
            }
            _ => {
                // Local variable declaration or expression statement.
                if let Some(stmt) = self.try_parse_local_var()? {
                    return Ok(stmt);
                }
                let expr = self.parse_expr_id()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Expr(expr))
            }
        }
    }

    fn parse_if(&mut self) -> PResult<Stmt> {
        self.expect_keyword(Keyword::If)?;
        self.expect_punct(Punct::LParen)?;
        let cond = self.parse_expr_id()?;
        self.expect_punct(Punct::RParen)?;
        let then = self.parse_stmt_id()?;
        let alt = if self.eat_keyword(Keyword::Else) {
            Some(self.parse_stmt_id()?)
        } else {
            None
        };
        Ok(Stmt::If { cond, then, alt })
    }

    fn parse_for(&mut self) -> PResult<Stmt> {
        self.expect_keyword(Keyword::For)?;
        self.expect_punct(Punct::LParen)?;

        // Enhanced for: `Type name : expr`.
        let save = self.pos;
        match self.try_parse_foreach_header() {
            Ok(inner) => {
                let (ty, name, iterable) = inner?;
                let iterable = self.alloc_expr(iterable);
                let body = self.parse_stmt_id()?;
                return Ok(Stmt::ForEach {
                    ty,
                    name,
                    iterable,
                    body,
                });
            }
            Err(_) => {
                self.rewind(save);
            }
        }

        let mut init = Vec::new();
        if !self.check_punct(Punct::Semi) {
            if let Some(decl) = self.try_parse_local_var_no_semi()? {
                init.push(self.alloc_stmt(decl));
            } else {
                let first = self.parse_expr_id()?;
                init.push(self.alloc_stmt(Stmt::Expr(first)));
                while self.eat_punct(Punct::Comma) {
                    let next = self.parse_expr_id()?;
                    init.push(self.alloc_stmt(Stmt::Expr(next)));
                }
            }
        }
        self.expect_punct(Punct::Semi)?;
        let cond = if self.check_punct(Punct::Semi) {
            None
        } else {
            Some(self.parse_expr_id()?)
        };
        self.expect_punct(Punct::Semi)?;
        let mut update = Vec::new();
        if !self.check_punct(Punct::RParen) {
            update.push(self.parse_expr_id()?);
            while self.eat_punct(Punct::Comma) {
                update.push(self.parse_expr_id()?);
            }
        }
        self.expect_punct(Punct::RParen)?;
        let body = self.parse_stmt_id()?;
        Ok(Stmt::For {
            init,
            cond,
            update,
            body,
        })
    }

    /// Attempts `Type name :` and, on success, returns the pieces with
    /// the iterable parsed and `)` consumed.
    #[allow(clippy::type_complexity)]
    fn try_parse_foreach_header(&mut self) -> PResult<PResult<(Type, Name, Expr)>> {
        let save = self.pos;
        while self.eat_keyword(Keyword::Final) {}
        self.skip_annotations();
        let Ok(ty) = self.parse_type() else {
            self.rewind(save);
            return Err(self.error("not a foreach"));
        };
        let Ok(name) = self.expect_ident() else {
            self.rewind(save);
            return Err(self.error("not a foreach"));
        };
        if !self.eat_punct(Punct::Colon) {
            self.rewind(save);
            return Err(self.error("not a foreach"));
        }
        let iterable = match self.parse_expr() {
            Ok(e) => e,
            Err(e) => return Ok(Err(e)),
        };
        if let Err(e) = self.expect_punct(Punct::RParen) {
            return Ok(Err(e));
        }
        Ok(Ok((ty, name, iterable)))
    }

    fn parse_try(&mut self) -> PResult<Stmt> {
        self.expect_keyword(Keyword::Try)?;
        let mut resources = Vec::new();
        if self.eat_punct(Punct::LParen) {
            loop {
                if self.check_punct(Punct::RParen) {
                    break;
                }
                if let Some(decl) = self.try_parse_local_var_no_semi()? {
                    resources.push(self.alloc_stmt(decl));
                } else {
                    let expr = self.parse_expr_id()?;
                    resources.push(self.alloc_stmt(Stmt::Expr(expr)));
                }
                if !self.eat_punct(Punct::Semi) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        let block = self.parse_block()?;
        let mut catches = Vec::new();
        while self.eat_keyword(Keyword::Catch) {
            self.expect_punct(Punct::LParen)?;
            while self.eat_keyword(Keyword::Final) {}
            self.skip_annotations();
            let mut types = vec![self.parse_type()?];
            while self.eat_punct(Punct::Pipe) {
                types.push(self.parse_type()?);
            }
            let name = self.expect_ident()?;
            self.expect_punct(Punct::RParen)?;
            let body = self.parse_block()?;
            catches.push(CatchClause { types, name, body });
        }
        let finally = if self.eat_keyword(Keyword::Finally) {
            Some(self.parse_block()?)
        } else {
            None
        };
        Ok(Stmt::Try {
            resources,
            block,
            catches,
            finally,
        })
    }

    fn parse_switch(&mut self) -> PResult<Stmt> {
        self.expect_keyword(Keyword::Switch)?;
        self.expect_punct(Punct::LParen)?;
        let scrutinee = self.parse_expr_id()?;
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::LBrace)?;
        let mut cases: Vec<SwitchCase> = Vec::new();
        let mut current: Option<SwitchCase> = None;
        loop {
            if self.eat_punct(Punct::RBrace) {
                if let Some(c) = current.take() {
                    cases.push(c);
                }
                return Ok(Stmt::Switch { scrutinee, cases });
            }
            if self.at_eof() {
                return Err(self.error("unterminated switch"));
            }
            if self.check_keyword(Keyword::Case) {
                self.bump();
                let mut labels = vec![self.parse_expr_id()?];
                while self.eat_punct(Punct::Comma) {
                    labels.push(self.parse_expr_id()?);
                }
                if let Some(c) = current.take() {
                    cases.push(c);
                }
                // Arrow switch arms `case X -> stmt`.
                if self.eat_punct(Punct::Arrow) {
                    let body = vec![self.parse_stmt_id()?];
                    cases.push(SwitchCase { labels, body });
                    continue;
                }
                self.expect_punct(Punct::Colon)?;
                current = Some(SwitchCase {
                    labels,
                    body: Vec::new(),
                });
                continue;
            }
            if self.check_keyword(Keyword::Default) {
                self.bump();
                if let Some(c) = current.take() {
                    cases.push(c);
                }
                if self.eat_punct(Punct::Arrow) {
                    let body = vec![self.parse_stmt_id()?];
                    cases.push(SwitchCase {
                        labels: Vec::new(),
                        body,
                    });
                    continue;
                }
                self.expect_punct(Punct::Colon)?;
                current = Some(SwitchCase {
                    labels: Vec::new(),
                    body: Vec::new(),
                });
                continue;
            }
            let stmt = self.parse_stmt_id()?;
            match current.as_mut() {
                Some(c) => c.body.push(stmt),
                None => {
                    // Statement before any case label — malformed, keep it
                    // in an anonymous arm.
                    current = Some(SwitchCase {
                        labels: Vec::new(),
                        body: vec![stmt],
                    });
                }
            }
        }
    }

    /// Attempts to parse a local variable declaration statement
    /// (including the trailing `;`). Returns `Ok(None)` and restores the
    /// cursor when the lookahead is not a declaration.
    fn try_parse_local_var(&mut self) -> PResult<Option<Stmt>> {
        let save = self.pos;
        match self.try_parse_local_var_no_semi()? {
            Some(stmt) if self.eat_punct(Punct::Semi) => Ok(Some(stmt)),
            _ => {
                self.rewind(save);
                Ok(None)
            }
        }
    }

    /// With the cursor on an identifier, decides from raw tokens
    /// whether the stream can still begin `Type name ...`. Scans the
    /// dotted-name chain and answers `false` for shapes like
    /// `recv.method(` or `x = ...` — the common expression statements —
    /// so [`Parser::try_parse_local_var_no_semi`] can bail before
    /// speculatively building (and rewinding) a type. Returns `true`
    /// for anything involving generics or brackets; the real type
    /// parser stays the arbiter there.
    fn ident_decl_lookahead(&self) -> bool {
        let mut k = 1;
        loop {
            match self.peek_at(k) {
                Token::Punct(Punct::Dot) => {
                    if matches!(self.peek_at(k + 1), Token::Ident(_)) {
                        k += 2;
                    } else {
                        return false;
                    }
                }
                Token::Ident(_) | Token::Punct(Punct::Lt | Punct::LBracket) => return true,
                _ => return false,
            }
        }
    }

    fn try_parse_local_var_no_semi(&mut self) -> PResult<Option<Stmt>> {
        if matches!(self.peek(), Token::Ident(_)) && !self.ident_decl_lookahead() {
            return Ok(None);
        }
        let save = self.pos;
        while self.eat_keyword(Keyword::Final) {
            self.skip_annotations();
        }
        self.skip_annotations();
        let Ok(ty) = self.parse_type() else {
            self.rewind(save);
            return Ok(None);
        };
        if matches!(ty, Type::Primitive(PrimitiveType::Void)) {
            self.rewind(save);
            return Ok(None);
        }
        let Token::Ident(_) = self.peek() else {
            self.rewind(save);
            return Ok(None);
        };
        // Ensure this looks like a declarator and not e.g. `a b` garbage:
        // after the name must come `=`, `,`, `;`, `[`, or `:` (foreach
        // handled elsewhere).
        match self.peek_at(1) {
            Token::Punct(Punct::Assign | Punct::Comma | Punct::Semi | Punct::LBracket) => {}
            _ => {
                self.rewind(save);
                return Ok(None);
            }
        }
        let name = self.expect_ident()?;
        let declarators = match self.parse_declarators(name) {
            Ok(d) => d,
            Err(_) => {
                self.rewind(save);
                return Ok(None);
            }
        };
        Ok(Some(Stmt::LocalVar { ty, declarators }))
    }

    fn parse_declarators(&mut self, first_name: Name) -> PResult<Vec<Declarator>> {
        let mut declarators = Vec::new();
        let mut name = first_name;
        loop {
            let mut extra_dims = 0;
            while self.check_punct(Punct::LBracket)
                && self.peek_at(1) == Token::Punct(Punct::RBracket)
            {
                self.bump();
                self.bump();
                extra_dims += 1;
            }
            let init = if self.eat_punct(Punct::Assign) {
                if self.check_punct(Punct::LBrace) {
                    let elems = self.parse_array_init()?;
                    Some(self.alloc_expr(Expr::ArrayInit(elems)))
                } else {
                    Some(self.parse_expr_id()?)
                }
            } else {
                None
            };
            declarators.push(Declarator {
                name,
                extra_dims,
                init,
            });
            if !self.eat_punct(Punct::Comma) {
                return Ok(declarators);
            }
            name = self.expect_ident()?;
        }
    }

    fn parse_array_init(&mut self) -> PResult<Vec<ExprId>> {
        // `{{{{...}}}}` nests without passing through `parse_expr`.
        self.nested(|p| p.parse_array_init_inner())
    }

    fn parse_array_init_inner(&mut self) -> PResult<Vec<ExprId>> {
        self.expect_punct(Punct::LBrace)?;
        let mut elems = Vec::new();
        loop {
            if self.eat_punct(Punct::RBrace) {
                return Ok(elems);
            }
            if self.check_punct(Punct::LBrace) {
                let inner = self.parse_array_init()?;
                elems.push(self.alloc_expr(Expr::ArrayInit(inner)));
            } else {
                elems.push(self.parse_expr_id()?);
            }
            if !self.eat_punct(Punct::Comma) {
                self.expect_punct(Punct::RBrace)?;
                return Ok(elems);
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Parses an expression, returning it by value; the caller
    /// allocates it into the arena where an id is needed.
    fn parse_expr(&mut self) -> PResult<Expr> {
        self.nested(|p| p.parse_assignment())
    }

    fn parse_assignment(&mut self) -> PResult<Expr> {
        let lhs = self.parse_conditional()?;
        let op = match self.peek() {
            Token::Punct(Punct::Assign) => AssignOp::Assign,
            Token::Punct(Punct::PlusAssign) => AssignOp::Add,
            Token::Punct(Punct::MinusAssign) => AssignOp::Sub,
            Token::Punct(Punct::StarAssign) => AssignOp::Mul,
            Token::Punct(Punct::SlashAssign) => AssignOp::Div,
            Token::Punct(Punct::PercentAssign) => AssignOp::Rem,
            Token::Punct(Punct::AmpAssign) => AssignOp::And,
            Token::Punct(Punct::PipeAssign) => AssignOp::Or,
            Token::Punct(Punct::CaretAssign) => AssignOp::Xor,
            Token::Punct(Punct::ShlAssign) => AssignOp::Shl,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = if self.check_punct(Punct::LBrace) {
            Expr::ArrayInit(self.parse_array_init()?)
        } else {
            // `a = b = c = ...` recurses without passing through
            // `parse_expr`; count it against the nesting budget.
            self.nested(|p| p.parse_assignment())?
        };
        let lhs = self.alloc_expr(lhs);
        let rhs = self.alloc_expr(rhs);
        Ok(Expr::Assign { lhs, op, rhs })
    }

    fn parse_conditional(&mut self) -> PResult<Expr> {
        let cond = self.parse_binary(0)?;
        if self.eat_punct(Punct::Question) {
            let then = self.parse_expr()?;
            self.expect_punct(Punct::Colon)?;
            // `a ? b : c ? d : ...` chains recurse directly.
            let alt = self.nested(|p| p.parse_conditional())?;
            let cond = self.alloc_expr(cond);
            let then = self.alloc_expr(then);
            let alt = self.alloc_expr(alt);
            Ok(Expr::Conditional { cond, then, alt })
        } else {
            Ok(cond)
        }
    }

    /// Binary operator precedence, higher binds tighter.
    fn binop_at_cursor(&self) -> Option<(BinOp, u8, usize)> {
        use BinOp::*;
        Some(match self.peek() {
            Token::Punct(Punct::OrOr) => (OrOr, 1, 1),
            Token::Punct(Punct::AndAnd) => (AndAnd, 2, 1),
            Token::Punct(Punct::Pipe) => (BitOr, 3, 1),
            Token::Punct(Punct::Caret) => (BitXor, 4, 1),
            Token::Punct(Punct::Amp) => (BitAnd, 5, 1),
            Token::Punct(Punct::Eq) => (Eq, 6, 1),
            Token::Punct(Punct::NotEq) => (Ne, 6, 1),
            Token::Punct(Punct::Le) => (Le, 7, 1),
            Token::Punct(Punct::Ge) => (Ge, 7, 1),
            Token::Punct(Punct::Lt) => (Lt, 7, 1),
            Token::Punct(Punct::Gt) => {
                if self.gt_adjacent() {
                    // `>>` or `>>>`
                    let third_adjacent = {
                        if self.peek_at(2) == Token::Punct(Punct::Gt) {
                            let b = self.tokens[self.pos + 1].span;
                            let c = self.tokens[self.pos + 2].span;
                            b.end == c.start
                        } else {
                            false
                        }
                    };
                    if third_adjacent {
                        (UShr, 8, 3)
                    } else {
                        (Shr, 8, 2)
                    }
                } else {
                    (Gt, 7, 1)
                }
            }
            Token::Punct(Punct::Shl) => (Shl, 8, 1),
            Token::Punct(Punct::Plus) => (Add, 9, 1),
            Token::Punct(Punct::Minus) => (Sub, 9, 1),
            Token::Punct(Punct::Star) => (Mul, 10, 1),
            Token::Punct(Punct::Slash) => (Div, 10, 1),
            Token::Punct(Punct::Percent) => (Rem, 10, 1),
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            // `instanceof` sits at relational precedence.
            if self.check_keyword(Keyword::Instanceof) && min_prec <= 7 {
                self.bump();
                let ty = self.parse_type()?;
                // Pattern binding `instanceof T x`.
                if let Token::Ident(_) = self.peek() {
                    self.bump();
                }
                let expr = self.alloc_expr(lhs);
                lhs = Expr::InstanceOf { expr, ty };
                continue;
            }
            let Some((op, prec, ntok)) = self.binop_at_cursor() else {
                return Ok(lhs);
            };
            if prec < min_prec {
                return Ok(lhs);
            }
            for _ in 0..ntok {
                self.bump();
            }
            let rhs = self.parse_binary(prec + 1)?;
            let lhs_id = self.alloc_expr(lhs);
            let rhs_id = self.alloc_expr(rhs);
            lhs = Expr::Binary {
                op,
                lhs: lhs_id,
                rhs: rhs_id,
            };
        }
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        let op = match self.peek() {
            Token::Punct(Punct::Minus) => Some(UnOp::Neg),
            Token::Punct(Punct::Plus) => Some(UnOp::Pos),
            Token::Punct(Punct::Not) => Some(UnOp::Not),
            Token::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            Token::Punct(Punct::Inc) => Some(UnOp::PreInc),
            Token::Punct(Punct::Dec) => Some(UnOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            // `- - - - x` chains recurse without passing through
            // `parse_expr`; count them against the nesting budget.
            let expr = self.nested(|p| p.parse_unary())?;
            // Fold numeric negation into the literal so that constants
            // like `-1` abstract to the integer -1.
            if op == UnOp::Neg {
                if let Expr::Literal(Lit::Int(v)) = expr {
                    return Ok(Expr::Literal(Lit::Int(-v)));
                }
                if let Expr::Literal(Lit::Float(v)) = expr {
                    return Ok(Expr::Literal(Lit::Float(-v)));
                }
            }
            let expr = self.alloc_expr(expr);
            return Ok(Expr::Unary { op, expr });
        }

        // Cast?
        if self.check_punct(Punct::LParen) {
            if let Some(expr) = self.try_parse_cast()? {
                return Ok(expr);
            }
        }
        self.parse_postfix()
    }

    fn try_parse_cast(&mut self) -> PResult<Option<Expr>> {
        let save = self.pos;
        self.bump(); // (
        let Ok(ty) = self.parse_type() else {
            self.rewind(save);
            return Ok(None);
        };
        // `& AdditionalBound` in casts.
        while self.eat_punct(Punct::Amp) {
            if self.parse_type().is_err() {
                self.rewind(save);
                return Ok(None);
            }
        }
        if !self.eat_punct(Punct::RParen) {
            self.rewind(save);
            return Ok(None);
        }
        let is_primitive_or_array = matches!(ty, Type::Primitive(_) | Type::Array(_));
        let castable_follows = match self.peek() {
            Token::Ident(_)
            | Token::IntLit(..)
            | Token::FloatLit(_)
            | Token::CharLit(_)
            | Token::StrLit { .. }
            | Token::BoolLit(_)
            | Token::Null
            | Token::Keyword(Keyword::New | Keyword::This | Keyword::Super)
            | Token::Punct(Punct::LParen | Punct::Not | Punct::Tilde) => true,
            Token::Punct(Punct::Minus | Punct::Plus) => is_primitive_or_array,
            _ => false,
        };
        if !castable_follows {
            self.rewind(save);
            return Ok(None);
        }
        // `(A)(A)(A)...x` cast chains recurse via `parse_unary`.
        let expr = self.nested(|p| p.parse_unary())?;
        let expr = self.alloc_expr(expr);
        Ok(Some(Expr::Cast { ty, expr }))
    }

    fn parse_postfix(&mut self) -> PResult<Expr> {
        let mut expr = self.parse_primary()?;
        loop {
            match self.peek() {
                Token::Punct(Punct::Dot) => {
                    self.bump();
                    match self.peek() {
                        Token::Ident(name) => {
                            self.bump();
                            // Generic method call `obj.<T>m(...)`.
                            if self.check_punct(Punct::LParen) {
                                self.bump();
                                let args = self.parse_args()?;
                                let target = self.alloc_expr(expr);
                                expr = Expr::MethodCall {
                                    target: Some(target),
                                    name: intern(name),
                                    args,
                                };
                            } else if let Expr::Name(dotted) = expr {
                                let start = self.name_buf.len();
                                self.name_buf.push_str(&dotted);
                                self.name_buf.push('.');
                                self.name_buf.push_str(name);
                                expr = Expr::Name(intern(&self.name_buf[start..]));
                                self.name_buf.truncate(start);
                            } else {
                                let target = self.alloc_expr(expr);
                                expr = Expr::FieldAccess {
                                    target,
                                    name: intern(name),
                                };
                            }
                        }
                        Token::Punct(Punct::Lt) => {
                            // explicit type args on a call
                            self.skip_type_params();
                            let name = self.expect_ident()?;
                            self.expect_punct(Punct::LParen)?;
                            let args = self.parse_args()?;
                            let target = self.alloc_expr(expr);
                            expr = Expr::MethodCall {
                                target: Some(target),
                                name,
                                args,
                            };
                        }
                        Token::Keyword(Keyword::Class) => {
                            self.bump();
                            let ty = match &expr {
                                Expr::Name(dotted) => Type::named(dotted.clone()),
                                _ => Type::Unknown,
                            };
                            expr = Expr::ClassLiteral(ty);
                        }
                        Token::Keyword(Keyword::This) => {
                            self.bump();
                            expr = Expr::This;
                        }
                        Token::Keyword(Keyword::New) => {
                            // Qualified class instance creation — rare;
                            // parse the `new` as usual and ignore the
                            // qualifier.
                            self.bump();
                            expr = self.parse_new()?;
                        }
                        Token::Keyword(Keyword::Super) => {
                            self.bump();
                            expr = Expr::Super;
                        }
                        other => {
                            return Err(self.error(format!(
                                "expected member name after `.`, found `{other}`"
                            )));
                        }
                    }
                }
                Token::Punct(Punct::LBracket) => {
                    self.bump();
                    let index = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    let array = self.alloc_expr(expr);
                    let index = self.alloc_expr(index);
                    expr = Expr::ArrayAccess { array, index };
                }
                Token::Punct(Punct::Inc) => {
                    self.bump();
                    let inner = self.alloc_expr(expr);
                    expr = Expr::Unary {
                        op: UnOp::PostInc,
                        expr: inner,
                    };
                }
                Token::Punct(Punct::Dec) => {
                    self.bump();
                    let inner = self.alloc_expr(expr);
                    expr = Expr::Unary {
                        op: UnOp::PostDec,
                        expr: inner,
                    };
                }
                Token::Punct(Punct::ColonColon) => {
                    self.bump();
                    // `T::new` or `T::method`, possibly with type args.
                    self.skip_type_params();
                    if !self.eat_keyword(Keyword::New) {
                        let _ = self.expect_ident()?;
                    }
                    expr = Expr::MethodRef;
                }
                _ => return Ok(expr),
            }
        }
    }

    fn parse_args(&mut self) -> PResult<Vec<ExprId>> {
        // `(` already consumed.
        let mut args = Vec::new();
        if self.eat_punct(Punct::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.parse_expr_id()?);
            if self.eat_punct(Punct::Comma) {
                continue;
            }
            self.expect_punct(Punct::RParen)?;
            return Ok(args);
        }
    }

    fn parse_new(&mut self) -> PResult<Expr> {
        // `new` already consumed.
        let ty = self.parse_type()?;
        // Array creation?
        if self.check_punct(Punct::LBracket) {
            let mut elem_ty = ty;
            let mut dims = Vec::new();
            let mut _empty_dims = 0usize;
            while self.eat_punct(Punct::LBracket) {
                if self.eat_punct(Punct::RBracket) {
                    _empty_dims += 1;
                } else {
                    dims.push(self.parse_expr_id()?);
                    self.expect_punct(Punct::RBracket)?;
                }
            }
            // `parse_type` may already have swallowed `[]` pairs into the
            // type; unwrap one level so `ty` is the element type when an
            // initializer follows.
            let init = if self.check_punct(Punct::LBrace) {
                if let Type::Array(inner) = elem_ty {
                    elem_ty = *inner;
                }
                Some(self.parse_array_init()?)
            } else {
                None
            };
            return Ok(Expr::NewArray {
                ty: elem_ty,
                dims,
                init,
            });
        }
        if self.check_punct(Punct::LBrace) {
            // `new int[] {...}` path where the brackets were parsed as
            // part of the type.
            if let Type::Array(inner) = ty {
                let init = Some(self.parse_array_init()?);
                return Ok(Expr::NewArray {
                    ty: *inner,
                    dims: Vec::new(),
                    init,
                });
            }
        }
        self.expect_punct(Punct::LParen)?;
        let args = self.parse_args()?;
        let anon_body = if self.check_punct(Punct::LBrace) {
            self.skip_balanced(Punct::LBrace, Punct::RBrace);
            true
        } else {
            false
        };
        Ok(Expr::New {
            ty,
            args,
            anon_body,
        })
    }

    /// Detects `( ... ) ->` lambda heads.
    fn lparen_starts_lambda(&self) -> bool {
        debug_assert!(self.check_punct(Punct::LParen));
        let mut depth = 0usize;
        let mut k = 0usize;
        loop {
            match self.peek_at(k) {
                Token::Punct(Punct::LParen) => depth += 1,
                Token::Punct(Punct::RParen) => {
                    depth -= 1;
                    if depth == 0 {
                        return self.peek_at(k + 1) == Token::Punct(Punct::Arrow);
                    }
                }
                Token::Eof => return false,
                _ => {}
            }
            k += 1;
        }
    }

    fn parse_lambda_after_head(&mut self) -> PResult<Expr> {
        // Cursor is at `->`.
        self.expect_punct(Punct::Arrow)?;
        if self.check_punct(Punct::LBrace) {
            self.skip_balanced(Punct::LBrace, Punct::RBrace);
        } else {
            let _ = self.parse_expr()?;
        }
        Ok(Expr::Lambda)
    }

    fn parse_primary(&mut self) -> PResult<Expr> {
        match self.peek() {
            Token::IntLit(v, _) => {
                self.bump();
                Ok(Expr::Literal(Lit::Int(v)))
            }
            Token::FloatLit(v) => {
                self.bump();
                Ok(Expr::Literal(Lit::Float(v)))
            }
            Token::CharLit(c) => {
                self.bump();
                Ok(Expr::Literal(Lit::Char(c)))
            }
            Token::StrLit { raw, escaped } => {
                self.bump();
                Ok(Expr::Literal(Lit::Str(if escaped {
                    intern_owned(Token::cook_str(raw, escaped))
                } else {
                    intern(raw)
                })))
            }
            Token::BoolLit(b) => {
                self.bump();
                Ok(Expr::Literal(Lit::Bool(b)))
            }
            Token::Null => {
                self.bump();
                Ok(Expr::Literal(Lit::Null))
            }
            Token::Keyword(Keyword::This) => {
                self.bump();
                if self.eat_punct(Punct::LParen) {
                    let args = self.parse_args()?;
                    return Ok(Expr::MethodCall {
                        target: None,
                        name: "this".into(),
                        args,
                    });
                }
                Ok(Expr::This)
            }
            Token::Keyword(Keyword::Super) => {
                self.bump();
                if self.eat_punct(Punct::LParen) {
                    let args = self.parse_args()?;
                    return Ok(Expr::MethodCall {
                        target: None,
                        name: "super".into(),
                        args,
                    });
                }
                Ok(Expr::Super)
            }
            Token::Keyword(Keyword::New) => {
                self.bump();
                self.skip_type_params();
                self.parse_new()
            }
            Token::Keyword(
                kw @ (Keyword::Int
                | Keyword::Long
                | Keyword::Short
                | Keyword::Byte
                | Keyword::Char
                | Keyword::Float
                | Keyword::Double
                | Keyword::Boolean
                | Keyword::Void),
            ) => {
                // `int.class`, `int[].class`
                let _ = kw;
                let ty = self.parse_type()?;
                self.expect_punct(Punct::Dot)?;
                self.expect_keyword(Keyword::Class)?;
                Ok(Expr::ClassLiteral(ty))
            }
            Token::Punct(Punct::LParen) => {
                if self.lparen_starts_lambda() {
                    self.skip_balanced(Punct::LParen, Punct::RParen);
                    return self.parse_lambda_after_head();
                }
                self.bump();
                let inner = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(inner)
            }
            Token::Ident(name) => {
                if self.peek_at(1) == Token::Punct(Punct::Arrow) {
                    // `x -> ...`
                    self.bump();
                    return self.parse_lambda_after_head();
                }
                self.bump();
                if self.eat_punct(Punct::LParen) {
                    let args = self.parse_args()?;
                    return Ok(Expr::MethodCall {
                        target: None,
                        name: intern(name),
                        args,
                    });
                }
                Ok(Expr::Name(intern(name)))
            }
            other => Err(self.error(format!("expected expression, found `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> CompilationUnit {
        parse_compilation_unit(src).expect("parse failed")
    }

    fn first_method_body(unit: &CompilationUnit) -> &Block {
        unit.types[0]
            .methods()
            .next()
            .expect("no method")
            .body
            .as_ref()
            .expect("no body")
    }

    /// Resolves a declarator's initializer through the unit's arena.
    fn init_expr<'a>(unit: &'a CompilationUnit, d: &Declarator) -> &'a Expr {
        unit.ast.expr(d.init.expect("no initializer"))
    }

    #[test]
    fn parses_package_and_imports() {
        let unit = parse(
            "package com.example.app;\n\
             import javax.crypto.Cipher;\n\
             import static org.junit.Assert.*;\n\
             class A {}",
        );
        assert_eq!(unit.package.as_deref(), Some("com.example.app"));
        assert_eq!(unit.imports.len(), 2);
        assert_eq!(&*unit.imports[0].path, "javax.crypto.Cipher");
        assert!(unit.imports[1].is_static);
        assert!(unit.imports[1].on_demand);
        assert_eq!(&*unit.imports[1].path, "org.junit.Assert");
    }

    #[test]
    fn parses_fields_and_methods() {
        let unit = parse(
            r#"
            public class AESCipher {
                private static final String ALGO = "AES";
                Cipher enc, dec;
                public byte[] encrypt(byte[] data) throws Exception {
                    return enc.doFinal(data);
                }
                AESCipher() {}
            }
            "#,
        );
        let class = &unit.types[0];
        assert_eq!(&*class.name, "AESCipher");
        assert_eq!(class.fields().count(), 2);
        let methods: Vec<_> = class.methods().collect();
        assert_eq!(methods.len(), 2);
        assert!(!methods[0].is_constructor);
        assert!(methods[1].is_constructor);
        assert_eq!(methods[0].throws.len(), 1);
    }

    #[test]
    fn parses_generic_types() {
        let unit = parse("class A { java.util.Map<String, java.util.List<Integer>> m; }");
        let field = unit.types[0].fields().next().unwrap();
        let Type::Named { name, args } = &field.ty else {
            panic!("expected named type")
        };
        assert_eq!(&**name, "java.util.Map");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn parses_method_calls_and_names() {
        let unit = parse(
            r#"
            class A {
                void m() throws Exception {
                    Cipher c = Cipher.getInstance("AES");
                    c.init(Cipher.ENCRYPT_MODE, key);
                }
            }
            "#,
        );
        let body = first_method_body(&unit);
        assert_eq!(body.stmts.len(), 2);
        let Stmt::LocalVar { ty, declarators } = unit.ast.stmt(body.stmts[0]) else {
            panic!("expected local var")
        };
        assert_eq!(ty.display_name(), "Cipher");
        let Expr::MethodCall { target, name, args } = init_expr(&unit, &declarators[0]) else {
            panic!("expected call initializer")
        };
        assert_eq!(&**name, "getInstance");
        assert_eq!(args.len(), 1);
        assert_eq!(
            target.map(|t| unit.ast.expr(t)),
            Some(&Expr::Name("Cipher".into()))
        );
        let Stmt::Expr(call) = unit.ast.stmt(body.stmts[1]) else {
            panic!("expected expr stmt")
        };
        let Expr::MethodCall { name, args, .. } = unit.ast.expr(*call) else {
            panic!("expected call stmt")
        };
        assert_eq!(&**name, "init");
        assert_eq!(
            unit.ast.expr(args[0]),
            &Expr::Name("Cipher.ENCRYPT_MODE".into())
        );
    }

    #[test]
    fn parses_new_and_array_creation() {
        let unit = parse(
            r#"
            class A {
                void m() {
                    IvParameterSpec iv = new IvParameterSpec(new byte[16]);
                    byte[] key = new byte[] { 1, 2, 3 };
                    int[] xs = { 4, 5 };
                }
            }
            "#,
        );
        let body = first_method_body(&unit);
        assert_eq!(body.stmts.len(), 3);
        let Stmt::LocalVar { declarators, .. } = unit.ast.stmt(body.stmts[1]) else {
            panic!()
        };
        let Expr::NewArray {
            init: Some(elems), ..
        } = init_expr(&unit, &declarators[0])
        else {
            panic!("expected array literal")
        };
        assert_eq!(elems.len(), 3);
    }

    #[test]
    fn parses_control_flow() {
        let unit = parse(
            r#"
            class A {
                int m(int x) {
                    if (x > 0) { return 1; } else return -1;
                    while (x < 10) x++;
                    do { x--; } while (x > 0);
                    for (int i = 0; i < 3; i++) { x += i; }
                    for (String s : names) { use(s); }
                    switch (x) { case 1: return 1; default: break; }
                    try (AutoCloseable c = open()) { risky(); }
                    catch (IOException | RuntimeException e) { log(e); }
                    finally { cleanup(); }
                    synchronized (this) { x = 0; }
                    assert x >= 0 : "neg";
                    return x;
                }
            }
            "#,
        );
        let body = first_method_body(&unit);
        assert_eq!(unit.types[0].methods().count(), 1);
        assert!(body.stmts.len() >= 10);
        assert!(unit.diagnostics.is_empty(), "{:?}", unit.diagnostics);
    }

    #[test]
    fn parses_casts_and_conditionals() {
        let unit = parse(
            r#"
            class A {
                void m() {
                    byte[] b = (byte[]) obj;
                    int i = (int) l;
                    String s = (String) o;
                    int v = ok ? 1 : 2;
                    Object x = (foo) - 1;
                }
            }
            "#,
        );
        let body = first_method_body(&unit);
        let Stmt::LocalVar { declarators, .. } = unit.ast.stmt(body.stmts[0]) else {
            panic!()
        };
        assert!(matches!(
            init_expr(&unit, &declarators[0]),
            Expr::Cast { .. }
        ));
        // `(foo) - 1` must parse as subtraction, not a cast of -1.
        let Stmt::LocalVar { declarators, .. } = unit.ast.stmt(body.stmts[4]) else {
            panic!()
        };
        assert!(matches!(
            init_expr(&unit, &declarators[0]),
            Expr::Binary { .. }
        ));
    }

    #[test]
    fn parses_lambdas_and_method_refs_opaquely() {
        let unit = parse(
            r#"
            class A {
                void m() {
                    run(() -> { risky(); });
                    map(x -> x + 1);
                    forEach(System.out::println);
                    Supplier<Foo> s = Foo::new;
                }
            }
            "#,
        );
        assert!(unit.diagnostics.is_empty(), "{:?}", unit.diagnostics);
        let body = first_method_body(&unit);
        assert_eq!(body.stmts.len(), 4);
    }

    #[test]
    fn shift_vs_generics() {
        let unit = parse(
            r#"
            class A {
                void m() {
                    Map<String, List<String>> m = null;
                    int x = a >> 2;
                    int y = b >>> 3;
                    boolean c = p > q;
                }
            }
            "#,
        );
        assert!(unit.diagnostics.is_empty(), "{:?}", unit.diagnostics);
        let body = first_method_body(&unit);
        let Stmt::LocalVar { declarators, .. } = unit.ast.stmt(body.stmts[1]) else {
            panic!()
        };
        assert!(matches!(
            init_expr(&unit, &declarators[0]),
            Expr::Binary { op: BinOp::Shr, .. }
        ));
        let Stmt::LocalVar { declarators, .. } = unit.ast.stmt(body.stmts[2]) else {
            panic!()
        };
        assert!(matches!(
            init_expr(&unit, &declarators[0]),
            Expr::Binary {
                op: BinOp::UShr,
                ..
            }
        ));
    }

    #[test]
    fn recovers_from_broken_member() {
        let unit = parse(
            r#"
            class A {
                void good1() { fine(); }
                void broken( { this is not java }
                void good2() { alsoFine(); }
            }
            "#,
        );
        let names: Vec<_> = unit.types[0].methods().map(|m| m.name.clone()).collect();
        assert!(names.contains(&Name::from("good1")));
        assert!(names.contains(&Name::from("good2")));
        assert!(!unit.diagnostics.is_empty());
    }

    #[test]
    fn parses_enum() {
        let unit = parse(
            r#"
            enum Mode { ECB, CBC("iv"), GCM { int tag() { return 128; } };
                int bits;
                int bits() { return bits; }
            }
            "#,
        );
        let decl = &unit.types[0];
        assert_eq!(decl.kind, TypeKind::Enum);
        assert_eq!(decl.enum_constants, ["ECB", "CBC", "GCM"].map(Name::from));
        assert_eq!(decl.methods().count(), 1);
    }

    #[test]
    fn parses_nested_and_anonymous_classes() {
        let unit = parse(
            r#"
            class Outer {
                class Inner { void x() {} }
                void m() {
                    Runnable r = new Runnable() { public void run() {} };
                }
            }
            "#,
        );
        assert_eq!(unit.all_types().len(), 2);
        let body = unit.types[0]
            .methods()
            .next()
            .unwrap()
            .body
            .as_ref()
            .unwrap();
        let Stmt::LocalVar { declarators, .. } = unit.ast.stmt(body.stmts[0]) else {
            panic!()
        };
        assert!(matches!(
            init_expr(&unit, &declarators[0]),
            Expr::New {
                anon_body: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_annotations_everywhere() {
        let unit = parse(
            r#"
            @SuppressWarnings("all")
            public class A {
                @Deprecated int f = 0;
                @Override public void m(@NonNull String s) {}
            }
            "#,
        );
        assert!(unit.diagnostics.is_empty(), "{:?}", unit.diagnostics);
        assert_eq!(unit.types[0].fields().count(), 1);
    }

    #[test]
    fn string_plus_concatenation() {
        let unit =
            parse(r#"class A { void m() { d = MessageDigest.getInstance("SHA" + "-256"); } }"#);
        assert!(unit.diagnostics.is_empty());
        let body = first_method_body(&unit);
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn negative_literal_folds() {
        let unit = parse("class A { int x = -42; }");
        let f = unit.types[0].fields().next().unwrap();
        assert_eq!(
            init_expr(&unit, &f.declarators[0]),
            &Expr::Literal(Lit::Int(-42))
        );
    }

    #[test]
    fn labeled_statements() {
        let unit = parse("class A { void m() { outer: for (;;) { break; } } }");
        assert!(unit.diagnostics.is_empty(), "{:?}", unit.diagnostics);
    }

    #[test]
    fn interface_members() {
        let unit = parse(
            r#"
            interface I {
                int CONST = 5;
                void abstractMethod();
                default int d() { return CONST; }
            }
            "#,
        );
        let decl = &unit.types[0];
        assert_eq!(decl.kind, TypeKind::Interface);
        assert_eq!(decl.methods().count(), 2);
        assert!(decl.methods().next().unwrap().body.is_none());
    }
}
