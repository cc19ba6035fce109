//! Token definitions for the Java lexer.

use crate::error::Span;
use std::fmt;

/// The Java keywords recognised by the lexer.
///
/// Contextual keywords (`var`, `record`, `yield`) are lexed as
/// identifiers and disambiguated by the parser where needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Keyword {
    Abstract,
    Assert,
    Boolean,
    Break,
    Byte,
    Case,
    Catch,
    Char,
    Class,
    Const,
    Continue,
    Default,
    Do,
    Double,
    Else,
    Enum,
    Extends,
    Final,
    Finally,
    Float,
    For,
    Goto,
    If,
    Implements,
    Import,
    Instanceof,
    Int,
    Interface,
    Long,
    Native,
    New,
    Package,
    Private,
    Protected,
    Public,
    Return,
    Short,
    Static,
    Strictfp,
    Super,
    Switch,
    Synchronized,
    This,
    Throw,
    Throws,
    Transient,
    Try,
    Void,
    Volatile,
    While,
}

impl Keyword {
    /// Looks up the keyword for `word`, if any.
    pub(crate) fn lookup(word: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match word {
            "abstract" => Abstract,
            "assert" => Assert,
            "boolean" => Boolean,
            "break" => Break,
            "byte" => Byte,
            "case" => Case,
            "catch" => Catch,
            "char" => Char,
            "class" => Class,
            "const" => Const,
            "continue" => Continue,
            "default" => Default,
            "do" => Do,
            "double" => Double,
            "else" => Else,
            "enum" => Enum,
            "extends" => Extends,
            "final" => Final,
            "finally" => Finally,
            "float" => Float,
            "for" => For,
            "goto" => Goto,
            "if" => If,
            "implements" => Implements,
            "import" => Import,
            "instanceof" => Instanceof,
            "int" => Int,
            "interface" => Interface,
            "long" => Long,
            "native" => Native,
            "new" => New,
            "package" => Package,
            "private" => Private,
            "protected" => Protected,
            "public" => Public,
            "return" => Return,
            "short" => Short,
            "static" => Static,
            "strictfp" => Strictfp,
            "super" => Super,
            "switch" => Switch,
            "synchronized" => Synchronized,
            "this" => This,
            "throw" => Throw,
            "throws" => Throws,
            "transient" => Transient,
            "try" => Try,
            "void" => Void,
            "volatile" => Volatile,
            "while" => While,
            _ => return None,
        })
    }

    /// The source-level spelling of the keyword.
    pub(crate) fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Abstract => "abstract",
            Assert => "assert",
            Boolean => "boolean",
            Break => "break",
            Byte => "byte",
            Case => "case",
            Catch => "catch",
            Char => "char",
            Class => "class",
            Const => "const",
            Continue => "continue",
            Default => "default",
            Do => "do",
            Double => "double",
            Else => "else",
            Enum => "enum",
            Extends => "extends",
            Final => "final",
            Finally => "finally",
            Float => "float",
            For => "for",
            Goto => "goto",
            If => "if",
            Implements => "implements",
            Import => "import",
            Instanceof => "instanceof",
            Int => "int",
            Interface => "interface",
            Long => "long",
            Native => "native",
            New => "new",
            Package => "package",
            Private => "private",
            Protected => "protected",
            Public => "public",
            Return => "return",
            Short => "short",
            Static => "static",
            Strictfp => "strictfp",
            Super => "super",
            Switch => "switch",
            Synchronized => "synchronized",
            This => "this",
            Throw => "throw",
            Throws => "throws",
            Transient => "transient",
            Try => "try",
            Void => "void",
            Volatile => "volatile",
            While => "while",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Punctuation and operator tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Ellipsis,
    At,
    ColonColon,
    Arrow,
    Question,
    Colon,
    Assign,
    Eq,
    NotEq,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Not,
    Tilde,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Inc,
    Dec,
    Amp,
    Pipe,
    Caret,
    Shl,
    // Note: `>>` and `>>>` are *not* lexed as single tokens; the parser
    // assembles them from `>` tokens so that nested generics such as
    // `Map<String, List<String>>` lex correctly.
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
}

impl Punct {
    /// The source-level spelling of the punctuation token.
    pub(crate) fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Ellipsis => "...",
            At => "@",
            ColonColon => "::",
            Arrow => "->",
            Question => "?",
            Colon => ":",
            Assign => "=",
            Eq => "==",
            NotEq => "!=",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            AndAnd => "&&",
            OrOr => "||",
            Not => "!",
            Tilde => "~",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Inc => "++",
            Dec => "--",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Shl => "<<",
            PlusAssign => "+=",
            MinusAssign => "-=",
            StarAssign => "*=",
            SlashAssign => "/=",
            PercentAssign => "%=",
            AmpAssign => "&=",
            PipeAssign => "|=",
            CaretAssign => "^=",
            ShlAssign => "<<=",
        }
    }
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A lexed token. Zero-copy: identifier and string-literal tokens
/// borrow slices of the source instead of owning a `String`, which
/// makes `Token` (and [`SpannedToken`]) `Copy` — the parser inspects
/// tokens freely without ever allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'s> {
    /// An identifier (including contextual keywords such as `var`),
    /// as a slice of the source.
    Ident(&'s str),
    /// A reserved keyword.
    Keyword(Keyword),
    /// Punctuation or an operator.
    Punct(Punct),
    /// An integer literal (`int` or `long`); the flag is `true` for `long`.
    IntLit(i64, bool),
    /// A floating-point literal.
    FloatLit(f64),
    /// A character literal.
    CharLit(char),
    /// A string literal: the raw source slice between the quotes, plus
    /// whether it contains escape sequences. The lexer *validates*
    /// escapes while scanning (so malformed escapes still fail at lex
    /// time) but resolves them only on demand via `Token::cook_str`
    /// — unescaped literals (the overwhelming majority) never allocate.
    StrLit {
        /// The characters between the quotes, escapes unresolved.
        raw: &'s str,
        /// `true` when `raw` contains at least one backslash escape.
        escaped: bool,
    },
    /// `true` or `false`.
    BoolLit(bool),
    /// The `null` literal.
    Null,
    /// End of input.
    Eof,
}

impl<'s> Token<'s> {
    /// Resolves the escapes of a lexer-validated string-literal body.
    /// Allocates only when the literal actually contains escapes.
    pub(crate) fn cook_str(raw: &str, escaped: bool) -> String {
        if !escaped {
            return raw.to_owned();
        }
        unescape(raw)
    }
}

/// Resolves the backslash escapes of a string-literal body the lexer
/// has already validated. Mirrors the lexer's escape rules exactly:
/// the named escapes, `\0`, `\uXXXX` with any number of `u`s (out of
/// range maps to U+FFFD), and unknown escapes standing for themselves.
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        // The lexer guarantees every escape is well-formed.
        let Some(e) = chars.next() else { break };
        out.push(match e {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            'b' => '\u{8}',
            'f' => '\u{c}',
            '0' => '\0',
            'u' => {
                let mut rest = chars.clone();
                while rest.clone().next() == Some('u') {
                    rest.next();
                }
                let mut value: u32 = 0;
                for _ in 0..4 {
                    let d = rest.next().and_then(|d| d.to_digit(16)).unwrap_or(0);
                    value = value * 16 + d;
                }
                chars = rest;
                char::from_u32(value).unwrap_or('\u{fffd}')
            }
            other => other,
        });
    }
    out
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => f.write_str(s),
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Punct(p) => write!(f, "{p}"),
            Token::IntLit(v, is_long) => {
                write!(f, "{v}{}", if *is_long { "L" } else { "" })
            }
            Token::FloatLit(v) => write!(f, "{v}"),
            Token::CharLit(c) => write!(f, "'{c}'"),
            Token::StrLit { raw, escaped } => {
                write!(f, "{:?}", Token::cook_str(raw, *escaped))
            }
            Token::BoolLit(b) => write!(f, "{b}"),
            Token::Null => f.write_str("null"),
            Token::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpannedToken<'s> {
    /// The token itself.
    pub token: Token<'s>,
    /// Where it came from.
    pub span: Span,
}
