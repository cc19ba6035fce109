//! A hand-written lexer for the Java subset.
//!
//! The lexer strips comments and whitespace, resolves string/char
//! escapes, and handles the numeric literal zoo (hex, octal, binary,
//! underscores, suffixes). `>>` and `>>>` are deliberately left as
//! sequences of `>` tokens so that generic type arguments nest without
//! lexer feedback; the parser reassembles shift operators.

use crate::error::{ParseError, ParseErrorKind, Span};
use crate::limits::Limits;
use crate::token::{Keyword, Punct, SpannedToken, Token};

/// Byte-class table: `true` for bytes that can *continue* an
/// identifier (ASCII alphanumerics, `_`, `$`, and all non-ASCII lead
/// and continuation bytes — identifiers are matched bytewise, so any
/// `>= 0x80` byte keeps the word going). One table load replaces the
/// four-way comparison chain in the hottest scan loop.
const WORD_CONT: [bool; 256] = {
    let mut t = [false; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        t[i] = b.is_ascii_alphanumeric() || b == b'_' || b == b'$' || b >= 0x80;
        i += 1;
    }
    t
};

/// Byte-class table for bytes that can *start* an identifier: as
/// [`WORD_CONT`] minus the ASCII digits.
const WORD_START: [bool; 256] = {
    let mut t = WORD_CONT;
    let mut b = b'0';
    while b <= b'9' {
        t[b as usize] = false;
        b += 1;
    }
    t
};

/// Streaming lexer over a source string.
#[derive(Debug)]
pub(crate) struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: u32,
    limits: Limits,
}

impl<'s> Lexer<'s> {
    /// Creates a lexer over `source` with [`Limits::DEFAULT`] budgets.
    pub(crate) fn new(source: &'s str) -> Self {
        Lexer::with_limits(source, Limits::DEFAULT)
    }

    /// Creates a lexer over `source` with explicit resource budgets.
    pub(crate) fn with_limits(source: &'s str, limits: Limits) -> Self {
        Lexer {
            src: source,
            bytes: source.as_bytes(),
            pos: 0,
            line: 1,
            limits,
        }
    }

    /// Lexes the entire input, appending a trailing [`Token::Eof`].
    ///
    /// # Errors
    ///
    /// Returns an error for unterminated strings/comments/chars,
    /// malformed numeric literals, and inputs that exceed the
    /// configured [`Limits`].
    pub(crate) fn tokenize(mut self) -> Result<Vec<SpannedToken<'s>>, ParseError> {
        if self.src.len() > self.limits.max_source_bytes {
            return Err(ParseError::with_kind(
                ParseErrorKind::SourceTooLarge,
                format!(
                    "source is {} bytes, budget is {}",
                    self.src.len(),
                    self.limits.max_source_bytes
                ),
                Span::new(0, self.src.len(), 1),
            ));
        }
        // Java source averages well above five bytes per token, so this
        // over-reserves slightly and the token vector never regrows.
        let mut out = Vec::with_capacity(self.src.len() / 5 + 8);
        loop {
            let tok = self.next_token()?;
            if tok.span.end - tok.span.start > self.limits.max_token_bytes {
                return Err(ParseError::with_kind(
                    ParseErrorKind::TokenTooLong,
                    format!(
                        "token is {} bytes, budget is {}",
                        tok.span.end - tok.span.start,
                        self.limits.max_token_bytes
                    ),
                    tok.span,
                ));
            }
            if out.len() >= self.limits.max_tokens {
                return Err(ParseError::with_kind(
                    ParseErrorKind::TokenBudgetExceeded,
                    format!("more than {} tokens", self.limits.max_tokens),
                    tok.span,
                ));
            }
            let done = tok.token == Token::Eof;
            out.push(tok);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn span_from(&self, start: usize, line: u32) -> Span {
        Span::new(start, self.pos, line)
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    // Tight whitespace scan: no per-byte function call,
                    // newlines counted inline.
                    let mut pos = self.pos;
                    let mut line = self.line;
                    while let Some(&b) = self.bytes.get(pos) {
                        if !b.is_ascii_whitespace() {
                            break;
                        }
                        line += u32::from(b == b'\n');
                        pos += 1;
                    }
                    self.pos = pos;
                    self.line = line;
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    // Line comments cannot contain a newline: plain scan.
                    let mut pos = self.pos;
                    while let Some(&b) = self.bytes.get(pos) {
                        if b == b'\n' {
                            break;
                        }
                        pos += 1;
                    }
                    self.pos = pos;
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    let line = self.line;
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek_at(1) == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(ParseError::with_kind(
                                    ParseErrorKind::UnterminatedComment,
                                    "unterminated block comment",
                                    self.span_from(start, line),
                                ));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<SpannedToken<'s>, ParseError> {
        self.skip_trivia()?;
        let start = self.pos;
        let line = self.line;
        let Some(b) = self.peek() else {
            return Ok(SpannedToken {
                token: Token::Eof,
                span: self.span_from(start, line),
            });
        };

        let token = if WORD_START[b as usize] {
            self.lex_word()
        } else if b.is_ascii_digit()
            || (b == b'.' && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()))
        {
            self.lex_number()?
        } else if b == b'"' {
            self.lex_string()?
        } else if b == b'\'' {
            self.lex_char()?
        } else {
            self.lex_punct()?
        };
        Ok(SpannedToken {
            token,
            span: self.span_from(start, line),
        })
    }

    fn lex_word(&mut self) -> Token<'s> {
        let start = self.pos;
        // Tight scan: word characters never include `\n`, so the
        // line-tracking `bump` is unnecessary per byte.
        let mut pos = self.pos;
        while let Some(&b) = self.bytes.get(pos) {
            if WORD_CONT[b as usize] {
                pos += 1;
            } else {
                break;
            }
        }
        self.pos = pos;
        let word = &self.src[start..self.pos];
        // Keywords and word-literals are all lowercase ASCII; skip the
        // table probe for everything else (most identifiers).
        if !word.as_bytes().first().is_some_and(u8::is_ascii_lowercase) {
            return Token::Ident(word);
        }
        match word {
            "true" => Token::BoolLit(true),
            "false" => Token::BoolLit(false),
            "null" => Token::Null,
            _ => match Keyword::lookup(word) {
                Some(kw) => Token::Keyword(kw),
                None => Token::Ident(word),
            },
        }
    }

    fn lex_number(&mut self) -> Result<Token<'s>, ParseError> {
        let start = self.pos;
        let line = self.line;

        if self.peek() == Some(b'0') && matches!(self.peek_at(1), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b.is_ascii_hexdigit() || b == b'_')
            {
                self.bump();
            }
            let text = strip_underscores(&self.src[digits_start..self.pos]);
            let is_long = self.consume_long_suffix();
            // Wrap like javac does for e.g. 0xFFFFFFFF.
            let value = u64::from_str_radix(&text, 16).map_err(|_| {
                ParseError::with_kind(
                    ParseErrorKind::InvalidLiteral,
                    "invalid hex literal",
                    self.span_from(start, line),
                )
            })? as i64;
            return Ok(Token::IntLit(value, is_long));
        }
        if self.peek() == Some(b'0') && matches!(self.peek_at(1), Some(b'b') | Some(b'B')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b == b'0' || b == b'1' || b == b'_')
            {
                self.bump();
            }
            let text = strip_underscores(&self.src[digits_start..self.pos]);
            let is_long = self.consume_long_suffix();
            let value = u64::from_str_radix(&text, 2).map_err(|_| {
                ParseError::with_kind(
                    ParseErrorKind::InvalidLiteral,
                    "invalid binary literal",
                    self.span_from(start, line),
                )
            })? as i64;
            return Ok(Token::IntLit(value, is_long));
        }

        let mut saw_dot = false;
        let mut saw_exp = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'_' => {
                    self.bump();
                }
                b'.' if !saw_dot
                    && !saw_exp
                    && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) =>
                {
                    saw_dot = true;
                    self.bump();
                }
                b'.' if !saw_dot && !saw_exp && self.pos > start => {
                    // `1.` — a trailing dot is valid in Java floats, but a
                    // dot followed by an identifier is member access on a
                    // literal; treat digit-dot-nondigit as end of number.
                    break;
                }
                b'e' | b'E'
                    if !saw_exp
                        && self
                            .peek_at(1)
                            .is_some_and(|c| c.is_ascii_digit() || c == b'+' || c == b'-') =>
                {
                    saw_exp = true;
                    self.bump();
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let text = strip_underscores(&self.src[start..self.pos]);

        match self.peek() {
            Some(b'f') | Some(b'F') | Some(b'd') | Some(b'D') => {
                self.bump();
                let value = text.parse::<f64>().map_err(|_| {
                    ParseError::with_kind(
                        ParseErrorKind::InvalidLiteral,
                        "invalid float literal",
                        self.span_from(start, line),
                    )
                })?;
                return Ok(Token::FloatLit(value));
            }
            _ => {}
        }
        if saw_dot || saw_exp {
            let value = text.parse::<f64>().map_err(|_| {
                ParseError::with_kind(
                    ParseErrorKind::InvalidLiteral,
                    "invalid float literal",
                    self.span_from(start, line),
                )
            })?;
            return Ok(Token::FloatLit(value));
        }
        let is_long = self.consume_long_suffix();
        // Octal (leading zero) is parsed as octal, matching Java.
        let value = if text.len() > 1 && text.starts_with('0') {
            i64::from_str_radix(&text[1..], 8).unwrap_or(0)
        } else {
            // Out-of-range decimal literals (e.g. Long.MIN_VALUE's magnitude)
            // saturate rather than failing the whole file.
            text.parse::<i64>().unwrap_or(i64::MAX)
        };
        Ok(Token::IntLit(value, is_long))
    }

    fn consume_long_suffix(&mut self) -> bool {
        if matches!(self.peek(), Some(b'l') | Some(b'L')) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn lex_escape(&mut self, start: usize, line: u32) -> Result<char, ParseError> {
        // The leading backslash has been consumed.
        let Some(b) = self.bump() else {
            return Err(ParseError::with_kind(
                ParseErrorKind::InvalidEscape,
                "unterminated escape sequence",
                self.span_from(start, line),
            ));
        };
        Ok(match b {
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'0' => '\0',
            b'\'' => '\'',
            b'"' => '"',
            b'\\' => '\\',
            b'u' => {
                // \uXXXX (possibly multiple 'u's per the JLS)
                while self.peek() == Some(b'u') {
                    self.bump();
                }
                let mut value: u32 = 0;
                for _ in 0..4 {
                    let Some(d) = self.bump() else {
                        return Err(ParseError::with_kind(
                            ParseErrorKind::InvalidEscape,
                            "unterminated unicode escape",
                            self.span_from(start, line),
                        ));
                    };
                    let digit = (d as char).to_digit(16).ok_or_else(|| {
                        ParseError::with_kind(
                            ParseErrorKind::InvalidEscape,
                            "invalid unicode escape",
                            self.span_from(start, line),
                        )
                    })?;
                    value = value * 16 + digit;
                }
                char::from_u32(value).unwrap_or('\u{fffd}')
            }
            other => other as char,
        })
    }

    /// The full (possibly multi-byte) character at the cursor. `pos`
    /// is always on a character boundary by construction; if that
    /// invariant is ever violated, report a typed internal error
    /// instead of panicking on the slice.
    fn cur_char(&self, start: usize, line: u32) -> Result<char, ParseError> {
        self.src
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
            .ok_or_else(|| {
                ParseError::with_kind(
                    ParseErrorKind::Internal,
                    "lexer lost a character boundary",
                    self.span_from(start, line),
                )
            })
    }

    fn lex_string(&mut self) -> Result<Token<'s>, ParseError> {
        let start = self.pos;
        let line = self.line;
        self.bump(); // opening quote
        let content_start = self.pos;
        let mut escaped = false;
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    return Err(ParseError::with_kind(
                        ParseErrorKind::UnterminatedString,
                        "unterminated string literal",
                        self.span_from(start, line),
                    ));
                }
                Some(b'"') => {
                    let raw = &self.src[content_start..self.pos];
                    self.bump();
                    return Ok(Token::StrLit { raw, escaped });
                }
                Some(b'\\') => {
                    escaped = true;
                    self.bump();
                    // Validate (and consume) the escape now so
                    // malformed escapes still fail at lex time; the
                    // resolved character is materialized only if the
                    // literal is ever cooked.
                    self.lex_escape(start, line)?;
                }
                Some(_) => {
                    // Literal content, borrowed — never copied. A
                    // plain byte-advance is safe: newlines cannot hide
                    // inside multi-byte UTF-8 sequences, and `pos`
                    // stays on a boundary because it only stops on the
                    // ASCII bytes matched above.
                    self.pos += 1;
                }
            }
        }
    }

    fn lex_char(&mut self) -> Result<Token<'s>, ParseError> {
        let start = self.pos;
        let line = self.line;
        self.bump(); // opening quote
        let ch = match self.peek() {
            None => {
                return Err(ParseError::with_kind(
                    ParseErrorKind::UnterminatedChar,
                    "unterminated char literal",
                    self.span_from(start, line),
                ));
            }
            Some(b'\\') => {
                self.bump();
                self.lex_escape(start, line)?
            }
            Some(b) if b < 0x80 => {
                self.bump();
                b as char
            }
            Some(_) => {
                let ch = self.cur_char(start, line)?;
                for _ in 0..ch.len_utf8() {
                    self.bump();
                }
                ch
            }
        };
        if self.peek() != Some(b'\'') {
            return Err(ParseError::with_kind(
                ParseErrorKind::UnterminatedChar,
                "unterminated char literal",
                self.span_from(start, line),
            ));
        }
        self.bump();
        Ok(Token::CharLit(ch))
    }

    fn lex_punct(&mut self) -> Result<Token<'s>, ParseError> {
        use Punct::*;
        let start = self.pos;
        let line = self.line;
        let Some(b) = self.bump() else {
            return Err(ParseError::with_kind(
                ParseErrorKind::Internal,
                "lexer read past end of input",
                self.span_from(start, line),
            ));
        };
        let two = self.peek();
        let three = self.peek_at(1);
        let p = match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'@' => At,
            b'?' => Question,
            b'~' => Tilde,
            b'.' => {
                if two == Some(b'.') && three == Some(b'.') {
                    self.bump();
                    self.bump();
                    Ellipsis
                } else {
                    Dot
                }
            }
            b':' => {
                if two == Some(b':') {
                    self.bump();
                    ColonColon
                } else {
                    Colon
                }
            }
            b'=' => {
                if two == Some(b'=') {
                    self.bump();
                    Eq
                } else {
                    Assign
                }
            }
            b'!' => {
                if two == Some(b'=') {
                    self.bump();
                    NotEq
                } else {
                    Not
                }
            }
            b'<' => match (two, three) {
                (Some(b'='), _) => {
                    self.bump();
                    Le
                }
                (Some(b'<'), Some(b'=')) => {
                    self.bump();
                    self.bump();
                    ShlAssign
                }
                (Some(b'<'), _) => {
                    self.bump();
                    Shl
                }
                _ => Lt,
            },
            b'>' => {
                // `>>`/`>>>`/`>>=` stay as separate `>` tokens except `>=`.
                if two == Some(b'=') {
                    self.bump();
                    Ge
                } else {
                    Gt
                }
            }
            b'&' => match two {
                Some(b'&') => {
                    self.bump();
                    AndAnd
                }
                Some(b'=') => {
                    self.bump();
                    AmpAssign
                }
                _ => Amp,
            },
            b'|' => match two {
                Some(b'|') => {
                    self.bump();
                    OrOr
                }
                Some(b'=') => {
                    self.bump();
                    PipeAssign
                }
                _ => Pipe,
            },
            b'^' => {
                if two == Some(b'=') {
                    self.bump();
                    CaretAssign
                } else {
                    Caret
                }
            }
            b'+' => match two {
                Some(b'+') => {
                    self.bump();
                    Inc
                }
                Some(b'=') => {
                    self.bump();
                    PlusAssign
                }
                _ => Plus,
            },
            b'-' => match two {
                Some(b'-') => {
                    self.bump();
                    Dec
                }
                Some(b'=') => {
                    self.bump();
                    MinusAssign
                }
                Some(b'>') => {
                    self.bump();
                    Arrow
                }
                _ => Minus,
            },
            b'*' => {
                if two == Some(b'=') {
                    self.bump();
                    StarAssign
                } else {
                    Star
                }
            }
            b'/' => {
                if two == Some(b'=') {
                    self.bump();
                    SlashAssign
                } else {
                    Slash
                }
            }
            b'%' => {
                if two == Some(b'=') {
                    self.bump();
                    PercentAssign
                } else {
                    Percent
                }
            }
            other => {
                return Err(ParseError::with_kind(
                    ParseErrorKind::UnexpectedChar,
                    format!("unexpected character {:?}", other as char),
                    self.span_from(start, line),
                ));
            }
        };
        Ok(Token::Punct(p))
    }
}

/// Drops `_` digit separators, borrowing when there are none — the
/// common case, which therefore costs no allocation.
fn strip_underscores(digits: &str) -> std::borrow::Cow<'_, str> {
    if digits.contains('_') {
        std::borrow::Cow::Owned(digits.chars().filter(|c| *c != '_').collect())
    } else {
        std::borrow::Cow::Borrowed(digits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn keywords_and_identifiers() {
        assert_eq!(
            toks("class Foo"),
            vec![
                Token::Keyword(Keyword::Class),
                Token::Ident("Foo"),
                Token::Eof
            ]
        );
    }

    #[test]
    fn contextual_var_is_identifier() {
        assert_eq!(toks("var")[0], Token::Ident("var"));
    }

    #[test]
    fn string_escapes() {
        let tok = toks(r#""a\n\t\"\\""#)[0];
        assert_eq!(
            tok,
            Token::StrLit {
                raw: r#"a\n\t\"\\"#,
                escaped: true
            }
        );
        let Token::StrLit { raw, escaped } = tok else {
            unreachable!()
        };
        assert_eq!(Token::cook_str(raw, escaped), "a\n\t\"\\");
    }

    #[test]
    fn unicode_escape() {
        let Token::StrLit { raw, escaped } = toks(r#""\u0041""#)[0] else {
            panic!("not a string literal")
        };
        assert!(escaped);
        assert_eq!(Token::cook_str(raw, escaped), "A");
    }

    #[test]
    fn plain_string_borrows_without_escapes() {
        assert_eq!(
            toks(r#""AES/GCM/NoPadding""#)[0],
            Token::StrLit {
                raw: "AES/GCM/NoPadding",
                escaped: false
            }
        );
    }

    #[test]
    fn char_literals() {
        assert_eq!(toks(r"'x'")[0], Token::CharLit('x'));
        assert_eq!(toks(r"'\n'")[0], Token::CharLit('\n'));
    }

    #[test]
    fn int_literals() {
        assert_eq!(toks("42")[0], Token::IntLit(42, false));
        assert_eq!(toks("0x10")[0], Token::IntLit(16, false));
        assert_eq!(toks("0b101")[0], Token::IntLit(5, false));
        assert_eq!(toks("017")[0], Token::IntLit(15, false));
        assert_eq!(toks("1_000")[0], Token::IntLit(1000, false));
        assert_eq!(toks("7L")[0], Token::IntLit(7, true));
    }

    #[test]
    fn hex_wraps_like_javac() {
        assert_eq!(toks("0xFFFFFFFFFFFFFFFF")[0], Token::IntLit(-1, false));
    }

    #[test]
    fn float_literals() {
        assert_eq!(toks("1.5")[0], Token::FloatLit(1.5));
        assert_eq!(toks("2f")[0], Token::FloatLit(2.0));
        assert_eq!(toks("1e3")[0], Token::FloatLit(1000.0));
        assert_eq!(toks("2.5d")[0], Token::FloatLit(2.5));
    }

    #[test]
    fn member_access_on_int_is_not_float() {
        // `x.1` never occurs but `foo.bar` after an int: `1.toString()` is
        // invalid Java anyway; ensure `1.` followed by identifier stops.
        let t = toks("1.x");
        assert_eq!(t[0], Token::IntLit(1, false));
        assert_eq!(t[1], Token::Punct(Punct::Dot));
    }

    #[test]
    fn comments_are_trivia() {
        assert_eq!(
            toks("a // line\n /* block \n */ b"),
            vec![Token::Ident("a"), Token::Ident("b"), Token::Eof]
        );
    }

    #[test]
    fn shift_right_is_two_gt_tokens() {
        assert_eq!(
            toks(">>"),
            vec![Token::Punct(Punct::Gt), Token::Punct(Punct::Gt), Token::Eof]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a += b >>> 2"),
            vec![
                Token::Ident("a"),
                Token::Punct(Punct::PlusAssign),
                Token::Ident("b"),
                Token::Punct(Punct::Gt),
                Token::Punct(Punct::Gt),
                Token::Punct(Punct::Gt),
                Token::IntLit(2, false),
                Token::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(Lexer::new("\"abc").tokenize().is_err());
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(Lexer::new("/* abc").tokenize().is_err());
    }

    #[test]
    fn spans_track_lines() {
        let toks = Lexer::new("a\nb").tokenize().unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
    }
}
