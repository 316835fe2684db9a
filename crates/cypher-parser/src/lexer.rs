//! A hand-written lexer for the Cypher fragment supported by GraphQE-rs.
//!
//! The lexer converts the raw query text into a vector of [`Token`]s that
//! borrow their text from it. It resolves keywords case-insensitively,
//! checks string escapes (the parser resolves them with [`unescape`] when it
//! builds the literal), and skips whitespace and comments (`//` line
//! comments and `/* ... */` block comments).

use crate::token::{Token, TokenKind};
use crate::{ParseError, Span};

/// The most tokens [`Lexer::tokenize`] reserves room for before it has
/// lexed them.
const MAX_RESERVED_TOKENS: usize = 1024;

/// Lexes an entire query string into tokens (terminated by an `Eof` token).
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>, ParseError> {
    Lexer::new(input).tokenize()
}

/// The value of a string literal whose body (the text between its quotes)
/// the lexer accepted: each escape sequence resolved, in one allocation.
pub fn unescape(body: &str) -> String {
    let mut value = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(index) = rest.find('\\') {
        value.push_str(&rest[..index]);
        let mut escaped = rest[index + 1..].chars();
        match escaped.next() {
            Some('n') => value.push('\n'),
            Some('t') => value.push('\t'),
            Some('r') => value.push('\r'),
            // `\\`, `\'` and `\"` stand for the character itself; the lexer
            // admits no other escape.
            Some(other) => value.push(other),
            None => {}
        }
        rest = escaped.as_str();
    }
    value.push_str(rest);
    value
}

/// The lexer state: a byte cursor over the input string.
pub struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer { input, bytes: input.as_bytes(), pos: 0 }
    }

    /// Consumes the lexer and produces the full token stream.
    pub fn tokenize(mut self) -> Result<Vec<Token<'a>>, ParseError> {
        // Corpus queries average under three bytes per token, so one
        // allocation holds the stream of a typical query. The reservation is
        // bounded: the input comes from outside, and a long run of
        // whitespace holds no tokens.
        let mut tokens = Vec::with_capacity((self.input.len() / 2 + 1).min(MAX_RESERVED_TOKENS));
        loop {
            let token = self.next_token()?;
            let is_eof = token.kind == TokenKind::Eof;
            tokens.push(token);
            if is_eof {
                break;
            }
        }
        Ok(tokens)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    let mut closed = false;
                    while self.pos < self.bytes.len() {
                        if self.peek() == Some(b'*') && self.peek_at(1) == Some(b'/') {
                            self.pos += 2;
                            closed = true;
                            break;
                        }
                        self.pos += 1;
                    }
                    if !closed {
                        return Err(ParseError::lexical(
                            "unterminated block comment",
                            Span::new(start, self.pos),
                        ));
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produces the next token, skipping whitespace and comments.
    pub fn next_token(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_trivia()?;
        let start = self.pos;
        let Some(b) = self.peek() else {
            return Ok(Token::new(TokenKind::Eof, Span::new(start, start)));
        };

        let kind = match b {
            b'(' => self.single(TokenKind::LParen),
            b')' => self.single(TokenKind::RParen),
            b'[' => self.single(TokenKind::LBracket),
            b']' => self.single(TokenKind::RBracket),
            b'{' => self.single(TokenKind::LBrace),
            b'}' => self.single(TokenKind::RBrace),
            b',' => self.single(TokenKind::Comma),
            b':' => self.single(TokenKind::Colon),
            b';' => self.single(TokenKind::Semicolon),
            b'|' => self.single(TokenKind::Pipe),
            b'+' => self.single(TokenKind::Plus),
            b'-' => self.single(TokenKind::Minus),
            b'*' => self.single(TokenKind::Star),
            b'/' => self.single(TokenKind::Slash),
            b'%' => self.single(TokenKind::Percent),
            b'^' => self.single(TokenKind::Caret),
            b'=' => self.single(TokenKind::Eq),
            b'.' => {
                if self.peek_at(1) == Some(b'.') {
                    self.pos += 2;
                    TokenKind::DotDot
                } else if self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                    // A float literal starting with `.`, e.g. `.5`.
                    return self.lex_number(start);
                } else {
                    self.single(TokenKind::Dot)
                }
            }
            b'<' => {
                if self.peek_at(1) == Some(b'=') {
                    self.pos += 2;
                    TokenKind::Le
                } else if self.peek_at(1) == Some(b'>') {
                    self.pos += 2;
                    TokenKind::Neq
                } else {
                    self.single(TokenKind::Lt)
                }
            }
            b'>' => {
                if self.peek_at(1) == Some(b'=') {
                    self.pos += 2;
                    TokenKind::Ge
                } else {
                    self.single(TokenKind::Gt)
                }
            }
            b'!' => {
                if self.peek_at(1) == Some(b'=') {
                    self.pos += 2;
                    TokenKind::Neq
                } else {
                    return Err(ParseError::lexical(
                        "unexpected character `!` (did you mean `!=`?)",
                        Span::new(start, start + 1),
                    ));
                }
            }
            b'$' => {
                self.pos += 1;
                let name = self.lex_ident_text();
                if name.is_empty() {
                    return Err(ParseError::lexical(
                        "expected parameter name after `$`",
                        Span::new(start, self.pos),
                    ));
                }
                TokenKind::Parameter(name)
            }
            b'\'' | b'"' => return self.lex_string(start, b),
            b'`' => return self.lex_backtick_ident(start),
            b'0'..=b'9' => return self.lex_number(start),
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let text = self.lex_ident_text();
                TokenKind::keyword_from_str(text).unwrap_or(TokenKind::Ident(text))
            }
            other => {
                return Err(ParseError::lexical(
                    format!("unexpected character `{}`", other as char),
                    Span::new(start, start + 1),
                ));
            }
        };
        Ok(Token::new(kind, Span::new(start, self.pos)))
    }

    fn single(&mut self, kind: TokenKind<'a>) -> TokenKind<'a> {
        self.pos += 1;
        kind
    }

    fn lex_ident_text(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        &self.input[start..self.pos]
    }

    fn lex_backtick_ident(&mut self, start: usize) -> Result<Token<'a>, ParseError> {
        // The identifier is the text between the opening backtick and the
        // next one, taken as a slice so multi-byte characters stay whole.
        let body = start + 1;
        let Some(len) = self.input[body..].find('`') else {
            self.pos = self.input.len();
            return Err(ParseError::lexical(
                "unterminated backtick-quoted identifier",
                Span::new(start, self.pos),
            ));
        };
        self.pos = body + len + 1;
        let text = &self.input[body..body + len];
        Ok(Token::new(TokenKind::Ident(text), Span::new(start, self.pos)))
    }

    fn lex_string(&mut self, start: usize, quote: u8) -> Result<Token<'a>, ParseError> {
        // Consume the opening quote.
        self.pos += 1;
        let body = self.pos;
        loop {
            // The bytes of a multi-byte character are never a quote or a
            // backslash, so stepping through them byte by byte is safe.
            match self.bump() {
                Some(b) if b == quote => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n' | b't' | b'r' | b'\\' | b'\'' | b'"') => {}
                    Some(other) => {
                        return Err(ParseError::lexical(
                            format!("unknown escape sequence `\\{}`", other as char),
                            Span::new(self.pos - 2, self.pos),
                        ));
                    }
                    None => {
                        return Err(ParseError::lexical(
                            "unterminated string literal",
                            Span::new(start, self.pos),
                        ));
                    }
                },
                Some(_) => {}
                None => {
                    return Err(ParseError::lexical(
                        "unterminated string literal",
                        Span::new(start, self.pos),
                    ));
                }
            }
        }
        let body = &self.input[body..self.pos - 1];
        Ok(Token::new(TokenKind::StringLit(body), Span::new(start, self.pos)))
    }

    fn lex_number(&mut self, start: usize) -> Result<Token<'a>, ParseError> {
        let mut saw_dot = false;
        let mut saw_exp = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !saw_dot && !saw_exp => {
                    // `1..3` is a range, not a float: only treat `.` as part of
                    // the number when followed by a digit.
                    if self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                        saw_dot = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                b'e' | b'E' if !saw_exp => {
                    let next = self.peek_at(1);
                    let next2 = self.peek_at(2);
                    let exp_ok = next.is_some_and(|c| c.is_ascii_digit())
                        || (matches!(next, Some(b'+') | Some(b'-'))
                            && next2.is_some_and(|c| c.is_ascii_digit()));
                    if exp_ok {
                        saw_exp = true;
                        self.pos += 1;
                        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                            self.pos += 1;
                        }
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        let kind = if saw_dot || saw_exp {
            let value: f64 = text.parse().map_err(|_| {
                ParseError::lexical(
                    format!("invalid float literal `{text}`"),
                    Span::new(start, self.pos),
                )
            })?;
            TokenKind::Float(value)
        } else {
            let value: i64 = text.parse().map_err(|_| {
                ParseError::lexical(
                    format!("integer literal `{text}` out of range"),
                    Span::new(start, self.pos),
                )
            })?;
            TokenKind::Integer(value)
        };
        Ok(Token::new(kind, Span::new(start, self.pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .filter(|k| *k != TokenKind::Eof)
            .collect()
    }

    #[test]
    fn lexes_simple_match() {
        let ks = kinds("MATCH (n:Person) RETURN n");
        assert_eq!(
            ks,
            vec![
                TokenKind::Match,
                TokenKind::LParen,
                TokenKind::Ident("n"),
                TokenKind::Colon,
                TokenKind::Ident("Person"),
                TokenKind::RParen,
                TokenKind::Return,
                TokenKind::Ident("n"),
            ]
        );
    }

    #[test]
    fn lexes_relationship_arrows_as_punctuation() {
        let ks = kinds("(a)-[r]->(b)");
        assert_eq!(
            ks,
            vec![
                TokenKind::LParen,
                TokenKind::Ident("a"),
                TokenKind::RParen,
                TokenKind::Minus,
                TokenKind::LBracket,
                TokenKind::Ident("r"),
                TokenKind::RBracket,
                TokenKind::Minus,
                TokenKind::Gt,
                TokenKind::LParen,
                TokenKind::Ident("b"),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn lexes_incoming_arrow_without_confusing_comparisons() {
        let ks = kinds("(a)<-[r]-(b) WHERE a.x <= 3 AND a.y <> 4");
        assert!(ks.contains(&TokenKind::Lt));
        assert!(ks.contains(&TokenKind::Le));
        assert!(ks.contains(&TokenKind::Neq));
    }

    #[test]
    fn lexes_numbers_and_ranges() {
        assert_eq!(kinds("42"), vec![TokenKind::Integer(42)]);
        assert_eq!(kinds("3.25"), vec![TokenKind::Float(3.25)]);
        assert_eq!(kinds("1e3"), vec![TokenKind::Float(1000.0)]);
        // `1..3` must lex as integer, dotdot, integer (variable-length paths).
        assert_eq!(
            kinds("*1..3"),
            vec![TokenKind::Star, TokenKind::Integer(1), TokenKind::DotDot, TokenKind::Integer(3)]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(kinds("'Alice'"), vec![TokenKind::StringLit("Alice")]);
        assert_eq!(kinds("\"Bob\""), vec![TokenKind::StringLit("Bob")]);
        // The token keeps the escapes; `unescape` resolves them.
        assert_eq!(kinds(r"'it\'s'"), vec![TokenKind::StringLit(r"it\'s")]);
        assert_eq!(kinds(r#"'line\nbreak'"#), vec![TokenKind::StringLit(r"line\nbreak")]);
        assert_eq!(kinds(r#""say \"hi\"""#), vec![TokenKind::StringLit(r#"say \"hi\""#)]);
        assert_eq!(unescape(r"it\'s"), "it's");
        assert_eq!(unescape(r"line\nbreak"), "line\nbreak");
        assert_eq!(unescape(r#"say \"hi\""#), "say \"hi\"");
        assert_eq!(unescape(r"\t\r\\\\x\\"), "\t\r\\\\x\\");
        assert_eq!(unescape("héllo→"), "héllo→");
    }

    #[test]
    fn lexes_unicode_strings() {
        assert_eq!(kinds("'héllo→'"), vec![TokenKind::StringLit("héllo→")]);
        assert_eq!(kinds(r"'é\'→'"), vec![TokenKind::StringLit(r"é\'→")]);
    }

    #[test]
    fn lexes_parameters_and_backticks() {
        assert_eq!(kinds("$limit"), vec![TokenKind::Parameter("limit")]);
        assert_eq!(kinds("`weird name`"), vec![TokenKind::Ident("weird name")]);
        assert_eq!(kinds("`Größe`"), vec![TokenKind::Ident("Größe")]);
        assert_eq!(kinds("``"), vec![TokenKind::Ident("")]);
        assert!(tokenize("`open").is_err());
    }

    #[test]
    fn skips_comments() {
        let ks = kinds("MATCH // a line comment\n (n) /* block \n comment */ RETURN n");
        assert_eq!(ks.len(), 6);
        assert_eq!(ks[0], TokenKind::Match);
        assert_eq!(ks[4], TokenKind::Return);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("match return optional"),
            vec![TokenKind::Match, TokenKind::Return, TokenKind::Optional]
        );
    }

    #[test]
    fn reports_errors_with_spans() {
        let err = tokenize("MATCH (n) WHERE n.x = 'unterminated").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
        let err = tokenize("MATCH @").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
        let err = tokenize("/* never closed").unwrap_err();
        assert!(err.to_string().contains("block comment"));
    }

    #[test]
    fn bang_equals_is_not_equal() {
        assert_eq!(
            kinds("a != b"),
            vec![TokenKind::Ident("a"), TokenKind::Neq, TokenKind::Ident("b")]
        );
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn count_is_a_keyword_token() {
        assert_eq!(kinds("COUNT"), vec![TokenKind::Count]);
    }

    #[test]
    fn float_leading_dot() {
        assert_eq!(kinds(".5"), vec![TokenKind::Float(0.5)]);
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(tokenize("99999999999999999999999").is_err());
    }
}
