//! Token kinds produced by the [`crate::lexer::Lexer`].
//!
//! Cypher keywords are case-insensitive; the lexer normalizes them into
//! dedicated [`TokenKind`] variants so the parser never has to compare
//! identifier text against keyword strings. Tokens borrow their text from
//! the query: lexing allocates nothing but the token vector, and the parser
//! copies a name or literal only when it moves it into the AST.

use std::fmt;

use crate::lexer::unescape;
use crate::Span;

/// A single lexical token together with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// What kind of token this is.
    pub kind: TokenKind<'a>,
    /// Byte range in the original query text.
    pub span: Span,
}

impl<'a> Token<'a> {
    /// Creates a new token.
    pub fn new(kind: TokenKind<'a>, span: Span) -> Self {
        Token { kind, span }
    }
}

/// The kind of a lexical token.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // the keyword variants are self-describing
pub enum TokenKind<'a> {
    // ---- literals & names -------------------------------------------------
    /// An identifier such as a variable, label, property key or function
    /// name (a backtick-quoted one without its backticks).
    Ident(&'a str),
    /// A signless integer literal.
    Integer(i64),
    /// A signless floating point literal.
    Float(f64),
    /// A single- or double-quoted string literal: the text between the
    /// quotes, whose escape sequences the lexer has checked but not yet
    /// resolved (see [`unescape`]).
    StringLit(&'a str),
    /// A query parameter, e.g. `$param` (the name without the `$`).
    Parameter(&'a str),

    // ---- keywords ---------------------------------------------------------
    Match,
    Optional,
    Where,
    Return,
    With,
    Unwind,
    As,
    Union,
    All,
    Distinct,
    Order,
    By,
    Asc,
    Desc,
    Limit,
    Skip,
    And,
    Or,
    Xor,
    Not,
    In,
    Is,
    Null,
    True,
    False,
    Exists,
    Starts,
    Ends,
    Contains,
    Case,
    When,
    Then,
    Else,
    End,
    Count,

    // ---- punctuation ------------------------------------------------------
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `|`
    Pipe,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `^`
    Caret,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input sentinel.
    Eof,
}

impl TokenKind<'_> {
    /// Returns `true` if this token can begin a clause (used for error recovery).
    pub fn is_clause_start(&self) -> bool {
        matches!(
            self,
            TokenKind::Match
                | TokenKind::Optional
                | TokenKind::Return
                | TokenKind::With
                | TokenKind::Unwind
                | TokenKind::Union
        )
    }

    /// Human-readable description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Integer(v) => format!("integer `{v}`"),
            TokenKind::Float(v) => format!("float `{v}`"),
            TokenKind::StringLit(s) => format!("string {:?}", unescape(s)),
            TokenKind::Parameter(p) => format!("parameter `${p}`"),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{other}`"),
        }
    }

    /// Maps an identifier to a keyword token, if it is one.
    ///
    /// Cypher keywords are matched case-insensitively. `COUNT` is kept as a
    /// keyword because `COUNT(*)` needs special parsing.
    pub fn keyword_from_str(ident: &str) -> Option<TokenKind<'static>> {
        // Every keyword is ASCII and at most 10 bytes long: upper-case into a
        // stack buffer instead of allocating.
        let mut buffer = [0u8; 10];
        let upper = buffer.get_mut(..ident.len())?;
        upper.copy_from_slice(ident.as_bytes());
        upper.make_ascii_uppercase();
        let kind = match &*upper {
            b"MATCH" => TokenKind::Match,
            b"OPTIONAL" => TokenKind::Optional,
            b"WHERE" => TokenKind::Where,
            b"RETURN" => TokenKind::Return,
            b"WITH" => TokenKind::With,
            b"UNWIND" => TokenKind::Unwind,
            b"AS" => TokenKind::As,
            b"UNION" => TokenKind::Union,
            b"ALL" => TokenKind::All,
            b"DISTINCT" => TokenKind::Distinct,
            b"ORDER" => TokenKind::Order,
            b"BY" => TokenKind::By,
            b"ASC" | b"ASCENDING" => TokenKind::Asc,
            b"DESC" | b"DESCENDING" => TokenKind::Desc,
            b"LIMIT" => TokenKind::Limit,
            b"SKIP" => TokenKind::Skip,
            b"AND" => TokenKind::And,
            b"OR" => TokenKind::Or,
            b"XOR" => TokenKind::Xor,
            b"NOT" => TokenKind::Not,
            b"IN" => TokenKind::In,
            b"IS" => TokenKind::Is,
            b"NULL" => TokenKind::Null,
            b"TRUE" => TokenKind::True,
            b"FALSE" => TokenKind::False,
            b"EXISTS" => TokenKind::Exists,
            b"STARTS" => TokenKind::Starts,
            b"ENDS" => TokenKind::Ends,
            b"CONTAINS" => TokenKind::Contains,
            b"CASE" => TokenKind::Case,
            b"WHEN" => TokenKind::When,
            b"THEN" => TokenKind::Then,
            b"ELSE" => TokenKind::Else,
            b"END" => TokenKind::End,
            b"COUNT" => TokenKind::Count,
            _ => return None,
        };
        Some(kind)
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TokenKind::Ident(s) => return write!(f, "{s}"),
            TokenKind::Integer(v) => return write!(f, "{v}"),
            TokenKind::Float(v) => return write!(f, "{v}"),
            TokenKind::StringLit(s) => return write!(f, "'{}'", unescape(s)),
            TokenKind::Parameter(p) => return write!(f, "${p}"),
            TokenKind::Match => "MATCH",
            TokenKind::Optional => "OPTIONAL",
            TokenKind::Where => "WHERE",
            TokenKind::Return => "RETURN",
            TokenKind::With => "WITH",
            TokenKind::Unwind => "UNWIND",
            TokenKind::As => "AS",
            TokenKind::Union => "UNION",
            TokenKind::All => "ALL",
            TokenKind::Distinct => "DISTINCT",
            TokenKind::Order => "ORDER",
            TokenKind::By => "BY",
            TokenKind::Asc => "ASC",
            TokenKind::Desc => "DESC",
            TokenKind::Limit => "LIMIT",
            TokenKind::Skip => "SKIP",
            TokenKind::And => "AND",
            TokenKind::Or => "OR",
            TokenKind::Xor => "XOR",
            TokenKind::Not => "NOT",
            TokenKind::In => "IN",
            TokenKind::Is => "IS",
            TokenKind::Null => "NULL",
            TokenKind::True => "TRUE",
            TokenKind::False => "FALSE",
            TokenKind::Exists => "EXISTS",
            TokenKind::Starts => "STARTS",
            TokenKind::Ends => "ENDS",
            TokenKind::Contains => "CONTAINS",
            TokenKind::Case => "CASE",
            TokenKind::When => "WHEN",
            TokenKind::Then => "THEN",
            TokenKind::Else => "ELSE",
            TokenKind::End => "END",
            TokenKind::Count => "COUNT",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::Comma => ",",
            TokenKind::Colon => ":",
            TokenKind::Semicolon => ";",
            TokenKind::Dot => ".",
            TokenKind::DotDot => "..",
            TokenKind::Pipe => "|",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Caret => "^",
            TokenKind::Eq => "=",
            TokenKind::Neq => "<>",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::Eof => "<eof>",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(TokenKind::keyword_from_str("match"), Some(TokenKind::Match));
        assert_eq!(TokenKind::keyword_from_str("MaTcH"), Some(TokenKind::Match));
        assert_eq!(TokenKind::keyword_from_str("RETURN"), Some(TokenKind::Return));
        assert_eq!(TokenKind::keyword_from_str("ascending"), Some(TokenKind::Asc));
        assert_eq!(TokenKind::keyword_from_str("person"), None);
        assert_eq!(TokenKind::keyword_from_str("DescendinG"), Some(TokenKind::Desc));
        assert_eq!(TokenKind::keyword_from_str("descendings"), None);
        assert_eq!(TokenKind::keyword_from_str("Größe"), None);
        assert_eq!(TokenKind::keyword_from_str(""), None);
    }

    #[test]
    fn clause_start_detection() {
        assert!(TokenKind::Match.is_clause_start());
        assert!(TokenKind::Return.is_clause_start());
        assert!(!TokenKind::Where.is_clause_start());
        assert!(!TokenKind::Ident("x").is_clause_start());
    }

    #[test]
    fn display_round_trips_punctuation() {
        assert_eq!(TokenKind::Le.to_string(), "<=");
        assert_eq!(TokenKind::Neq.to_string(), "<>");
        assert_eq!(TokenKind::DotDot.to_string(), "..");
        assert_eq!(TokenKind::Parameter("p").to_string(), "$p");
        assert_eq!(TokenKind::StringLit(r"it\'s").to_string(), "'it's'");
    }

    #[test]
    fn describe_mentions_payload() {
        assert!(TokenKind::Ident("foo").describe().contains("foo"));
        assert_eq!(TokenKind::StringLit(r"a\nb").describe(), r#"string "a\nb""#);
        assert!(TokenKind::Integer(42).describe().contains("42"));
        assert!(TokenKind::Eof.describe().contains("end of input"));
    }
}
