//! # cypher-parser
//!
//! A hand-written lexer, parser, pretty-printer and semantic checker for the
//! Cypher fragment used by GraphQE-rs (the Rust reproduction of *"Proving
//! Cypher Query Equivalence"*, ICDE 2025).
//!
//! The supported fragment follows Fig. 4 of the paper: `MATCH` /
//! `OPTIONAL MATCH` graph patterns (nodes, directed / undirected /
//! variable-length relationships, labels, property maps), `WHERE` predicates,
//! `WITH` / `RETURN` projections with `DISTINCT`, `ORDER BY`, `SKIP` and
//! `LIMIT`, `UNWIND`, `UNION [ALL]`, aggregates (`COUNT`, `SUM`, `MIN`,
//! `MAX`, `AVG`, `COLLECT`), scalar functions and `EXISTS { ... }`
//! subqueries.
//!
//! ## Quick start
//!
//! ```
//! use cypher_parser::parse_query;
//!
//! let query = parse_query(
//!     "MATCH (reader:Person)-[:READ]->(book:Book)<-[:WRITE]-(writer) \
//!      WHERE reader.name = 'Alice' RETURN writer.name",
//! )
//! .unwrap();
//! assert!(query.is_single());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod semantic;
pub mod token;

use std::fmt;

pub use ast::*;
pub use functions::BuiltinFunction;
pub use parser::MAX_NESTING;
pub use semantic::{check_semantics, check_semantics_with_source, Diagnostic, SemanticError};

/// A byte range into the original query text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Inclusive start byte offset.
    pub start: usize,
    /// Exclusive end byte offset.
    pub end: usize,
}

impl Span {
    /// Creates a new span.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A zero-width span at position 0 (used for synthesized tokens).
    pub fn dummy() -> Self {
        Span { start: 0, end: 0 }
    }

    /// Merges two spans into the smallest span covering both.
    pub fn merge(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// An error produced while lexing or parsing a query.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Which phase produced the error.
    pub kind: ParseErrorKind,
    /// Human readable message.
    pub message: String,
    /// Source location of the error.
    pub span: Span,
}

/// The phase that produced a [`ParseError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Error while tokenizing the input.
    Lexical,
    /// Error while parsing the token stream.
    Syntax,
}

impl ParseError {
    /// Creates a lexical error.
    pub fn lexical(message: impl Into<String>, span: Span) -> Self {
        ParseError { kind: ParseErrorKind::Lexical, message: message.into(), span }
    }

    /// Creates a syntax error.
    pub fn syntax(message: impl Into<String>, span: Span) -> Self {
        ParseError { kind: ParseErrorKind::Syntax, message: message.into(), span }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.kind {
            ParseErrorKind::Lexical => "lexical error",
            ParseErrorKind::Syntax => "syntax error",
        };
        write!(f, "{phase} at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a Cypher query string into an AST.
///
/// This performs stage ① *syntax checking* of the GraphQE pipeline; use
/// [`check_semantics`] for the accompanying semantic checks. A query nesting
/// deeper than [`MAX_NESTING`] levels is a syntax error (see [`parser`]).
pub fn parse_query(input: &str) -> Result<ast::Query, ParseError> {
    let tokens = lexer::tokenize(input)?;
    parser::Parser::new(tokens).parse_query()
}

/// Parses a Cypher expression in isolation (useful in tests and tools).
pub fn parse_expression(input: &str) -> Result<ast::Expr, ParseError> {
    let tokens = lexer::tokenize(input)?;
    parser::Parser::new(tokens).parse_standalone_expression()
}

/// Parses and semantically checks a query in one call, mirroring stage ① of
/// the GraphQE workflow (Fig. 3 in the paper).
pub fn parse_and_check(input: &str) -> Result<ast::Query, CheckError> {
    let query = parse_query(input).map_err(CheckError::Parse)?;
    check_semantics_with_source(&query, input).map_err(CheckError::Semantic)?;
    Ok(query)
}

/// A combined parse-or-semantic error (stage ① failure).
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// The query violates the Cypher grammar.
    Parse(ParseError),
    /// The query is grammatical but semantically invalid.
    Semantic(Diagnostic),
}

impl CheckError {
    /// The structured diagnostic view of this error: a stable code, a span
    /// into the query text, the message and an optional note. Parse errors
    /// are folded into the same shape (`code` = `"syntax"` / `"lexical"`).
    pub fn diagnostic(&self) -> Diagnostic {
        match self {
            CheckError::Parse(e) => Diagnostic::new(
                match e.kind {
                    ParseErrorKind::Lexical => "lexical",
                    ParseErrorKind::Syntax => "syntax",
                },
                e.span,
                e.message.clone(),
            ),
            CheckError::Semantic(d) => d.clone(),
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Parse(e) => write!(f, "{e}"),
            CheckError::Semantic(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_query_accepts_the_paper_listing_1() {
        let q = parse_query(
            "MATCH (reader:Person)-[:READ]->(book:Book)<-[:WRITE]-(writer) \
             WHERE reader.name = 'Alice' RETURN writer.name",
        )
        .unwrap();
        assert!(q.is_single());
        assert_eq!(q.parts[0].clauses.len(), 2);
    }

    #[test]
    fn parse_and_check_rejects_undefined_variables() {
        let err = parse_and_check("MATCH (n) WHERE m.age = 1 RETURN n").unwrap_err();
        assert!(matches!(err, CheckError::Semantic(_)));
    }

    #[test]
    fn parse_and_check_rejects_syntax_errors() {
        let err = parse_and_check("MATCH (n RETURN n").unwrap_err();
        assert!(matches!(err, CheckError::Parse(_)));
    }

    #[test]
    fn span_merge_covers_both() {
        let merged = Span::new(3, 5).merge(Span::new(10, 12));
        assert_eq!(merged, Span::new(3, 12));
    }
}
