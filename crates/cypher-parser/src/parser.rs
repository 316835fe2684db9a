//! A recursive-descent parser (with Pratt-style expression parsing) for the
//! Cypher fragment of Fig. 4 in the GraphQE paper.
//!
//! ## The nesting bound
//!
//! Every later stage — the analyzer, the normalizer, the G-expression
//! builder, the evaluator, the pretty-printer, even `Drop` — walks the AST
//! recursively, one stack frame (or several) per level. A query whose
//! expression tree is taller than [`MAX_NESTING`] is therefore rejected
//! here, with a syntax error, instead of overflowing a thread's stack later.
//! The height is counted as nodes are built: every operator application,
//! property access, list, map, call and `CASE` sits one level above its
//! deepest operand, and an `EXISTS` four levels above the deepest expression
//! of its body (the query, part and clause nodes lie in between), so a
//! left-associative chain such as `a AND b AND c` counts one level per
//! operator even though a loop builds it.
//!
//! The parser itself recurses only where a bracket opens — a parenthesized
//! group, a list, map, call, `CASE` or `EXISTS` body, a subscript — and never
//! for runs of `NOT`, signs or `^`, which it parses in loops. The same bound
//! caps how many brackets may enclose one another, so an input of a
//! thousand nested parentheses (one node, but a thousand recursions) is
//! rejected before the parser runs out of stack. The pretty-printer opens at
//! most one bracket per tree level, so the printed form of an accepted query
//! (certificates carry it) is accepted again.

use crate::ast::*;
use crate::lexer::unescape;
use crate::token::{Token, TokenKind};
use crate::{ParseError, Span};

/// The deepest expression nesting a query may have; see the module
/// documentation. A query at the bound still parses and proves on a thread
/// with a 2 MiB stack, in a debug build.
pub const MAX_NESTING: usize = 64;

/// The parser state: a cursor over the token stream produced by the lexer.
///
/// Tokens borrow their text from the query; the parser copies a name or
/// literal once, when it moves it into the AST.
pub struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Brackets enclosing the expression being parsed: the parser's own
    /// recursion depth.
    depth: usize,
    /// Nesting of the expression most recently built.
    height: usize,
    /// Deepest nesting of any expression built since the enclosing `EXISTS`
    /// subquery (or the query) began.
    max_height: usize,
}

impl<'a> Parser<'a> {
    /// Creates a parser over a token stream (must be terminated by `Eof`).
    pub fn new(tokens: Vec<Token<'a>>) -> Self {
        Parser { tokens, pos: 0, depth: 0, height: 0, max_height: 0 }
    }

    // -- token helpers -------------------------------------------------------

    fn peek(&self) -> TokenKind<'a> {
        self.peek_at(0)
    }

    fn peek_at(&self, offset: usize) -> TokenKind<'a> {
        let idx = (self.pos + offset).min(self.tokens.len() - 1);
        self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    fn at(&self, kind: TokenKind<'_>) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(ParseError::syntax(
                format!("expected {}, found {}", kind.describe(), self.peek().describe()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name.to_owned())
            }
            // Many keywords are legal identifiers in practice (e.g. a property
            // called `count` or a variable called `end`); accept the
            // non-structural ones.
            TokenKind::Count => {
                self.bump();
                Ok("count".to_string())
            }
            other => Err(ParseError::syntax(
                format!("expected {what}, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    fn error<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::syntax(msg, self.span()))
    }

    fn too_deep<T>(&self) -> Result<T, ParseError> {
        self.error(format!("query nests deeper than {MAX_NESTING} levels"))
    }

    /// Records that an expression was built one level above operands whose
    /// deepest nesting is `operands` (0 for a leaf).
    fn built(&mut self, operands: usize) -> Result<(), ParseError> {
        self.height = operands + 1;
        if self.height > MAX_NESTING {
            return self.too_deep();
        }
        Ok(())
    }

    /// Span of the most recently consumed token (used to close clause spans).
    fn prev_span(&self) -> Span {
        match self.pos.checked_sub(1) {
            Some(index) => self.tokens[index].span,
            None => self.span(),
        }
    }

    // -- query level ---------------------------------------------------------

    /// Parses a full query (with unions) and requires the whole input to be
    /// consumed.
    pub fn parse_query(&mut self) -> Result<Query, ParseError> {
        let query = self.parse_union_query()?;
        self.eat(TokenKind::Semicolon);
        if !self.at(TokenKind::Eof) {
            return self.error(format!("unexpected {} after query", self.peek().describe()));
        }
        Ok(query)
    }

    /// Parses a standalone expression and requires the whole input to be
    /// consumed.
    pub fn parse_standalone_expression(&mut self) -> Result<Expr, ParseError> {
        let expr = self.parse_expression()?;
        if !self.at(TokenKind::Eof) {
            return self.error(format!("unexpected {} after expression", self.peek().describe()));
        }
        Ok(expr)
    }

    fn parse_union_query(&mut self) -> Result<Query, ParseError> {
        let first = self.parse_single_query()?;
        let mut parts = vec![first];
        let mut unions = Vec::new();
        while self.eat(TokenKind::Union) {
            let kind = if self.eat(TokenKind::All) { UnionKind::All } else { UnionKind::Distinct };
            unions.push(kind);
            parts.push(self.parse_single_query()?);
        }
        Ok(Query { parts, unions })
    }

    fn parse_single_query(&mut self) -> Result<SingleQuery, ParseError> {
        let mut clauses = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Match | TokenKind::Optional => {
                    clauses.push(Clause::Match(self.parse_match()?));
                }
                TokenKind::Unwind => {
                    clauses.push(Clause::Unwind(self.parse_unwind()?));
                }
                TokenKind::With => {
                    clauses.push(Clause::With(self.parse_with()?));
                }
                TokenKind::Return => {
                    clauses.push(Clause::Return(self.parse_return()?));
                    break;
                }
                _ => break,
            }
        }
        if clauses.is_empty() {
            return self.error(format!(
                "expected a clause (MATCH, OPTIONAL MATCH, UNWIND, WITH or RETURN), found {}",
                self.peek().describe()
            ));
        }
        Ok(SingleQuery { clauses })
    }

    // -- clauses ---------------------------------------------------------------

    fn parse_match(&mut self) -> Result<MatchClause, ParseError> {
        let start = self.span();
        let optional = self.eat(TokenKind::Optional);
        self.expect(TokenKind::Match)?;
        let mut patterns = vec![self.parse_path_pattern()?];
        while self.eat(TokenKind::Comma) {
            patterns.push(self.parse_path_pattern()?);
        }
        let where_clause =
            if self.eat(TokenKind::Where) { Some(self.parse_expression()?) } else { None };
        let span = start.merge(self.prev_span());
        Ok(MatchClause { optional, patterns, where_clause, span })
    }

    fn parse_unwind(&mut self) -> Result<UnwindClause, ParseError> {
        let start = self.span();
        self.expect(TokenKind::Unwind)?;
        let expr = self.parse_expression()?;
        self.expect(TokenKind::As)?;
        let alias = self.expect_ident("alias after AS")?;
        let span = start.merge(self.prev_span());
        Ok(UnwindClause { expr, alias, span })
    }

    fn parse_with(&mut self) -> Result<WithClause, ParseError> {
        let start = self.span();
        self.expect(TokenKind::With)?;
        let projection = self.parse_projection(start)?;
        let where_clause =
            if self.eat(TokenKind::Where) { Some(self.parse_expression()?) } else { None };
        let span = start.merge(self.prev_span());
        Ok(WithClause { projection, where_clause, span })
    }

    fn parse_return(&mut self) -> Result<Projection, ParseError> {
        let start = self.span();
        self.expect(TokenKind::Return)?;
        self.parse_projection(start)
    }

    fn parse_projection(&mut self, start: Span) -> Result<Projection, ParseError> {
        let distinct = self.eat(TokenKind::Distinct);
        let items = if self.at(TokenKind::Star) {
            self.bump();
            ProjectionItems::Star
        } else {
            let mut items = vec![self.parse_projection_item()?];
            while self.eat(TokenKind::Comma) {
                items.push(self.parse_projection_item()?);
            }
            ProjectionItems::Items(items)
        };

        let mut order_by = Vec::new();
        if self.at(TokenKind::Order) {
            self.bump();
            self.expect(TokenKind::By)?;
            order_by.push(self.parse_order_item()?);
            while self.eat(TokenKind::Comma) {
                order_by.push(self.parse_order_item()?);
            }
        }
        let skip = if self.eat(TokenKind::Skip) { Some(self.parse_expression()?) } else { None };
        let limit = if self.eat(TokenKind::Limit) { Some(self.parse_expression()?) } else { None };
        let span = start.merge(self.prev_span());
        Ok(Projection { distinct, items, order_by, skip, limit, span })
    }

    fn parse_projection_item(&mut self) -> Result<ProjectionItem, ParseError> {
        let expr = self.parse_expression()?;
        let alias =
            if self.eat(TokenKind::As) { Some(self.expect_ident("alias after AS")?) } else { None };
        Ok(ProjectionItem { expr, alias })
    }

    fn parse_order_item(&mut self) -> Result<OrderItem, ParseError> {
        let expr = self.parse_expression()?;
        let ascending = if self.eat(TokenKind::Desc) {
            false
        } else {
            self.eat(TokenKind::Asc);
            true
        };
        Ok(OrderItem { expr, ascending })
    }

    // -- graph patterns --------------------------------------------------------

    fn parse_path_pattern(&mut self) -> Result<PathPattern, ParseError> {
        // Optional path variable: `p = (...)...`
        let variable =
            if matches!(self.peek(), TokenKind::Ident(_)) && self.peek_at(1) == TokenKind::Eq {
                let name = self.expect_ident("path variable")?;
                self.expect(TokenKind::Eq)?;
                Some(name)
            } else {
                None
            };

        let start = self.parse_node_pattern()?;
        let mut segments = Vec::new();
        while self.at(TokenKind::Minus) || self.at(TokenKind::Lt) {
            let relationship = self.parse_relationship_pattern()?;
            let node = self.parse_node_pattern()?;
            segments.push(PathSegment { relationship, node });
        }
        Ok(PathPattern { variable, start, segments })
    }

    fn parse_node_pattern(&mut self) -> Result<NodePattern, ParseError> {
        self.expect(TokenKind::LParen)?;
        let mut node = NodePattern::default();
        if let TokenKind::Ident(_) = self.peek() {
            node.variable = Some(self.expect_ident("node variable")?);
        }
        while self.eat(TokenKind::Colon) {
            node.labels.push(self.expect_ident("node label")?);
        }
        if self.at(TokenKind::LBrace) {
            node.properties = self.parse_property_map()?;
        }
        self.expect(TokenKind::RParen)?;
        Ok(node)
    }

    /// Parses a relationship pattern between two node patterns:
    /// `-[...]->`, `<-[...]-`, `-[...]-`, `-->`, `<--` or `--`.
    fn parse_relationship_pattern(&mut self) -> Result<RelationshipPattern, ParseError> {
        let leading_lt = self.eat(TokenKind::Lt);
        self.expect(TokenKind::Minus)?;

        let mut rel = RelationshipPattern {
            variable: None,
            labels: Vec::new(),
            properties: Vec::new(),
            direction: RelDirection::Undirected,
            length: None,
        };

        if self.eat(TokenKind::LBracket) {
            if let TokenKind::Ident(_) = self.peek() {
                rel.variable = Some(self.expect_ident("relationship variable")?);
            }
            if self.eat(TokenKind::Colon) {
                rel.labels.push(self.expect_ident("relationship label")?);
                while self.eat(TokenKind::Pipe) {
                    // `:A|B` and `:A|:B` are both accepted.
                    self.eat(TokenKind::Colon);
                    rel.labels.push(self.expect_ident("relationship label")?);
                }
            }
            if self.eat(TokenKind::Star) {
                rel.length = Some(self.parse_var_length()?);
            }
            if self.at(TokenKind::LBrace) {
                rel.properties = self.parse_property_map()?;
            }
            // Tolerate `*` after the property map as well.
            if rel.length.is_none() && self.eat(TokenKind::Star) {
                rel.length = Some(self.parse_var_length()?);
            }
            self.expect(TokenKind::RBracket)?;
        }

        self.expect(TokenKind::Minus)?;
        let trailing_gt = self.eat(TokenKind::Gt);

        rel.direction = match (leading_lt, trailing_gt) {
            (true, false) => RelDirection::Incoming,
            (false, true) => RelDirection::Outgoing,
            (false, false) => RelDirection::Undirected,
            (true, true) => {
                return self.error("a relationship pattern cannot point in both directions");
            }
        };
        Ok(rel)
    }

    fn parse_var_length(&mut self) -> Result<VarLength, ParseError> {
        let mut length = VarLength { min: None, max: None };
        if let TokenKind::Integer(v) = self.peek() {
            self.bump();
            let v = self.check_hop_count(v)?;
            length.min = Some(v);
            if self.eat(TokenKind::DotDot) {
                if let TokenKind::Integer(v) = self.peek() {
                    self.bump();
                    length.max = Some(self.check_hop_count(v)?);
                }
            } else {
                // `*2` means exactly two hops.
                length.max = Some(v);
            }
        } else if self.eat(TokenKind::DotDot) {
            if let TokenKind::Integer(v) = self.peek() {
                self.bump();
                length.max = Some(self.check_hop_count(v)?);
            }
        }
        Ok(length)
    }

    fn check_hop_count(&self, v: i64) -> Result<u32, ParseError> {
        if v < 0 || v > u32::MAX as i64 {
            return Err(ParseError::syntax(
                format!("invalid variable-length hop count {v}"),
                self.span(),
            ));
        }
        Ok(v as u32)
    }

    fn parse_property_map(&mut self) -> Result<Vec<(String, Expr)>, ParseError> {
        self.expect(TokenKind::LBrace)?;
        let mut properties = Vec::new();
        let mut height = 0;
        if !self.at(TokenKind::RBrace) {
            loop {
                let key = self.expect_ident("property key")?;
                self.expect(TokenKind::Colon)?;
                let value = self.parse_expression()?;
                height = height.max(self.height);
                properties.push((key, value));
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RBrace)?;
        // The map's nesting is that of its deepest value.
        self.height = height;
        Ok(properties)
    }

    // -- expressions -----------------------------------------------------------

    /// Parses an expression with standard Cypher operator precedence.
    /// Rejects input nesting deeper than [`MAX_NESTING`].
    pub fn parse_expression(&mut self) -> Result<Expr, ParseError> {
        // Every recursion of the expression parser passes through here.
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return self.too_deep();
        }
        let expr = self.parse_or()?;
        self.depth -= 1;
        self.max_height = self.max_height.max(self.height);
        Ok(expr)
    }

    /// Builds `lhs op rhs`, one level above the deeper operand; `lhs_height`
    /// is the nesting of `lhs`, `self.height` that of `rhs`.
    fn binary(
        &mut self,
        op: BinaryOp,
        lhs: Expr,
        lhs_height: usize,
        rhs: Expr,
    ) -> Result<Expr, ParseError> {
        self.built(lhs_height.max(self.height))?;
        Ok(Expr::binary(op, lhs, rhs))
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_xor()?;
        while self.eat(TokenKind::Or) {
            let lhs_height = self.height;
            let rhs = self.parse_xor()?;
            lhs = self.binary(BinaryOp::Or, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_xor(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat(TokenKind::Xor) {
            let lhs_height = self.height;
            let rhs = self.parse_and()?;
            lhs = self.binary(BinaryOp::Xor, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_not()?;
        while self.eat(TokenKind::And) {
            let lhs_height = self.height;
            let rhs = self.parse_not()?;
            lhs = self.binary(BinaryOp::And, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        // A run of NOTs is counted, not recursed into, so its length costs
        // no stack; each NOT then wraps the operand one level higher.
        let mut nots = 0;
        while self.eat(TokenKind::Not) {
            nots += 1;
        }
        let mut expr = self.parse_comparison()?;
        for _ in 0..nots {
            self.built(self.height)?;
            expr = Expr::Unary(UnaryOp::Not, Box::new(expr));
        }
        Ok(expr)
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_additive()?;
        loop {
            let op = match self.peek() {
                TokenKind::Eq => BinaryOp::Eq,
                TokenKind::Neq => BinaryOp::Neq,
                TokenKind::Lt => BinaryOp::Lt,
                TokenKind::Le => BinaryOp::Le,
                TokenKind::Gt => BinaryOp::Gt,
                TokenKind::Ge => BinaryOp::Ge,
                TokenKind::In => BinaryOp::In,
                TokenKind::Starts => {
                    self.bump();
                    self.expect(TokenKind::With)?;
                    let lhs_height = self.height;
                    let rhs = self.parse_additive()?;
                    lhs = self.binary(BinaryOp::StartsWith, lhs, lhs_height, rhs)?;
                    continue;
                }
                TokenKind::Ends => {
                    self.bump();
                    self.expect(TokenKind::With)?;
                    let lhs_height = self.height;
                    let rhs = self.parse_additive()?;
                    lhs = self.binary(BinaryOp::EndsWith, lhs, lhs_height, rhs)?;
                    continue;
                }
                TokenKind::Contains => {
                    self.bump();
                    let lhs_height = self.height;
                    let rhs = self.parse_additive()?;
                    lhs = self.binary(BinaryOp::Contains, lhs, lhs_height, rhs)?;
                    continue;
                }
                TokenKind::Is => {
                    self.bump();
                    let negated = self.eat(TokenKind::Not);
                    self.expect(TokenKind::Null)?;
                    self.built(self.height)?;
                    lhs = Expr::IsNull { expr: Box::new(lhs), negated };
                    continue;
                }
                _ => break,
            };
            self.bump();
            let lhs_height = self.height;
            let rhs = self.parse_additive()?;
            lhs = self.binary(op, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.bump();
            let lhs_height = self.height;
            let rhs = self.parse_multiplicative()?;
            lhs = self.binary(op, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_power()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.bump();
            let lhs_height = self.height;
            let rhs = self.parse_power()?;
            lhs = self.binary(op, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_power(&mut self) -> Result<Expr, ParseError> {
        let first = self.parse_unary()?;
        if !self.at(TokenKind::Caret) {
            return Ok(first);
        }
        // Exponentiation is right-associative. The operands are collected
        // in a loop and folded from the right, so a long chain costs no
        // recursion.
        let mut operands = vec![(first, self.height)];
        while self.eat(TokenKind::Caret) {
            operands.push((self.parse_unary()?, self.height));
        }
        let (mut rhs, mut rhs_height) = operands.pop().expect("a right operand");
        while let Some((lhs, lhs_height)) = operands.pop() {
            self.height = rhs_height;
            rhs = self.binary(BinaryOp::Pow, lhs, lhs_height, rhs)?;
            rhs_height = self.height;
        }
        Ok(rhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        // Prefix signs are collected in a loop and applied innermost first,
        // so a long run of them costs no recursion.
        let mut signs = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Minus => signs.push(UnaryOp::Neg),
                TokenKind::Plus => signs.push(UnaryOp::Pos),
                _ => break,
            }
            self.bump();
        }
        let mut expr = self.parse_postfix()?;
        for op in signs.into_iter().rev() {
            expr = match (op, expr) {
                // Fold negation of numeric literals immediately so `-1` is a
                // literal rather than a unary application.
                (UnaryOp::Neg, Expr::Literal(Literal::Integer(v))) => Expr::int(-v),
                (UnaryOp::Neg, Expr::Literal(Literal::Float(v))) => {
                    Expr::Literal(Literal::Float(-v))
                }
                (op, inner) => {
                    self.built(self.height)?;
                    Expr::Unary(op, Box::new(inner))
                }
            };
        }
        Ok(expr)
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_atom()?;
        loop {
            if self.at(TokenKind::Dot) {
                self.bump();
                let key = self.expect_ident("property key")?;
                self.built(self.height)?;
                expr = Expr::Property(Box::new(expr), key);
            } else if self.at(TokenKind::LBracket) {
                // List indexing `expr[idx]` is parsed as an uninterpreted
                // `index` function application.
                self.bump();
                let base_height = self.height;
                let idx = self.parse_expression()?;
                self.expect(TokenKind::RBracket)?;
                self.built(base_height.max(self.height))?;
                expr = Expr::FunctionCall { name: "index".to_string(), args: vec![expr, idx] };
            } else {
                break;
            }
        }
        Ok(expr)
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        let leaf = match self.peek() {
            TokenKind::Integer(v) => Expr::int(v),
            TokenKind::Float(v) => Expr::Literal(Literal::Float(v)),
            TokenKind::StringLit(body) => Expr::string(unescape(body)),
            TokenKind::True => Expr::boolean(true),
            TokenKind::False => Expr::boolean(false),
            TokenKind::Null => Expr::Literal(Literal::Null),
            TokenKind::Parameter(name) => Expr::Parameter(name.to_owned()),
            TokenKind::Ident(name) if self.peek_at(1) != TokenKind::LParen => {
                Expr::Variable(name.to_owned())
            }
            TokenKind::Count => {
                self.bump();
                return self.parse_call("count");
            }
            TokenKind::Ident(name) => {
                self.bump();
                return self.parse_call(name);
            }
            TokenKind::LParen => {
                self.bump();
                // Grouping builds no node: the nesting is the inner one's.
                let expr = self.parse_expression()?;
                self.expect(TokenKind::RParen)?;
                return Ok(expr);
            }
            TokenKind::LBracket => {
                self.bump();
                let mut items = Vec::new();
                let mut height = 0;
                if !self.at(TokenKind::RBracket) {
                    loop {
                        items.push(self.parse_expression()?);
                        height = height.max(self.height);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RBracket)?;
                self.built(height)?;
                return Ok(Expr::List(items));
            }
            TokenKind::LBrace => {
                let entries = self.parse_property_map()?;
                self.built(self.height)?;
                return Ok(Expr::Map(entries));
            }
            TokenKind::Exists => {
                self.bump();
                return self.parse_exists();
            }
            TokenKind::Case => {
                self.bump();
                return self.parse_case();
            }
            other => {
                return self.error(format!("expected an expression, found {}", other.describe()))
            }
        };
        self.bump();
        self.built(0)?;
        Ok(leaf)
    }

    fn parse_call(&mut self, name: &str) -> Result<Expr, ParseError> {
        self.expect(TokenKind::LParen)?;
        let distinct = self.eat(TokenKind::Distinct);

        // COUNT(*) / COUNT(DISTINCT *).
        if self.at(TokenKind::Star) && name.eq_ignore_ascii_case("count") {
            self.bump();
            self.expect(TokenKind::RParen)?;
            self.built(0)?;
            return Ok(Expr::CountStar { distinct });
        }

        let mut args = Vec::new();
        let mut height = 0;
        if !self.at(TokenKind::RParen) {
            loop {
                args.push(self.parse_expression()?);
                height = height.max(self.height);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        self.built(height)?;

        if let Some(func) = Aggregate::from_name(name) {
            if args.len() != 1 {
                return self.error(format!(
                    "aggregate {} takes exactly one argument, got {}",
                    func.name(),
                    args.len()
                ));
            }
            return Ok(Expr::AggregateCall {
                func,
                distinct,
                arg: Box::new(args.into_iter().next().expect("one argument")),
            });
        }
        if distinct {
            return self
                .error(format!("DISTINCT is only allowed in aggregate calls, not `{name}`"));
        }
        Ok(Expr::FunctionCall { name: name.to_ascii_lowercase(), args })
    }

    fn parse_exists(&mut self) -> Result<Expr, ParseError> {
        // `EXISTS { <query> }` subquery form.
        if self.eat(TokenKind::LBrace) {
            // The subquery's expressions nest below this one: its nesting
            // is that of its deepest expression.
            let outer = std::mem::take(&mut self.max_height);
            let query = self.parse_union_query()?;
            self.expect(TokenKind::RBrace)?;
            // Between this node and those expressions the tree has three
            // more levels: the query, its part and the clause.
            let inner = std::mem::replace(&mut self.max_height, outer);
            self.built(inner + 3)?;
            return Ok(Expr::Exists(Box::new(query)));
        }
        // `EXISTS(expr)` property-existence form, kept as an uninterpreted
        // function call.
        if self.at(TokenKind::LParen) {
            self.bump();
            let inner = self.parse_expression()?;
            self.expect(TokenKind::RParen)?;
            self.built(self.height)?;
            return Ok(Expr::FunctionCall { name: "exists".to_string(), args: vec![inner] });
        }
        self.error("expected `{` or `(` after EXISTS")
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        // Only the searched CASE form (`CASE WHEN cond THEN value ...`) is
        // supported; the simple form can be rewritten into it.
        if !self.at(TokenKind::When) {
            return self.error(
                "simple CASE (`CASE x WHEN v THEN r ... END`) is not supported; \
                 rewrite it in the searched form `CASE WHEN x = v THEN r ... END`",
            );
        }
        let mut branches = Vec::new();
        let mut height = 0;
        while self.eat(TokenKind::When) {
            let cond = self.parse_expression()?;
            height = height.max(self.height);
            self.expect(TokenKind::Then)?;
            let value = self.parse_expression()?;
            height = height.max(self.height);
            branches.push((cond, value));
        }
        let otherwise = if self.eat(TokenKind::Else) {
            let otherwise = self.parse_expression()?;
            height = height.max(self.height);
            Some(Box::new(otherwise))
        } else {
            None
        };
        self.expect(TokenKind::End)?;
        self.built(height)?;
        Ok(Expr::Case { branches, otherwise })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_expression, parse_query};

    #[test]
    fn parses_simple_match_return() {
        let q = parse_query("MATCH (n:Person) RETURN n.name").unwrap();
        let clause = &q.parts[0].clauses[0];
        match clause {
            Clause::Match(m) => {
                assert!(!m.optional);
                assert_eq!(m.patterns.len(), 1);
                assert_eq!(m.patterns[0].start.labels, vec!["Person"]);
            }
            other => panic!("expected MATCH, got {other:?}"),
        }
        match &q.parts[0].clauses[1] {
            Clause::Return(p) => {
                let items = p.explicit_items().unwrap();
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].expr, Expr::prop("n", "name"));
            }
            other => panic!("expected RETURN, got {other:?}"),
        }
    }

    #[test]
    fn parses_directions() {
        let q = parse_query("MATCH (a)-[r]->(b), (c)<-[s]-(d), (e)-[t]-(f) RETURN a").unwrap();
        let Clause::Match(m) = &q.parts[0].clauses[0] else { panic!() };
        let dirs: Vec<_> =
            m.patterns.iter().map(|p| p.segments[0].relationship.direction).collect();
        assert_eq!(
            dirs,
            vec![RelDirection::Outgoing, RelDirection::Incoming, RelDirection::Undirected]
        );
    }

    #[test]
    fn parses_abbreviated_relationships() {
        let q = parse_query("MATCH (a)-->(b)<--(c)--(d) RETURN a").unwrap();
        let Clause::Match(m) = &q.parts[0].clauses[0] else { panic!() };
        let dirs: Vec<_> =
            m.patterns[0].segments.iter().map(|s| s.relationship.direction).collect();
        assert_eq!(
            dirs,
            vec![RelDirection::Outgoing, RelDirection::Incoming, RelDirection::Undirected]
        );
    }

    #[test]
    fn parses_relationship_detail() {
        let q = parse_query("MATCH (a)-[r:KNOWS|LIKES {since: 2020} *1..3]->(b) RETURN r").unwrap();
        let Clause::Match(m) = &q.parts[0].clauses[0] else { panic!() };
        let rel = &m.patterns[0].segments[0].relationship;
        assert_eq!(rel.variable.as_deref(), Some("r"));
        assert_eq!(rel.labels, vec!["KNOWS", "LIKES"]);
        assert_eq!(rel.properties.len(), 1);
        assert_eq!(rel.length, Some(VarLength::range(1, 3)));
    }

    #[test]
    fn parses_var_length_forms() {
        for (text, expected) in [
            ("*", VarLength { min: None, max: None }),
            ("*2", VarLength { min: Some(2), max: Some(2) }),
            ("*1..3", VarLength { min: Some(1), max: Some(3) }),
            ("*2..", VarLength { min: Some(2), max: None }),
            ("*..3", VarLength { min: None, max: Some(3) }),
        ] {
            let q = parse_query(&format!("MATCH (a)-[{text}]->(b) RETURN a")).unwrap();
            let Clause::Match(m) = &q.parts[0].clauses[0] else { panic!() };
            assert_eq!(m.patterns[0].segments[0].relationship.length, Some(expected), "{text}");
        }
    }

    #[test]
    fn parses_node_properties_and_multiple_labels() {
        let q = parse_query("MATCH (n:A:B {x: 1, y: 'two'}) RETURN n").unwrap();
        let Clause::Match(m) = &q.parts[0].clauses[0] else { panic!() };
        let node = &m.patterns[0].start;
        assert_eq!(node.labels, vec!["A", "B"]);
        assert_eq!(node.properties.len(), 2);
    }

    #[test]
    fn parses_optional_match_and_where() {
        let q = parse_query("OPTIONAL MATCH (n)-[r]->(m) WHERE n.age > 10 RETURN m").unwrap();
        let Clause::Match(m) = &q.parts[0].clauses[0] else { panic!() };
        assert!(m.optional);
        assert!(m.where_clause.is_some());
    }

    #[test]
    fn parses_with_order_skip_limit_where() {
        let q = parse_query(
            "MATCH (n) WITH DISTINCT n.name AS name ORDER BY name DESC SKIP 2 LIMIT 5 \
             WHERE name <> 'x' RETURN name",
        )
        .unwrap();
        let Clause::With(w) = &q.parts[0].clauses[1] else { panic!() };
        assert!(w.projection.distinct);
        assert_eq!(w.projection.order_by.len(), 1);
        assert!(!w.projection.order_by[0].ascending);
        assert_eq!(w.projection.skip, Some(Expr::int(2)));
        assert_eq!(w.projection.limit, Some(Expr::int(5)));
        assert!(w.where_clause.is_some());
    }

    #[test]
    fn parses_return_star_and_distinct() {
        let q = parse_query("MATCH (n) RETURN DISTINCT *").unwrap();
        let Clause::Return(p) = &q.parts[0].clauses[1] else { panic!() };
        assert!(p.distinct);
        assert_eq!(p.items, ProjectionItems::Star);
    }

    #[test]
    fn parses_union_and_union_all() {
        let q =
            parse_query("MATCH (a) RETURN a UNION ALL MATCH (b) RETURN b UNION MATCH (c) RETURN c")
                .unwrap();
        assert_eq!(q.parts.len(), 3);
        assert_eq!(q.unions, vec![UnionKind::All, UnionKind::Distinct]);
    }

    #[test]
    fn parses_unwind() {
        let q = parse_query("UNWIND [1, 2, 3] AS x RETURN x").unwrap();
        let Clause::Unwind(u) = &q.parts[0].clauses[0] else { panic!() };
        assert_eq!(u.alias, "x");
        assert_eq!(u.expr, Expr::List(vec![Expr::int(1), Expr::int(2), Expr::int(3)]));
    }

    #[test]
    fn parses_aggregates_and_count_star() {
        let q =
            parse_query("MATCH (n:Person) RETURN COUNT(*), SUM(n.age), COLLECT(DISTINCT n.name)")
                .unwrap();
        let Clause::Return(p) = &q.parts[0].clauses[1] else { panic!() };
        let items = p.explicit_items().unwrap();
        assert_eq!(items[0].expr, Expr::CountStar { distinct: false });
        assert!(matches!(
            items[1].expr,
            Expr::AggregateCall { func: Aggregate::Sum, distinct: false, .. }
        ));
        assert!(matches!(
            items[2].expr,
            Expr::AggregateCall { func: Aggregate::Collect, distinct: true, .. }
        ));
    }

    #[test]
    fn parses_exists_subquery() {
        let q = parse_query("MATCH (n) WHERE EXISTS { MATCH (n)-[:KNOWS]->(m) RETURN m } RETURN n")
            .unwrap();
        let Clause::Match(m) = &q.parts[0].clauses[0] else { panic!() };
        assert!(matches!(m.where_clause, Some(Expr::Exists(_))));
    }

    #[test]
    fn parses_named_paths() {
        let q = parse_query("MATCH p = (a)-[]->(b) RETURN p").unwrap();
        let Clause::Match(m) = &q.parts[0].clauses[0] else { panic!() };
        assert_eq!(m.patterns[0].variable.as_deref(), Some("p"));
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::binary(
                BinaryOp::Add,
                Expr::int(1),
                Expr::binary(BinaryOp::Mul, Expr::int(2), Expr::int(3))
            )
        );
        let e = parse_expression("a.x = 1 AND b.y = 2 OR c.z = 3").unwrap();
        match e {
            Expr::Binary(BinaryOp::Or, lhs, _) => {
                assert!(matches!(*lhs, Expr::Binary(BinaryOp::And, _, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
        let e = parse_expression("NOT a.x = 1").unwrap();
        assert!(matches!(e, Expr::Unary(UnaryOp::Not, _)));
        let e = parse_expression("2 ^ 3 ^ 2").unwrap();
        match e {
            Expr::Binary(BinaryOp::Pow, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinaryOp::Pow, _, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_is_null_and_negative_numbers() {
        let e = parse_expression("n.age IS NOT NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: true, .. }));
        assert_eq!(parse_expression("-5").unwrap(), Expr::int(-5));
    }

    #[test]
    fn parses_case_expression() {
        let e = parse_expression("CASE WHEN n.age > 18 THEN 'adult' ELSE 'minor' END").unwrap();
        match e {
            Expr::Case { branches, otherwise } => {
                assert_eq!(branches.len(), 1);
                assert!(otherwise.is_some());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn simple_case_is_rejected_with_its_searched_rewrite() {
        let err = parse_query("MATCH (n) RETURN CASE n.p1 WHEN 1 THEN 'one' ELSE 'many' END")
            .unwrap_err();
        assert_eq!(
            err.message,
            "simple CASE (`CASE x WHEN v THEN r ... END`) is not supported; \
             rewrite it in the searched form `CASE WHEN x = v THEN r ... END`"
        );
        // The searched rewrite parses.
        let rewritten =
            parse_query("MATCH (n) RETURN CASE WHEN n.p1 = 1 THEN 'one' ELSE 'many' END").unwrap();
        let Clause::Return(projection) = &rewritten.parts[0].clauses[1] else { panic!() };
        let ProjectionItems::Items(items) = &projection.items else { panic!() };
        assert!(matches!(&items[0].expr, Expr::Case { branches, .. } if branches.len() == 1));
    }

    #[test]
    fn parses_string_predicates() {
        assert!(matches!(
            parse_expression("n.name STARTS WITH 'A'").unwrap(),
            Expr::Binary(BinaryOp::StartsWith, _, _)
        ));
        assert!(matches!(
            parse_expression("n.name ENDS WITH 'z'").unwrap(),
            Expr::Binary(BinaryOp::EndsWith, _, _)
        ));
        assert!(matches!(
            parse_expression("n.name CONTAINS 'b'").unwrap(),
            Expr::Binary(BinaryOp::Contains, _, _)
        ));
        assert!(matches!(
            parse_expression("n.x IN [1, 2]").unwrap(),
            Expr::Binary(BinaryOp::In, _, _)
        ));
    }

    #[test]
    fn parses_function_calls_and_parameters() {
        let e = parse_expression("id(n) = $target").unwrap();
        match e {
            Expr::Binary(BinaryOp::Eq, lhs, rhs) => {
                assert_eq!(
                    *lhs,
                    Expr::FunctionCall { name: "id".into(), args: vec![Expr::var("n")] }
                );
                assert_eq!(*rhs, Expr::Parameter("target".into()));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_list_indexing_as_function() {
        let e = parse_expression("xs[0]").unwrap();
        assert_eq!(
            e,
            Expr::FunctionCall { name: "index".into(), args: vec![Expr::var("xs"), Expr::int(0)] }
        );
    }

    #[test]
    fn parses_multiple_matches_and_chained_clauses() {
        let q = parse_query("MATCH (n1) MATCH (n1)-[]->(n2) WITH n2 MATCH (n2)-[]->(n3) RETURN n3")
            .unwrap();
        assert_eq!(q.parts[0].clauses.len(), 5);
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_query("MATCH (n RETURN n").is_err());
        assert!(parse_query("MATCH (a)<-[r]->(b) RETURN a").is_err());
        assert!(parse_query("RETURN").is_err());
        assert!(parse_query("MATCH (n) RETURN n extra").is_err());
        assert!(parse_query("MATCH (n) WHERE RETURN n").is_err());
        assert!(parse_query("").is_err());
        assert!(parse_query("MATCH (n) RETURN SUM(n.a, n.b)").is_err());
        assert!(parse_query("MATCH (n) RETURN foo(DISTINCT n.a)").is_err());
    }

    /// Runs `body` on a thread with the 2 MiB stack of a server worker or a
    /// test thread.
    fn on_small_stack<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(body).unwrap();
        thread.join().unwrap()
    }

    fn too_deep(result: Result<Query, ParseError>) -> bool {
        result.is_err_and(|error| error.message.contains("nests deeper than"))
    }

    #[test]
    fn nesting_is_bounded_on_a_small_stack() {
        on_small_stack(|| {
            let parens = |n: usize| format!("MATCH (n) RETURN {}1{}", "(".repeat(n), ")".repeat(n));
            // The RETURN item is one bracket level, each parenthesis another.
            assert!(parse_query(&parens(MAX_NESTING - 1)).is_ok());
            assert!(too_deep(parse_query(&parens(MAX_NESTING))));
            assert!(too_deep(parse_query(&parens(1_000))));
            for bracket in [("[", "]"), ("abs(", ")"), ("{a: ", "}")] {
                let nested =
                    format!("RETURN {}1{}", bracket.0.repeat(1_000), bracket.1.repeat(1_000));
                assert!(too_deep(parse_query(&nested)), "{}", bracket.0);
            }

            // Chains built by loops count one level per operator: `n.a = 1`
            // is three levels, each NOT or AND one more.
            let nots = |n: usize| format!("MATCH (n) WHERE {}n.a = 1 RETURN n", "NOT ".repeat(n));
            assert!(parse_query(&nots(MAX_NESTING - 3)).is_ok());
            assert!(too_deep(parse_query(&nots(MAX_NESTING - 2))));
            assert!(too_deep(parse_query(&nots(10_000))));
            let and =
                |n: usize| format!("MATCH (n) WHERE {} RETURN n", vec!["n.a = 1"; n].join(" AND "));
            assert!(parse_query(&and(MAX_NESTING - 2)).is_ok());
            assert!(too_deep(parse_query(&and(MAX_NESTING - 1))));
            assert!(too_deep(parse_query(&and(10_000))));
            for run in ["- ", "n.a ^ "] {
                let chain = format!("RETURN {}n.a", run.repeat(10_000));
                assert!(too_deep(parse_query(&chain)), "{run}");
            }
            // Signs folded into a literal build no node at all.
            assert!(parse_query(&format!("RETURN {}1", "- ".repeat(10_000))).is_ok());
            let exists = |n: usize| {
                format!(
                    "MATCH (n) WHERE {}m.a = 1{} RETURN n",
                    "EXISTS { MATCH (m) WHERE ".repeat(n),
                    " RETURN m }".repeat(n)
                )
            };
            // An EXISTS body is four levels: the EXISTS, query, part, clause.
            assert!(parse_query(&exists((MAX_NESTING - 3) / 4)).is_ok());
            assert!(too_deep(parse_query(&exists((MAX_NESTING - 3) / 4 + 1))));
        });
    }

    #[test]
    fn the_printed_form_of_the_deepest_queries_parses_again() {
        // The printer brackets every nested NOT and every lower-precedence
        // operand; none of that may push an accepted query over the bound.
        let deepest = [
            format!("MATCH (n) WHERE {}n.a = 1 RETURN n", "NOT ".repeat(MAX_NESTING - 3)),
            format!("RETURN {}1", "- n.a + ".repeat(MAX_NESTING / 3)),
            format!("RETURN {}", vec!["(1 OR 2)"; MAX_NESTING - 2].join(" AND ")),
        ];
        for text in deepest {
            let query = parse_query(&text).unwrap();
            let printed = crate::pretty::query_to_string(&query);
            assert_eq!(parse_query(&printed).unwrap(), query, "{printed}");
        }
    }

    #[test]
    fn allows_trailing_semicolon() {
        assert!(parse_query("MATCH (n) RETURN n;").is_ok());
    }

    #[test]
    fn parses_the_paper_listing_2_queries() {
        let q1 =
            parse_query("MATCH (n1) WITH n1 ORDER BY n1.p1 LIMIT 1 MATCH (n1)-[]->(n2) RETURN n2")
                .unwrap();
        assert_eq!(q1.parts[0].clauses.len(), 4);
        let q2 =
            parse_query("MATCH (n1) WITH n1 ORDER BY n1.p1 LIMIT 1 MATCH (n2)<-[]-(n1) RETURN n2")
                .unwrap();
        assert_eq!(q2.parts[0].clauses.len(), 4);
    }

    #[test]
    fn parses_map_literal_unwind_from_table_1() {
        let q = parse_query(
            "WITH [{c1: 0, c2: 1}, {c1: 2, c2: 3}] AS tmp UNWIND tmp AS tmpRow RETURN tmpRow.c1",
        )
        .unwrap();
        let Clause::With(w) = &q.parts[0].clauses[0] else { panic!() };
        let items = w.projection.explicit_items().unwrap();
        assert!(matches!(items[0].expr, Expr::List(_)));
    }
}
