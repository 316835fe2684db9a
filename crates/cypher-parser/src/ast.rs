//! The abstract syntax tree for the Cypher fragment supported by GraphQE-rs.
//!
//! The fragment follows Fig. 4 of the paper plus the evaluation features the
//! paper exercises: `MATCH` / `OPTIONAL MATCH` with multiple comma-separated
//! path patterns, `WHERE`, `WITH`, `UNWIND`, `RETURN` (with `DISTINCT`,
//! `ORDER BY`, `SKIP`, `LIMIT`), `UNION [ALL]`, aggregates, variable-length
//! and undirected relationship patterns, property maps and `EXISTS`
//! subqueries.

use std::fmt;

use crate::Span;

/// The full query: one or more single queries combined by `UNION [ALL]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The component single queries, in source order.
    pub parts: Vec<SingleQuery>,
    /// Combinators between consecutive parts (`unions.len() == parts.len() - 1`).
    pub unions: Vec<UnionKind>,
}

impl Query {
    /// Wraps a single query without unions.
    pub fn single(query: SingleQuery) -> Self {
        Query { parts: vec![query], unions: Vec::new() }
    }

    /// Returns `true` if the query consists of a single part.
    pub fn is_single(&self) -> bool {
        self.parts.len() == 1
    }
}

/// The combinator between two unioned single queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnionKind {
    /// `UNION ALL`: bag union.
    All,
    /// `UNION`: set union (deduplicating).
    Distinct,
}

/// A single (non-union) query: a sequence of clauses ending with `RETURN`.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleQuery {
    /// The clause sequence in source order.
    pub clauses: Vec<Clause>,
}

/// A single clause of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `MATCH` or `OPTIONAL MATCH`.
    Match(MatchClause),
    /// `UNWIND <expr> AS <var>`.
    Unwind(UnwindClause),
    /// `WITH <projection> [WHERE <expr>]`.
    With(WithClause),
    /// `RETURN <projection>`.
    Return(Projection),
}

impl Clause {
    /// A short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Clause::Match(m) if m.optional => "OPTIONAL MATCH",
            Clause::Match(_) => "MATCH",
            Clause::Unwind(_) => "UNWIND",
            Clause::With(_) => "WITH",
            Clause::Return(_) => "RETURN",
        }
    }
}

/// A `MATCH` clause: one or more comma-separated path patterns and an
/// optional `WHERE` predicate.
#[derive(Debug, Clone)]
pub struct MatchClause {
    /// `true` for `OPTIONAL MATCH`.
    pub optional: bool,
    /// Comma-separated path patterns.
    pub patterns: Vec<PathPattern>,
    /// The `WHERE` predicate attached to this `MATCH`, if any.
    pub where_clause: Option<Expr>,
    /// Source span of the whole clause (dummy for synthesized clauses).
    pub span: Span,
}

/// An `UNWIND <expr> AS <var>` clause.
#[derive(Debug, Clone)]
pub struct UnwindClause {
    /// The list expression to unwind.
    pub expr: Expr,
    /// The row variable introduced for each list element.
    pub alias: String,
    /// Source span of the whole clause (dummy for synthesized clauses).
    pub span: Span,
}

/// A `WITH` clause: a projection plus an optional `WHERE` filter on the
/// projected rows.
#[derive(Debug, Clone)]
pub struct WithClause {
    /// The projection (`DISTINCT`, items, `ORDER BY`, `SKIP`, `LIMIT`).
    pub projection: Projection,
    /// Filter applied to the projected rows.
    pub where_clause: Option<Expr>,
    /// Source span of the whole clause (dummy for synthesized clauses).
    pub span: Span,
}

/// The body of a `RETURN` or `WITH` clause.
#[derive(Debug, Clone)]
pub struct Projection {
    /// `true` if `DISTINCT` was specified.
    pub distinct: bool,
    /// `RETURN *` or an explicit item list.
    pub items: ProjectionItems,
    /// `ORDER BY` sort keys (possibly empty).
    pub order_by: Vec<OrderItem>,
    /// `SKIP` expression, if any.
    pub skip: Option<Expr>,
    /// `LIMIT` expression, if any.
    pub limit: Option<Expr>,
    /// Source span of the clause this projection came from (dummy for
    /// synthesized projections).
    pub span: Span,
}

// Spans are positional metadata, not syntax: two clauses parsed from
// different offsets (or a parsed clause vs. a synthesized one) must still
// compare equal, because the normalizer's tests and the prover's caches
// compare ASTs structurally.
impl PartialEq for MatchClause {
    fn eq(&self, other: &Self) -> bool {
        self.optional == other.optional
            && self.patterns == other.patterns
            && self.where_clause == other.where_clause
    }
}

impl PartialEq for UnwindClause {
    fn eq(&self, other: &Self) -> bool {
        self.expr == other.expr && self.alias == other.alias
    }
}

impl PartialEq for WithClause {
    fn eq(&self, other: &Self) -> bool {
        self.projection == other.projection && self.where_clause == other.where_clause
    }
}

impl PartialEq for Projection {
    fn eq(&self, other: &Self) -> bool {
        self.distinct == other.distinct
            && self.items == other.items
            && self.order_by == other.order_by
            && self.skip == other.skip
            && self.limit == other.limit
    }
}

impl Projection {
    /// A plain (non-distinct, unordered) projection over the given items.
    pub fn plain(items: Vec<ProjectionItem>) -> Self {
        Projection {
            distinct: false,
            items: ProjectionItems::Items(items),
            order_by: Vec::new(),
            skip: None,
            limit: None,
            span: Span::dummy(),
        }
    }

    /// Returns `true` if the projection has an `ORDER BY`, `SKIP` or `LIMIT`.
    pub fn has_sort_or_truncation(&self) -> bool {
        !self.order_by.is_empty() || self.skip.is_some() || self.limit.is_some()
    }

    /// Returns the explicit items, or `None` for `RETURN *`.
    pub fn explicit_items(&self) -> Option<&[ProjectionItem]> {
        match &self.items {
            ProjectionItems::Star => None,
            ProjectionItems::Items(items) => Some(items),
        }
    }
}

/// Either `*` or an explicit list of projection items.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjectionItems {
    /// `RETURN *` / `WITH *`.
    Star,
    /// An explicit list of expressions with optional aliases.
    Items(Vec<ProjectionItem>),
}

/// A single projected expression with an optional `AS` alias.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionItem {
    /// The projected expression.
    pub expr: Expr,
    /// The alias introduced with `AS`, if any.
    pub alias: Option<String>,
}

impl ProjectionItem {
    /// Creates an un-aliased projection item.
    pub fn expr(expr: Expr) -> Self {
        ProjectionItem { expr, alias: None }
    }

    /// Creates an aliased projection item.
    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        ProjectionItem { expr, alias: Some(alias.into()) }
    }

    /// The output column name of this item: the alias if present, the name
    /// itself for a variable (never backtick-quoted, since references look
    /// it up unquoted), otherwise the textual form of the expression.
    pub fn output_name(&self) -> String {
        match (&self.alias, &self.expr) {
            (Some(a), _) => a.clone(),
            (None, Expr::Variable(v)) => v.clone(),
            (None, expr) => crate::pretty::expr_to_string(expr),
        }
    }
}

/// A sort key of an `ORDER BY`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// The sort expression.
    pub expr: Expr,
    /// `true` for ascending (the default), `false` for `DESC`.
    pub ascending: bool,
}

// ---------------------------------------------------------------------------
// Graph patterns
// ---------------------------------------------------------------------------

/// A path pattern: `start` followed by zero or more `(relationship, node)`
/// segments, optionally bound to a path variable (`p = (...)-[...]->(...)`).
#[derive(Debug, Clone, PartialEq)]
pub struct PathPattern {
    /// The path variable, if the pattern is named.
    pub variable: Option<String>,
    /// The left-most node pattern.
    pub start: NodePattern,
    /// The chain of relationship/node segments.
    pub segments: Vec<PathSegment>,
}

impl PathPattern {
    /// A path consisting of a single node pattern.
    pub fn node(node: NodePattern) -> Self {
        PathPattern { variable: None, start: node, segments: Vec::new() }
    }

    /// Returns all node patterns along the path, left to right.
    pub fn nodes(&self) -> impl Iterator<Item = &NodePattern> {
        std::iter::once(&self.start).chain(self.segments.iter().map(|s| &s.node))
    }

    /// Returns all relationship patterns along the path, left to right.
    pub fn relationships(&self) -> impl Iterator<Item = &RelationshipPattern> {
        self.segments.iter().map(|s| &s.relationship)
    }
}

/// One `-[...]-(...)` step of a path pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// The relationship pattern of this step.
    pub relationship: RelationshipPattern,
    /// The node pattern this step ends at.
    pub node: NodePattern,
}

/// A node pattern `(v:Label1:Label2 {key: value, ...})`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodePattern {
    /// The node variable, if given.
    pub variable: Option<String>,
    /// Labels required on the node (conjunctive).
    pub labels: Vec<String>,
    /// Required property values.
    pub properties: Vec<(String, Expr)>,
}

impl NodePattern {
    /// An anonymous, unlabelled node pattern `()`.
    pub fn anonymous() -> Self {
        NodePattern::default()
    }

    /// A node pattern with just a variable, e.g. `(n)`.
    pub fn var(name: impl Into<String>) -> Self {
        NodePattern { variable: Some(name.into()), labels: Vec::new(), properties: Vec::new() }
    }
}

/// The direction of a relationship pattern relative to the path direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelDirection {
    /// `-[]->`: from the left node to the right node.
    Outgoing,
    /// `<-[]-`: from the right node to the left node.
    Incoming,
    /// `-[]-`: either direction.
    Undirected,
}

impl RelDirection {
    /// The opposite direction (`Undirected` is its own reverse).
    pub fn reversed(self) -> Self {
        match self {
            RelDirection::Outgoing => RelDirection::Incoming,
            RelDirection::Incoming => RelDirection::Outgoing,
            RelDirection::Undirected => RelDirection::Undirected,
        }
    }
}

/// The `*min..max` variable-length specifier of a relationship pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarLength {
    /// Minimum number of hops (`None` means the Cypher default of 1).
    pub min: Option<u32>,
    /// Maximum number of hops (`None` means unbounded).
    pub max: Option<u32>,
}

impl VarLength {
    /// The fully unbounded `*` specifier.
    pub fn any() -> Self {
        VarLength { min: None, max: None }
    }

    /// An explicit `*min..max` range.
    pub fn range(min: u32, max: u32) -> Self {
        VarLength { min: Some(min), max: Some(max) }
    }

    /// The effective minimum number of hops.
    pub fn effective_min(&self) -> u32 {
        self.min.unwrap_or(1)
    }
}

/// A relationship pattern `-[v:L1|L2 {key: value} *1..3]->`.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationshipPattern {
    /// The relationship variable, if given.
    pub variable: Option<String>,
    /// Alternative labels (`:A|B`); a relationship needs at least one of them.
    pub labels: Vec<String>,
    /// Required property values.
    pub properties: Vec<(String, Expr)>,
    /// Direction of the relationship.
    pub direction: RelDirection,
    /// Variable-length specifier, if the pattern is `*`-quantified.
    pub length: Option<VarLength>,
}

impl RelationshipPattern {
    /// An anonymous outgoing relationship `-[]->`.
    pub fn outgoing() -> Self {
        RelationshipPattern {
            variable: None,
            labels: Vec::new(),
            properties: Vec::new(),
            direction: RelDirection::Outgoing,
            length: None,
        }
    }

    /// Returns `true` if this is a variable-length (or unbounded) pattern.
    pub fn is_var_length(&self) -> bool {
        self.length.is_some()
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// A scalar literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// An integer literal.
    Integer(i64),
    /// A floating point literal.
    Float(f64),
    /// A string literal.
    String(String),
    /// `TRUE` or `FALSE`.
    Boolean(bool),
    /// `NULL`.
    Null,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `XOR`
    Xor,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `^`
    Pow,
    /// `IN`
    In,
    /// `STARTS WITH`
    StartsWith,
    /// `ENDS WITH`
    EndsWith,
    /// `CONTAINS`
    Contains,
}

impl BinaryOp {
    /// Returns `true` for comparison operators that produce booleans.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::Neq
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge
        )
    }

    /// The mirrored comparison (e.g. `<` becomes `>`), if the operator is a
    /// comparison; logical and arithmetic operators return `None` unless they
    /// are symmetric.
    pub fn flipped(&self) -> Option<BinaryOp> {
        Some(match self {
            BinaryOp::Eq => BinaryOp::Eq,
            BinaryOp::Neq => BinaryOp::Neq,
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::Le => BinaryOp::Ge,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::Ge => BinaryOp::Le,
            _ => return None,
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Boolean negation `NOT`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
    /// Unary plus `+` (identity).
    Pos,
}

/// The aggregate functions of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `AVG`
    Avg,
    /// `COLLECT`
    Collect,
}

impl Aggregate {
    /// Parses an aggregate function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Aggregate> {
        [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Avg,
            Aggregate::Collect,
        ]
        .into_iter()
        .find(|aggregate| name.eq_ignore_ascii_case(aggregate.name()))
    }

    /// The canonical upper-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Aggregate::Count => "COUNT",
            Aggregate::Sum => "SUM",
            Aggregate::Min => "MIN",
            Aggregate::Max => "MAX",
            Aggregate::Avg => "AVG",
            Aggregate::Collect => "COLLECT",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are documented on the variants
pub enum Expr {
    /// A literal value.
    Literal(Literal),
    /// A variable reference.
    Variable(String),
    /// A query parameter `$name`.
    Parameter(String),
    /// Property access `expr.key`.
    Property(Box<Expr>, String),
    /// Unary operator application.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operator application.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// `expr IS NULL` (`negated == false`) or `expr IS NOT NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// A list literal `[a, b, c]`.
    List(Vec<Expr>),
    /// A map literal `{k1: v1, k2: v2}`.
    Map(Vec<(String, Expr)>),
    /// A scalar function call `f(args)` (built-in or user-defined).
    FunctionCall { name: String, args: Vec<Expr> },
    /// An aggregate call `agg([DISTINCT] arg)`.
    AggregateCall { func: Aggregate, distinct: bool, arg: Box<Expr> },
    /// `COUNT(*)` / `COUNT(DISTINCT *)`.
    CountStar { distinct: bool },
    /// `EXISTS { <query> }` subquery predicate.
    Exists(Box<Query>),
    /// `CASE WHEN c1 THEN v1 ... [ELSE e] END` (searched form).
    Case { branches: Vec<(Expr, Expr)>, otherwise: Option<Box<Expr>> },
}

impl Expr {
    /// An integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Integer(v))
    }

    /// A string literal.
    pub fn string(s: impl Into<String>) -> Expr {
        Expr::Literal(Literal::String(s.into()))
    }

    /// A boolean literal.
    pub fn boolean(b: bool) -> Expr {
        Expr::Literal(Literal::Boolean(b))
    }

    /// A variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Variable(name.into())
    }

    /// A property access `var.key`.
    pub fn prop(var: impl Into<String>, key: impl Into<String>) -> Expr {
        Expr::Property(Box::new(Expr::Variable(var.into())), key.into())
    }

    /// A binary application.
    pub fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// An equality comparison.
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Eq, lhs, rhs)
    }

    /// A conjunction.
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::And, lhs, rhs)
    }

    /// Returns `true` if the expression (transitively) contains an aggregate
    /// call such as `COUNT(...)` or `SUM(...)`.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::AggregateCall { .. } | Expr::CountStar { .. }) {
                found = true;
            }
        });
        found
    }

    /// Calls `f` on this expression and every sub-expression (pre-order).
    /// `EXISTS` subqueries are not descended into.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Variable(_) | Expr::Parameter(_) => {}
            Expr::Property(e, _) => e.walk(f),
            Expr::Unary(_, e) => e.walk(f),
            Expr::Binary(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::List(items) => {
                for item in items {
                    item.walk(f);
                }
            }
            Expr::Map(entries) => {
                for (_, v) in entries {
                    v.walk(f);
                }
            }
            Expr::FunctionCall { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::AggregateCall { arg, .. } => arg.walk(f),
            Expr::CountStar { .. } => {}
            Expr::Exists(_) => {}
            Expr::Case { branches, otherwise } => {
                for (c, v) in branches {
                    c.walk(f);
                    v.walk(f);
                }
                if let Some(e) = otherwise {
                    e.walk(f);
                }
            }
        }
    }

    /// Rewrites the expression bottom-up by applying `f` to every node: the
    /// owned form of [`Expr::walk_mut`].
    pub fn map(mut self, f: &impl Fn(Expr) -> Expr) -> Expr {
        self.walk_mut(&mut |node| *node = f(std::mem::replace(node, Expr::Literal(Literal::Null))));
        self
    }

    /// Calls `f` on every sub-expression and then on this expression
    /// (post-order), in place. `EXISTS` subqueries are not descended into.
    /// `f` may replace the node it is given, and a replacement is not
    /// visited again.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Variable(_)
            | Expr::Parameter(_)
            | Expr::CountStar { .. }
            | Expr::Exists(_) => {}
            Expr::Property(e, _)
            | Expr::Unary(_, e)
            | Expr::IsNull { expr: e, .. }
            | Expr::AggregateCall { arg: e, .. } => e.walk_mut(f),
            Expr::Binary(_, l, r) => {
                l.walk_mut(f);
                r.walk_mut(f);
            }
            Expr::List(items) | Expr::FunctionCall { args: items, .. } => {
                for item in items {
                    item.walk_mut(f);
                }
            }
            Expr::Map(entries) => {
                for (_, v) in entries {
                    v.walk_mut(f);
                }
            }
            Expr::Case { branches, otherwise } => {
                for (c, v) in branches {
                    c.walk_mut(f);
                    v.walk_mut(f);
                }
                if let Some(e) = otherwise {
                    e.walk_mut(f);
                }
            }
        }
        f(self);
    }

    /// Collects the free variable names referenced by the expression
    /// (excluding `EXISTS` subqueries, which manage their own scopes).
    pub fn variables(&self) -> Vec<String> {
        let mut vars = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Variable(name) = e {
                if !vars.contains(name) {
                    vars.push(name.clone());
                }
            }
        });
        vars
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::pretty::expr_to_string(self))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::pretty::query_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_helpers_build_expected_shapes() {
        let e = Expr::eq(Expr::prop("n", "age"), Expr::int(59));
        match &e {
            Expr::Binary(BinaryOp::Eq, lhs, rhs) => {
                assert_eq!(**lhs, Expr::Property(Box::new(Expr::var("n")), "age".into()));
                assert_eq!(**rhs, Expr::int(59));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn contains_aggregate_detects_nested_aggregates() {
        let plain = Expr::eq(Expr::prop("n", "age"), Expr::int(1));
        assert!(!plain.contains_aggregate());
        let agg = Expr::binary(
            BinaryOp::Add,
            Expr::int(1),
            Expr::AggregateCall {
                func: Aggregate::Sum,
                distinct: false,
                arg: Box::new(Expr::prop("n", "age")),
            },
        );
        assert!(agg.contains_aggregate());
        assert!(Expr::CountStar { distinct: false }.contains_aggregate());
    }

    #[test]
    fn variables_are_collected_without_duplicates() {
        let e = Expr::and(
            Expr::eq(Expr::prop("a", "x"), Expr::prop("b", "y")),
            Expr::eq(Expr::var("a"), Expr::var("c")),
        );
        assert_eq!(e.variables(), vec!["a".to_string(), "b".to_string(), "c".to_string()]);
    }

    #[test]
    fn output_names_of_variables_are_never_quoted() {
        assert_eq!(ProjectionItem::expr(Expr::var("1n")).output_name(), "1n");
        assert_eq!(ProjectionItem::expr(Expr::var("first name")).output_name(), "first name");
        assert_eq!(ProjectionItem::aliased(Expr::var("n"), "the n").output_name(), "the n");
        assert_eq!(ProjectionItem::expr(Expr::prop("n", "age")).output_name(), "n.age");
    }

    #[test]
    fn map_rewrites_bottom_up() {
        let e = Expr::binary(BinaryOp::Add, Expr::int(1), Expr::int(2));
        let rewritten = e.map(&|node| match node {
            Expr::Literal(Literal::Integer(v)) => Expr::int(v * 10),
            other => other,
        });
        assert_eq!(rewritten, Expr::binary(BinaryOp::Add, Expr::int(10), Expr::int(20)));
    }

    #[test]
    fn map_does_not_revisit_replacements() {
        let e = Expr::and(
            Expr::eq(Expr::var("x"), Expr::FunctionCall { name: "f".into(), args: vec![] }),
            Expr::List(vec![Expr::var("y"), Expr::var("x")]),
        );
        let substituted = e.map(&|node| match node {
            Expr::Variable(name) if name == "x" => Expr::prop("x", "p"),
            other => other,
        });
        // The replacement `x.p` contains `x`, but is not visited again.
        assert_eq!(substituted.to_string(), "x.p = f() AND [y, x.p]");
    }

    #[test]
    fn direction_reversal_is_involutive() {
        for d in [RelDirection::Outgoing, RelDirection::Incoming, RelDirection::Undirected] {
            assert_eq!(d.reversed().reversed(), d);
        }
    }

    #[test]
    fn flipped_comparisons() {
        assert_eq!(BinaryOp::Lt.flipped(), Some(BinaryOp::Gt));
        assert_eq!(BinaryOp::Eq.flipped(), Some(BinaryOp::Eq));
        assert_eq!(BinaryOp::Add.flipped(), None);
    }

    #[test]
    fn aggregate_names_round_trip() {
        for agg in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Avg,
            Aggregate::Collect,
        ] {
            assert_eq!(Aggregate::from_name(agg.name()), Some(agg));
        }
        assert_eq!(Aggregate::from_name("size"), None);
    }

    #[test]
    fn path_pattern_iterators() {
        let path = PathPattern {
            variable: None,
            start: NodePattern::var("a"),
            segments: vec![
                PathSegment {
                    relationship: RelationshipPattern::outgoing(),
                    node: NodePattern::var("b"),
                },
                PathSegment {
                    relationship: RelationshipPattern {
                        direction: RelDirection::Incoming,
                        ..RelationshipPattern::outgoing()
                    },
                    node: NodePattern::var("c"),
                },
            ],
        };
        let node_vars: Vec<_> =
            path.nodes().map(|n| n.variable.clone().unwrap_or_default()).collect();
        assert_eq!(node_vars, vec!["a", "b", "c"]);
        assert_eq!(path.relationships().count(), 2);
    }

    #[test]
    fn var_length_defaults() {
        assert_eq!(VarLength::any().effective_min(), 1);
        assert_eq!(VarLength::range(2, 3).effective_min(), 2);
        assert_eq!(VarLength { min: Some(0), max: None }.effective_min(), 0);
    }
}
