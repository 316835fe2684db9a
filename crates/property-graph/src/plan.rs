//! The query-plan layer: a query lowered once, eagerly, into a form that
//! resolves nothing by name at run time.
//!
//! [`QueryPlan::new`] walks the whole query — every `UNION` part, every
//! clause, every `EXISTS` body — and lowers it:
//!
//! * variables and output columns become [`SymId`]s of the plan's
//!   [`SymbolTable`], so every row operation is integer-keyed;
//! * expressions become lowered expression trees: literals, signed ones
//!   included, are built [`Value`]s, and function names are resolved to a
//!   [`BuiltinFunction`];
//! * labels, relationship types and property keys become slots of the
//!   plan's name list. Graphs intern their names in their own
//!   [`NameTable`]s, so each evaluation resolves the slots against the
//!   graph's table once, not once per candidate or row;
//! * aggregating projections become trees that apply their operators to the
//!   computed aggregates directly.
//!
//! Lowering never fails and raises no error early: what errors at run time
//! (an unbound `$param`, an aggregate inside `WHERE`, a negative `LIMIT`)
//! lowers to a node that raises the same error at the same point of
//! evaluation, and only if evaluation reaches it.
//!
//! A plan holds no interior mutability, so it is `Send + Sync`; the
//! counterexample search builds one per query and evaluates every pool graph
//! through it with [`crate::eval::evaluate_rows`].

use cypher_parser::ast::{
    Aggregate, BinaryOp, Clause, Expr, Literal, MatchClause, NodePattern, PathPattern, Projection,
    ProjectionItems, Query, RelDirection, RelationshipPattern, SingleQuery, UnaryOp, UnionKind,
    VarLength,
};
use cypher_parser::BuiltinFunction;

use crate::expr::{apply_unary, SymId, SymbolTable};
use crate::graph::{NameId, NameTable};
use crate::value::Value;

// ---------------------------------------------------------------------------
// Lowered structures
// ---------------------------------------------------------------------------

/// A label, relationship type or property key of a plan: an index into the
/// plan's name list, resolved against each evaluated graph's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(u32);

impl Slot {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A lowered expression.
#[derive(Debug)]
pub(crate) enum LExpr {
    /// A literal, or a unary operator applied to one.
    Const(Value),
    /// A variable reference.
    Var(SymId),
    /// A query parameter `$name`: evaluation has none to bind, so it errors.
    Param(String),
    /// Property access `base.key`.
    Property(Box<LExpr>, Slot),
    Unary(UnaryOp, Box<LExpr>),
    Binary(BinaryOp, Box<LExpr>, Box<LExpr>),
    /// `expr IS [NOT] NULL`; the flag is `negated`.
    IsNull(Box<LExpr>, bool),
    List(Vec<LExpr>),
    /// A map literal, entries in source order (a repeated key keeps its last
    /// value).
    Map(Vec<(String, LExpr)>),
    /// A function call; `None` for a name outside the supported set, which
    /// evaluates to `NULL` once its arguments are evaluated.
    Call(Option<BuiltinFunction>, Vec<LExpr>),
    /// An aggregate call outside a projection: an error when reached.
    Aggregate,
    /// An `EXISTS { ... }` subquery, evaluated from the current row.
    Exists(Box<LoweredQuery>),
    /// A searched `CASE`: `(condition, value)` branches and the `ELSE`.
    Case(Vec<(LExpr, LExpr)>, Option<Box<LExpr>>),
}

/// A lowered (possibly `UNION`-combined) query.
#[derive(Debug)]
pub(crate) struct LoweredQuery {
    pub parts: Vec<Vec<LoweredClause>>,
    /// Combinators between consecutive parts.
    pub unions: Vec<UnionKind>,
}

/// One lowered clause.
#[derive(Debug)]
pub(crate) enum LoweredClause {
    Match(CompiledMatch),
    Unwind { expr: LExpr, alias: SymId },
    With { projection: CompiledProjection, where_clause: Option<LExpr> },
    Return(CompiledProjection),
}

/// A `MATCH` clause.
#[derive(Debug)]
pub(crate) struct CompiledMatch {
    /// `true` for `OPTIONAL MATCH`.
    pub optional: bool,
    /// The comma-separated path patterns.
    pub patterns: Vec<CompiledPathPattern>,
    /// The clause's `WHERE` predicate.
    pub where_clause: Option<LExpr>,
    /// Every variable the clause's patterns introduce, for the
    /// `OPTIONAL MATCH` null-fill (name-sorted and deduplicated).
    pub optional_syms: Vec<SymId>,
}

/// One path pattern.
#[derive(Debug)]
pub(crate) struct CompiledPathPattern {
    /// The path variable, if the pattern is named.
    pub variable: Option<SymId>,
    /// The left-most node pattern.
    pub start: CompiledNodePattern,
    /// The chain of relationship/node segments.
    pub segments: Vec<CompiledSegment>,
}

/// One `-[...]-(...)` step of a path pattern.
#[derive(Debug)]
pub(crate) struct CompiledSegment {
    pub relationship: CompiledRelPattern,
    /// The node pattern this step ends at.
    pub node: CompiledNodePattern,
}

/// A node pattern.
#[derive(Debug)]
pub(crate) struct CompiledNodePattern {
    pub variable: Option<SymId>,
    /// Labels required on the node (conjunctive).
    pub labels: Vec<Slot>,
    /// Required property values.
    pub properties: Vec<(Slot, LExpr)>,
}

/// A relationship pattern.
#[derive(Debug)]
pub(crate) struct CompiledRelPattern {
    pub variable: Option<SymId>,
    /// Alternative types (`:A|B`); empty admits every type.
    pub types: Vec<Slot>,
    /// Required property values.
    pub properties: Vec<(Slot, LExpr)>,
    pub direction: RelDirection,
    /// Variable-length specifier, if the pattern is `*`-quantified.
    pub length: Option<VarLength>,
}

/// A `WITH`/`RETURN` projection.
#[derive(Debug)]
pub(crate) struct CompiledProjection {
    pub distinct: bool,
    pub items: ProjectedItems,
    /// `ORDER BY` keys with their `ascending` flags.
    pub order_by: Vec<(LExpr, bool)>,
    pub skip: Option<LExpr>,
    pub limit: Option<LExpr>,
}

/// The items of a projection.
#[derive(Debug)]
pub(crate) enum ProjectedItems {
    /// `*`: every variable the rows bind, in name order.
    Star,
    /// Explicit items: the ids of their output names, position by position.
    Items { syms: Vec<SymId>, exprs: ItemExprs },
}

/// The expressions of explicit projection items.
#[derive(Debug)]
pub(crate) enum ItemExprs {
    /// No item aggregates: one value per item per row.
    Plain(Vec<LExpr>),
    /// Some item aggregates: rows group by the values of `grouping` (the
    /// non-aggregating items, in item order), and every item evaluates once
    /// per group.
    Aggregating { items: Vec<AggExpr>, grouping: Vec<LExpr> },
}

/// An item of an aggregating projection.
#[derive(Debug)]
pub(crate) enum AggExpr {
    /// `COUNT(*)` / `COUNT(DISTINCT *)`; the flag is `distinct`.
    CountStar(bool),
    /// `func([DISTINCT] arg)`.
    Call {
        func: Aggregate,
        distinct: bool,
        arg: LExpr,
    },
    /// An operator applied to aggregated operands.
    Binary(BinaryOp, Box<AggExpr>, Box<AggExpr>),
    Unary(UnaryOp, Box<AggExpr>),
    /// An aggregate-free expression, evaluated on the group's first row.
    Scalar(LExpr),
    /// A shape the evaluator does not aggregate: this error when reached.
    Unsupported(String),
}

// ---------------------------------------------------------------------------
// The plan and its lowering
// ---------------------------------------------------------------------------

/// A query lowered once for evaluation on any number of graphs: its symbol
/// table, its name slots and its lowered clauses. See the module docs.
#[derive(Debug)]
pub struct QueryPlan {
    symbols: SymbolTable,
    /// The names behind the plan's slots, slot by slot.
    names: Vec<Box<str>>,
    query: LoweredQuery,
}

impl QueryPlan {
    /// Lowers `query`, every `UNION` part, clause and `EXISTS` body of it.
    pub fn new(query: &Query) -> Self {
        let mut lowering = Lowering { symbols: SymbolTable::new(), names: Vec::new() };
        let query = lowering.query(query);
        QueryPlan { symbols: lowering.symbols, names: lowering.names, query }
    }

    /// The plan's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The lowered query.
    pub(crate) fn query(&self) -> &LoweredQuery {
        &self.query
    }

    /// The name behind `slot`.
    pub(crate) fn name(&self, slot: Slot) -> &str {
        &self.names[slot.index()]
    }

    /// Every slot resolved against a graph's name table, slot by slot;
    /// `None` for a name no graph of that table carries.
    pub(crate) fn resolve(&self, table: &NameTable) -> Vec<Option<NameId>> {
        self.names.iter().map(|name| table.lookup(name)).collect()
    }
}

/// The state of one lowering pass: the symbols and name slots minted so far.
struct Lowering {
    symbols: SymbolTable,
    names: Vec<Box<str>>,
}

impl Lowering {
    fn slot(&mut self, name: &str) -> Slot {
        let index = match self.names.iter().position(|known| **known == *name) {
            Some(index) => index,
            None => {
                self.names.push(name.into());
                self.names.len() - 1
            }
        };
        Slot(index as u32)
    }

    fn query(&mut self, query: &Query) -> LoweredQuery {
        LoweredQuery {
            parts: query.parts.iter().map(|part| self.single(part)).collect(),
            unions: query.unions.clone(),
        }
    }

    fn single(&mut self, query: &SingleQuery) -> Vec<LoweredClause> {
        query
            .clauses
            .iter()
            .map(|clause| match clause {
                Clause::Match(m) => LoweredClause::Match(self.match_clause(m)),
                Clause::Unwind(u) => LoweredClause::Unwind {
                    expr: self.expr(&u.expr),
                    alias: self.symbols.intern(&u.alias),
                },
                Clause::With(w) => LoweredClause::With {
                    projection: self.projection(&w.projection),
                    where_clause: w.where_clause.as_ref().map(|e| self.expr(e)),
                },
                Clause::Return(p) => LoweredClause::Return(self.projection(p)),
            })
            .collect()
    }

    fn match_clause(&mut self, clause: &MatchClause) -> CompiledMatch {
        // The null-fill set: sorted by name, deduplicated, then interned.
        let mut names: Vec<&str> = Vec::new();
        for pattern in &clause.patterns {
            names.extend(pattern.variable.as_deref());
            names.extend(pattern.nodes().filter_map(|node| node.variable.as_deref()));
            names.extend(pattern.relationships().filter_map(|rel| rel.variable.as_deref()));
        }
        names.sort_unstable();
        names.dedup();
        CompiledMatch {
            optional: clause.optional,
            patterns: clause.patterns.iter().map(|p| self.path(p)).collect(),
            where_clause: clause.where_clause.as_ref().map(|e| self.expr(e)),
            optional_syms: names.iter().map(|name| self.symbols.intern(name)).collect(),
        }
    }

    fn path(&mut self, pattern: &PathPattern) -> CompiledPathPattern {
        CompiledPathPattern {
            variable: pattern.variable.as_deref().map(|name| self.symbols.intern(name)),
            start: self.node(&pattern.start),
            segments: pattern
                .segments
                .iter()
                .map(|segment| CompiledSegment {
                    relationship: self.relationship(&segment.relationship),
                    node: self.node(&segment.node),
                })
                .collect(),
        }
    }

    fn node(&mut self, pattern: &NodePattern) -> CompiledNodePattern {
        CompiledNodePattern {
            variable: pattern.variable.as_deref().map(|name| self.symbols.intern(name)),
            labels: pattern.labels.iter().map(|label| self.slot(label)).collect(),
            properties: self.properties(&pattern.properties),
        }
    }

    fn relationship(&mut self, pattern: &RelationshipPattern) -> CompiledRelPattern {
        CompiledRelPattern {
            variable: pattern.variable.as_deref().map(|name| self.symbols.intern(name)),
            types: pattern.labels.iter().map(|label| self.slot(label)).collect(),
            properties: self.properties(&pattern.properties),
            direction: pattern.direction,
            length: pattern.length,
        }
    }

    fn properties(&mut self, properties: &[(String, Expr)]) -> Vec<(Slot, LExpr)> {
        properties.iter().map(|(key, expr)| (self.slot(key), self.expr(expr))).collect()
    }

    fn projection(&mut self, projection: &Projection) -> CompiledProjection {
        let items = match &projection.items {
            ProjectionItems::Star => ProjectedItems::Star,
            ProjectionItems::Items(items) => {
                let syms =
                    items.iter().map(|item| self.symbols.intern(&item.output_name())).collect();
                let exprs = if items.iter().any(|item| item.expr.contains_aggregate()) {
                    ItemExprs::Aggregating {
                        items: items.iter().map(|item| self.aggregate(&item.expr)).collect(),
                        grouping: items
                            .iter()
                            .filter(|item| !item.expr.contains_aggregate())
                            .map(|item| self.expr(&item.expr))
                            .collect(),
                    }
                } else {
                    ItemExprs::Plain(items.iter().map(|item| self.expr(&item.expr)).collect())
                };
                ProjectedItems::Items { syms, exprs }
            }
        };
        CompiledProjection {
            distinct: projection.distinct,
            items,
            order_by: projection
                .order_by
                .iter()
                .map(|order| (self.expr(&order.expr), order.ascending))
                .collect(),
            skip: projection.skip.as_ref().map(|e| self.expr(e)),
            limit: projection.limit.as_ref().map(|e| self.expr(e)),
        }
    }

    fn aggregate(&mut self, expr: &Expr) -> AggExpr {
        match expr {
            // An aggregate-free operand evaluates on the group's first row,
            // exactly as its operator tree would.
            _ if !expr.contains_aggregate() => AggExpr::Scalar(self.expr(expr)),
            Expr::CountStar { distinct } => AggExpr::CountStar(*distinct),
            Expr::AggregateCall { func, distinct, arg } => {
                AggExpr::Call { func: *func, distinct: *distinct, arg: self.expr(arg) }
            }
            Expr::Binary(op, lhs, rhs) => {
                AggExpr::Binary(*op, Box::new(self.aggregate(lhs)), Box::new(self.aggregate(rhs)))
            }
            Expr::Unary(op, inner) => AggExpr::Unary(*op, Box::new(self.aggregate(inner))),
            other => {
                AggExpr::Unsupported(format!("unsupported aggregate expression shape: {other:?}"))
            }
        }
    }

    fn exprs(&mut self, exprs: &[Expr]) -> Vec<LExpr> {
        exprs.iter().map(|e| self.expr(e)).collect()
    }

    fn expr(&mut self, expr: &Expr) -> LExpr {
        match expr {
            Expr::Literal(literal) => LExpr::Const(literal_value(literal)),
            Expr::Variable(name) => LExpr::Var(self.symbols.intern(name)),
            Expr::Parameter(name) => LExpr::Param(name.clone()),
            Expr::Property(base, key) => LExpr::Property(Box::new(self.expr(base)), self.slot(key)),
            Expr::Unary(op, inner) => match self.expr(inner) {
                // A signed literal (`-1` in a property map or `LIMIT`) is a
                // built value too.
                LExpr::Const(value) => LExpr::Const(apply_unary(*op, value)),
                inner => LExpr::Unary(*op, Box::new(inner)),
            },
            Expr::Binary(op, lhs, rhs) => {
                LExpr::Binary(*op, Box::new(self.expr(lhs)), Box::new(self.expr(rhs)))
            }
            Expr::IsNull { expr, negated } => LExpr::IsNull(Box::new(self.expr(expr)), *negated),
            Expr::List(items) => LExpr::List(self.exprs(items)),
            Expr::Map(entries) => LExpr::Map(
                entries.iter().map(|(key, value)| (key.clone(), self.expr(value))).collect(),
            ),
            Expr::FunctionCall { name, args } => {
                LExpr::Call(BuiltinFunction::from_name(name), self.exprs(args))
            }
            Expr::AggregateCall { .. } | Expr::CountStar { .. } => LExpr::Aggregate,
            Expr::Exists(query) => LExpr::Exists(Box::new(self.query(query))),
            Expr::Case { branches, otherwise } => LExpr::Case(
                branches.iter().map(|(cond, value)| (self.expr(cond), self.expr(value))).collect(),
                otherwise.as_ref().map(|e| Box::new(self.expr(e))),
            ),
        }
    }
}

fn literal_value(literal: &Literal) -> Value {
    match literal {
        Literal::Integer(v) => Value::Integer(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::String(s) => Value::String(s.clone()),
        Literal::Boolean(b) => Value::Boolean(*b),
        Literal::Null => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;

    fn plan(text: &str) -> QueryPlan {
        QueryPlan::new(&parse_query(text).unwrap())
    }

    fn first_match(plan: &QueryPlan) -> &CompiledMatch {
        match &plan.query().parts[0][0] {
            LoweredClause::Match(m) => m,
            other => panic!("expected MATCH, got {other:?}"),
        }
    }

    #[test]
    fn lowering_interns_every_pattern_variable() {
        let plan = plan("MATCH p = (a:Person)-[r:READ]->(b) WHERE a.age > 1 RETURN a");
        for name in ["p", "a", "r", "b"] {
            assert!(plan.symbols().lookup(name).is_some(), "{name} not interned by lowering");
        }
        let compiled = first_match(&plan);
        assert_eq!(compiled.patterns.len(), 1);
        assert!(compiled.where_clause.is_some());
        // The null-fill set is name-sorted: a, b, p, r.
        let names: Vec<_> =
            compiled.optional_syms.iter().map(|sym| plan.symbols().name(*sym)).collect();
        assert_eq!(names, vec!["a", "b", "p", "r"]);
    }

    #[test]
    fn lowering_reaches_every_union_part_and_exists_body() {
        let plan = plan(
            "MATCH (a) WHERE EXISTS { MATCH (a)-[:READ]->(inner) RETURN inner } RETURN a \
             UNION MATCH (b:Book) RETURN b",
        );
        assert_eq!(plan.query().parts.len(), 2);
        for name in ["a", "inner", "b"] {
            assert!(plan.symbols().lookup(name).is_some(), "{name} not interned by lowering");
        }
        let mut slots: Vec<_> = plan.names.iter().map(|name| name.to_string()).collect();
        slots.sort();
        assert_eq!(slots, vec!["Book", "READ"]);
    }

    #[test]
    fn names_share_one_slot_each() {
        let plan =
            plan("MATCH (n:Person {age: 1})-[:KNOWS]->(m:Person) WHERE m.age > n.age RETURN n");
        assert_eq!(plan.names.len(), 3, "Person, age and KNOWS: {:?}", plan.names);
        let compiled = first_match(&plan);
        let start = &compiled.patterns[0].start;
        assert_eq!(plan.name(start.labels[0]), "Person");
        assert_eq!(start.labels[0], compiled.patterns[0].segments[0].node.labels[0]);
    }

    #[test]
    fn projection_lowering_precomputes_columns_and_ids() {
        let plan = plan("MATCH (n) RETURN n.name AS name, n.age");
        let LoweredClause::Return(projection) = &plan.query().parts[0][1] else { panic!() };
        let ProjectedItems::Items { syms, exprs: ItemExprs::Plain(exprs) } = &projection.items
        else {
            panic!("expected plain explicit items")
        };
        let columns: Vec<_> = syms.iter().map(|sym| plan.symbols().name(*sym)).collect();
        assert_eq!(columns, vec!["name", "n.age"]);
        assert_eq!(exprs.len(), 2);
    }

    #[test]
    fn literals_are_built_and_functions_resolve() {
        let plan = plan("MATCH (n {age: -1}) RETURN toUpper(n.name), unknownFn(1) LIMIT -(-2)");
        let LoweredClause::Return(projection) = &plan.query().parts[0][1] else { panic!() };
        assert!(matches!(projection.limit, Some(LExpr::Const(Value::Integer(2)))));
        let ProjectedItems::Items { exprs: ItemExprs::Plain(exprs), .. } = &projection.items else {
            panic!()
        };
        assert!(matches!(exprs[0], LExpr::Call(Some(BuiltinFunction::ToUpper), _)));
        assert!(matches!(exprs[1], LExpr::Call(None, _)));
        let start = &first_match(&plan).patterns[0].start;
        assert!(matches!(start.properties[0].1, LExpr::Const(Value::Integer(-1))));
    }
}
