//! Expression evaluation over binding rows.
//!
//! Expressions are evaluated under Cypher's three-valued logic: comparisons
//! involving `NULL` yield `NULL`, and `WHERE` keeps only rows whose predicate
//! evaluates to `TRUE`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cypher_parser::ast::{
    BinaryOp, Expr, Literal, MatchClause, NodePattern, PathPattern, Projection, ProjectionItems,
    Query, RelationshipPattern, UnaryOp, UnwindClause, WithClause,
};

use crate::eval::{evaluate_union_query, EvalError};
use crate::fxhash::FxHashMap;
use crate::graph::{EntityId, PropertyGraph};
use crate::plan::{PlanCache, QueryPlan};
use crate::value::{and3, not3, or3, xor3, Value};

/// A dense interned symbol id: the key type of the flat row representation.
/// Ids are assigned per [`SymbolTable`] in interning order, so a query's
/// variables occupy a small contiguous range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub u32);

/// A per-query symbol table interning every variable and column name to a
/// [`SymId`].
///
/// The table is built once per [`QueryPlan`] ([`SymbolTable::for_query`]
/// walks the AST at plan time and interns every name it can see), then
/// shared read-mostly through [`EvalCtx`] by every evaluation under that
/// plan; names minted during evaluation (aggregate placeholders,
/// `WITH`-introduced output columns that plan-time walking missed) intern on
/// demand through the interior `RefCell`s. Interning keeps per-row key
/// storage at 4 bytes and makes key comparison an integer compare instead of
/// a string compare.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// `SymId.0 as usize` indexes this vector; the entry is the name.
    names: RefCell<Vec<Rc<str>>>,
    /// Reverse mapping, name → id. Fx-hashed: the table probes a short
    /// string per variable reference, where SipHash would dominate.
    ids: RefCell<FxHashMap<Rc<str>, SymId>>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Creates a table pre-populated with every variable, alias and output
    /// column name of `query` (plan-time interning). Evaluation still interns
    /// on demand, so missing a name here costs a hash insert, never
    /// correctness.
    pub fn for_query(query: &Query) -> Self {
        let table = SymbolTable::new();
        table.intern_query(query);
        table
    }

    /// Interns `name`, returning its (possibly pre-existing) id.
    pub fn intern(&self, name: &str) -> SymId {
        if let Some(id) = self.ids.borrow().get(name) {
            return *id;
        }
        let shared: Rc<str> = Rc::from(name);
        let mut names = self.names.borrow_mut();
        let id = SymId(names.len() as u32);
        names.push(Rc::clone(&shared));
        self.ids.borrow_mut().insert(shared, id);
        id
    }

    /// The id of `name`, if it was ever interned. Reads (unbound-variable
    /// lookups) must not grow the table.
    pub fn lookup(&self, name: &str) -> Option<SymId> {
        self.ids.borrow().get(name).copied()
    }

    /// The name interned under `id`.
    pub fn name(&self, id: SymId) -> Rc<str> {
        Rc::clone(&self.names.borrow()[id.0 as usize])
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.borrow().len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.borrow().is_empty()
    }

    /// Walks `query` and interns every name evaluation could bind or look
    /// up: pattern variables, `UNWIND` aliases, projection output names, and
    /// variable references inside expressions (including `EXISTS` subqueries,
    /// which evaluate under the same table).
    pub fn intern_query(&self, query: &Query) {
        for part in &query.parts {
            for clause in &part.clauses {
                match clause {
                    cypher_parser::ast::Clause::Match(m) => self.intern_match(m),
                    cypher_parser::ast::Clause::Unwind(UnwindClause { expr, alias, .. }) => {
                        self.intern_expr(expr);
                        self.intern(alias);
                    }
                    cypher_parser::ast::Clause::With(WithClause {
                        projection,
                        where_clause,
                        ..
                    }) => {
                        self.intern_projection(projection);
                        if let Some(predicate) = where_clause {
                            self.intern_expr(predicate);
                        }
                    }
                    cypher_parser::ast::Clause::Return(projection) => {
                        self.intern_projection(projection)
                    }
                }
            }
        }
    }

    fn intern_match(&self, clause: &MatchClause) {
        for pattern in &clause.patterns {
            self.intern_pattern(pattern);
        }
        if let Some(predicate) = &clause.where_clause {
            self.intern_expr(predicate);
        }
    }

    fn intern_pattern(&self, pattern: &PathPattern) {
        if let Some(variable) = &pattern.variable {
            self.intern(variable);
        }
        let intern_node = |node: &NodePattern| {
            if let Some(variable) = &node.variable {
                self.intern(variable);
            }
            for (_, expr) in &node.properties {
                self.intern_expr(expr);
            }
        };
        let intern_rel = |rel: &RelationshipPattern| {
            if let Some(variable) = &rel.variable {
                self.intern(variable);
            }
            for (_, expr) in &rel.properties {
                self.intern_expr(expr);
            }
        };
        intern_node(&pattern.start);
        for segment in &pattern.segments {
            intern_rel(&segment.relationship);
            intern_node(&segment.node);
        }
    }

    fn intern_projection(&self, projection: &Projection) {
        if let ProjectionItems::Items(items) = &projection.items {
            for item in items {
                self.intern(&item.output_name());
                self.intern_expr(&item.expr);
            }
        }
        for order in &projection.order_by {
            self.intern_expr(&order.expr);
        }
        if let Some(skip) = &projection.skip {
            self.intern_expr(skip);
        }
        if let Some(limit) = &projection.limit {
            self.intern_expr(limit);
        }
    }

    fn intern_expr(&self, expr: &Expr) {
        expr.walk(&mut |e| match e {
            Expr::Variable(name) => {
                self.intern(name);
            }
            // `Expr::walk` does not descend into EXISTS subqueries; they
            // evaluate under the same table, so recurse explicitly.
            Expr::Exists(subquery) => self.intern_query(subquery),
            _ => {}
        });
    }
}

/// A binding row: variable → value, as a small vector of `(symbol, value)`
/// entries kept sorted by [`SymId`]. A row clone is one allocation plus the
/// value clones, and [`Row::with_sym`] (the copy-on-extend the matcher
/// performs at every binding branch) copies straight into a right-sized
/// vector. Name-based accessors take the run's [`SymbolTable`] to resolve
/// names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    entries: Vec<(SymId, Value)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the row has no bindings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value bound to `name`, if any.
    pub fn get<'r>(&'r self, symbols: &SymbolTable, name: &str) -> Option<&'r Value> {
        self.get_sym(symbols.lookup(name)?)
    }

    /// The value bound to the pre-interned symbol `id`, if any.
    pub fn get_sym(&self, id: SymId) -> Option<&Value> {
        // Rows hold a handful of entries; a branch-predictable linear scan
        // beats binary search at this size.
        self.entries.iter().find(|(sym, _)| *sym == id).map(|(_, value)| value)
    }

    /// Binds `id` to `value`, replacing any existing binding.
    pub fn insert_sym(&mut self, id: SymId, value: Value) {
        match self.entries.binary_search_by_key(&id, |(sym, _)| *sym) {
            Ok(position) => self.entries[position].1 = value,
            Err(position) => self.entries.insert(position, (id, value)),
        }
    }

    /// Binds `id` to `value` only if it is not already bound (the
    /// `OPTIONAL MATCH` null-fill).
    pub fn insert_if_absent_sym(&mut self, id: SymId, value: Value) {
        if let Err(position) = self.entries.binary_search_by_key(&id, |(sym, _)| *sym) {
            self.entries.insert(position, (id, value));
        }
    }

    /// Copy-on-extend: the row plus one binding of `id`, built in a single
    /// right-sized allocation instead of clone-then-insert.
    pub fn with_sym(&self, id: SymId, value: Value) -> Row {
        let position = self.entries.partition_point(|(sym, _)| *sym < id);
        let rest = match self.entries.get(position) {
            Some((sym, _)) if *sym == id => position + 1,
            _ => position,
        };
        let mut entries = Vec::with_capacity(self.entries.len() + 1);
        entries.extend_from_slice(&self.entries[..position]);
        entries.push((id, value));
        entries.extend_from_slice(&self.entries[rest..]);
        Row { entries }
    }

    /// Binds `name` to `value`, replacing any existing binding.
    pub fn insert(&mut self, symbols: &SymbolTable, name: &str, value: Value) {
        self.insert_sym(symbols.intern(name), value);
    }

    /// Merges every binding of `other` into `self` (bindings of `other`
    /// win). Used by `WITH ... WHERE`, whose predicate sees the projected
    /// names on top of the pre-projection environment.
    pub fn merge_from(&mut self, other: &Row) {
        for (sym, value) in &other.entries {
            self.insert_sym(*sym, value.clone());
        }
    }

    /// The bound values, in symbol order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, value)| value)
    }

    /// The bound names, in symbol order.
    pub fn names(&self, symbols: &SymbolTable) -> Vec<Rc<str>> {
        self.entries.iter().map(|(sym, _)| symbols.name(*sym)).collect()
    }
}

/// Evaluation context shared by all expression evaluations of one query run.
#[derive(Clone, Copy)]
pub struct EvalCtx<'g> {
    /// The property graph being queried.
    pub graph: &'g PropertyGraph,
    /// The run's symbol table (see [`SymbolTable`]).
    pub symbols: &'g SymbolTable,
    /// The run's lazily lowered query plans (see [`PlanCache`]): `MATCH`
    /// clauses and explicit projections evaluate through their compiled,
    /// [`SymId`]-native forms.
    pub plans: &'g PlanCache,
}

impl<'g> EvalCtx<'g> {
    /// A context evaluating over `graph` with `plan`'s symbol table and
    /// lowered-plan cache.
    pub fn new(graph: &'g PropertyGraph, plan: &'g QueryPlan) -> Self {
        EvalCtx { graph, symbols: plan.symbols(), plans: plan.plans() }
    }
}

/// Evaluates an expression to a [`Value`] in the given row.
pub fn eval_expr(ctx: EvalCtx<'_>, row: &Row, expr: &Expr) -> Result<Value, EvalError> {
    match expr {
        Expr::Literal(lit) => Ok(eval_literal(lit)),
        Expr::Variable(name) => Ok(row.get(ctx.symbols, name).cloned().unwrap_or(Value::Null)),
        Expr::Parameter(name) => Err(EvalError::new(format!(
            "unbound query parameter `${name}` (the evaluator does not take parameters)"
        ))),
        Expr::Property(base, key) => {
            let base = eval_expr(ctx, row, base)?;
            Ok(read_property(ctx, &base, key))
        }
        Expr::Unary(op, inner) => {
            let value = eval_expr(ctx, row, inner)?;
            Ok(match op {
                UnaryOp::Not => bool3_to_value(not3(value.as_bool())),
                // Direct negation, not `0 - x`: the subtraction detour turned
                // `-(0.0)` into `+0.0` (losing the IEEE sign bit, observable
                // through the total order) and hid the `-(i64::MIN)` overflow
                // inside `checked_sub`.
                UnaryOp::Neg => value.neg(),
                UnaryOp::Pos => value,
            })
        }
        Expr::Binary(op, lhs, rhs) => eval_binary(ctx, row, *op, lhs, rhs),
        Expr::IsNull { expr, negated } => {
            let value = eval_expr(ctx, row, expr)?;
            let is_null = value.is_null();
            Ok(Value::Boolean(if *negated { !is_null } else { is_null }))
        }
        Expr::List(items) => {
            let values = items
                .iter()
                .map(|item| eval_expr(ctx, row, item))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Value::List(values))
        }
        Expr::Map(entries) => {
            let mut map = BTreeMap::new();
            for (key, value) in entries {
                map.insert(key.clone(), eval_expr(ctx, row, value)?);
            }
            Ok(Value::Map(map))
        }
        Expr::FunctionCall { name, args } => {
            let values =
                args.iter().map(|arg| eval_expr(ctx, row, arg)).collect::<Result<Vec<_>, _>>()?;
            eval_function(ctx, name, &values)
        }
        Expr::AggregateCall { .. } | Expr::CountStar { .. } => {
            Err(EvalError::new("aggregate expressions can only appear in WITH/RETURN projections"))
        }
        Expr::Exists(query) => {
            let result = evaluate_union_query(ctx, query, vec![row.clone()], false)?;
            Ok(Value::Boolean(!result.rows.is_empty()))
        }
        Expr::Case { branches, otherwise } => {
            for (cond, value) in branches {
                if eval_expr(ctx, row, cond)?.as_bool() == Some(true) {
                    return eval_expr(ctx, row, value);
                }
            }
            match otherwise {
                Some(e) => eval_expr(ctx, row, e),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Evaluates a predicate for `WHERE`: only `TRUE` passes.
pub fn eval_predicate(ctx: EvalCtx<'_>, row: &Row, expr: &Expr) -> Result<bool, EvalError> {
    Ok(eval_expr(ctx, row, expr)?.as_bool() == Some(true))
}

fn eval_literal(lit: &Literal) -> Value {
    match lit {
        Literal::Integer(v) => Value::Integer(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::String(s) => Value::String(s.clone()),
        Literal::Boolean(b) => Value::Boolean(*b),
        Literal::Null => Value::Null,
    }
}

/// Evaluates `expr` at lowering time if it is a row-independent constant,
/// mirroring [`eval_expr`]'s semantics exactly on the covered fragment
/// (literals and unary `+`/`-` over them — in particular `Neg` goes through
/// [`Value::neg`], preserving `-0.0` and `i64::MIN` behavior). Returns `None`
/// for anything that could depend on the row, the graph, or evaluation
/// order, which stays dynamic.
pub(crate) fn eval_const_expr(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Literal(lit) => Some(eval_literal(lit)),
        Expr::Unary(UnaryOp::Neg, inner) => Some(eval_const_expr(inner)?.neg()),
        Expr::Unary(UnaryOp::Pos, inner) => eval_const_expr(inner),
        _ => None,
    }
}

fn eval_binary(
    ctx: EvalCtx<'_>,
    row: &Row,
    op: BinaryOp,
    lhs: &Expr,
    rhs: &Expr,
) -> Result<Value, EvalError> {
    // Logical connectives get three-valued treatment and may short-circuit.
    if op.is_logical() {
        let left = eval_expr(ctx, row, lhs)?.as_bool();
        let right = eval_expr(ctx, row, rhs)?.as_bool();
        return Ok(bool3_to_value(match op {
            BinaryOp::And => and3(left, right),
            BinaryOp::Or => or3(left, right),
            BinaryOp::Xor => xor3(left, right),
            _ => unreachable!("is_logical covers only AND/OR/XOR"),
        }));
    }

    let left = eval_expr(ctx, row, lhs)?;
    let right = eval_expr(ctx, row, rhs)?;
    Ok(match op {
        BinaryOp::Eq => bool3_to_value(left.cypher_eq(&right)),
        BinaryOp::Neq => bool3_to_value(not3(left.cypher_eq(&right))),
        BinaryOp::Lt => bool3_to_value(left.cypher_cmp(&right).map(|o| o.is_lt())),
        BinaryOp::Le => bool3_to_value(left.cypher_cmp(&right).map(|o| o.is_le())),
        BinaryOp::Gt => bool3_to_value(left.cypher_cmp(&right).map(|o| o.is_gt())),
        BinaryOp::Ge => bool3_to_value(left.cypher_cmp(&right).map(|o| o.is_ge())),
        BinaryOp::Add => left.add(&right),
        BinaryOp::Sub => left.sub(&right),
        BinaryOp::Mul => left.mul(&right),
        BinaryOp::Div => left.div(&right),
        BinaryOp::Mod => left.rem(&right),
        BinaryOp::Pow => left.pow(&right),
        BinaryOp::In => eval_in(&left, &right),
        BinaryOp::StartsWith => eval_string_predicate(&left, &right, |a, b| a.starts_with(b)),
        BinaryOp::EndsWith => eval_string_predicate(&left, &right, |a, b| a.ends_with(b)),
        BinaryOp::Contains => eval_string_predicate(&left, &right, |a, b| a.contains(b)),
        BinaryOp::And | BinaryOp::Or | BinaryOp::Xor => unreachable!("handled above"),
    })
}

fn eval_in(needle: &Value, haystack: &Value) -> Value {
    match haystack {
        Value::Null => Value::Null,
        Value::List(items) => {
            let mut saw_null = false;
            for item in items {
                match needle.cypher_eq(item) {
                    Some(true) => return Value::Boolean(true),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Value::Null
            } else {
                Value::Boolean(false)
            }
        }
        _ => Value::Null,
    }
}

fn eval_string_predicate(left: &Value, right: &Value, f: impl Fn(&str, &str) -> bool) -> Value {
    match (left, right) {
        (Value::String(a), Value::String(b)) => Value::Boolean(f(a, b)),
        _ => Value::Null,
    }
}

fn bool3_to_value(value: Option<bool>) -> Value {
    match value {
        Some(b) => Value::Boolean(b),
        None => Value::Null,
    }
}

/// Reads `base.key` where `base` may be a node, relationship or map.
pub fn read_property(ctx: EvalCtx<'_>, base: &Value, key: &str) -> Value {
    match base {
        Value::Node(id) => ctx.graph.property(EntityId::Node(*id), key),
        Value::Relationship(id) => ctx.graph.property(EntityId::Relationship(*id), key),
        Value::Map(map) => map.get(key).cloned().unwrap_or(Value::Null),
        _ => Value::Null,
    }
}

/// Evaluates the built-in scalar functions that the evaluation dataset uses.
///
/// The supported set is [`cypher_parser::BuiltinFunction`] — the same
/// registry the stage-① semantic check admits, so the two cannot drift and
/// the `match` below is exhaustive by construction. Unknown names evaluate
/// to `NULL`, but since PR 5 the semantic check rejects them, so for checked
/// queries the fallthrough is unreachable; it survives for direct
/// `eval_expr` callers that bypass the checker.
fn eval_function(ctx: EvalCtx<'_>, name: &str, args: &[Value]) -> Result<Value, EvalError> {
    use cypher_parser::BuiltinFunction as F;
    let arg = |i: usize| args.get(i).cloned().unwrap_or(Value::Null);
    let Some(function) = F::from_name(name) else {
        // Unknown / unmodelled functions: NULL (mirrors the prover treating
        // them as uninterpreted).
        return Ok(Value::Null);
    };
    Ok(match function {
        F::Id => match arg(0) {
            Value::Node(id) => Value::Integer(id.0 as i64),
            // Relationship ids live in a disjoint range so that `id(n) = id(r)`
            // can never hold between a node and a relationship.
            Value::Relationship(id) => Value::Integer(1_000_000_000 + id.0 as i64),
            _ => Value::Null,
        },
        F::Labels => match arg(0) {
            Value::Node(id) => Value::List(
                ctx.graph.label_names(id).map(|label| Value::String(label.to_string())).collect(),
            ),
            _ => Value::Null,
        },
        F::Type => match arg(0) {
            Value::Relationship(id) => Value::String(ctx.graph.rel_type_name(id).to_string()),
            _ => Value::Null,
        },
        F::Size => match arg(0) {
            Value::List(items) => Value::Integer(items.len() as i64),
            Value::String(s) => Value::Integer(s.chars().count() as i64),
            _ => Value::Null,
        },
        F::Length => match arg(0) {
            Value::Path(items) => Value::Integer((items.len().saturating_sub(1) / 2) as i64),
            Value::List(items) => Value::Integer(items.len() as i64),
            Value::String(s) => Value::Integer(s.chars().count() as i64),
            _ => Value::Null,
        },
        F::Head => match arg(0) {
            Value::List(items) => items.first().cloned().unwrap_or(Value::Null),
            _ => Value::Null,
        },
        F::Last => match arg(0) {
            Value::List(items) => items.last().cloned().unwrap_or(Value::Null),
            _ => Value::Null,
        },
        F::Abs => match arg(0) {
            Value::Integer(v) => Value::Integer(v.abs()),
            Value::Float(v) => Value::Float(v.abs()),
            _ => Value::Null,
        },
        F::ToUpper => match arg(0) {
            Value::String(s) => Value::String(s.to_uppercase()),
            _ => Value::Null,
        },
        F::ToLower => match arg(0) {
            Value::String(s) => Value::String(s.to_lowercase()),
            _ => Value::Null,
        },
        F::Coalesce => args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null),
        F::Exists => Value::Boolean(!arg(0).is_null()),
        F::StartNode => match arg(0) {
            Value::Relationship(id) => Value::Node(ctx.graph.relationship(id).source),
            _ => Value::Null,
        },
        F::EndNode => match arg(0) {
            Value::Relationship(id) => Value::Node(ctx.graph.relationship(id).target),
            _ => Value::Null,
        },
        F::Index => match (arg(0), arg(1)) {
            (Value::List(items), Value::Integer(i)) if i >= 0 && (i as usize) < items.len() => {
                items[i as usize].clone()
            }
            _ => Value::Null,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use cypher_parser::parse_expression;

    fn ctx_and_row() -> (PropertyGraph, QueryPlan, Row) {
        let graph = PropertyGraph::paper_example();
        let plan = QueryPlan::empty();
        let mut row = Row::new();
        row.insert(plan.symbols(), "n", Value::Node(NodeId(0)));
        row.insert(plan.symbols(), "x", Value::Integer(5));
        (graph, plan, row)
    }

    fn eval(graph: &PropertyGraph, plan: &QueryPlan, row: &Row, text: &str) -> Value {
        let expr = parse_expression(text).unwrap();
        eval_expr(EvalCtx::new(graph, plan), row, &expr).unwrap()
    }

    #[test]
    fn evaluates_property_access_and_comparison() {
        let (graph, plan, row) = ctx_and_row();
        assert_eq!(eval(&graph, &plan, &row, "n.age"), Value::Integer(59));
        assert_eq!(eval(&graph, &plan, &row, "n.age = 59"), Value::Boolean(true));
        assert_eq!(eval(&graph, &plan, &row, "n.age > 100"), Value::Boolean(false));
        assert_eq!(eval(&graph, &plan, &row, "n.missing = 1"), Value::Null);
        assert_eq!(eval(&graph, &plan, &row, "n.missing IS NULL"), Value::Boolean(true));
        assert_eq!(eval(&graph, &plan, &row, "n.age IS NOT NULL"), Value::Boolean(true));
    }

    #[test]
    fn evaluates_arithmetic_and_logic() {
        let (graph, plan, row) = ctx_and_row();
        assert_eq!(eval(&graph, &plan, &row, "x + 2 * 3"), Value::Integer(11));
        assert_eq!(eval(&graph, &plan, &row, "x > 1 AND x < 10"), Value::Boolean(true));
        assert_eq!(eval(&graph, &plan, &row, "x > 1 AND n.missing = 1"), Value::Null);
        assert_eq!(eval(&graph, &plan, &row, "x < 1 AND n.missing = 1"), Value::Boolean(false));
        assert_eq!(eval(&graph, &plan, &row, "NOT x = 5"), Value::Boolean(false));
        assert_eq!(eval(&graph, &plan, &row, "x IN [1, 5, 9]"), Value::Boolean(true));
        assert_eq!(eval(&graph, &plan, &row, "x IN [1, 2]"), Value::Boolean(false));
    }

    #[test]
    fn evaluates_string_predicates_and_functions() {
        let (graph, plan, row) = ctx_and_row();
        assert_eq!(eval(&graph, &plan, &row, "n.name STARTS WITH 'J.'"), Value::Boolean(true));
        assert_eq!(eval(&graph, &plan, &row, "n.name CONTAINS 'Rowling'"), Value::Boolean(true));
        assert_eq!(eval(&graph, &plan, &row, "size('abc')"), Value::Integer(3));
        assert_eq!(eval(&graph, &plan, &row, "coalesce(n.missing, 7)"), Value::Integer(7));
        assert_eq!(eval(&graph, &plan, &row, "id(n)"), Value::Integer(0));
        assert_eq!(
            eval(&graph, &plan, &row, "labels(n)"),
            Value::List(vec![Value::from("Person")])
        );
        assert_eq!(eval(&graph, &plan, &row, "unknown_function(n)"), Value::Null);
    }

    #[test]
    fn evaluates_case_and_maps_and_lists() {
        let (graph, plan, row) = ctx_and_row();
        assert_eq!(
            eval(&graph, &plan, &row, "CASE WHEN x > 3 THEN 'big' ELSE 'small' END"),
            Value::from("big")
        );
        assert_eq!(eval(&graph, &plan, &row, "{a: 1, b: 2}.b"), Value::Integer(2));
        assert_eq!(eval(&graph, &plan, &row, "[1, 2, 3][1]"), Value::Integer(2));
        assert_eq!(eval(&graph, &plan, &row, "head([4, 5])"), Value::Integer(4));
    }

    #[test]
    fn unbound_variables_are_null() {
        let (graph, plan, row) = ctx_and_row();
        assert_eq!(eval(&graph, &plan, &row, "missing_variable"), Value::Null);
        assert_eq!(eval(&graph, &plan, &row, "missing_variable = 1"), Value::Null);
    }

    #[test]
    fn parameters_are_rejected() {
        let (graph, plan, row) = ctx_and_row();
        let expr = parse_expression("$p = 1").unwrap();
        assert!(eval_expr(EvalCtx::new(&graph, &plan), &row, &expr).is_err());
    }

    #[test]
    fn aggregates_outside_projections_are_rejected() {
        let (graph, plan, row) = ctx_and_row();
        let expr = parse_expression("SUM(x)").unwrap();
        assert!(eval_expr(EvalCtx::new(&graph, &plan), &row, &expr).is_err());
    }

    #[test]
    fn symbol_table_interns_densely_and_round_trips() {
        let symbols = SymbolTable::new();
        let a = symbols.intern("a");
        let b = symbols.intern("b");
        assert_eq!(a, SymId(0));
        assert_eq!(b, SymId(1));
        assert_eq!(symbols.intern("a"), a, "re-interning returns the same id");
        assert_eq!(symbols.lookup("b"), Some(b));
        assert_eq!(symbols.lookup("missing"), None);
        assert_eq!(&*symbols.name(a), "a");
        assert_eq!(symbols.len(), 2);
    }

    #[test]
    fn plan_time_interning_covers_query_names() {
        let query = cypher_parser::parse_query(
            "MATCH p = (a:Person)-[r:READ]->(b) WHERE a.age > 1 \
             WITH b.title AS title UNWIND [1] AS x RETURN title, x AS renamed",
        )
        .unwrap();
        let symbols = SymbolTable::for_query(&query);
        for name in ["p", "a", "r", "b", "title", "x", "renamed"] {
            assert!(symbols.lookup(name).is_some(), "{name} not interned at plan time");
        }
    }

    #[test]
    fn rows_bind_replace_extend_and_merge() {
        let symbols = SymbolTable::new();
        let mut row = Row::new();
        // Insert out of symbol order to exercise the sorted insert.
        let z = symbols.intern("z");
        row.insert(&symbols, "a", Value::Integer(2));
        row.insert_sym(z, Value::Integer(1));
        row.insert(&symbols, "m", Value::Integer(3));
        row.insert(&symbols, "a", Value::Integer(4)); // replace
        row.insert_if_absent_sym(symbols.intern("m"), Value::Null); // no-op
        row.insert_if_absent_sym(symbols.intern("q"), Value::Integer(5));
        assert_eq!(row.len(), 4);
        assert_eq!(row.get(&symbols, "a"), Some(&Value::Integer(4)));
        assert_eq!(row.get(&symbols, "m"), Some(&Value::Integer(3)));
        assert_eq!(row.get(&symbols, "q"), Some(&Value::Integer(5)));
        assert_eq!(row.get(&symbols, "missing"), None);
        let names: Vec<String> = row.names(&symbols).iter().map(|n| n.to_string()).collect();
        assert_eq!(names, ["z", "a", "m", "q"], "entries stay in symbol order");

        // Copy-on-extend preserves the original.
        let extended = row.with_sym(symbols.intern("b"), Value::Integer(9));
        assert_eq!(row.len(), 4);
        assert_eq!(extended.len(), 5);
        assert_eq!(extended.get(&symbols, "b"), Some(&Value::Integer(9)));
        let replaced = row.with_sym(symbols.intern("a"), Value::Integer(0));
        assert_eq!(replaced.len(), 4);
        assert_eq!(replaced.get(&symbols, "a"), Some(&Value::Integer(0)));

        // merge_from lets the other row's bindings win.
        let mut merged = row.clone();
        let mut overlay = Row::new();
        overlay.insert(&symbols, "a", Value::Integer(7));
        overlay.insert(&symbols, "new", Value::Integer(8));
        merged.merge_from(&overlay);
        assert_eq!(merged.get(&symbols, "a"), Some(&Value::Integer(7)));
        assert_eq!(merged.get(&symbols, "new"), Some(&Value::Integer(8)));
        assert_eq!(merged.len(), 5);
    }

    /// Every function in the shared [`cypher_parser::BuiltinFunction`]
    /// registry evaluates through a real arm of `eval_function`: applied to
    /// representative arguments, each returns a non-NULL value, which the
    /// unknown-name fallthrough can never produce. This pins the runtime
    /// side of the registry/evaluator agreement the enum guarantees at
    /// compile time.
    #[test]
    fn every_registered_builtin_evaluates_non_null() {
        use crate::graph::RelId;
        use cypher_parser::BuiltinFunction;

        let graph = PropertyGraph::paper_example();
        let plan = QueryPlan::empty();
        let mut row = Row::new();
        row.insert(plan.symbols(), "n", Value::Node(NodeId(0)));
        row.insert(plan.symbols(), "r", Value::Relationship(RelId(0)));
        let representative = |function: BuiltinFunction| match function {
            BuiltinFunction::Id => "id(n)",
            BuiltinFunction::Labels => "labels(n)",
            BuiltinFunction::Type => "type(r)",
            BuiltinFunction::Size => "size('abc')",
            BuiltinFunction::Length => "length([1, 2])",
            BuiltinFunction::Head => "head([1, 2])",
            BuiltinFunction::Last => "last([1, 2])",
            BuiltinFunction::Abs => "abs(0 - 3)",
            BuiltinFunction::ToUpper => "toUpper('a')",
            BuiltinFunction::ToLower => "toLower('A')",
            BuiltinFunction::Coalesce => "coalesce(n.missing, 7)",
            BuiltinFunction::Exists => "exists(n.name)",
            BuiltinFunction::StartNode => "startNode(r)",
            BuiltinFunction::EndNode => "endNode(r)",
            BuiltinFunction::Index => "index([4, 5], 1)",
        };
        for &function in BuiltinFunction::ALL {
            let text = representative(function);
            let value = eval(&graph, &plan, &row, text);
            assert!(!value.is_null(), "{text}: registered builtin evaluated to NULL");
        }
    }
}
