//! A minimal bag-semantics Cypher evaluator for counterexample re-validation.
//!
//! This is an independent port of the prover's evaluator
//! (`property_graph::eval`), written for simplicity rather than speed:
//! name-keyed map rows and linear-scan candidate enumeration, where the
//! prover uses interned-symbol rows, compiled plans and an adjacency index.
//! It shares no code with the prover, which makes it the prover evaluator's
//! oracle as well as the certificate re-checker: `tests/checker_differential.rs`
//! asserts the two return the same columns, the same rows in the same order,
//! and the same errors. Candidate order matters beyond bag equality: `LIMIT`
//! without `ORDER BY` makes results depend on row production order, so
//! enumeration here must stay ascending by node/relationship id, with
//! variable-length paths explored depth-first exactly like the prover's
//! matcher.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use cypher_parser::ast::{
    Aggregate, BinaryOp, Clause, Expr, Literal, MatchClause, NodePattern, PathPattern, Projection,
    ProjectionItems, Query, RelDirection, RelationshipPattern, SingleQuery, UnaryOp, UnionKind,
    WithClause,
};

use crate::graph::{EntityId, Graph};
use crate::value::{
    add, and3, cypher_cmp, cypher_eq, div, mul, neg, not3, or3, pow, rem, sub, total_cmp, xor3,
    NodeId, RelId, Value,
};

/// A binding row: variable name → value.
pub type Row = BTreeMap<String, Value>;

/// The tabular result of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names, in `RETURN` order.
    pub columns: Vec<String>,
    /// The result rows, in result order.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Rows sorted by the total value order (canonical bag representation).
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| cmp_rows(a, b));
        rows
    }

    /// Bag equality: the same tuples with the same multiplicities, and the
    /// same arity unless both bags are empty (an empty bag holds no tuple
    /// whose width could differ). Column names are ignored, matching the
    /// prover's Definition 4.
    pub fn bag_equal(&self, other: &QueryResult) -> bool {
        if self.rows.is_empty() && other.rows.is_empty() {
            return true;
        }
        if self.columns.len() != other.columns.len() || self.rows.len() != other.rows.len() {
            return false;
        }
        self.sorted_rows()
            .iter()
            .zip(other.sorted_rows().iter())
            .all(|(a, b)| cmp_rows(a, b) == Ordering::Equal)
    }
}

/// Elementwise total order on rows, then by length.
pub fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = total_cmp(x, y);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

/// Evaluates `query` over `graph` starting from one empty row.
pub fn evaluate_query(graph: &Graph, query: &Query) -> Result<QueryResult, String> {
    evaluate_union_query(graph, query, vec![Row::new()], true)
}

fn evaluate_union_query(
    graph: &Graph,
    query: &Query,
    initial_rows: Vec<Row>,
    require_return: bool,
) -> Result<QueryResult, String> {
    let mut combined: Option<QueryResult> = None;
    for (index, part) in query.parts.iter().enumerate() {
        let result = evaluate_single(graph, part, initial_rows.clone(), require_return)?;
        combined = Some(match combined {
            None => result,
            Some(acc) => {
                if acc.columns.len() != result.columns.len() {
                    return Err(
                        "UNION requires sub-queries with the same number of columns".to_string()
                    );
                }
                let mut rows = acc.rows;
                rows.extend(result.rows);
                let merged = QueryResult { columns: acc.columns, rows };
                match query.unions[index - 1] {
                    UnionKind::All => merged,
                    UnionKind::Distinct => QueryResult {
                        columns: merged.columns,
                        rows: dedup_first_occurrence(merged.rows, |a, b| cmp_rows(a, b)),
                    },
                }
            }
        });
    }
    Ok(combined.unwrap_or(QueryResult { columns: Vec::new(), rows: Vec::new() }))
}

/// Keeps the first occurrence of every distinct element under `cmp`,
/// preserving input order.
fn dedup_first_occurrence<T>(mut items: Vec<T>, cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    if items.len() <= 1 {
        return items;
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_unstable_by(|&a, &b| cmp(&items[a], &items[b]).then(a.cmp(&b)));
    let mut keep = vec![false; items.len()];
    let mut leader: Option<usize> = None;
    for &index in &order {
        if leader.is_none_or(|l| cmp(&items[l], &items[index]) != Ordering::Equal) {
            keep[index] = true;
            leader = Some(index);
        }
    }
    let mut keep = keep.into_iter();
    items.retain(|_| keep.next().expect("mask covers every element"));
    items
}

fn evaluate_single(
    graph: &Graph,
    query: &SingleQuery,
    mut rows: Vec<Row>,
    require_return: bool,
) -> Result<QueryResult, String> {
    for clause in &query.clauses {
        match clause {
            Clause::Match(m) => {
                rows = apply_match(graph, m, rows)?;
            }
            Clause::Unwind(u) => {
                let mut next = Vec::new();
                for row in rows {
                    let value = eval_expr(graph, &row, &u.expr)?;
                    match value {
                        Value::Null => {}
                        Value::List(items) => {
                            for item in items {
                                let mut extended = row.clone();
                                extended.insert(u.alias.clone(), item);
                                next.push(extended);
                            }
                        }
                        other => {
                            let mut extended = row.clone();
                            extended.insert(u.alias.clone(), other);
                            next.push(extended);
                        }
                    }
                }
                rows = next;
            }
            Clause::With(w) => {
                rows = apply_with(graph, w, rows)?;
            }
            Clause::Return(p) => {
                let (columns, projected) = apply_projection(graph, p, &rows)?;
                let result_rows = projected.into_iter().map(|(values, _)| values).collect();
                return Ok(QueryResult { columns, rows: result_rows });
            }
        }
    }
    if require_return {
        return Err("query does not end with a RETURN clause".to_string());
    }
    // Subquery (EXISTS) without RETURN: expose the surviving multiplicity.
    Ok(QueryResult { columns: Vec::new(), rows: rows.into_iter().map(|_| Vec::new()).collect() })
}

fn apply_match(graph: &Graph, clause: &MatchClause, rows: Vec<Row>) -> Result<Vec<Row>, String> {
    let mut next = Vec::new();
    let mut optional_variables: Option<Vec<String>> = None;
    for row in rows {
        let matches = match_clause(graph, clause, &row)?;
        if matches.is_empty() && clause.optional {
            let variables = optional_variables.get_or_insert_with(|| pattern_variables(clause));
            let mut extended = row.clone();
            for name in variables {
                extended.entry(name.clone()).or_insert(Value::Null);
            }
            next.push(extended);
        } else {
            next.extend(matches);
        }
    }
    Ok(next)
}

fn pattern_variables(clause: &MatchClause) -> Vec<String> {
    let mut names = Vec::new();
    for pattern in &clause.patterns {
        if let Some(v) = &pattern.variable {
            names.push(v.clone());
        }
        for node in pattern.nodes() {
            if let Some(v) = &node.variable {
                names.push(v.clone());
            }
        }
        for rel in pattern.relationships() {
            if let Some(v) = &rel.variable {
                names.push(v.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

fn apply_with(graph: &Graph, clause: &WithClause, rows: Vec<Row>) -> Result<Vec<Row>, String> {
    let (columns, projected) = apply_projection(graph, &clause.projection, &rows)?;
    let mut next = Vec::new();
    for (values, env) in projected {
        let mut row = Row::new();
        for (name, value) in columns.iter().zip(values) {
            row.insert(name.clone(), value);
        }
        if let Some(predicate) = &clause.where_clause {
            // The WHERE of a WITH sees both the projected names and the
            // pre-projection bindings (projected names win).
            let mut combined = env.clone();
            for (name, value) in &row {
                combined.insert(name.clone(), value.clone());
            }
            if !eval_predicate(graph, &combined, predicate)? {
                continue;
            }
        }
        next.push(row);
    }
    Ok(next)
}

/// Applies a projection (shared by `WITH` and `RETURN`); returns output
/// column names and, per output row, the projected values and the
/// environment row (pre-projection bindings merged with the projected ones)
/// that `ORDER BY` and `WITH ... WHERE` refer to.
#[allow(clippy::type_complexity)]
fn apply_projection(
    graph: &Graph,
    projection: &Projection,
    rows: &[Row],
) -> Result<(Vec<String>, Vec<(Vec<Value>, Row)>), String> {
    let items: Vec<(String, Expr)> = match &projection.items {
        ProjectionItems::Star => {
            let names: BTreeSet<String> = rows.iter().flat_map(|r| r.keys().cloned()).collect();
            names.into_iter().map(|n| (n.clone(), Expr::Variable(n))).collect()
        }
        ProjectionItems::Items(items) => {
            items.iter().map(|item| (item.output_name(), item.expr.clone())).collect()
        }
    };
    let columns: Vec<String> = items.iter().map(|(name, _)| name.clone()).collect();
    let exprs: Vec<&Expr> = items.iter().map(|(_, expr)| expr).collect();

    let has_aggregate = exprs.iter().any(|expr| expr.contains_aggregate());
    let mut produced: Vec<(Vec<Value>, Row)> = Vec::new();

    if has_aggregate {
        // Group rows by the values of the non-aggregate items, in
        // first-occurrence order.
        let grouping: Vec<&Expr> =
            exprs.iter().filter(|e| !e.contains_aggregate()).copied().collect();
        let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
        for row in rows {
            let key =
                grouping.iter().map(|e| eval_expr(graph, row, e)).collect::<Result<Vec<_>, _>>()?;
            match groups.iter_mut().find(|(k, _)| cmp_rows(k, &key) == Ordering::Equal) {
                Some((_, members)) => members.push(row.clone()),
                None => groups.push((key, vec![row.clone()])),
            }
        }
        // A global aggregate over zero rows still produces one row.
        if groups.is_empty() && grouping.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        for (_, members) in groups {
            let representative = members.first().cloned().unwrap_or_default();
            let mut values = Vec::new();
            for expr in &exprs {
                values.push(eval_with_aggregates(graph, &members, &representative, expr)?);
            }
            let mut env = representative.clone();
            for (name, value) in columns.iter().zip(values.iter()) {
                env.insert(name.clone(), value.clone());
            }
            produced.push((values, env));
        }
    } else {
        for row in rows {
            let mut values = Vec::new();
            for expr in &exprs {
                values.push(eval_expr(graph, row, expr)?);
            }
            let mut env = row.clone();
            for (name, value) in columns.iter().zip(values.iter()) {
                env.insert(name.clone(), value.clone());
            }
            produced.push((values, env));
        }
    }

    if projection.distinct {
        produced = dedup_first_occurrence(produced, |(a, _), (b, _)| cmp_rows(a, b));
    }

    if !projection.order_by.is_empty() {
        let mut keyed: Vec<(Vec<(Value, bool)>, (Vec<Value>, Row))> = Vec::new();
        for entry in produced {
            let mut keys = Vec::new();
            for order in &projection.order_by {
                keys.push((eval_expr(graph, &entry.1, &order.expr)?, order.ascending));
            }
            keyed.push((keys, entry));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            for ((va, asc), (vb, _)) in a.iter().zip(b.iter()) {
                let ord = total_cmp(va, vb);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        produced = keyed.into_iter().map(|(_, entry)| entry).collect();
    }

    if let Some(skip) = &projection.skip {
        let n = constant_usize(graph, skip, "SKIP")?;
        produced = produced.into_iter().skip(n).collect();
    }
    if let Some(limit) = &projection.limit {
        let n = constant_usize(graph, limit, "LIMIT")?;
        produced.truncate(n);
    }
    Ok((columns, produced))
}

fn eval_with_aggregates(
    graph: &Graph,
    group: &[Row],
    representative: &Row,
    expr: &Expr,
) -> Result<Value, String> {
    match expr {
        Expr::CountStar { distinct } => {
            if *distinct {
                // Whole-row values in name order (the map iteration order).
                let value_rows: Vec<Vec<Value>> =
                    group.iter().map(|row| row.values().cloned().collect()).collect();
                let distinct_rows = dedup_first_occurrence(value_rows, |a, b| cmp_rows(a, b));
                Ok(Value::Integer(distinct_rows.len() as i64))
            } else {
                Ok(Value::Integer(group.len() as i64))
            }
        }
        Expr::AggregateCall { func, distinct, arg } => {
            let mut values = Vec::new();
            for row in group {
                let value = eval_expr(graph, row, arg)?;
                if !value.is_null() {
                    values.push(value);
                }
            }
            if *distinct {
                values = dedup_first_occurrence(values, total_cmp);
            }
            Ok(compute_aggregate(*func, values))
        }
        Expr::Binary(op, lhs, rhs) => {
            let left = eval_with_aggregates(graph, group, representative, lhs)?;
            let right = eval_with_aggregates(graph, group, representative, rhs)?;
            // Re-dispatch on literal values by delegating to the scalar path.
            let lit = Expr::Binary(
                *op,
                Box::new(Expr::Variable("·agg_lhs".to_string())),
                Box::new(Expr::Variable("·agg_rhs".to_string())),
            );
            let mut row = representative.clone();
            row.insert("·agg_lhs".to_string(), left);
            row.insert("·agg_rhs".to_string(), right);
            eval_expr(graph, &row, &lit)
        }
        Expr::Unary(op, inner) => {
            let value = eval_with_aggregates(graph, group, representative, inner)?;
            let mut row = representative.clone();
            row.insert("·agg".to_string(), value);
            eval_expr(graph, &row, &Expr::Unary(*op, Box::new(Expr::Variable("·agg".to_string()))))
        }
        _ if !expr.contains_aggregate() => eval_expr(graph, representative, expr),
        other => Err(format!("unsupported aggregate expression shape: {other:?}")),
    }
}

fn compute_aggregate(func: Aggregate, values: Vec<Value>) -> Value {
    match func {
        Aggregate::Count => Value::Integer(values.len() as i64),
        Aggregate::Collect => Value::List(values),
        Aggregate::Sum => {
            if values.is_empty() {
                return Value::Integer(0);
            }
            let mut acc = Value::Integer(0);
            for value in values {
                acc = add(&acc, &value);
            }
            acc
        }
        Aggregate::Min => values.into_iter().min_by(total_cmp).unwrap_or(Value::Null),
        Aggregate::Max => values.into_iter().max_by(total_cmp).unwrap_or(Value::Null),
        Aggregate::Avg => {
            if values.is_empty() {
                return Value::Null;
            }
            let count = values.len() as f64;
            let sum: f64 = values.iter().filter_map(|v| v.as_number()).sum();
            Value::Float(sum / count)
        }
    }
}

fn constant_usize(graph: &Graph, expr: &Expr, what: &str) -> Result<usize, String> {
    let value = eval_expr(graph, &Row::new(), expr)?;
    match value {
        Value::Integer(v) if v >= 0 => Ok(v as usize),
        other => Err(format!("{what} requires a non-negative integer, got {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

/// Evaluates an expression to a [`Value`] in the given row.
pub fn eval_expr(graph: &Graph, row: &Row, expr: &Expr) -> Result<Value, String> {
    match expr {
        Expr::Literal(lit) => Ok(eval_literal(lit)),
        Expr::Variable(name) => Ok(row.get(name).cloned().unwrap_or(Value::Null)),
        Expr::Parameter(name) => Err(format!(
            "unbound query parameter `${name}` (the checker evaluator does not take parameters)"
        )),
        Expr::Property(base, key) => {
            let base = eval_expr(graph, row, base)?;
            Ok(read_property(graph, &base, key))
        }
        Expr::Unary(op, inner) => {
            let value = eval_expr(graph, row, inner)?;
            Ok(match op {
                UnaryOp::Not => bool3_to_value(not3(value.as_bool())),
                UnaryOp::Neg => neg(&value),
                UnaryOp::Pos => value,
            })
        }
        Expr::Binary(op, lhs, rhs) => eval_binary(graph, row, *op, lhs, rhs),
        Expr::IsNull { expr, negated } => {
            let value = eval_expr(graph, row, expr)?;
            let is_null = value.is_null();
            Ok(Value::Boolean(if *negated { !is_null } else { is_null }))
        }
        Expr::List(items) => {
            let values = items
                .iter()
                .map(|item| eval_expr(graph, row, item))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Value::List(values))
        }
        Expr::Map(entries) => {
            let mut map = BTreeMap::new();
            for (key, value) in entries {
                map.insert(key.clone(), eval_expr(graph, row, value)?);
            }
            Ok(Value::Map(map))
        }
        Expr::FunctionCall { name, args } => {
            let values =
                args.iter().map(|arg| eval_expr(graph, row, arg)).collect::<Result<Vec<_>, _>>()?;
            Ok(eval_function(graph, name, &values))
        }
        Expr::AggregateCall { .. } | Expr::CountStar { .. } => {
            Err("aggregate expressions can only appear in WITH/RETURN projections".to_string())
        }
        Expr::Exists(query) => {
            let result = evaluate_union_query(graph, query, vec![row.clone()], false)?;
            Ok(Value::Boolean(!result.rows.is_empty()))
        }
        Expr::Case { branches, otherwise } => {
            for (cond, value) in branches {
                if eval_expr(graph, row, cond)?.as_bool() == Some(true) {
                    return eval_expr(graph, row, value);
                }
            }
            match otherwise {
                Some(e) => eval_expr(graph, row, e),
                None => Ok(Value::Null),
            }
        }
    }
}

fn eval_predicate(graph: &Graph, row: &Row, expr: &Expr) -> Result<bool, String> {
    Ok(eval_expr(graph, row, expr)?.as_bool() == Some(true))
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

fn eval_binary(
    graph: &Graph,
    row: &Row,
    op: BinaryOp,
    lhs: &Expr,
    rhs: &Expr,
) -> Result<Value, String> {
    if matches!(op, BinaryOp::And | BinaryOp::Or | BinaryOp::Xor) {
        let left = eval_expr(graph, row, lhs)?.as_bool();
        let right = eval_expr(graph, row, rhs)?.as_bool();
        return Ok(bool3_to_value(match op {
            BinaryOp::And => and3(left, right),
            BinaryOp::Or => or3(left, right),
            BinaryOp::Xor => xor3(left, right),
            _ => unreachable!(),
        }));
    }
    let left = eval_expr(graph, row, lhs)?;
    let right = eval_expr(graph, row, rhs)?;
    Ok(match op {
        BinaryOp::Eq => bool3_to_value(cypher_eq(&left, &right)),
        BinaryOp::Neq => bool3_to_value(not3(cypher_eq(&left, &right))),
        BinaryOp::Lt => bool3_to_value(cypher_cmp(&left, &right).map(|o| o.is_lt())),
        BinaryOp::Le => bool3_to_value(cypher_cmp(&left, &right).map(|o| o.is_le())),
        BinaryOp::Gt => bool3_to_value(cypher_cmp(&left, &right).map(|o| o.is_gt())),
        BinaryOp::Ge => bool3_to_value(cypher_cmp(&left, &right).map(|o| o.is_ge())),
        BinaryOp::Add => add(&left, &right),
        BinaryOp::Sub => sub(&left, &right),
        BinaryOp::Mul => mul(&left, &right),
        BinaryOp::Div => div(&left, &right),
        BinaryOp::Mod => rem(&left, &right),
        BinaryOp::Pow => pow(&left, &right),
        BinaryOp::In => eval_in(&left, &right),
        BinaryOp::StartsWith => eval_string_predicate(&left, &right, |a, b| a.starts_with(b)),
        BinaryOp::EndsWith => eval_string_predicate(&left, &right, |a, b| a.ends_with(b)),
        BinaryOp::Contains => eval_string_predicate(&left, &right, |a, b| a.contains(b)),
        BinaryOp::And | BinaryOp::Or | BinaryOp::Xor => unreachable!(),
    })
}

fn eval_in(needle: &Value, haystack: &Value) -> Value {
    match haystack {
        Value::Null => Value::Null,
        Value::List(items) => {
            let mut saw_null = false;
            for item in items {
                match cypher_eq(needle, item) {
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

fn read_property(graph: &Graph, base: &Value, key: &str) -> Value {
    match base {
        Value::Node(id) => graph.property(EntityId::Node(*id), key),
        Value::Relationship(id) => graph.property(EntityId::Relationship(*id), key),
        Value::Map(map) => map.get(key).cloned().unwrap_or(Value::Null),
        _ => Value::Null,
    }
}

fn eval_function(graph: &Graph, name: &str, args: &[Value]) -> Value {
    let arg = |i: usize| args.get(i).cloned().unwrap_or(Value::Null);
    match name {
        "id" => match arg(0) {
            Value::Node(id) => Value::Integer(id.0 as i64),
            // Relationship ids live in a disjoint range (matching the main
            // evaluator) so `id(n) = id(r)` can never hold across kinds.
            Value::Relationship(id) => Value::Integer(1_000_000_000 + id.0 as i64),
            _ => Value::Null,
        },
        "labels" => match arg(0) {
            Value::Node(id) => match graph.node(id) {
                Some(node) => Value::List(node.labels.iter().cloned().map(Value::String).collect()),
                None => Value::Null,
            },
            _ => Value::Null,
        },
        "type" => match arg(0) {
            Value::Relationship(id) => match graph.relationship(id) {
                Some(rel) => Value::String(rel.label.clone()),
                None => Value::Null,
            },
            _ => Value::Null,
        },
        "size" => match arg(0) {
            Value::List(items) => Value::Integer(items.len() as i64),
            Value::String(s) => Value::Integer(s.chars().count() as i64),
            _ => Value::Null,
        },
        "length" => match arg(0) {
            Value::Path(items) => Value::Integer((items.len().saturating_sub(1) / 2) as i64),
            Value::List(items) => Value::Integer(items.len() as i64),
            Value::String(s) => Value::Integer(s.chars().count() as i64),
            _ => Value::Null,
        },
        "head" => match arg(0) {
            Value::List(items) => items.first().cloned().unwrap_or(Value::Null),
            _ => Value::Null,
        },
        "last" => match arg(0) {
            Value::List(items) => items.last().cloned().unwrap_or(Value::Null),
            _ => Value::Null,
        },
        "abs" => match arg(0) {
            Value::Integer(v) => Value::Integer(v.abs()),
            Value::Float(v) => Value::Float(v.abs()),
            _ => Value::Null,
        },
        "toupper" | "toUpper" => match arg(0) {
            Value::String(s) => Value::String(s.to_uppercase()),
            _ => Value::Null,
        },
        "tolower" | "toLower" => match arg(0) {
            Value::String(s) => Value::String(s.to_lowercase()),
            _ => Value::Null,
        },
        "coalesce" => args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null),
        "exists" => Value::Boolean(!arg(0).is_null()),
        "startnode" => match arg(0) {
            Value::Relationship(id) => match graph.relationship(id) {
                Some(rel) => Value::Node(rel.source),
                None => Value::Null,
            },
            _ => Value::Null,
        },
        "endnode" => match arg(0) {
            Value::Relationship(id) => match graph.relationship(id) {
                Some(rel) => Value::Node(rel.target),
                None => Value::Null,
            },
            _ => Value::Null,
        },
        "index" => match (arg(0), arg(1)) {
            (Value::List(items), Value::Integer(i)) if i >= 0 && (i as usize) < items.len() => {
                items[i as usize].clone()
            }
            _ => Value::Null,
        },
        // Unknown / unmodelled functions: NULL.
        _ => Value::Null,
    }
}

// ---------------------------------------------------------------------------
// Pattern matching
// ---------------------------------------------------------------------------

fn match_clause(graph: &Graph, clause: &MatchClause, base: &Row) -> Result<Vec<Row>, String> {
    let mut results = Vec::new();
    let mut used = Vec::new();
    match_pattern_list(graph, &clause.patterns, 0, base.clone(), &mut used, &mut results)?;
    match &clause.where_clause {
        None => Ok(results),
        Some(predicate) => {
            let mut kept = Vec::new();
            for row in results {
                if eval_predicate(graph, &row, predicate)? {
                    kept.push(row);
                }
            }
            Ok(kept)
        }
    }
}

type OnComplete<'a> = &'a mut dyn FnMut(Row, &mut Vec<RelId>, &[Value]) -> Result<(), String>;

fn match_pattern_list(
    graph: &Graph,
    patterns: &[PathPattern],
    index: usize,
    row: Row,
    used: &mut Vec<RelId>,
    results: &mut Vec<Row>,
) -> Result<(), String> {
    if index == patterns.len() {
        results.push(row);
        return Ok(());
    }
    let pattern = &patterns[index];
    let candidates = candidate_nodes(graph, &row, &pattern.start)?;
    for node in candidates {
        let mut next_row = row.clone();
        bind_node(&mut next_row, &pattern.start, node);
        let mut trace = vec![Value::Node(node)];
        let used_before = used.len();
        match_segments(
            graph,
            pattern,
            0,
            node,
            next_row,
            used,
            &mut trace,
            &mut |row, used, trace| {
                let mut row = row;
                if let Some(path_var) = &pattern.variable {
                    row.insert(path_var.clone(), Value::Path(trace.to_vec()));
                }
                match_pattern_list(graph, patterns, index + 1, row, used, results)
            },
        )?;
        used.truncate(used_before);
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn match_segments(
    graph: &Graph,
    pattern: &PathPattern,
    segment_index: usize,
    current: NodeId,
    row: Row,
    used: &mut Vec<RelId>,
    trace: &mut Vec<Value>,
    on_complete: OnComplete<'_>,
) -> Result<(), String> {
    if segment_index == pattern.segments.len() {
        return on_complete(row, used, trace);
    }
    let segment = &pattern.segments[segment_index];
    let rel_pattern = &segment.relationship;

    if rel_pattern.is_var_length() {
        match_var_length(graph, pattern, segment_index, current, row, used, trace, on_complete)
    } else {
        let candidates = candidate_relationships(graph, &row, rel_pattern, current)?;
        for (rel, next_node) in candidates {
            if violates_injectivity(&row, rel_pattern, rel, used) {
                continue;
            }
            if !node_matches(graph, &row, next_node, &segment.node)?
                || !node_binding_consistent(&row, &segment.node, next_node)
            {
                continue;
            }
            let mut next_row = row.clone();
            if let Some(var) = &rel_pattern.variable {
                next_row.insert(var.clone(), Value::Relationship(rel));
            }
            bind_node(&mut next_row, &segment.node, next_node);
            used.push(rel);
            trace.push(Value::Relationship(rel));
            trace.push(Value::Node(next_node));
            match_segments(
                graph,
                pattern,
                segment_index + 1,
                next_node,
                next_row,
                used,
                trace,
                on_complete,
            )?;
            trace.pop();
            trace.pop();
            used.pop();
        }
        Ok(())
    }
}

#[allow(clippy::too_many_arguments)]
fn match_var_length(
    graph: &Graph,
    pattern: &PathPattern,
    segment_index: usize,
    start: NodeId,
    row: Row,
    used: &mut Vec<RelId>,
    trace: &mut Vec<Value>,
    on_complete: OnComplete<'_>,
) -> Result<(), String> {
    let segment = &pattern.segments[segment_index];
    let rel_pattern = &segment.relationship;
    let length = rel_pattern.length.expect("var-length pattern");
    let min = length.effective_min();
    let max = length.max.unwrap_or(graph.relationship_count() as u32).max(min);

    // Depth-first expansion of simple paths (no repeated relationship),
    // mirroring the prover matcher's explicit stack exactly: extensions
    // are pushed in ascending relationship id order, so they pop descending.
    struct Frame {
        node: NodeId,
        rels: Vec<RelId>,
    }
    let mut stack = vec![Frame { node: start, rels: Vec::new() }];
    while let Some(frame) = stack.pop() {
        let hops = frame.rels.len() as u32;
        if hops >= min {
            // Try to close the pattern at this node.
            let end = frame.node;
            if node_matches(graph, &row, end, &segment.node)?
                && node_binding_consistent(&row, &segment.node, end)
            {
                let mut next_row = row.clone();
                if let Some(var) = &rel_pattern.variable {
                    next_row.insert(
                        var.clone(),
                        Value::List(frame.rels.iter().map(|r| Value::Relationship(*r)).collect()),
                    );
                }
                bind_node(&mut next_row, &segment.node, end);
                let used_before = used.len();
                let trace_before = trace.len();
                for rel in &frame.rels {
                    used.push(*rel);
                    trace.push(Value::Relationship(*rel));
                }
                trace.push(Value::Node(end));
                match_segments(
                    graph,
                    pattern,
                    segment_index + 1,
                    end,
                    next_row,
                    used,
                    trace,
                    on_complete,
                )?;
                trace.truncate(trace_before);
                used.truncate(used_before);
            }
        }
        if hops >= max {
            continue;
        }
        let extensions = candidate_relationships(graph, &row, rel_pattern, frame.node)?;
        for (rel, next) in extensions {
            if frame.rels.contains(&rel) || used.contains(&rel) {
                continue;
            }
            let mut rels = frame.rels.clone();
            rels.push(rel);
            stack.push(Frame { node: next, rels });
        }
    }
    Ok(())
}

/// `(relationship, neighbour)` pairs adjacent to `from` satisfying the
/// pattern, in ascending relationship id order (a linear scan of the graph).
fn candidate_relationships(
    graph: &Graph,
    row: &Row,
    pattern: &RelationshipPattern,
    from: NodeId,
) -> Result<Vec<(RelId, NodeId)>, String> {
    let mut out = Vec::new();
    for rel_id in graph.relationship_ids() {
        let rel = graph.relationship(rel_id).expect("id enumerated");
        let neighbour = match pattern.direction {
            RelDirection::Outgoing => {
                if rel.source != from {
                    continue;
                }
                rel.target
            }
            RelDirection::Incoming => {
                if rel.target != from {
                    continue;
                }
                rel.source
            }
            RelDirection::Undirected => {
                // The source branch wins for self-loops, yielding them once.
                if rel.source == from {
                    rel.target
                } else if rel.target == from {
                    rel.source
                } else {
                    continue;
                }
            }
        };
        if !pattern.labels.is_empty() && !pattern.labels.contains(&rel.label) {
            continue;
        }
        if !properties_match(graph, row, EntityId::Relationship(rel_id), &pattern.properties)? {
            continue;
        }
        // A bound relationship variable restricts to that exact relationship.
        if let Some(var) = &pattern.variable {
            if let Some(Value::Relationship(bound)) = row.get(var) {
                if *bound != rel_id {
                    continue;
                }
            }
        }
        out.push((rel_id, neighbour));
    }
    Ok(out)
}

/// Relationship-injectivity: a candidate violates injectivity when it was
/// already matched by a *different* relationship pattern of the same `MATCH`
/// clause; a pattern whose variable is already bound to this relationship
/// refers to the same one and is allowed.
fn violates_injectivity(
    row: &Row,
    pattern: &RelationshipPattern,
    rel: RelId,
    used: &[RelId],
) -> bool {
    if !used.contains(&rel) {
        return false;
    }
    match &pattern.variable {
        Some(var) => !matches!(row.get(var), Some(Value::Relationship(bound)) if *bound == rel),
        None => true,
    }
}

fn candidate_nodes(graph: &Graph, row: &Row, pattern: &NodePattern) -> Result<Vec<NodeId>, String> {
    // A bound variable restricts the candidates to the bound node.
    if let Some(var) = &pattern.variable {
        match row.get(var) {
            Some(Value::Node(id)) => {
                return if node_matches(graph, row, *id, pattern)? {
                    Ok(vec![*id])
                } else {
                    Ok(vec![])
                };
            }
            Some(_) => return Ok(vec![]),
            None => {}
        }
    }
    let mut out = Vec::new();
    for id in graph.node_ids() {
        if node_matches(graph, row, id, pattern)? {
            out.push(id);
        }
    }
    Ok(out)
}

fn node_matches(
    graph: &Graph,
    row: &Row,
    id: NodeId,
    pattern: &NodePattern,
) -> Result<bool, String> {
    if !pattern.labels.iter().all(|label| graph.node_has_label(id, label)) {
        return Ok(false);
    }
    properties_match(graph, row, EntityId::Node(id), &pattern.properties)
}

fn node_binding_consistent(row: &Row, pattern: &NodePattern, id: NodeId) -> bool {
    match &pattern.variable {
        Some(var) => match row.get(var) {
            Some(Value::Node(bound)) => *bound == id,
            Some(_) => false,
            None => true,
        },
        None => true,
    }
}

fn properties_match(
    graph: &Graph,
    row: &Row,
    entity: EntityId,
    properties: &[(String, Expr)],
) -> Result<bool, String> {
    for (key, expr) in properties {
        let expected = eval_expr(graph, row, expr)?;
        let actual = graph.property(entity, key);
        if cypher_eq(&actual, &expected) != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

fn bind_node(row: &mut Row, pattern: &NodePattern, id: NodeId) {
    if let Some(var) = &pattern.variable {
        row.insert(var.clone(), Value::Node(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NodeData, RelData};
    use cypher_parser::parse_query;

    fn paper_example() -> Graph {
        let mut graph = Graph::new();
        let mut rowling = NodeData::default();
        rowling.labels.insert("Person".to_string());
        rowling.properties.insert("name".to_string(), Value::String("J. K. Rowling".to_string()));
        rowling.properties.insert("age".to_string(), Value::Integer(59));
        let mut book = NodeData::default();
        book.labels.insert("Book".to_string());
        book.properties.insert("title".to_string(), Value::String("Harry Potter".to_string()));
        book.properties.insert("language".to_string(), Value::String("English".to_string()));
        let mut jack = NodeData::default();
        jack.labels.insert("Person".to_string());
        jack.properties.insert("name".to_string(), Value::String("Jack".to_string()));
        jack.properties.insert("age".to_string(), Value::Integer(26));
        let mut alice = NodeData::default();
        alice.labels.insert("Person".to_string());
        alice.properties.insert("name".to_string(), Value::String("Alice".to_string()));
        alice.properties.insert("age".to_string(), Value::Integer(27));
        let r = graph.add_node(rowling);
        let b = graph.add_node(book);
        let j = graph.add_node(jack);
        let a = graph.add_node(alice);
        for (label, source, target) in [("WRITE", r, b), ("READ", j, b), ("READ", a, b)] {
            let mut props = BTreeMap::new();
            props.insert(
                "date".to_string(),
                Value::Integer(if label == "WRITE" { 1997 } else { 2024 }),
            );
            graph
                .add_relationship(RelData {
                    label: label.to_string(),
                    source,
                    target,
                    properties: props,
                })
                .unwrap();
        }
        graph
    }

    fn run(graph: &Graph, text: &str) -> QueryResult {
        let query = parse_query(text).unwrap();
        evaluate_query(graph, &query).unwrap()
    }

    #[test]
    fn evaluates_the_paper_listing() {
        let graph = paper_example();
        let result = run(
            &graph,
            "MATCH (reader:Person)-[:READ]->(book:Book)<-[:WRITE]-(writer) \
             WHERE reader.name = 'Alice' RETURN writer.name",
        );
        assert_eq!(result.columns, vec!["writer.name"]);
        assert_eq!(result.rows, vec![vec![Value::String("J. K. Rowling".to_string())]]);
    }

    #[test]
    fn evaluates_aggregates_and_distinct() {
        let graph = paper_example();
        let result = run(&graph, "MATCH (p:Person) RETURN COUNT(*), SUM(p.age)");
        assert_eq!(result.rows, vec![vec![Value::Integer(3), Value::Integer(112)]]);
        let result = run(&graph, "UNWIND [3, 1, 3, 2, 1] AS x RETURN DISTINCT x");
        assert_eq!(
            result.rows,
            vec![vec![Value::Integer(3)], vec![Value::Integer(1)], vec![Value::Integer(2)]]
        );
    }

    #[test]
    fn evaluates_optional_match_and_unions() {
        let graph = paper_example();
        let result = run(&graph, "MATCH (n) OPTIONAL MATCH (n)-[r]->(m) RETURN n, r");
        assert_eq!(result.rows.len(), 4);
        let nulls = result.rows.iter().filter(|row| row[1].is_null()).count();
        assert_eq!(nulls, 1);
        let distinct =
            run(&graph, "MATCH (p:Person) RETURN p.name UNION MATCH (p:Person) RETURN p.name");
        assert_eq!(distinct.rows.len(), 3);
    }

    #[test]
    fn evaluates_var_length_in_dfs_order() {
        let mut graph = Graph::new();
        let mut make_node = |name: &str| {
            let mut node = NodeData::default();
            node.labels.insert("N".to_string());
            node.properties.insert("name".to_string(), Value::String(name.to_string()));
            graph.add_node(node)
        };
        let a = make_node("a");
        let b = make_node("b");
        let c = make_node("c");
        let d = make_node("d");
        for (source, target) in [(a, b), (b, c), (c, d)] {
            graph
                .add_relationship(RelData {
                    label: "E".to_string(),
                    source,
                    target,
                    properties: BTreeMap::new(),
                })
                .unwrap();
        }
        let rows = run(&graph, "MATCH (x {name: 'a'})-[*1..3]->(y) RETURN y");
        assert_eq!(rows.rows.len(), 3);
        let exact = run(&graph, "MATCH (x)-[*2]->(y) RETURN x");
        assert_eq!(exact.rows.len(), 2);
    }

    #[test]
    fn bag_equality_ignores_column_names_but_not_arity() {
        let graph = paper_example();
        let a = run(&graph, "MATCH (p:Person) RETURN p.name AS x");
        let b = run(&graph, "MATCH (p:Person) RETURN p.name AS y");
        assert!(a.bag_equal(&b));
        let c = run(&graph, "MATCH (p:Person) RETURN p.name, p.age");
        assert!(!a.bag_equal(&c));
    }

    #[test]
    fn empty_bags_are_equal_whatever_their_arity() {
        let graph = paper_example();
        let one = run(&graph, "MATCH (p:NoSuchLabel) RETURN p.name");
        let two = run(&graph, "MATCH (p:NoSuchLabel) RETURN p.name, p.age");
        assert!(one.rows.is_empty() && one.bag_equal(&two) && two.bag_equal(&one));
        let names = run(&graph, "MATCH (p:Person) RETURN p.name");
        assert!(!names.bag_equal(&one) && !one.bag_equal(&names));
    }
}
