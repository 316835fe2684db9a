//! A bag-semantics reference evaluator for the supported Cypher fragment.
//!
//! The evaluator is the *oracle* of GraphQE-rs: it is used by property tests
//! to cross-check the prover (two queries proven equivalent must return the
//! same bag of rows on any graph) and by the counterexample search that
//! certifies non-equivalence. It has one implementation — plans lowered once
//! ([`crate::plan`]) over flat [`Row`]s — and is itself checked against the
//! certificate checker's independent evaluator (`graphqe_checker::eval`),
//! which shares no code with it: `tests/checker_differential.rs` asserts
//! the same columns, the same rows in the same order, and the same errors.

use std::borrow::{Borrow, Cow};
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;

use cypher_parser::ast::{Aggregate, Query, UnionKind};

use crate::expr::{apply_binary, apply_unary, eval, eval_predicate, EvalCtx, Row, SymId};
use crate::graph::PropertyGraph;
use crate::matching::match_clause;
use crate::plan::{
    AggExpr, CompiledMatch, CompiledProjection, ItemExprs, LExpr, LoweredClause, LoweredQuery,
    ProjectedItems, QueryPlan,
};
use crate::value::Value;

/// An error raised during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// Human readable message.
    pub message: String,
}

impl EvalError {
    /// Creates an evaluation error.
    pub fn new(message: impl Into<String>) -> Self {
        EvalError { message: message.into() }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// The tabular result of a query: named columns and rows of values.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names, in `RETURN` order.
    pub columns: Vec<String>,
    /// The result rows, in result order.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// An empty result with no columns.
    pub fn empty() -> Self {
        QueryResult { columns: Vec::new(), rows: Vec::new() }
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows sorted by the total value order — the canonical bag
    /// representation used for bag-equality comparison.
    pub fn sorted_rows(&self) -> Vec<&[Value]> {
        sorted_rows(&self.rows)
    }

    /// Bag equality per Definition 4 of the paper: the results contain the
    /// same tuples with the same multiplicities. Column *names* are ignored
    /// (two equivalent queries may label their columns differently), and so
    /// is the arity of two empty results: an empty bag has no tuple whose
    /// width could differ, which is why queries of different arity are
    /// equivalent exactly when both always return nothing. Non-empty
    /// results must agree in arity.
    pub fn bag_equal(&self, other: &QueryResult) -> bool {
        bag_equal(self.columns.len(), &self.rows, other.columns.len(), &other.rows)
    }

    /// Ordered equality: same tuples, multiplicities and order (used when the
    /// outermost clause has an `ORDER BY`). Two empty results are equal
    /// whatever their arity, as for [`QueryResult::bag_equal`].
    pub fn ordered_equal(&self, other: &QueryResult) -> bool {
        if self.rows.is_empty() && other.rows.is_empty() {
            return true;
        }
        if self.columns.len() != other.columns.len() || self.rows.len() != other.rows.len() {
            return false;
        }
        self.rows.iter().zip(other.rows.iter()).all(|(a, b)| cmp_rows(a, b) == Ordering::Equal)
    }
}

/// A result's rows and arity without the column names: all that bag
/// comparison reads, and all the counterexample search asks of an
/// evaluation ([`evaluate_rows`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// The number of columns.
    pub arity: usize,
    /// The result rows, in result order.
    pub rows: Vec<Vec<Value>>,
}

impl Rows {
    /// The number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Bag equality, as [`QueryResult::bag_equal`].
    pub fn bag_equal(&self, other: &Rows) -> bool {
        bag_equal(self.arity, &self.rows, other.arity, &other.rows)
    }
}

/// Bag equality of two row sets of the given arities: sorted references,
/// compared pairwise.
fn bag_equal(arity: usize, rows: &[Vec<Value>], other_arity: usize, others: &[Vec<Value>]) -> bool {
    if rows.is_empty() && others.is_empty() {
        return true;
    }
    if arity != other_arity || rows.len() != others.len() {
        return false;
    }
    sorted_rows(rows)
        .iter()
        .zip(sorted_rows(others))
        .all(|(a, b)| cmp_rows(a, b) == Ordering::Equal)
}

/// References to `rows`, sorted by the total value order.
fn sorted_rows(rows: &[Vec<Value>]) -> Vec<&[Value]> {
    let mut sorted: Vec<&[Value]> = rows.iter().map(Vec::as_slice).collect();
    sorted.sort_by(|a, b| cmp_rows(a, b));
    sorted
}

fn cmp_rows<V: Borrow<Value>>(a: &[V], b: &[V]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = x.borrow().total_cmp(y.borrow());
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| {} |", self.columns.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        write!(f, "({} rows)", self.rows.len())
    }
}

/// Evaluates `query` on `graph`: [`evaluate_planned`] on a fresh
/// [`QueryPlan`]. Callers evaluating one query over many graphs keep the
/// plan instead.
pub fn evaluate_query(graph: &PropertyGraph, query: &Query) -> Result<QueryResult, EvalError> {
    evaluate_planned(graph, &QueryPlan::new(query))
}

/// Evaluates a planned query on `graph`. The plan's name slots are resolved
/// against the graph's table once, here.
pub fn evaluate_planned(graph: &PropertyGraph, plan: &QueryPlan) -> Result<QueryResult, EvalError> {
    let (names, frames) = (plan.resolve(graph.names()), Cell::new(0));
    let ctx = EvalCtx { graph, plan, names: &names, var_length_frames: &frames };
    let output = evaluate_union(ctx, plan.query(), &Row::new(), true)?;
    let columns = output.columns.iter().map(|sym| plan.symbols().name(*sym).to_string()).collect();
    Ok(QueryResult { columns, rows: output.rows })
}

/// [`evaluate_planned`] without naming the columns: the rows and their
/// arity.
pub fn evaluate_rows(graph: &PropertyGraph, plan: &QueryPlan) -> Result<Rows, EvalError> {
    let (names, frames) = (plan.resolve(graph.names()), Cell::new(0));
    let ctx = EvalCtx { graph, plan, names: &names, var_length_frames: &frames };
    let output = evaluate_union(ctx, plan.query(), &Row::new(), true)?;
    Ok(Rows { arity: output.columns.len(), rows: output.rows })
}

/// The rows an evaluation produced, under their columns: the ids of the
/// output names, which are named only when the caller asks. An explicit
/// `RETURN`'s ids are the plan's, `RETURN *`'s come from the rows, and a
/// subquery without `RETURN` has none.
pub(crate) struct Output<'p> {
    columns: Cow<'p, [SymId]>,
    pub rows: Vec<Vec<Value>>,
}

/// Evaluates a (possibly `UNION`-combined) query starting from `base`: the
/// empty row at the top level, the outer bindings for `EXISTS { ... }`.
pub(crate) fn evaluate_union<'p>(
    ctx: EvalCtx<'p>,
    query: &'p LoweredQuery,
    base: &Row,
    require_return: bool,
) -> Result<Output<'p>, EvalError> {
    let mut combined: Option<Output<'p>> = None;
    for (index, part) in query.parts.iter().enumerate() {
        let result = evaluate_single(ctx, part, base, require_return)?;
        combined = Some(match combined {
            None => result,
            Some(mut acc) => {
                if acc.columns.len() != result.columns.len() {
                    return Err(EvalError::new(
                        "UNION requires sub-queries with the same number of columns",
                    ));
                }
                acc.rows.extend(result.rows);
                if query.unions[index - 1] == UnionKind::Distinct {
                    acc.rows = dedup_first_occurrence(acc.rows, |a, b| cmp_rows(a, b));
                }
                acc
            }
        });
    }
    Ok(combined.unwrap_or(Output { columns: Cow::Borrowed(&[]), rows: Vec::new() }))
}

/// Keeps the first occurrence of every distinct element under the total
/// order `cmp`, preserving input order: sort indices by `(element, index)`,
/// mark the leader of every run of equal elements, then filter by the mark.
/// O(n log n) comparisons and no element clones — this replaces the
/// quadratic scan-over-`seen` dedup (which additionally cloned every kept
/// element into `seen`) used by `UNION`, `DISTINCT` and the
/// distinct-aggregate paths.
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

fn evaluate_single<'p>(
    ctx: EvalCtx<'p>,
    clauses: &'p [LoweredClause],
    base: &Row,
    require_return: bool,
) -> Result<Output<'p>, EvalError> {
    // The first clause reads `base` in place; each clause's output feeds
    // the next.
    let mut owned: Option<Vec<Row>> = None;
    for clause in clauses {
        let rows = owned.as_deref().unwrap_or(std::slice::from_ref(base));
        owned = Some(match clause {
            LoweredClause::Match(m) => apply_match(ctx, m, rows)?,
            LoweredClause::Unwind { expr, alias } => {
                let mut next = Vec::new();
                for row in rows {
                    match eval(ctx, row, expr)? {
                        Value::Null => {}
                        Value::List(items) => {
                            next.extend(items.into_iter().map(|item| row.with_sym(*alias, item)));
                        }
                        other => next.push(row.with_sym(*alias, other)),
                    }
                }
                next
            }
            LoweredClause::With { projection, where_clause } => {
                apply_with(ctx, projection, where_clause.as_ref(), rows)?
            }
            LoweredClause::Return(projection) => {
                let (columns, projected) = apply_projection(ctx, projection, rows, false)?;
                let rows = projected.into_iter().map(|(values, _)| values).collect();
                return Ok(Output { columns, rows });
            }
        });
    }
    if require_return {
        return Err(EvalError::new("query does not end with a RETURN clause"));
    }
    // Subquery (EXISTS) without RETURN: expose the surviving multiplicity.
    let count = owned.map_or(1, |rows| rows.len());
    Ok(Output { columns: Cow::Borrowed(&[]), rows: vec![Vec::new(); count] })
}

fn apply_match(
    ctx: EvalCtx<'_>,
    clause: &CompiledMatch,
    rows: &[Row],
) -> Result<Vec<Row>, EvalError> {
    let mut next = Vec::new();
    for row in rows {
        let matches = match_clause(ctx, clause, row)?;
        if matches.is_empty() && clause.optional {
            // OPTIONAL MATCH keeps the row, binding the pattern variables to
            // NULL (left outer join semantics).
            let mut extended = row.with_room(clause.optional_syms.len());
            for sym in &clause.optional_syms {
                extended.insert_if_absent_sym(*sym, Value::Null);
            }
            next.push(extended);
        } else if next.is_empty() {
            next = matches;
        } else {
            next.extend(matches);
        }
    }
    Ok(next)
}

fn apply_with(
    ctx: EvalCtx<'_>,
    projection: &CompiledProjection,
    where_clause: Option<&LExpr>,
    rows: &[Row],
) -> Result<Vec<Row>, EvalError> {
    let (syms, projected) = apply_projection(ctx, projection, rows, where_clause.is_some())?;
    let mut next = Vec::new();
    for (values, env) in projected {
        if let Some(predicate) = where_clause {
            // The WHERE of a WITH sees both the projected names and (for
            // robustness) the pre-projection bindings: the environment row.
            if !eval_predicate(ctx, &env, predicate)? {
                continue;
            }
        }
        let mut row = Row::new().with_room(syms.len());
        for (sym, value) in syms.iter().zip(values) {
            row.insert_sym(*sym, value);
        }
        next.push(row);
    }
    Ok(next)
}

/// Applies a projection (shared by `WITH` and `RETURN`).
///
/// Returns the output columns and, for every output row, the projected
/// values together with the *environment* row used to produce it (the
/// pre-projection bindings with the projected ones on top) — the
/// environment is what `ORDER BY` and a `WITH ... WHERE` may refer to, so it
/// is built only when `ORDER BY` or the caller (`keep_env`) reads it, and is
/// the empty row otherwise.
#[allow(clippy::type_complexity)]
fn apply_projection<'p>(
    ctx: EvalCtx<'p>,
    projection: &'p CompiledProjection,
    rows: &[Row],
    keep_env: bool,
) -> Result<(Cow<'p, [SymId]>, Vec<(Vec<Value>, Row)>), EvalError> {
    let need_env = keep_env || !projection.order_by.is_empty();
    // The environment of an output row: `base` with the values on top.
    let env = |base: &Row, syms: &[SymId], values: &[Value]| {
        if !need_env {
            return Row::new();
        }
        let mut env = base.with_room(syms.len());
        for (sym, value) in syms.iter().zip(values) {
            env.insert_sym(*sym, value.clone());
        }
        env
    };
    let mut produced: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    let columns = match &projection.items {
        ProjectedItems::Star => {
            // Every variable the rows bind, in name order.
            let mut syms: Vec<SymId> = rows.iter().flat_map(Row::syms).collect();
            syms.sort_unstable_by(|a, b| {
                ctx.plan.symbols().name(*a).cmp(ctx.plan.symbols().name(*b))
            });
            syms.dedup();
            for row in rows {
                let values: Vec<Value> = syms
                    .iter()
                    .map(|sym| row.get_sym(*sym).cloned().unwrap_or(Value::Null))
                    .collect();
                let env = env(row, &syms, &values);
                produced.push((values, env));
            }
            Cow::Owned(syms)
        }
        ProjectedItems::Items { syms, exprs: ItemExprs::Plain(exprs) } => {
            for row in rows {
                let values =
                    exprs.iter().map(|expr| eval(ctx, row, expr)).collect::<Result<Vec<_>, _>>()?;
                let env = env(row, syms, &values);
                produced.push((values, env));
            }
            Cow::Borrowed(syms.as_slice())
        }
        ProjectedItems::Items { syms, exprs: ItemExprs::Aggregating { items, grouping } } => {
            // Group rows by the values of the non-aggregate items, in order
            // of first appearance.
            let mut groups: Vec<(Vec<Value>, Vec<&Row>)> = Vec::new();
            for row in rows {
                let key = grouping
                    .iter()
                    .map(|expr| eval(ctx, row, expr))
                    .collect::<Result<Vec<_>, _>>()?;
                match groups.iter_mut().find(|(k, _)| cmp_rows(k, &key) == Ordering::Equal) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((key, vec![row])),
                }
            }
            // A global aggregate over zero rows still produces one row.
            if groups.is_empty() && grouping.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            let empty = Row::new();
            for (_, members) in &groups {
                let representative = members.first().copied().unwrap_or(&empty);
                let values = items
                    .iter()
                    .map(|item| eval_aggregate(ctx, members, representative, item))
                    .collect::<Result<Vec<_>, _>>()?;
                let env = env(representative, syms, &values);
                produced.push((values, env));
            }
            Cow::Borrowed(syms.as_slice())
        }
    };

    if projection.distinct {
        produced = dedup_first_occurrence(produced, |(a, _), (b, _)| cmp_rows(a, b));
    }

    if !projection.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, (Vec<Value>, Row))> = Vec::with_capacity(produced.len());
        for entry in produced {
            let keys = projection
                .order_by
                .iter()
                .map(|(expr, _)| eval(ctx, &entry.1, expr))
                .collect::<Result<Vec<_>, _>>()?;
            keyed.push((keys, entry));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            for ((va, vb), (_, ascending)) in a.iter().zip(b).zip(&projection.order_by) {
                let ord = va.total_cmp(vb);
                let ord = if *ascending { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        produced = keyed.into_iter().map(|(_, entry)| entry).collect();
    }

    if let Some(skip) = &projection.skip {
        let n = constant_usize(ctx, skip, "SKIP")?;
        produced.drain(..n.min(produced.len()));
    }
    if let Some(limit) = &projection.limit {
        let n = constant_usize(ctx, limit, "LIMIT")?;
        produced.truncate(n);
    }
    Ok((columns, produced))
}

/// Evaluates an item of an aggregating projection over one group of rows.
/// Aggregate-free parts evaluate on the group's representative (first) row.
fn eval_aggregate(
    ctx: EvalCtx<'_>,
    group: &[&Row],
    representative: &Row,
    expr: &AggExpr,
) -> Result<Value, EvalError> {
    match expr {
        AggExpr::CountStar(distinct) => {
            if *distinct {
                // Every row of a group binds the same variables, so its
                // values in symbol order identify the whole binding.
                let value_rows: Vec<Vec<&Value>> =
                    group.iter().map(|row| row.values().collect()).collect();
                let distinct_rows = dedup_first_occurrence(value_rows, |a, b| cmp_rows(a, b));
                Ok(Value::Integer(distinct_rows.len() as i64))
            } else {
                Ok(Value::Integer(group.len() as i64))
            }
        }
        AggExpr::Call { func, distinct, arg } => {
            let mut values = Vec::new();
            for row in group {
                let value = eval(ctx, row, arg)?;
                if !value.is_null() {
                    values.push(value);
                }
            }
            if *distinct {
                values = dedup_first_occurrence(values, |a, b| a.total_cmp(b));
            }
            Ok(compute_aggregate(*func, values))
        }
        AggExpr::Binary(op, lhs, rhs) => {
            let left = eval_aggregate(ctx, group, representative, lhs)?;
            let right = eval_aggregate(ctx, group, representative, rhs)?;
            Ok(apply_binary(*op, &left, &right))
        }
        AggExpr::Unary(op, inner) => {
            Ok(apply_unary(*op, eval_aggregate(ctx, group, representative, inner)?))
        }
        AggExpr::Scalar(expr) => eval(ctx, representative, expr),
        AggExpr::Unsupported(message) => Err(EvalError::new(message.as_str())),
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
                acc = acc.add(&value);
            }
            acc
        }
        Aggregate::Min => values.into_iter().min_by(|a, b| a.total_cmp(b)).unwrap_or(Value::Null),
        Aggregate::Max => values.into_iter().max_by(|a, b| a.total_cmp(b)).unwrap_or(Value::Null),
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

/// The value of a `SKIP`/`LIMIT` expression, evaluated on the empty row.
fn constant_usize(ctx: EvalCtx<'_>, expr: &LExpr, what: &str) -> Result<usize, EvalError> {
    let value = eval(ctx, &Row::new(), expr)?;
    match value.as_integer() {
        Some(v) if v >= 0 => Ok(v as usize),
        _ => Err(EvalError::new(format!("{what} requires a non-negative integer, got {value}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;

    fn run(graph: &PropertyGraph, text: &str) -> QueryResult {
        let query = parse_query(text).unwrap();
        evaluate_query(graph, &query).unwrap()
    }

    fn cell(result: &QueryResult, row: usize, col: usize) -> &Value {
        &result.rows[row][col]
    }

    #[test]
    fn evaluates_the_paper_listing_1() {
        let graph = PropertyGraph::paper_example();
        let result = run(
            &graph,
            "MATCH (reader:Person)-[:READ]->(book:Book)<-[:WRITE]-(writer) \
             WHERE reader.name = 'Alice' RETURN writer.name",
        );
        assert_eq!(result.columns, vec!["writer.name"]);
        assert_eq!(result.rows, vec![vec![Value::from("J. K. Rowling")]]);
    }

    #[test]
    fn evaluates_projection_aliases_and_order() {
        let graph = PropertyGraph::paper_example();
        let result = run(&graph, "MATCH (p:Person) RETURN p.name AS name ORDER BY p.age DESC");
        assert_eq!(result.columns, vec!["name"]);
        assert_eq!(
            result.rows,
            vec![
                vec![Value::from("J. K. Rowling")],
                vec![Value::from("Alice")],
                vec![Value::from("Jack")],
            ]
        );
    }

    #[test]
    fn evaluates_skip_and_limit() {
        let graph = PropertyGraph::paper_example();
        let result = run(&graph, "MATCH (p:Person) RETURN p.name ORDER BY p.name SKIP 1 LIMIT 1");
        assert_eq!(result.rows, vec![vec![Value::from("J. K. Rowling")]]);
    }

    #[test]
    fn evaluates_distinct() {
        let graph = PropertyGraph::paper_example();
        let all = run(&graph, "MATCH (p:Person)-[:READ]->(b) RETURN b.title");
        assert_eq!(all.len(), 2);
        let distinct = run(&graph, "MATCH (p:Person)-[:READ]->(b) RETURN DISTINCT b.title");
        assert_eq!(distinct.len(), 1);
    }

    #[test]
    fn evaluates_union_and_union_all() {
        let graph = PropertyGraph::paper_example();
        let all =
            run(&graph, "MATCH (p:Person) RETURN p.name UNION ALL MATCH (p:Person) RETURN p.name");
        assert_eq!(all.len(), 6);
        let distinct =
            run(&graph, "MATCH (p:Person) RETURN p.name UNION MATCH (p:Person) RETURN p.name");
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn evaluates_with_pipeline() {
        let graph = PropertyGraph::paper_example();
        let result = run(
            &graph,
            "MATCH (p:Person) WITH p.name AS name WHERE name <> 'Jack' RETURN name ORDER BY name",
        );
        assert_eq!(
            result.rows,
            vec![vec![Value::from("Alice")], vec![Value::from("J. K. Rowling")]]
        );
    }

    #[test]
    fn evaluates_optional_match() {
        let graph = PropertyGraph::paper_example();
        // Only the book has no outgoing relationship; OPTIONAL MATCH keeps it
        // with r = NULL.
        let result = run(&graph, "MATCH (n) OPTIONAL MATCH (n)-[r]->(m) RETURN n, r");
        assert_eq!(result.len(), 4);
        let nulls = result.rows.iter().filter(|row| row[1].is_null()).count();
        assert_eq!(nulls, 1);
        // Plain MATCH drops the unmatched row.
        let inner = run(&graph, "MATCH (n) MATCH (n)-[r]->(m) RETURN n, r");
        assert_eq!(inner.len(), 3);
    }

    #[test]
    fn evaluates_optional_match_where_is_part_of_the_optional_pattern() {
        let graph = PropertyGraph::paper_example();
        let result = run(
            &graph,
            "MATCH (n:Person) OPTIONAL MATCH (n)-[r:READ]->(b) WHERE b.language = 'French' \
             RETURN n.name, r",
        );
        // Nobody read a French book, so every person keeps a NULL r.
        assert_eq!(result.len(), 3);
        assert!(result.rows.iter().all(|row| row[1].is_null()));
    }

    #[test]
    fn evaluates_aggregates() {
        let graph = PropertyGraph::paper_example();
        let result =
            run(&graph, "MATCH (p:Person) RETURN COUNT(*), SUM(p.age), MIN(p.age), MAX(p.age)");
        assert_eq!(result.rows.len(), 1);
        assert_eq!(cell(&result, 0, 0), &Value::Integer(3));
        assert_eq!(cell(&result, 0, 1), &Value::Integer(112));
        assert_eq!(cell(&result, 0, 2), &Value::Integer(26));
        assert_eq!(cell(&result, 0, 3), &Value::Integer(59));
    }

    #[test]
    fn evaluates_grouped_aggregates() {
        let graph = PropertyGraph::paper_example();
        // Group readers by book title.
        let result = run(
            &graph,
            "MATCH (p:Person)-[:READ]->(b:Book) RETURN b.title, COUNT(*) ORDER BY b.title",
        );
        assert_eq!(result.rows, vec![vec![Value::from("Harry Potter"), Value::Integer(2)]]);
    }

    #[test]
    fn aggregate_over_empty_input() {
        let graph = PropertyGraph::paper_example();
        let result = run(&graph, "MATCH (n:Missing) RETURN COUNT(n)");
        assert_eq!(result.rows, vec![vec![Value::Integer(0)]]);
        // With a grouping key there are no groups and hence no rows.
        let result = run(&graph, "MATCH (n:Missing) RETURN n.name, COUNT(n)");
        assert!(result.is_empty());
    }

    #[test]
    fn evaluates_collect_and_count_distinct() {
        let graph = PropertyGraph::paper_example();
        let result = run(&graph, "MATCH (p:Person)-[:READ]->(b) RETURN COLLECT(b.title)");
        assert_eq!(
            result.rows,
            vec![vec![Value::List(vec![Value::from("Harry Potter"), Value::from("Harry Potter")])]]
        );
        let result = run(&graph, "MATCH (p:Person)-[:READ]->(b) RETURN COUNT(DISTINCT b.title)");
        assert_eq!(result.rows, vec![vec![Value::Integer(1)]]);
    }

    #[test]
    fn evaluates_unwind() {
        let graph = PropertyGraph::new();
        let result = run(&graph, "UNWIND [1, 2, 3] AS x RETURN x");
        assert_eq!(result.len(), 3);
        let result = run(
            &graph,
            "WITH [{c1: 0, c2: 1}, {c1: 2, c2: 3}] AS tmp UNWIND tmp AS row RETURN row.c1",
        );
        assert_eq!(result.rows, vec![vec![Value::Integer(0)], vec![Value::Integer(2)]]);
    }

    #[test]
    fn evaluates_exists_subquery() {
        let graph = PropertyGraph::paper_example();
        let result = run(
            &graph,
            "MATCH (n:Person) WHERE EXISTS { MATCH (n)-[:WRITE]->(b) RETURN b } RETURN n.name",
        );
        assert_eq!(result.rows, vec![vec![Value::from("J. K. Rowling")]]);
    }

    #[test]
    fn evaluates_return_star() {
        let graph = PropertyGraph::paper_example();
        let result = run(&graph, "MATCH (a:Person)-[r:WRITE]->(b) RETURN *");
        assert_eq!(result.columns, vec!["a", "b", "r"]);
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn evaluates_cartesian_product_of_patterns() {
        let graph = PropertyGraph::paper_example();
        let result = run(&graph, "MATCH (a:Person), (b:Book) RETURN a, b");
        assert_eq!(result.len(), 3);
        let result = run(&graph, "MATCH (a:Person) MATCH (b:Person) RETURN a, b");
        assert_eq!(result.len(), 9);
    }

    #[test]
    fn bag_and_ordered_equality() {
        let graph = PropertyGraph::paper_example();
        let asc = run(&graph, "MATCH (p:Person) RETURN p.name ORDER BY p.name");
        let desc = run(&graph, "MATCH (p:Person) RETURN p.name ORDER BY p.name DESC");
        assert!(asc.bag_equal(&desc));
        assert!(!asc.ordered_equal(&desc));
        assert!(asc.ordered_equal(&asc));
        let fewer = run(&graph, "MATCH (p:Person) RETURN p.name LIMIT 2");
        assert!(!asc.bag_equal(&fewer));
    }

    #[test]
    fn empty_results_are_equal_whatever_their_arity() {
        let graph = PropertyGraph::paper_example();
        let one = run(&graph, "MATCH (p:NoSuchLabel) RETURN p.name");
        let two = run(&graph, "MATCH (p:NoSuchLabel) RETURN p.name, p.age");
        assert!(one.bag_equal(&two) && two.bag_equal(&one));
        assert!(one.ordered_equal(&two) && two.ordered_equal(&one));
        // Non-empty results still need the same arity.
        let names = run(&graph, "MATCH (p:Person) RETURN p.name");
        let pairs = run(&graph, "MATCH (p:Person) RETURN p.name, p.name");
        assert!(!names.bag_equal(&pairs) && !names.ordered_equal(&pairs));
        assert!(!names.bag_equal(&one) && !one.bag_equal(&names));
    }

    #[test]
    fn with_star_keeps_all_bindings() {
        let graph = PropertyGraph::paper_example();
        let result = run(&graph, "MATCH (a:Person)-[r]->(b) WITH * RETURN a, r, b");
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn errors_on_invalid_limit() {
        let graph = PropertyGraph::paper_example();
        let query = parse_query("MATCH (n) RETURN n LIMIT -1").unwrap();
        assert!(evaluate_query(&graph, &query).is_err());
    }

    #[test]
    fn union_arity_mismatch_is_an_error() {
        let graph = PropertyGraph::paper_example();
        let query = parse_query("MATCH (n) RETURN n UNION ALL MATCH (n) RETURN n, n.name").unwrap();
        assert!(evaluate_query(&graph, &query).is_err());
    }

    #[test]
    fn distinct_preserves_first_occurrence_order() {
        // The sort-based dedup must keep the output in first-occurrence
        // order, exactly like the quadratic scan it replaced.
        let graph = PropertyGraph::new();
        let result = run(&graph, "UNWIND [3, 1, 3, 2, 1] AS x RETURN DISTINCT x");
        assert_eq!(
            result.rows,
            vec![vec![Value::Integer(3)], vec![Value::Integer(1)], vec![Value::Integer(2)]]
        );
        // COLLECT(DISTINCT ...) keeps first-occurrence order too.
        let result = run(&graph, "UNWIND [3, 1, 3, 2, 1] AS x RETURN COLLECT(DISTINCT x)");
        assert_eq!(
            result.rows,
            vec![vec![Value::List(vec![Value::Integer(3), Value::Integer(1), Value::Integer(2)])]]
        );
        // UNION dedup: first occurrence across the combined parts.
        let result = run(&graph, "UNWIND [2, 1] AS x RETURN x UNION UNWIND [1, 3] AS x RETURN x");
        assert_eq!(
            result.rows,
            vec![vec![Value::Integer(2)], vec![Value::Integer(1)], vec![Value::Integer(3)]]
        );
        // COUNT(DISTINCT ...) through the same path.
        let result = run(&graph, "UNWIND [1, 1, 2, 2, 2] AS x RETURN COUNT(DISTINCT x)");
        assert_eq!(result.rows, vec![vec![Value::Integer(2)]]);
    }

    #[test]
    fn distinct_separates_lossy_float_integer_collisions() {
        // 2^53 + 1 and 2^53 as a float are different values; the lossy
        // comparison used to merge them under DISTINCT.
        let graph = PropertyGraph::new();
        let result =
            run(&graph, "UNWIND [9007199254740993, 9007199254740992.0] AS x RETURN DISTINCT x");
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn evaluates_with_order_limit_then_match_listing_2() {
        let graph = PropertyGraph::paper_example();
        // Q1 and Q2 of Listing 2 are equivalent: pick the node with the
        // smallest p1 (here: name), then follow an outgoing edge.
        let q1 = run(
            &graph,
            "MATCH (n1) WITH n1 ORDER BY n1.name LIMIT 1 MATCH (n1)-[]->(n2) RETURN n2",
        );
        let q2 = run(
            &graph,
            "MATCH (n1) WITH n1 ORDER BY n1.name LIMIT 1 MATCH (n2)<-[]-(n1) RETURN n2",
        );
        assert!(q1.bag_equal(&q2));
    }
}
