//! A bag-semantics reference evaluator for the supported Cypher fragment.
//!
//! The evaluator is the *oracle* of GraphQE-rs: it is used by property tests
//! to cross-check the prover (two queries proven equivalent must return the
//! same bag of rows on any graph) and by the counterexample search that
//! certifies non-equivalence. It has one implementation — compiled plans
//! ([`crate::plan`]) over flat [`Row`]s — and is itself checked against the
//! certificate checker's independent evaluator (`graphqe_checker::eval`),
//! which shares no code with it: `tests/checker_differential.rs` asserts
//! the same columns, the same rows in the same order, and the same errors.

use std::cmp::Ordering;
use std::fmt;

use std::collections::BTreeSet;
use std::rc::Rc;

use cypher_parser::ast::{
    Aggregate, Clause, Expr, MatchClause, Projection, ProjectionItems, Query, SingleQuery,
    UnionKind, WithClause,
};

use crate::expr::{eval_expr, eval_predicate, EvalCtx, Row, SymbolTable};
use crate::graph::PropertyGraph;
use crate::matching::match_clause;
use crate::plan::{CompiledProjection, QueryPlan};
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
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| cmp_rows(a, b));
        rows
    }

    /// Bag equality per Definition 4 of the paper: the results contain the
    /// same tuples with the same multiplicities. Column *names* are ignored
    /// (two equivalent queries may label their columns differently), and so
    /// is the arity of two empty results: an empty bag has no tuple whose
    /// width could differ, which is why queries of different arity are
    /// equivalent exactly when both always return nothing. Non-empty
    /// results must agree in arity.
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

fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = x.total_cmp(y);
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

/// Evaluates `query` on `graph` (one-shot). Names intern on demand and
/// clauses lower on first application; callers evaluating one query over
/// many graphs keep a [`QueryPlan`] and use [`evaluate_planned`].
pub fn evaluate_query(graph: &PropertyGraph, query: &Query) -> Result<QueryResult, EvalError> {
    evaluate_planned(graph, query, &QueryPlan::empty())
}

/// Evaluates `query` under an externally owned [`QueryPlan`]. The plan
/// must come from [`QueryPlan::new`] (or a prior evaluation) over this
/// exact query instance — plans key on AST node addresses, so a foreign
/// plan is safe but re-lowers everything.
pub fn evaluate_planned(
    graph: &PropertyGraph,
    query: &Query,
    plan: &QueryPlan,
) -> Result<QueryResult, EvalError> {
    evaluate_union_query(EvalCtx::new(graph, plan), query, vec![Row::new()], true)
}

/// Evaluates a (possibly `UNION`-combined) query starting from the given
/// rows. Used both at the top level and for `EXISTS { ... }` subqueries,
/// where `initial_rows` carries the outer bindings.
pub(crate) fn evaluate_union_query(
    ctx: EvalCtx<'_>,
    query: &Query,
    initial_rows: Vec<Row>,
    require_return: bool,
) -> Result<QueryResult, EvalError> {
    let mut combined: Option<QueryResult> = None;
    for (index, part) in query.parts.iter().enumerate() {
        let result = evaluate_single(ctx, part, initial_rows.clone(), require_return)?;
        combined = Some(match combined {
            None => result,
            Some(acc) => {
                if acc.columns.len() != result.columns.len() {
                    return Err(EvalError::new(
                        "UNION requires sub-queries with the same number of columns",
                    ));
                }
                let mut rows = acc.rows;
                rows.extend(result.rows);
                let merged = QueryResult { columns: acc.columns, rows };
                match query.unions[index - 1] {
                    UnionKind::All => merged,
                    UnionKind::Distinct => dedupe_result(merged),
                }
            }
        });
    }
    Ok(combined.unwrap_or_else(QueryResult::empty))
}

fn dedupe_result(result: QueryResult) -> QueryResult {
    let rows = dedup_first_occurrence(result.rows, |a, b| cmp_rows(a, b));
    QueryResult { columns: result.columns, rows }
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

fn evaluate_single(
    ctx: EvalCtx<'_>,
    query: &SingleQuery,
    mut rows: Vec<Row>,
    require_return: bool,
) -> Result<QueryResult, EvalError> {
    for clause in &query.clauses {
        match clause {
            Clause::Match(m) => {
                rows = apply_match(ctx, m, rows)?;
            }
            Clause::Unwind(u) => {
                // Interned once per clause application, not once per output
                // row.
                let alias = ctx.symbols.intern(&u.alias);
                let mut next = Vec::new();
                for row in rows {
                    let value = eval_expr(ctx, &row, &u.expr)?;
                    match value {
                        Value::Null => {}
                        Value::List(items) => {
                            for item in items {
                                next.push(row.with_sym(alias, item));
                            }
                        }
                        other => {
                            next.push(row.with_sym(alias, other));
                        }
                    }
                }
                rows = next;
            }
            Clause::With(w) => {
                rows = apply_with(ctx, w, rows)?;
            }
            Clause::Return(p) => {
                let (columns, projected) = apply_projection(ctx, p, &rows)?;
                let result_rows =
                    projected.into_iter().map(|(values, _)| values).collect::<Vec<_>>();
                return Ok(QueryResult { columns, rows: result_rows });
            }
        }
    }
    if require_return {
        return Err(EvalError::new("query does not end with a RETURN clause"));
    }
    // Subquery (EXISTS) without RETURN: expose the surviving multiplicity.
    Ok(QueryResult { columns: Vec::new(), rows: rows.into_iter().map(|_| Vec::new()).collect() })
}

fn apply_match(
    ctx: EvalCtx<'_>,
    clause: &MatchClause,
    rows: Vec<Row>,
) -> Result<Vec<Row>, EvalError> {
    // Lowered once per plan (memoized in the plan's lowering cache).
    let compiled = ctx.plans.match_plan(ctx.symbols, clause);
    let mut next = Vec::new();
    for row in rows {
        let matches = match_clause(ctx, &compiled, &row)?;
        if matches.is_empty() && compiled.optional {
            // OPTIONAL MATCH keeps the row, binding the pattern variables to
            // NULL (left outer join semantics).
            let mut extended = row;
            for sym in &compiled.optional_syms {
                extended.insert_if_absent_sym(*sym, Value::Null);
            }
            next.push(extended);
        } else {
            next.extend(matches);
        }
    }
    Ok(next)
}

fn apply_with(
    ctx: EvalCtx<'_>,
    clause: &WithClause,
    rows: Vec<Row>,
) -> Result<Vec<Row>, EvalError> {
    let (columns, projected) = apply_projection(ctx, &clause.projection, &rows)?;
    // Output ids interned once per clause application, not once per row.
    let column_syms: Vec<_> = columns.iter().map(|name| ctx.symbols.intern(name)).collect();
    let mut next = Vec::new();
    for (values, env) in projected {
        let mut row = Row::new();
        for (sym, value) in column_syms.iter().zip(values) {
            row.insert_sym(*sym, value);
        }
        if let Some(predicate) = &clause.where_clause {
            // The WHERE of a WITH sees both the projected names and (for
            // robustness) the pre-projection bindings.
            let mut combined = env;
            combined.merge_from(&row);
            if !eval_predicate(ctx, &combined, predicate)? {
                continue;
            }
        }
        next.push(row);
    }
    Ok(next)
}

/// Applies a projection (shared by `WITH` and `RETURN`).
///
/// Returns the output column names and, for every output row, the projected
/// values together with the *environment* row used to produce it (the
/// pre-projection bindings merged with the projected ones) — the environment
/// is what `ORDER BY` and a `WITH ... WHERE` may refer to.
#[allow(clippy::type_complexity)]
fn apply_projection(
    ctx: EvalCtx<'_>,
    projection: &Projection,
    rows: &[Row],
) -> Result<(Vec<String>, Vec<(Vec<Value>, Row)>), EvalError> {
    let plan = match &projection.items {
        ProjectionItems::Items(_) => ctx.plans.projection_plan(ctx.symbols, projection),
        ProjectionItems::Star => Rc::new(star_projection(ctx.symbols, rows)),
    };
    let CompiledProjection { columns, syms: column_syms, exprs } = &*plan;

    let has_aggregate = exprs.iter().any(|expr| expr.contains_aggregate());
    let mut produced: Vec<(Vec<Value>, Row)> = Vec::new();

    if has_aggregate {
        // Group rows by the values of the non-aggregate items.
        let grouping: Vec<&Expr> = exprs.iter().filter(|e| !e.contains_aggregate()).collect();
        let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
        for row in rows {
            let key =
                grouping.iter().map(|e| eval_expr(ctx, row, e)).collect::<Result<Vec<_>, _>>()?;
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
            for expr in exprs {
                values.push(eval_with_aggregates(ctx, &members, &representative, expr)?);
            }
            let mut env = representative;
            for (sym, value) in column_syms.iter().zip(values.iter()) {
                env.insert_sym(*sym, value.clone());
            }
            produced.push((values, env));
        }
    } else {
        for row in rows {
            let mut values = Vec::new();
            for expr in exprs {
                values.push(eval_expr(ctx, row, expr)?);
            }
            let mut env = row.clone();
            for (sym, value) in column_syms.iter().zip(values.iter()) {
                env.insert_sym(*sym, value.clone());
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
                keys.push((eval_expr(ctx, &entry.1, &order.expr)?, order.ascending));
            }
            keyed.push((keys, entry));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            for ((va, asc), (vb, _)) in a.iter().zip(b.iter()) {
                let ord = va.total_cmp(vb);
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
        let n = constant_usize(ctx, skip, "SKIP")?;
        produced = produced.into_iter().skip(n).collect();
    }
    if let Some(limit) = &projection.limit {
        let n = constant_usize(ctx, limit, "LIMIT")?;
        produced.truncate(n);
    }
    Ok((columns.clone(), produced))
}

/// `RETURN *` / `WITH *`: every variable the rows bind, in name order.
fn star_projection(symbols: &SymbolTable, rows: &[Row]) -> CompiledProjection {
    let names: BTreeSet<_> = rows.iter().flat_map(|row| row.names(symbols)).collect();
    let columns: Vec<String> = names.iter().map(|name| name.to_string()).collect();
    CompiledProjection {
        syms: columns.iter().map(|name| symbols.intern(name)).collect(),
        exprs: columns.iter().map(|name| Expr::Variable(name.clone())).collect(),
        columns,
    }
}

/// Evaluates an expression that may contain aggregate calls over a group of
/// rows. Non-aggregate sub-expressions are evaluated on the representative
/// row of the group.
fn eval_with_aggregates(
    ctx: EvalCtx<'_>,
    group: &[Row],
    representative: &Row,
    expr: &Expr,
) -> Result<Value, EvalError> {
    match expr {
        Expr::CountStar { distinct } => {
            if *distinct {
                // Every row of a group binds the same variables, so its
                // values in symbol order identify the whole binding.
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
                let value = eval_expr(ctx, row, arg)?;
                if !value.is_null() {
                    values.push(value);
                }
            }
            if *distinct {
                values = dedup_first_occurrence(values, |a, b| a.total_cmp(b));
            }
            Ok(compute_aggregate(*func, values))
        }
        Expr::Binary(op, lhs, rhs) => {
            let left = eval_with_aggregates(ctx, group, representative, lhs)?;
            let right = eval_with_aggregates(ctx, group, representative, rhs)?;
            // Re-dispatch on literal values by delegating to the scalar path.
            let lit = Expr::Binary(
                *op,
                Box::new(value_to_placeholder("·agg_lhs")),
                Box::new(value_to_placeholder("·agg_rhs")),
            );
            let mut row = representative.clone();
            row.insert(ctx.symbols, "·agg_lhs", left);
            row.insert(ctx.symbols, "·agg_rhs", right);
            eval_expr(ctx, &row, &lit)
        }
        Expr::Unary(op, inner) => {
            let value = eval_with_aggregates(ctx, group, representative, inner)?;
            let mut row = representative.clone();
            row.insert(ctx.symbols, "·agg", value);
            eval_expr(ctx, &row, &Expr::Unary(*op, Box::new(value_to_placeholder("·agg"))))
        }
        _ if !expr.contains_aggregate() => eval_expr(ctx, representative, expr),
        other => Err(EvalError::new(format!("unsupported aggregate expression shape: {other:?}"))),
    }
}

fn value_to_placeholder(name: &str) -> Expr {
    Expr::Variable(name.to_string())
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

fn constant_usize(ctx: EvalCtx<'_>, expr: &Expr, what: &str) -> Result<usize, EvalError> {
    let value = eval_expr(ctx, &Row::new(), expr)?;
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
