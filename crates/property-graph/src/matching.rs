//! Isomorphism-based graph pattern matching (Definition 2 of the paper).
//!
//! Matching maps node patterns to nodes and relationship patterns to
//! relationships of a [`crate::PropertyGraph`], subject to:
//!
//! * label and property constraints on each pattern element;
//! * structure preservation (relationship endpoints follow the pattern);
//! * variable consistency (patterns sharing a variable match the same entity);
//! * **relationship-injective semantics**: distinct relationship patterns
//!   within one `MATCH` clause must match distinct relationships (§II-B).
//!
//! Variable-length patterns (`-[*1..3]->`) expand to simple paths whose
//! relationships are pairwise distinct, each satisfying the pattern's label
//! and property constraints.
//!
//! The matcher walks a clause lowered by [`crate::plan`]: variables are
//! [`SymId`](crate::expr::SymId)s and labels, types and keys are plan slots
//! resolved to the graph's [`NameId`](crate::graph::NameId)s once per
//! evaluation, so every filter is an integer compare. Candidates come from
//! a scan of the graph's flat node and relationship vectors in ascending id
//! order (which `LIMIT` without `ORDER BY` can observe): a hop keeps the
//! relationships incident to the current node in the pattern's direction,
//! and an undirected pattern yields a self-loop once. Every graph the
//! evaluator sees is small (pool graphs have at most 9 nodes and 16
//! relationships), so the scan needs no per-graph index. Var-length paths
//! are explored depth-first; the checker's independent evaluator enumerates
//! in the same order, which `tests/checker_differential.rs` pins row for
//! row.

use cypher_parser::ast::RelDirection;

use crate::eval::EvalError;
use crate::expr::{eval, eval_predicate, EvalCtx, Row};
use crate::graph::{EntityId, NodeId, RelId};
use crate::plan::{
    CompiledMatch, CompiledNodePattern, CompiledPathPattern, CompiledRelPattern, LExpr, Slot,
};
use crate::value::Value;

/// The continuation invoked for every complete match of a path pattern.
type OnComplete<'a> =
    &'a mut dyn FnMut(EvalCtx<'_>, Row, &mut Vec<RelId>, &[Value]) -> Result<(), EvalError>;

/// Finds all extensions of `base` that satisfy every pattern of the compiled
/// clause and its `WHERE` predicate. The caller handles `OPTIONAL MATCH`, for
/// which the predicate is part of the optional part.
pub(crate) fn match_clause(
    ctx: EvalCtx<'_>,
    compiled: &CompiledMatch,
    base: &Row,
) -> Result<Vec<Row>, EvalError> {
    let mut results = Vec::new();
    let mut used = Vec::new();
    match_pattern_list(ctx, &compiled.patterns, 0, base.clone(), &mut used, &mut results)?;
    if let Some(predicate) = &compiled.where_clause {
        // Filter in place, keeping the survivors in match order.
        let mut kept = 0;
        for index in 0..results.len() {
            if eval_predicate(ctx, &results[index], predicate)? {
                results.swap(kept, index);
                kept += 1;
            }
        }
        results.truncate(kept);
    }
    Ok(results)
}

fn match_pattern_list(
    ctx: EvalCtx<'_>,
    patterns: &[CompiledPathPattern],
    index: usize,
    row: Row,
    used: &mut Vec<RelId>,
    results: &mut Vec<Row>,
) -> Result<(), EvalError> {
    if index == patterns.len() {
        results.push(row);
        return Ok(());
    }
    let pattern = &patterns[index];
    let candidates = candidate_nodes(ctx, &row, &pattern.start)?;
    // The path trace is kept only for a pattern that binds a path variable;
    // one vector serves every candidate.
    let mut trace = Vec::new();
    for node in candidates {
        let next_row = bind_node(&row, &pattern.start, node);
        if pattern.variable.is_some() {
            trace.clear();
            trace.push(Value::Node(node));
        }
        let used_before = used.len();
        match_segments(
            ctx,
            pattern,
            0,
            node,
            next_row,
            used,
            &mut trace,
            &mut |ctx, row, used, trace| {
                let mut row = row;
                if let Some(path_sym) = pattern.variable {
                    row.insert_sym(path_sym, Value::Path(trace.to_vec()));
                }
                match_pattern_list(ctx, patterns, index + 1, row, used, results)
            },
        )?;
        used.truncate(used_before);
    }
    Ok(())
}

/// Matches the remaining segments of one path pattern, calling `on_complete`
/// for every full match. `used` accumulates the relationships matched so far
/// in the current `MATCH` clause (for relationship-injectivity) and is
/// restored by callers after exploring each alternative; `trace` records the
/// path so far when the pattern binds a path variable.
#[allow(clippy::too_many_arguments)]
fn match_segments(
    ctx: EvalCtx<'_>,
    pattern: &CompiledPathPattern,
    segment_index: usize,
    current: NodeId,
    row: Row,
    used: &mut Vec<RelId>,
    trace: &mut Vec<Value>,
    on_complete: OnComplete<'_>,
) -> Result<(), EvalError> {
    if segment_index == pattern.segments.len() {
        return on_complete(ctx, row, used, trace);
    }
    let segment = &pattern.segments[segment_index];
    let rel_pattern = &segment.relationship;
    let tracing = pattern.variable.is_some();

    if rel_pattern.length.is_some() {
        return match_var_length(
            ctx,
            pattern,
            segment_index,
            current,
            row,
            used,
            trace,
            on_complete,
        );
    }
    let candidates = candidate_relationships(ctx, &row, rel_pattern, current)?;
    for (rel, next_node) in candidates {
        if violates_injectivity(&row, rel_pattern, rel, used) {
            continue;
        }
        if !node_matches(ctx, &row, next_node, &segment.node)?
            || !node_binding_consistent(&row, &segment.node, next_node)
        {
            continue;
        }
        let mut next_row = row.with_room(2);
        if let Some(sym) = rel_pattern.variable {
            next_row.insert_sym(sym, Value::Relationship(rel));
        }
        if let Some(sym) = segment.node.variable {
            next_row.insert_sym(sym, Value::Node(next_node));
        }
        used.push(rel);
        if tracing {
            trace.push(Value::Relationship(rel));
            trace.push(Value::Node(next_node));
        }
        match_segments(
            ctx,
            pattern,
            segment_index + 1,
            next_node,
            next_row,
            used,
            trace,
            on_complete,
        )?;
        if tracing {
            trace.truncate(trace.len() - 2);
        }
        used.pop();
    }
    Ok(())
}

/// Expands a variable-length relationship pattern into simple paths.
#[allow(clippy::too_many_arguments)]
fn match_var_length(
    ctx: EvalCtx<'_>,
    pattern: &CompiledPathPattern,
    segment_index: usize,
    start: NodeId,
    row: Row,
    used: &mut Vec<RelId>,
    trace: &mut Vec<Value>,
    on_complete: OnComplete<'_>,
) -> Result<(), EvalError> {
    let segment = &pattern.segments[segment_index];
    let rel_pattern = &segment.relationship;
    let length = rel_pattern.length.expect("var-length pattern");
    let min = length.effective_min();
    // An unbounded `*` is exhaustive at the graph's relationship count,
    // because relationships may not repeat along a path.
    let max = length.max.unwrap_or(ctx.graph.relationship_count() as u32).max(min);
    let tracing = pattern.variable.is_some();

    // Depth-first expansion of simple paths (no repeated relationship).
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
            if node_matches(ctx, &row, end, &segment.node)?
                && node_binding_consistent(&row, &segment.node, end)
            {
                let mut next_row = row.with_room(2);
                if let Some(sym) = rel_pattern.variable {
                    next_row.insert_sym(
                        sym,
                        Value::List(frame.rels.iter().map(|r| Value::Relationship(*r)).collect()),
                    );
                }
                if let Some(sym) = segment.node.variable {
                    next_row.insert_sym(sym, Value::Node(end));
                }
                let used_before = used.len();
                let trace_before = trace.len();
                used.extend_from_slice(&frame.rels);
                if tracing {
                    trace.extend(frame.rels.iter().map(|rel| Value::Relationship(*rel)));
                    trace.push(Value::Node(end));
                }
                match_segments(
                    ctx,
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
        // Extend the path by one more hop.
        let extensions = candidate_relationships(ctx, &row, rel_pattern, frame.node)?;
        for (rel, next) in extensions {
            if frame.rels.contains(&rel) || used.contains(&rel) {
                continue;
            }
            let mut rels = Vec::with_capacity(frame.rels.len() + 1);
            rels.extend_from_slice(&frame.rels);
            rels.push(rel);
            stack.push(Frame { node: next, rels });
        }
    }
    Ok(())
}

/// Returns `(relationship, neighbour)` pairs incident to `from` that satisfy
/// the relationship pattern's direction, type and property constraints, in
/// ascending relationship id order: a scan of the graph's relationships. An
/// undirected pattern yields each relationship once — a self-loop too.
fn candidate_relationships(
    ctx: EvalCtx<'_>,
    row: &Row,
    pattern: &CompiledRelPattern,
    from: NodeId,
) -> Result<Vec<(RelId, NodeId)>, EvalError> {
    // If the relationship variable is already bound, the candidate must be
    // that exact relationship.
    let ids = match pattern.variable.and_then(|sym| row.get_sym(sym)) {
        Some(Value::Relationship(bound)) => bound.0..bound.0 + 1,
        _ => 0..ctx.graph.relationship_count() as u32,
    };
    let mut out = Vec::new();
    for id in ids.map(RelId) {
        let rel = ctx.graph.relationship(id);
        let neighbour = match pattern.direction {
            RelDirection::Outgoing if rel.source == from => rel.target,
            RelDirection::Incoming if rel.target == from => rel.source,
            RelDirection::Undirected if rel.source == from => rel.target,
            RelDirection::Undirected if rel.target == from => rel.source,
            _ => continue,
        };
        if !pattern.types.is_empty()
            && !pattern.types.iter().any(|slot| ctx.name(*slot) == Some(rel.rel_type))
        {
            continue;
        }
        let entity = EntityId::Relationship(id);
        // Key presence first: a pattern key the relationship does not carry
        // can never compare `TRUE`, so the (possibly row-dependent) expected
        // values are not evaluated for it.
        if carries_every_key(ctx, entity, &pattern.properties)
            && properties_match(ctx, row, entity, &pattern.properties)?
        {
            out.push((id, neighbour));
        }
    }
    Ok(out)
}

/// Relationship-injectivity: a candidate violates injectivity when it was
/// already matched by a *different* relationship pattern of the same `MATCH`
/// clause. A pattern whose variable is already bound to this very
/// relationship refers to the same relationship and is allowed.
fn violates_injectivity(
    row: &Row,
    pattern: &CompiledRelPattern,
    rel: RelId,
    used: &[RelId],
) -> bool {
    if !used.contains(&rel) {
        return false;
    }
    match pattern.variable {
        Some(sym) => !matches!(row.get_sym(sym), Some(Value::Relationship(bound)) if *bound == rel),
        None => true,
    }
}

/// Returns the nodes satisfying the node pattern's label and property
/// constraints, in ascending node id order: a scan of the graph's nodes.
fn candidate_nodes(
    ctx: EvalCtx<'_>,
    row: &Row,
    pattern: &CompiledNodePattern,
) -> Result<Vec<NodeId>, EvalError> {
    // A bound variable restricts the candidates to the bound node.
    if let Some(sym) = pattern.variable {
        match row.get_sym(sym) {
            Some(Value::Node(id)) => {
                return if node_matches(ctx, row, *id, pattern)? {
                    Ok(vec![*id])
                } else {
                    Ok(vec![])
                };
            }
            Some(_) => return Ok(vec![]),
            None => {}
        }
    }
    let mut out = Vec::with_capacity(ctx.graph.node_count());
    for id in ctx.graph.node_ids() {
        let entity = EntityId::Node(id);
        // Labels and key presence before any property value is evaluated.
        if has_labels(ctx, id, &pattern.labels)
            && carries_every_key(ctx, entity, &pattern.properties)
            && properties_match(ctx, row, entity, &pattern.properties)?
        {
            out.push(id);
        }
    }
    Ok(out)
}

/// Whether node `id` carries every label of `labels` (a label the graph's
/// table does not know is carried by no node).
fn has_labels(ctx: EvalCtx<'_>, id: NodeId, labels: &[Slot]) -> bool {
    let carried = ctx.graph.labels(id);
    labels.iter().all(|slot| ctx.name(*slot).is_some_and(|label| carried.contains(&label)))
}

/// Whether `entity` carries every key of a pattern's property map (a key
/// the graph's table does not know is carried by no entity).
fn carries_every_key(ctx: EvalCtx<'_>, entity: EntityId, properties: &[(Slot, LExpr)]) -> bool {
    properties.iter().all(|(key, _)| {
        ctx.name(*key).is_some_and(|key| ctx.graph.property_by_id(entity, key).is_some())
    })
}

fn node_matches(
    ctx: EvalCtx<'_>,
    row: &Row,
    id: NodeId,
    pattern: &CompiledNodePattern,
) -> Result<bool, EvalError> {
    if !has_labels(ctx, id, &pattern.labels) {
        return Ok(false);
    }
    properties_match(ctx, row, EntityId::Node(id), &pattern.properties)
}

/// If the node variable is already bound, the candidate must equal it.
fn node_binding_consistent(row: &Row, pattern: &CompiledNodePattern, id: NodeId) -> bool {
    match pattern.variable {
        Some(sym) => match row.get_sym(sym) {
            Some(Value::Node(bound)) => *bound == id,
            Some(_) => false,
            None => true,
        },
        None => true,
    }
}

/// Evaluates a pattern's property map against an entity: constant
/// expectations are compared in place, others are evaluated first.
fn properties_match(
    ctx: EvalCtx<'_>,
    row: &Row,
    entity: EntityId,
    properties: &[(Slot, LExpr)],
) -> Result<bool, EvalError> {
    for (key, expected) in properties {
        // An absent property reads as NULL, which never compares `TRUE`.
        let actual = ctx.name(*key).and_then(|key| ctx.graph.property_by_id(entity, key));
        let matches = match expected {
            LExpr::Const(value) => actual.and_then(|actual| actual.cypher_eq(value)),
            expected => {
                let value = eval(ctx, row, expected)?;
                actual.and_then(|actual| actual.cypher_eq(&value))
            }
        };
        if matches != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The row with the node pattern's variable, if any, bound to `id`.
fn bind_node(row: &Row, pattern: &CompiledNodePattern, id: NodeId) -> Row {
    match pattern.variable {
        Some(sym) => row.with_sym(sym, Value::Node(id)),
        None => row.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::SymbolTable;
    use crate::graph::PropertyGraph;
    use crate::plan::{LoweredClause, QueryPlan};
    use cypher_parser::parse_query;

    /// Matches the `MATCH` clauses of `query` on `graph` one after the
    /// other, `WHERE` included, returning the rows with the plan whose
    /// symbols they use.
    fn matches_with_plan(graph: &PropertyGraph, query: &str) -> (QueryPlan, Vec<Row>) {
        let plan = QueryPlan::new(&parse_query(query).unwrap());
        let names = plan.resolve(graph.names());
        let ctx = EvalCtx { graph, plan: &plan, names: &names };
        let mut rows = vec![Row::new()];
        for clause in &plan.query().parts[0] {
            if let LoweredClause::Match(m) = clause {
                let mut next = Vec::new();
                for row in &rows {
                    next.extend(match_clause(ctx, m, row).unwrap());
                }
                rows = next;
            }
        }
        (plan, rows)
    }

    fn matches(graph: &PropertyGraph, query: &str) -> Vec<Row> {
        matches_with_plan(graph, query).1
    }

    fn get<'r>(symbols: &SymbolTable, row: &'r Row, name: &str) -> &'r Value {
        row.get(symbols, name).expect("binding expected")
    }

    #[test]
    fn matches_labelled_nodes() {
        let graph = PropertyGraph::paper_example();
        assert_eq!(matches(&graph, "MATCH (n:Person) RETURN n").len(), 3);
        assert_eq!(matches(&graph, "MATCH (n:Book) RETURN n").len(), 1);
        assert_eq!(matches(&graph, "MATCH (n) RETURN n").len(), 4);
        assert_eq!(matches(&graph, "MATCH (n:Missing) RETURN n").len(), 0);
        // Several labels are a conjunction.
        let mut graph = PropertyGraph::new();
        let no_properties = Vec::<(String, Value)>::new;
        graph.add_node(["A"], no_properties());
        let both = graph.add_node(["A", "B"], no_properties());
        graph.add_node(["B"], no_properties());
        let (plan, rows) = matches_with_plan(&graph, "MATCH (n:B:A) RETURN n");
        assert_eq!(rows.len(), 1);
        assert_eq!(*get(plan.symbols(), &rows[0], "n"), Value::Node(both));
    }

    #[test]
    fn matches_property_constrained_nodes() {
        let graph = PropertyGraph::paper_example();
        let (plan, rows) = matches_with_plan(&graph, "MATCH (n:Person {name: 'Alice'}) RETURN n");
        assert_eq!(rows.len(), 1);
        assert_eq!(*get(plan.symbols(), &rows[0], "n"), Value::Node(NodeId(3)));
    }

    #[test]
    fn matches_directed_relationships() {
        let graph = PropertyGraph::paper_example();
        // Two READ relationships point at the book.
        assert_eq!(matches(&graph, "MATCH (p)-[:READ]->(b) RETURN p").len(), 2);
        // Reversed direction: nobody is read by the book.
        assert_eq!(matches(&graph, "MATCH (p)<-[:READ]-(b) RETURN p").len(), 2);
        assert_eq!(matches(&graph, "MATCH (b:Book)-[:READ]->(p) RETURN p").len(), 0);
        // Undirected matches both directions.
        assert_eq!(matches(&graph, "MATCH (p:Person)-[:READ]-(b) RETURN p").len(), 2);
    }

    #[test]
    fn paper_listing_1_pattern() {
        let graph = PropertyGraph::paper_example();
        let (plan, rows) = matches_with_plan(
            &graph,
            "MATCH (reader:Person)-[:READ]->(book:Book)<-[:WRITE]-(writer) RETURN writer",
        );
        // Jack and Alice both read the book written by Rowling.
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(*get(plan.symbols(), row, "writer"), Value::Node(NodeId(0)));
            assert_eq!(*get(plan.symbols(), row, "book"), Value::Node(NodeId(1)));
        }
    }

    #[test]
    fn relationship_injectivity_within_one_match() {
        let graph = PropertyGraph::paper_example();
        // The two relationship patterns may not match the same relationship
        // (Fig. 2 discussion in the paper): p1 and p2 must be distinct readers
        // or reader/writer combinations reached through distinct relationships.
        let (plan, rows) = matches_with_plan(&graph, "MATCH (p1)-[x]->(b)<-[y]-(p2) RETURN p1");
        for row in &rows {
            assert_ne!(get(plan.symbols(), row, "x"), get(plan.symbols(), row, "y"));
        }
        // Pairs: (Jack,Alice), (Alice,Jack), (Rowling,Jack), (Rowling,Alice),
        // (Jack,Rowling), (Alice,Rowling) = 6.
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn no_injectivity_across_separate_matches() {
        let graph = PropertyGraph::paper_example();
        let (plan, rows) =
            matches_with_plan(&graph, "MATCH (a)-[r1]->(b) MATCH (c)-[r2]->(d) RETURN a");
        let same_rel = rows
            .iter()
            .filter(|row| get(plan.symbols(), row, "r1") == get(plan.symbols(), row, "r2"))
            .count();
        // 3 x 3 combinations, including the 3 where both patterns matched the
        // same relationship (allowed across different MATCH clauses).
        assert_eq!(rows.len(), 9);
        assert_eq!(same_rel, 3);
    }

    #[test]
    fn shared_variables_join_patterns() {
        let graph = PropertyGraph::paper_example();
        let rows = matches(&graph, "MATCH (a:Person)-[:READ]->(b), (a)-[:READ]->(c) RETURN a");
        // With injectivity the two READ patterns must use different
        // relationships, but `a` is shared and each reader read exactly one
        // book, so there is no match.
        assert_eq!(rows.len(), 0);
        let rows = matches(&graph, "MATCH (a:Person)-[:READ]->(b) MATCH (a)-[:READ]->(c) RETURN a");
        // Across two clauses both patterns may use the same READ: one row
        // per reader.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn variable_length_paths() {
        let mut graph = PropertyGraph::new();
        let a = graph.add_node(["N"], [("name", Value::from("a"))]);
        let b = graph.add_node(["N"], [("name", Value::from("b"))]);
        let c = graph.add_node(["N"], [("name", Value::from("c"))]);
        let d = graph.add_node(["N"], [("name", Value::from("d"))]);
        graph.add_relationship("E", a, b, Vec::<(String, Value)>::new());
        graph.add_relationship("E", b, c, Vec::<(String, Value)>::new());
        graph.add_relationship("E", c, d, Vec::<(String, Value)>::new());

        // Paths of length exactly 2 starting anywhere: a->b->c and b->c->d.
        assert_eq!(matches(&graph, "MATCH (x)-[*2]->(y) RETURN x").len(), 2);
        // Length 1..3 from a: a->b, a->b->c, a->b->c->d.
        let rows = matches(&graph, "MATCH (x {name: 'a'})-[*1..3]->(y) RETURN y");
        assert_eq!(rows.len(), 3);
        // Unbounded `*` reaches the same three targets from a.
        let rows = matches(&graph, "MATCH (x {name: 'a'})-[*]->(y) RETURN y");
        assert_eq!(rows.len(), 3);
        // Zero-length paths are allowed with *0..1: the node itself plus b.
        let rows = matches(&graph, "MATCH (x {name: 'a'})-[*0..1]->(y) RETURN y");
        assert_eq!(rows.len(), 2);
        // The relationship variable binds to the list of traversed edges.
        let (plan, rows) = matches_with_plan(&graph, "MATCH (x {name: 'a'})-[r *2]->(y) RETURN r");
        assert_eq!(rows.len(), 1);
        match get(plan.symbols(), &rows[0], "r") {
            Value::List(items) => assert_eq!(items.len(), 2),
            other => panic!("expected list, got {other}"),
        }
    }

    #[test]
    fn variable_length_with_label_constraint() {
        let mut graph = PropertyGraph::new();
        let a = graph.add_node(["N"], Vec::<(String, Value)>::new());
        let b = graph.add_node(["N"], Vec::<(String, Value)>::new());
        let c = graph.add_node(["N"], Vec::<(String, Value)>::new());
        graph.add_relationship("GOOD", a, b, Vec::<(String, Value)>::new());
        graph.add_relationship("BAD", b, c, Vec::<(String, Value)>::new());
        // Only the GOOD edge may be traversed.
        assert_eq!(matches(&graph, "MATCH (x)-[:GOOD *1..2]->(y) RETURN y").len(), 1);
        assert_eq!(matches(&graph, "MATCH (x)-[*1..2]->(y) RETURN y").len(), 3);
    }

    #[test]
    fn named_paths_bind_path_values() {
        let graph = PropertyGraph::paper_example();
        let (plan, rows) = matches_with_plan(&graph, "MATCH p = (a:Person)-[:WRITE]->(b) RETURN p");
        assert_eq!(rows.len(), 1);
        match get(plan.symbols(), &rows[0], "p") {
            Value::Path(items) => assert_eq!(items.len(), 3),
            other => panic!("expected path, got {other}"),
        }
    }

    #[test]
    fn match_clause_applies_where() {
        let graph = PropertyGraph::paper_example();
        let rows = matches(&graph, "MATCH (n:Person) WHERE n.age > 26 RETURN n");
        assert_eq!(rows.len(), 2); // Rowling (59) and Alice (27).
    }

    /// The relationship ids bound to `r` by `query` on `graph`, in row order.
    fn rel_ids(graph: &PropertyGraph, query: &str) -> Vec<u32> {
        let (plan, rows) = matches_with_plan(graph, query);
        rows.iter()
            .map(|row| match get(plan.symbols(), row, "r") {
                Value::Relationship(id) => id.0,
                other => panic!("expected a relationship, got {other}"),
            })
            .collect()
    }

    /// A graph with parallel edges, a self-loop and edges in both
    /// directions, added out of endpoint order.
    fn scan_order_graph() -> PropertyGraph {
        let mut graph = PropertyGraph::new();
        let no_properties = Vec::<(String, Value)>::new;
        let a = graph.add_node(["A"], no_properties());
        let b = graph.add_node(["B"], no_properties());
        graph.add_relationship("R", b, a, no_properties()); // 0
        graph.add_relationship("S", a, a, no_properties()); // 1
        graph.add_relationship("R", a, b, no_properties()); // 2
        graph.add_relationship("R", a, b, [("k", Value::from(1))]); // 3
        graph.add_relationship("S", b, a, no_properties()); // 4
        graph
    }

    #[test]
    fn hop_candidates_come_in_ascending_relationship_id() {
        let graph = scan_order_graph();
        assert_eq!(rel_ids(&graph, "MATCH (x:A)-[r]->(y) RETURN r"), vec![1, 2, 3]);
        assert_eq!(rel_ids(&graph, "MATCH (x:A)<-[r]-(y) RETURN r"), vec![0, 1, 4]);
        assert_eq!(rel_ids(&graph, "MATCH (x:A)-[r]-(y) RETURN r"), vec![0, 1, 2, 3, 4]);
        assert_eq!(rel_ids(&graph, "MATCH (x:B)-[r:R]-(y) RETURN r"), vec![0, 2, 3]);
        assert_eq!(rel_ids(&graph, "MATCH (x:B)<-[r:R|S]-(y) RETURN r"), vec![2, 3]);
        assert_eq!(rel_ids(&graph, "MATCH (x)-[r {k: 1}]-(y) RETURN r"), vec![3, 3]);
        // Start nodes ascend too, and each start node's hops ascend.
        assert_eq!(rel_ids(&graph, "MATCH (x)-[r:R]->(y) RETURN r"), vec![2, 3, 0]);
        // A bound relationship is the only candidate.
        assert_eq!(rel_ids(&graph, "MATCH ()-[r:S]->(x:A) MATCH (x)-[r]-() RETURN r"), vec![1, 4]);
    }

    #[test]
    fn an_undirected_self_loop_comes_once() {
        let graph = scan_order_graph();
        // From a: the self-loop once, then 4 (b->a); from b: 4 again.
        assert_eq!(rel_ids(&graph, "MATCH (x)-[r:S]-(y) RETURN r"), vec![1, 4, 4]);
        assert_eq!(rel_ids(&graph, "MATCH (x)-[r]-(x) RETURN r"), vec![1]);
        let (plan, rows) = matches_with_plan(&graph, "MATCH (x)-[r:S]-(y) WHERE x = y RETURN r");
        assert_eq!(rows.len(), 1);
        assert_eq!(get(plan.symbols(), &rows[0], "x"), get(plan.symbols(), &rows[0], "y"));
    }

    #[test]
    fn names_the_graph_does_not_know_match_nothing() {
        let graph = scan_order_graph();
        for query in [
            "MATCH (x:Missing) RETURN x",
            "MATCH (x {missing: 1}) RETURN x",
            "MATCH (x)-[r:MISSING]->(y) RETURN r",
            "MATCH (x)-[r {missing: 1}]->(y) RETURN r",
        ] {
            assert!(matches(&graph, query).is_empty(), "{query}");
        }
        // An unknown alternative type leaves the known ones.
        assert_eq!(rel_ids(&graph, "MATCH (x:A)-[r:MISSING|S]->(y) RETURN r"), vec![1]);
    }
}
