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
//! pre-interned [`SymId`](crate::expr::SymId)s, so every row operation on the
//! per-candidate path is integer-keyed. Candidates come from the graph's
//! [`crate::index::AdjacencyIndex`] in ascending node/relationship id order
//! (which `LIMIT` without `ORDER BY` can observe), and var-length paths are
//! explored depth-first; the checker's independent evaluator enumerates in
//! the same order, which `tests/checker_differential.rs` pins row for row.

use cypher_parser::ast::RelDirection;

use crate::eval::EvalError;
use crate::expr::{eval_expr, EvalCtx, Row};
use crate::graph::{EntityId, NameId, NodeId, RelId};
use crate::index::AdjEntry;
use crate::plan::{
    CompiledMatch, CompiledNodePattern, CompiledPathPattern, CompiledRelPattern, PropValue,
};
use crate::value::Value;

/// The continuation invoked for every complete match of a path pattern.
type OnComplete<'a> =
    &'a mut dyn FnMut(EvalCtx<'_>, Row, &mut Vec<RelId>, &[Value]) -> Result<(), EvalError>;

/// Finds all extensions of `base` that satisfy every pattern of the compiled
/// clause and its `WHERE` predicate. The caller handles `OPTIONAL MATCH`, for
/// which the predicate is part of the optional part.
pub fn match_clause(
    ctx: EvalCtx<'_>,
    compiled: &CompiledMatch,
    base: &Row,
) -> Result<Vec<Row>, EvalError> {
    let mut results = Vec::new();
    let mut used = Vec::new();
    match_pattern_list(ctx, &compiled.patterns, 0, base.clone(), &mut used, &mut results)?;
    match &compiled.where_clause {
        None => Ok(results),
        Some(predicate) => {
            let mut kept = Vec::new();
            for row in results {
                if crate::expr::eval_predicate(ctx, &row, predicate)? {
                    kept.push(row);
                }
            }
            Ok(kept)
        }
    }
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
    for node in candidates {
        let mut next_row = row.clone();
        bind_node(&mut next_row, &pattern.start, node);
        let mut trace = vec![Value::Node(node)];
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
/// restored by callers after exploring each alternative.
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

    if rel_pattern.is_var_length() {
        match_var_length(ctx, pattern, segment_index, current, row, used, trace, on_complete)
    } else {
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
            let mut next_row = row.clone();
            if let Some(sym) = rel_pattern.variable {
                next_row.insert_sym(sym, Value::Relationship(rel));
            }
            bind_node(&mut next_row, &segment.node, next_node);
            used.push(rel);
            trace.push(Value::Relationship(rel));
            trace.push(Value::Node(next_node));
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
            trace.pop();
            trace.pop();
            used.pop();
        }
        Ok(())
    }
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
                let mut next_row = row.clone();
                if let Some(sym) = rel_pattern.variable {
                    next_row.insert_sym(
                        sym,
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
            let mut rels = frame.rels.clone();
            rels.push(rel);
            stack.push(Frame { node: next, rels });
        }
    }
    Ok(())
}

/// Returns `(relationship, neighbour)` pairs adjacent to `from` that satisfy
/// the relationship pattern's direction, label and property constraints, in
/// ascending relationship id order.
fn candidate_relationships(
    ctx: EvalCtx<'_>,
    row: &Row,
    pattern: &CompiledRelPattern,
    from: NodeId,
) -> Result<Vec<(RelId, NodeId)>, EvalError> {
    let index = ctx.graph.adjacency();
    let names = ctx.graph.names();

    // Resolve the pattern's type alternatives to name ids once; a type the
    // graph's table does not know contributes no candidates. The single-type
    // case (ubiquitous) avoids the alternatives vector entirely.
    enum TypeFilter {
        Any,
        One(NameId),
        AnyOf(Vec<NameId>),
    }
    let type_filter = match pattern.labels.as_slice() {
        [] => TypeFilter::Any,
        [label] => match names.lookup(label) {
            None => return Ok(Vec::new()),
            Some(id) => TypeFilter::One(id),
        },
        labels => {
            let resolved: Vec<NameId> =
                labels.iter().filter_map(|label| names.lookup(label)).collect();
            if resolved.is_empty() {
                return Ok(Vec::new());
            }
            TypeFilter::AnyOf(resolved)
        }
    };
    // The pattern's property keys, resolved once; a key the table does not
    // know is carried by no relationship.
    let Some(keys) =
        pattern.properties.iter().map(|(key, _)| names.lookup(key)).collect::<Option<Vec<_>>>()
    else {
        return Ok(Vec::new());
    };
    // If the relationship variable is already bound, the candidate must be
    // that exact relationship.
    let bound = pattern.variable.and_then(|sym| match row.get_sym(sym) {
        Some(Value::Relationship(bound)) => Some(*bound),
        _ => None,
    });

    let mut out = Vec::new();
    let mut push = |entry: &AdjEntry| -> Result<(), EvalError> {
        let type_ok = match &type_filter {
            TypeFilter::Any => true,
            TypeFilter::One(id) => entry.type_id == *id,
            TypeFilter::AnyOf(ids) => ids.contains(&entry.type_id),
        };
        if !type_ok {
            return Ok(());
        }
        if let Some(bound) = bound {
            if bound != entry.rel {
                return Ok(());
            }
        }
        // Property-key prefilter: a pattern key the relationship does not
        // carry can never compare `TRUE`, so skip before evaluating the
        // (potentially row-dependent) expected values.
        if keys.iter().any(|key| !index.rel_has_key(entry.rel, *key)) {
            return Ok(());
        }
        if properties_match(ctx, row, EntityId::Relationship(entry.rel), &pattern.properties)? {
            out.push((entry.rel, entry.neighbour));
        }
        Ok(())
    };
    match pattern.direction {
        RelDirection::Outgoing => {
            for entry in index.outgoing(from) {
                push(entry)?;
            }
        }
        RelDirection::Incoming => {
            for entry in index.incoming(from) {
                push(entry)?;
            }
        }
        RelDirection::Undirected => {
            // Merge the two (relationship-id-sorted) lists so candidates come
            // out in ascending relationship id. A self-loop appears in both
            // lists and must be yielded once: the outgoing entry is kept.
            let outgoing = index.outgoing(from);
            let incoming = index.incoming(from);
            let (mut i, mut j) = (0, 0);
            while i < outgoing.len() || j < incoming.len() {
                let take_out = match (outgoing.get(i), incoming.get(j)) {
                    (Some(o), Some(n)) => {
                        if o.rel == n.rel {
                            // Self-loop: skip the incoming copy.
                            j += 1;
                            true
                        } else {
                            o.rel < n.rel
                        }
                    }
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if take_out {
                    push(&outgoing[i])?;
                    i += 1;
                } else {
                    push(&incoming[j])?;
                    j += 1;
                }
            }
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
/// constraints, in ascending node id order.
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
    let index = ctx.graph.adjacency();
    let names = ctx.graph.names();
    // Fast paths for the two overwhelmingly common shapes, avoiding any
    // bitset allocation: an unconstrained pattern matches every node, and a
    // single-label pattern is exactly that label's bitset.
    if pattern.properties.is_empty() {
        match pattern.labels.as_slice() {
            [] => return Ok(ctx.graph.node_ids().collect()),
            [label] => {
                return Ok(match names.lookup(label) {
                    None => Vec::new(),
                    Some(label) => index.nodes_with_label(label).iter().map(NodeId).collect(),
                })
            }
            _ => {}
        }
    }
    // General path: label bitset intersection, then the property-key
    // prefilter — the node must carry every constrained key. A name the
    // graph's table does not know selects no node.
    let Some(mut candidates) = index.label_candidates(names, &pattern.labels) else {
        return Ok(Vec::new());
    };
    for (key, _) in &pattern.properties {
        let Some(key) = names.lookup(key) else { return Ok(Vec::new()) };
        candidates.intersect_with(index.nodes_with_key(key));
    }
    let mut out = Vec::new();
    for id in candidates.iter() {
        let id = NodeId(id);
        // Labels and key presence are guaranteed by the bitsets; only the
        // property values remain to be checked.
        if properties_match(ctx, row, EntityId::Node(id), &pattern.properties)? {
            out.push(id);
        }
    }
    Ok(out)
}

fn node_matches(
    ctx: EvalCtx<'_>,
    row: &Row,
    id: NodeId,
    pattern: &CompiledNodePattern,
) -> Result<bool, EvalError> {
    if !pattern.labels.iter().all(|label| ctx.graph.node_has_label(id, label)) {
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
/// expectations skip expression evaluation entirely.
fn properties_match(
    ctx: EvalCtx<'_>,
    row: &Row,
    entity: EntityId,
    properties: &[(String, PropValue)],
) -> Result<bool, EvalError> {
    for (key, expected) in properties {
        // An absent property reads as NULL, which never compares `TRUE`.
        let actual =
            ctx.graph.names().lookup(key).and_then(|key| ctx.graph.property_by_id(entity, key));
        let matches = match expected {
            PropValue::Const(value) => actual.and_then(|actual| actual.cypher_eq(value)),
            PropValue::Dynamic(expr) => {
                let value = eval_expr(ctx, row, expr)?;
                actual.and_then(|actual| actual.cypher_eq(&value))
            }
        };
        if matches != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

fn bind_node(row: &mut Row, pattern: &CompiledNodePattern, id: NodeId) {
    if let Some(sym) = pattern.variable {
        row.insert_sym(sym, Value::Node(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::SymbolTable;
    use crate::graph::PropertyGraph;
    use crate::plan::{lower_match, QueryPlan};
    use cypher_parser::ast::{Clause, MatchClause};
    use cypher_parser::parse_query;

    fn match_clauses_of(query: &str) -> Vec<MatchClause> {
        let query = parse_query(query).unwrap();
        query.parts[0]
            .clauses
            .iter()
            .filter_map(|clause| match clause {
                Clause::Match(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    /// Matches the first `MATCH` clause of `query` on `graph`, `WHERE`
    /// included, returning the rows with the plan whose symbols they use.
    fn matches_with_plan(graph: &PropertyGraph, query: &str) -> (QueryPlan, Vec<Row>) {
        let plan = QueryPlan::empty();
        let compiled = lower_match(plan.symbols(), &match_clauses_of(query)[0]);
        let rows = match_clause(EvalCtx::new(graph, &plan), &compiled, &Row::new()).unwrap();
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
        let clauses = match_clauses_of("MATCH (a)-[r1]->(b) MATCH (c)-[r2]->(d) RETURN a");
        let plan = QueryPlan::empty();
        let symbols = plan.symbols();
        let (m1, m2) = (lower_match(symbols, &clauses[0]), lower_match(symbols, &clauses[1]));
        let ctx = EvalCtx::new(&graph, &plan);
        let mut total = 0;
        let mut same_rel = 0;
        for row in &match_clause(ctx, &m1, &Row::new()).unwrap() {
            for row2 in match_clause(ctx, &m2, row).unwrap() {
                total += 1;
                if get(symbols, &row2, "r1") == get(symbols, &row2, "r2") {
                    same_rel += 1;
                }
            }
        }
        // 3 x 3 combinations, including the 3 where both patterns matched the
        // same relationship (allowed across different MATCH clauses).
        assert_eq!(total, 9);
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
        // Only the first clause is matched here: one row per reader.
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
}
