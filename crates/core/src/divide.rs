//! Divide-and-conquer proving for `ORDER BY ... LIMIT ... SKIP ...` inside
//! subqueries (§IV-B "Sorting with truncation", Listing 2 of the paper).
//!
//! A query whose `WITH` clauses carry `LIMIT`/`SKIP` cannot be modeled as a
//! single G-expression. Instead the query is split at every such `WITH`:
//! the prefix becomes a standalone query whose `RETURN` is the `WITH`
//! projection (keeping its ordering and truncation at the now-outermost
//! level), and the suffix starts from a fresh `MATCH` re-introducing the
//! projected variables. Two queries are then proven equivalent segment by
//! segment — a sufficient condition, exactly as in the paper.

use cypher_parser::ast::{
    Clause, MatchClause, NodePattern, PathPattern, ProjectionItems, Query, SingleQuery,
};

/// Returns `true` if any `WITH` clause of the query carries `LIMIT` or `SKIP`.
pub fn needs_divide_and_conquer(query: &Query) -> bool {
    query.parts.iter().any(|part| {
        part.clauses.iter().any(|clause| match clause {
            Clause::With(w) => w.projection.skip.is_some() || w.projection.limit.is_some(),
            _ => false,
        })
    })
}

/// Splits a single-part query into segments at every truncating `WITH`.
/// Returns `None` when the query has unions or a truncating `WITH` whose
/// items are not plain variables (the re-introduction step would be unsound).
pub fn split_into_segments(query: &Query) -> Option<Vec<Query>> {
    if !query.is_single() {
        return None;
    }
    let part = &query.parts[0];
    let mut segments = Vec::new();
    let mut current: Vec<Clause> = Vec::new();

    for clause in &part.clauses {
        match clause {
            Clause::With(w) if w.projection.skip.is_some() || w.projection.limit.is_some() => {
                if w.where_clause.is_some() {
                    return None;
                }
                // The prefix segment returns exactly what the WITH projects.
                let mut prefix = current.clone();
                prefix.push(Clause::Return(w.projection.clone()));
                segments.push(Query::single(SingleQuery { clauses: prefix }));

                // The suffix re-introduces the projected plain variables.
                let items = match &w.projection.items {
                    ProjectionItems::Items(items) => items.clone(),
                    ProjectionItems::Star => return None,
                };
                let mut patterns = Vec::new();
                for item in &items {
                    match (&item.alias, &item.expr) {
                        (None, cypher_parser::ast::Expr::Variable(name)) => {
                            patterns.push(PathPattern::node(NodePattern::var(name.clone())));
                        }
                        _ => return None,
                    }
                }
                current = vec![Clause::Match(MatchClause {
                    optional: false,
                    patterns,
                    where_clause: None,
                    span: cypher_parser::Span::dummy(),
                })];
            }
            other => current.push(other.clone()),
        }
    }
    segments.push(Query::single(SingleQuery { clauses: current }));
    Some(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;
    use cypher_parser::pretty::query_to_string;

    #[test]
    fn detects_truncating_with() {
        let q = parse_query("MATCH (n) WITH n ORDER BY n.p1 LIMIT 1 MATCH (n)-[]->(m) RETURN m")
            .unwrap();
        assert!(needs_divide_and_conquer(&q));
        let q = parse_query("MATCH (n) WITH n ORDER BY n.p1 MATCH (n)-[]->(m) RETURN m").unwrap();
        assert!(!needs_divide_and_conquer(&q));
    }

    #[test]
    fn splits_listing_2_queries_into_two_segments() {
        let q =
            parse_query("MATCH (n1) WITH n1 ORDER BY n1.p1 LIMIT 1 MATCH (n1)-[]->(n2) RETURN n2")
                .unwrap();
        let segments = split_into_segments(&q).unwrap();
        assert_eq!(segments.len(), 2);
        assert_eq!(query_to_string(&segments[0]), "MATCH (n1) RETURN n1 ORDER BY n1.p1 LIMIT 1");
        assert_eq!(query_to_string(&segments[1]), "MATCH (n1) MATCH (n1)-->(n2) RETURN n2");
    }

    #[test]
    fn refuses_non_variable_projections() {
        let q = parse_query("MATCH (n1) WITH n1.name AS x ORDER BY x LIMIT 1 MATCH (m) RETURN m")
            .unwrap();
        assert!(split_into_segments(&q).is_none());
    }

    #[test]
    fn query_without_truncation_is_one_segment() {
        let q = parse_query("MATCH (n) RETURN n").unwrap();
        let segments = split_into_segments(&q).unwrap();
        assert_eq!(segments.len(), 1);
    }
}
