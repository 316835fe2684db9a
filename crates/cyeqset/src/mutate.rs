//! The five mutation rules used to construct CyNeqSet from CyEqSet
//! (§VII-A of the paper): each mutation turns a query into a query that is
//! *not* equivalent to the original.

use cypher_parser::ast::{Clause, Expr, Literal, ProjectionItems, RelDirection, UnionKind};
use cypher_parser::{parse_query, pretty::query_to_string};

/// Mutation 1: flip the direction of the first directed relationship pattern.
pub fn flip_direction(query_text: &str) -> Option<String> {
    let mut query = parse_query(query_text).ok()?;
    for part in &mut query.parts {
        for clause in &mut part.clauses {
            let Clause::Match(m) = clause else { continue };
            for pattern in &mut m.patterns {
                for segment in &mut pattern.segments {
                    let rel = &mut segment.relationship;
                    if rel.direction != RelDirection::Undirected {
                        rel.direction = rel.direction.reversed();
                        return Some(query_to_string(&query));
                    }
                }
            }
        }
    }
    None
}

/// Mutation 2: change the first property value / comparison constant or the
/// first label of the query.
pub fn change_value_or_label(query_text: &str) -> Option<String> {
    let mut query = parse_query(query_text).ok()?;
    // First try to bump an integer literal in a WHERE clause or property map.
    let mut changed = false;
    for part in &mut query.parts {
        for clause in &mut part.clauses {
            if changed {
                break;
            }
            if let Clause::Match(m) = clause {
                if let Some(w) = &mut m.where_clause {
                    w.walk_mut(&mut |e| {
                        if let Expr::Literal(Literal::Integer(v)) = e {
                            if !changed {
                                *v += 1;
                                changed = true;
                            }
                        }
                    });
                }
                if !changed {
                    for pattern in &mut m.patterns {
                        for node in std::iter::once(&mut pattern.start)
                            .chain(pattern.segments.iter_mut().map(|s| &mut s.node))
                        {
                            if changed {
                                break;
                            }
                            if let Some(label) = node.labels.first_mut() {
                                label.push('X');
                                changed = true;
                            } else if let Some((_, value)) = node.properties.first_mut() {
                                if let Expr::Literal(Literal::Integer(v)) = value {
                                    *value = Expr::int(*v + 1);
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    if changed {
        Some(query_to_string(&query))
    } else {
        None
    }
}

/// Mutation 3: swap `UNION ALL` and `UNION`.
pub fn toggle_union(query_text: &str) -> Option<String> {
    let mut query = parse_query(query_text).ok()?;
    if query.unions.is_empty() {
        return None;
    }
    for union in &mut query.unions {
        *union = match union {
            UnionKind::All => UnionKind::Distinct,
            UnionKind::Distinct => UnionKind::All,
        };
    }
    Some(query_to_string(&query))
}

/// Mutation 4: change the value of a `LIMIT` / `SKIP` or flip an `ORDER BY`
/// direction.
pub fn change_limit_or_order(query_text: &str) -> Option<String> {
    let mut query = parse_query(query_text).ok()?;
    for part in &mut query.parts {
        for clause in &mut part.clauses {
            let projection = match clause {
                Clause::Return(p) => p,
                Clause::With(w) => &mut w.projection,
                _ => continue,
            };
            if let Some(Expr::Literal(Literal::Integer(v))) = projection.limit.clone() {
                projection.limit = Some(Expr::int(v + 1));
                return Some(query_to_string(&query));
            }
            if let Some(Expr::Literal(Literal::Integer(v))) = projection.skip.clone() {
                projection.skip = Some(Expr::int(v + 1));
                return Some(query_to_string(&query));
            }
        }
    }
    None
}

/// Mutation 5: toggle `DISTINCT` on the final `RETURN`.
pub fn toggle_distinct(query_text: &str) -> Option<String> {
    let mut query = parse_query(query_text).ok()?;
    let part = query.parts.last_mut()?;
    if let Some(Clause::Return(projection)) = part.clauses.last_mut() {
        // Toggling DISTINCT only changes semantics if duplicates are possible;
        // it stays a mutation candidate either way (the dataset construction
        // confirms non-equivalence via the counterexample search).
        projection.distinct = !projection.distinct;
        if let ProjectionItems::Star = projection.items {
            // `RETURN DISTINCT *` over distinct graph entities never has
            // duplicates; prefer a different mutation.
            return None;
        }
        return Some(query_to_string(&query));
    }
    None
}

/// Applies the mutation rules in a deterministic rotation starting at
/// `index % 5`, returning the first one that applies together with its name.
pub fn mutate(query_text: &str, index: usize) -> Option<(String, String)> {
    type MutationRule = (&'static str, fn(&str) -> Option<String>);
    let rules: [MutationRule; 5] = [
        ("flip-direction", flip_direction),
        ("change-value-or-label", change_value_or_label),
        ("toggle-union", toggle_union),
        ("change-limit-or-order", change_limit_or_order),
        ("toggle-distinct", toggle_distinct),
    ];
    for offset in 0..rules.len() {
        let (name, rule) = rules[(index + offset) % rules.len()];
        if let Some(mutated) = rule(query_text) {
            if mutated != query_text {
                return Some((name.to_string(), mutated));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_rule_applies_to_a_matching_query() {
        assert!(flip_direction("MATCH (a)-[r]->(b) RETURN a").is_some());
        assert!(flip_direction("MATCH (a) RETURN a").is_none());
        assert!(change_value_or_label("MATCH (a:Person) WHERE a.x = 1 RETURN a").is_some());
        assert!(toggle_union("MATCH (a) RETURN a UNION ALL MATCH (b) RETURN b").is_some());
        assert!(toggle_union("MATCH (a) RETURN a").is_none());
        assert!(change_limit_or_order("MATCH (a) RETURN a ORDER BY a.x LIMIT 3").is_some());
        assert!(toggle_distinct("MATCH (a) RETURN a.name").is_some());
    }

    #[test]
    fn mutate_always_finds_a_rule_for_typical_queries() {
        for (index, query) in [
            "MATCH (a:Person)-[r:READ]->(b) RETURN a.name",
            "MATCH (a) WHERE a.age > 3 RETURN a",
            "MATCH (a) RETURN a.name UNION MATCH (b) RETURN b.name",
        ]
        .iter()
        .enumerate()
        {
            let (_, mutated) = mutate(query, index).expect("mutation applies");
            assert_ne!(&mutated, query);
            assert!(cypher_parser::parse_query(&mutated).is_ok());
        }
    }

    #[test]
    fn mutations_change_results_on_the_paper_graph() {
        use property_graph::{evaluate_query, PropertyGraph};
        let graph = PropertyGraph::paper_example();
        let base = "MATCH (a:Person)-[r:READ]->(b:Book) RETURN a.name";
        let original = evaluate_query(&graph, &parse_query(base).unwrap()).unwrap();
        let (_, mutated) = mutate(base, 0).unwrap();
        let changed = evaluate_query(&graph, &parse_query(&mutated).unwrap()).unwrap();
        assert!(!original.bag_equal(&changed));
    }
}
