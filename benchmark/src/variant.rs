//! Seeded fresh variants of corpus pairs for the `serve-mixed` workload.
//!
//! A variant renames every node and relationship variable of a pair to a
//! name derived from a tag, applying one renaming to both sides. Renaming is
//! alpha-conversion, so the variant keeps its source's label, but its text is
//! new: it misses every cache keyed by query text or by parsed-query identity
//! (parse, normalize, plan, search memo) while its label, key and constant
//! vocabulary, which keys the counterexample pool cache, is unchanged.

use std::collections::{BTreeMap, BTreeSet};

use cypher_parser::ast::{Clause, Expr, PathPattern, Projection, ProjectionItems, Query};
use cypher_parser::parse_query;
use cypher_parser::pretty::query_to_string;

/// Old variable name to new variable name.
type Renaming = BTreeMap<String, String>;

/// The renamed pair for `tag`, or `None` when the pair cannot be renamed:
/// a side does not parse, neither side binds a node or relationship
/// variable, or a renamed side fails to parse back. Callers fall back to the
/// original text and count the fallback.
pub fn variant(left: &str, right: &str, tag: u64) -> Option<(String, String)> {
    let mut left = parse_query(left).ok()?;
    let mut right = parse_query(right).ok()?;
    let renaming = plan(&left, &right, tag)?;
    rename_query(&mut left, &renaming);
    rename_query(&mut right, &renaming);
    let (left, right) = (query_to_string(&left), query_to_string(&right));
    cypher_parser::parse_and_check(&left).ok()?;
    cypher_parser::parse_and_check(&right).ok()?;
    Some((left, right))
}

/// One renaming for both sides: each pattern variable of either side gets
/// `v<tag>_<n>`, numbered in name order. `None` when there is nothing to
/// rename or a new name is already an identifier of the pair.
fn plan(left: &Query, right: &Query, tag: u64) -> Option<Renaming> {
    let mut bound = BTreeSet::new();
    pattern_variables(left, &mut bound);
    pattern_variables(right, &mut bound);
    let renaming: Renaming =
        bound.into_iter().enumerate().map(|(n, name)| (name, format!("v{tag:x}_{n}"))).collect();
    let mut taken = BTreeSet::new();
    identifiers(left, &mut taken);
    identifiers(right, &mut taken);
    let collides = renaming.values().any(|new| taken.contains(new));
    (!renaming.is_empty() && !collides).then_some(renaming)
}

/// Node and relationship variables bound by `MATCH` patterns, including
/// those inside `EXISTS` subqueries.
fn pattern_variables(query: &Query, out: &mut BTreeSet<String>) {
    visit_query(query, &mut |item| match item {
        Item::Pattern(pattern) => {
            let nodes = pattern.nodes().filter_map(|node| node.variable.as_ref());
            let rels = pattern.relationships().filter_map(|rel| rel.variable.as_ref());
            out.extend(nodes.chain(rels).cloned());
        }
        Item::Expr(_) | Item::Alias(_) => {}
    });
}

/// Every identifier in variable position: pattern variables, variable
/// references and `AS` / `UNWIND` aliases.
fn identifiers(query: &Query, out: &mut BTreeSet<String>) {
    pattern_variables(query, out);
    visit_query(query, &mut |item| match item {
        Item::Expr(expr) => expr.walk(&mut |e| {
            if let Expr::Variable(name) = e {
                out.insert(name.clone());
            }
        }),
        Item::Alias(alias) => {
            out.insert(alias.to_string());
        }
        Item::Pattern(_) => {}
    });
}

/// What [`visit_query`] hands its visitor.
enum Item<'a> {
    Pattern(&'a PathPattern),
    Expr(&'a Expr),
    Alias(&'a str),
}

/// Visits the patterns, expressions and aliases of every clause, descending
/// into `EXISTS` subqueries (which [`Expr::walk`] does not).
fn visit_query(query: &Query, visit: &mut dyn FnMut(Item<'_>)) {
    for clause in query.parts.iter().flat_map(|part| &part.clauses) {
        match clause {
            Clause::Match(m) => {
                for pattern in &m.patterns {
                    visit(Item::Pattern(pattern));
                    let nodes = pattern.nodes().flat_map(|node| &node.properties);
                    let rels = pattern.relationships().flat_map(|rel| &rel.properties);
                    for (_, value) in nodes.chain(rels) {
                        visit_expr(value, visit);
                    }
                }
                if let Some(predicate) = &m.where_clause {
                    visit_expr(predicate, visit);
                }
            }
            Clause::Unwind(u) => {
                visit_expr(&u.expr, visit);
                visit(Item::Alias(&u.alias));
            }
            Clause::With(w) => {
                visit_projection(&w.projection, visit);
                if let Some(predicate) = &w.where_clause {
                    visit_expr(predicate, visit);
                }
            }
            Clause::Return(p) => visit_projection(p, visit),
        }
    }
}

fn visit_expr(expr: &Expr, visit: &mut dyn FnMut(Item<'_>)) {
    visit(Item::Expr(expr));
    expr.walk(&mut |e| {
        if let Expr::Exists(sub) = e {
            visit_query(sub, visit);
        }
    });
}

fn visit_projection(projection: &Projection, visit: &mut dyn FnMut(Item<'_>)) {
    if let ProjectionItems::Items(items) = &projection.items {
        for item in items {
            visit_expr(&item.expr, visit);
            if let Some(alias) = &item.alias {
                visit(Item::Alias(alias));
            }
        }
    }
    for order in &projection.order_by {
        visit_expr(&order.expr, visit);
    }
    for bound in projection.skip.iter().chain(&projection.limit) {
        visit_expr(bound, visit);
    }
}

/// Applies `renaming` to every identifier in variable position.
fn rename_query(query: &mut Query, renaming: &Renaming) {
    let rename = |name: &mut String| {
        if let Some(new) = renaming.get(name.as_str()) {
            name.clone_from(new);
        }
    };
    let rename_expr = |expr: &mut Expr| {
        let old = std::mem::replace(expr, Expr::CountStar { distinct: false });
        *expr = old.map(&|e| match e {
            Expr::Variable(name) => Expr::Variable(renaming.get(&name).cloned().unwrap_or(name)),
            Expr::Exists(mut sub) => {
                rename_query(&mut sub, renaming);
                Expr::Exists(sub)
            }
            other => other,
        });
    };
    for clause in query.parts.iter_mut().flat_map(|part| &mut part.clauses) {
        match clause {
            Clause::Match(m) => {
                for pattern in &mut m.patterns {
                    for node in std::iter::once(&mut pattern.start)
                        .chain(pattern.segments.iter_mut().map(|s| &mut s.node))
                    {
                        node.variable.iter_mut().for_each(rename);
                        node.properties.iter_mut().for_each(|(_, value)| rename_expr(value));
                    }
                    for rel in pattern.segments.iter_mut().map(|s| &mut s.relationship) {
                        rel.variable.iter_mut().for_each(rename);
                        rel.properties.iter_mut().for_each(|(_, value)| rename_expr(value));
                    }
                }
                m.where_clause.iter_mut().for_each(rename_expr);
            }
            Clause::Unwind(u) => {
                rename_expr(&mut u.expr);
                rename(&mut u.alias);
            }
            Clause::With(w) => {
                rename_projection(&mut w.projection, &rename, &rename_expr);
                w.where_clause.iter_mut().for_each(rename_expr);
            }
            Clause::Return(p) => rename_projection(p, &rename, &rename_expr),
        }
    }
}

fn rename_projection(
    projection: &mut Projection,
    rename: &dyn Fn(&mut String),
    rename_expr: &dyn Fn(&mut Expr),
) {
    if let ProjectionItems::Items(items) = &mut projection.items {
        for item in items {
            rename_expr(&mut item.expr);
            item.alias.iter_mut().for_each(rename);
        }
    }
    projection.order_by.iter_mut().for_each(|order| rename_expr(&mut order.expr));
    projection.skip.iter_mut().chain(&mut projection.limit).for_each(rename_expr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Class};

    const TAG: u64 = 0x5eed_0001;

    fn identifiers_of(text: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        identifiers(&parse_query(text).expect("variant parses"), &mut out);
        out
    }

    #[test]
    fn variants_parse_differ_from_their_source_and_repeat_for_a_tag() {
        let mut renamed = 0;
        for pair in corpus::load() {
            let Some((left, right)) = variant(&pair.left, &pair.right, TAG) else { continue };
            renamed += 1;
            cypher_parser::parse_and_check(&left).expect("left variant parses");
            cypher_parser::parse_and_check(&right).expect("right variant parses");
            assert!((&left, &right) != (&pair.left, &pair.right), "{} unchanged", pair.id);
            assert_eq!(variant(&pair.left, &pair.right, TAG), Some((left.clone(), right)));
            assert_ne!(variant(&pair.left, &pair.right, TAG + 1).map(|v| v.0), Some(left));
        }
        // Every corpus pair binds at least one variable; a fallback would be
        // a renamer gap, not a property of the corpus.
        assert_eq!(renamed, 296);
    }

    #[test]
    fn both_sides_use_one_renaming() {
        for pair in corpus::load() {
            let (left, right) =
                (parse_query(&pair.left).unwrap(), parse_query(&pair.right).unwrap());
            let renaming = plan(&left, &right, TAG).expect("corpus pairs rename");
            let (new_left, new_right) = variant(&pair.left, &pair.right, TAG).unwrap();
            for (source, renamed) in [(&pair.left, &new_left), (&pair.right, &new_right)] {
                let expected: BTreeSet<String> = identifiers_of(source)
                    .into_iter()
                    .map(|name| renaming.get(&name).cloned().unwrap_or(name))
                    .collect();
                assert_eq!(identifiers_of(renamed), expected, "{}", pair.id);
            }
        }
    }

    #[test]
    fn a_sample_of_variants_keeps_its_source_verdict_class() {
        let prover = graphqe::GraphQE { search_threads: 1, ..graphqe::GraphQE::new() };
        let pairs = corpus::load();
        let mut rng = property_graph::rng::DetRng::seed_from_u64(TAG);
        for &index in corpus::shuffled(pairs.len(), &mut rng).iter().take(48) {
            let pair = &pairs[index];
            let (left, right) = variant(&pair.left, &pair.right, TAG).unwrap();
            let source = Class::of(&prover.prove(&pair.left, &pair.right));
            let renamed = Class::of(&prover.prove(&left, &right));
            assert_eq!(renamed, source, "{}: {left} / {right}", pair.id);
        }
    }
}
