//! An independent port of the Table II normalization rules, used to replay
//! derivations.
//!
//! The checker must not trust (or link against) the normalizer, so it carries
//! its own copy of the six rewrite rules and the fixpoint driver, and
//! re-derives the full trace from the recorded source. A certificate's
//! derivation is accepted only if it matches this re-derivation step for
//! step — same rule, same position, same resulting query. As in the
//! normalizer, a rule decides by reference whether it fires and clones the
//! query only when it does.

use cypher_parser::ast::*;

/// One recorded (or re-derived) rule application.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Stable rule identifier (`"undirected"`, `"var_length"`, ...).
    pub rule: &'static str,
    /// Index of the first union part changed by the step.
    pub part: usize,
    /// Index of the first clause changed inside that part.
    pub clause: usize,
    /// The query after the step.
    pub after: Query,
}

/// Stable identifiers for the six rules, in Table II order.
pub mod rule_names {
    /// Rule ①: undirected relationship elimination.
    pub const UNDIRECTED: &str = "undirected";
    /// Rule ②: bounded variable-length path expansion.
    pub const VAR_LENGTH: &str = "var_length";
    /// Rule ③: `RETURN *` / `WITH *` expansion.
    pub const RETURN_STAR: &str = "return_star";
    /// Rule ④: redundant `WITH` elimination.
    pub const REDUNDANT_WITH: &str = "redundant_with";
    /// Rule ⑤: variable standardization.
    pub const STANDARDIZE: &str = "standardize";
    /// Rule ⑥: `id(a) = id(b)` simplification.
    pub const ID_EQUALITY: &str = "id_equality";
}

/// The position `(part, clause)` of the first difference between two queries.
///
/// This function must stay in lock-step with the emitter's copy in the
/// normalizer crate: both sides compute positions with the same definition, so
/// a replayed trace can compare them verbatim.
pub fn diff_position(before: &Query, after: &Query) -> (usize, usize) {
    for (i, (b, a)) in before.parts.iter().zip(after.parts.iter()).enumerate() {
        if b != a {
            for (j, (bc, ac)) in b.clauses.iter().zip(a.clauses.iter()).enumerate() {
                if bc != ac {
                    return (i, j);
                }
            }
            return (i, b.clauses.len().min(a.clauses.len()));
        }
    }
    if before.parts.len() != after.parts.len() {
        return (before.parts.len().min(after.parts.len()), 0);
    }
    (0, 0)
}

/// One rewriting step of a fixpoint rule (`None` when the rule does not fire).
type Rewrite = fn(&Query) -> Option<Query>;

/// The fixpoint rules in the order and priority of the normalizer's driver;
/// rule ⑤ runs once, after the fixpoint.
const FIXPOINT_RULES: [(&str, Rewrite); 5] = [
    (rule_names::VAR_LENGTH, rule2_var_length::apply),
    (rule_names::UNDIRECTED, rule1_undirected::apply),
    (rule_names::RETURN_STAR, rule3_return_star::apply),
    (rule_names::REDUNDANT_WITH, rule4_redundant_with::apply),
    (rule_names::ID_EQUALITY, rule6_id_equality::apply),
];

/// Normalizes `query` with the Table II fixpoint driver, recording every rule
/// application (rule ⑤ only when it changed something). The normalized query
/// is the last step's after-state, or `query` itself when no rule fired.
pub fn normalize_with_trace(query: &Query) -> Vec<TraceStep> {
    let mut trace = Vec::new();
    // One rule per round, with the same bound as the normalizer's driver.
    for _ in 0..64 {
        let current = trace.last().map_or(query, |step: &TraceStep| &step.after);
        let step = FIXPOINT_RULES
            .iter()
            .find_map(|(rule, apply)| apply(current).map(|next| (*rule, next)));
        let Some((rule, after)) = step else { break };
        let (part, clause) = diff_position(current, &after);
        trace.push(TraceStep { rule, part, clause, after });
    }
    // Rule ⑤ last: pure renaming, applied once, recorded only when it fired.
    let current = trace.last().map_or(query, |step| &step.after);
    if let Some(after) = rule5_standardize::apply(current) {
        let (part, clause) = diff_position(current, &after);
        trace.push(TraceStep { rule: rule_names::STANDARDIZE, part, clause, after });
    }
    trace
}

mod util {
    use super::*;

    /// Calls `f` on every expression node of the clauses, in place:
    /// property maps, predicates, projections, `ORDER BY`, `SKIP`, `LIMIT`
    /// and `UNWIND` lists, but not `EXISTS` bodies (see [`Expr::walk_mut`]).
    pub fn walk_expressions_mut(clauses: &mut [Clause], f: &mut impl FnMut(&mut Expr)) {
        for clause in clauses {
            match clause {
                Clause::Match(m) => {
                    for pattern in &mut m.patterns {
                        let properties = std::iter::once(&mut pattern.start.properties).chain(
                            pattern.segments.iter_mut().flat_map(|segment| {
                                [&mut segment.relationship.properties, &mut segment.node.properties]
                            }),
                        );
                        for (_, value) in properties.flatten() {
                            value.walk_mut(f);
                        }
                    }
                    if let Some(predicate) = &mut m.where_clause {
                        predicate.walk_mut(f);
                    }
                }
                Clause::Unwind(u) => u.expr.walk_mut(f),
                Clause::With(w) => {
                    walk_projection_mut(&mut w.projection, f);
                    if let Some(predicate) = &mut w.where_clause {
                        predicate.walk_mut(f);
                    }
                }
                Clause::Return(p) => walk_projection_mut(p, f),
            }
        }
    }

    fn walk_projection_mut(projection: &mut Projection, f: &mut impl FnMut(&mut Expr)) {
        if let ProjectionItems::Items(items) = &mut projection.items {
            for item in items {
                item.expr.walk_mut(f);
            }
        }
        for order in &mut projection.order_by {
            order.expr.walk_mut(f);
        }
        for expr in projection.skip.iter_mut().chain(&mut projection.limit) {
            expr.walk_mut(f);
        }
    }

    /// The variables visible at the end of the clause list (used by rule ③).
    pub fn visible_variables(clauses: &[Clause]) -> Vec<String> {
        let mut scope: Vec<String> = Vec::new();
        for clause in clauses {
            match clause {
                Clause::Match(m) => {
                    for pattern in &m.patterns {
                        if let Some(v) = &pattern.variable {
                            push_unique(&mut scope, v);
                        }
                        for node in pattern.nodes() {
                            if let Some(v) = &node.variable {
                                push_unique(&mut scope, v);
                            }
                        }
                        for rel in pattern.relationships() {
                            if let Some(v) = &rel.variable {
                                push_unique(&mut scope, v);
                            }
                        }
                    }
                }
                Clause::Unwind(u) => push_unique(&mut scope, &u.alias),
                Clause::With(w) => {
                    if let ProjectionItems::Items(items) = &w.projection.items {
                        scope = items.iter().map(|item| item.output_name()).collect();
                    }
                }
                Clause::Return(_) => {}
            }
        }
        scope.sort();
        scope
    }

    fn push_unique(scope: &mut Vec<String>, name: &str) {
        if !scope.iter().any(|s| s == name) {
            scope.push(name.to_string());
        }
    }

    /// Rebuilds a query replacing part `index` by `replacements`, joined to
    /// the rest with `UNION ALL`. Only used when the query has no
    /// deduplicating unions (checked by the callers).
    pub fn splice_parts(query: &Query, index: usize, replacements: Vec<SingleQuery>) -> Query {
        let joins = std::iter::repeat_n(UnionKind::All, replacements.len() - 1);
        let (before, after) = (&query.parts[..index], &query.parts[index + 1..]);
        let parts =
            before.iter().cloned().chain(replacements).chain(after.iter().cloned()).collect();
        let (before, after) = query.unions.split_at(index);
        let unions = before.iter().copied().chain(joins).chain(after.iter().copied()).collect();
        Query { parts, unions }
    }

    pub fn all_unions_are_all(query: &Query) -> bool {
        query.unions.iter().all(|u| *u == UnionKind::All)
    }
}

/// Rule ①: eliminate undirected relationship patterns by splitting the query
/// into a `UNION ALL` of the two directions.
mod rule1_undirected {
    use super::util;
    use super::*;

    /// Applies the rule to the first undirected, fixed-length relationship
    /// pattern found.
    pub fn apply(query: &Query) -> Option<Query> {
        if !util::all_unions_are_all(query) {
            return None;
        }
        for (part_index, part) in query.parts.iter().enumerate() {
            for (clause_index, clause) in part.clauses.iter().enumerate() {
                let Clause::Match(m) = clause else { continue };
                for (pattern_index, pattern) in m.patterns.iter().enumerate() {
                    for (segment_index, segment) in pattern.segments.iter().enumerate() {
                        let rel = &segment.relationship;
                        if rel.direction == RelDirection::Undirected && !rel.is_var_length() {
                            let mut forward = part.clone();
                            let mut backward = part.clone();
                            set_direction(
                                &mut forward,
                                clause_index,
                                pattern_index,
                                segment_index,
                                RelDirection::Outgoing,
                            );
                            set_direction(
                                &mut backward,
                                clause_index,
                                pattern_index,
                                segment_index,
                                RelDirection::Incoming,
                            );
                            return Some(util::splice_parts(
                                query,
                                part_index,
                                vec![forward, backward],
                            ));
                        }
                    }
                }
            }
        }
        None
    }

    fn set_direction(
        part: &mut SingleQuery,
        clause_index: usize,
        pattern_index: usize,
        segment_index: usize,
        direction: RelDirection,
    ) {
        if let Clause::Match(m) = &mut part.clauses[clause_index] {
            m.patterns[pattern_index].segments[segment_index].relationship.direction = direction;
        }
    }
}

/// Rule ②: rewrite bounded variable-length paths (`-[*1..3]->`) into the
/// union of the fixed lengths.
mod rule2_var_length {
    use super::util;
    use super::*;

    /// Largest expansion the rule performs; longer ranges stay with the
    /// uninterpreted `UNBOUNDED` modeling.
    const MAX_EXPANSION: u32 = 5;

    /// Applies the rule to the first bounded variable-length pattern found.
    pub fn apply(query: &Query) -> Option<Query> {
        if !util::all_unions_are_all(query) {
            return None;
        }
        for (part_index, part) in query.parts.iter().enumerate() {
            for (clause_index, clause) in part.clauses.iter().enumerate() {
                let Clause::Match(m) = clause else { continue };
                for (pattern_index, pattern) in m.patterns.iter().enumerate() {
                    for (segment_index, segment) in pattern.segments.iter().enumerate() {
                        let rel = &segment.relationship;
                        let Some(length) = rel.length else { continue };
                        let (Some(max), min) = (length.max, length.effective_min()) else {
                            continue;
                        };
                        if rel.variable.is_some() || min == 0 || max < min || max > MAX_EXPANSION {
                            continue;
                        }
                        let mut replacements = Vec::new();
                        for hops in min..=max {
                            let mut copy = part.clone();
                            expand(&mut copy, clause_index, pattern_index, segment_index, hops);
                            replacements.push(copy);
                        }
                        return Some(util::splice_parts(query, part_index, replacements));
                    }
                }
            }
        }
        None
    }

    /// Replaces segment `segment_index` by `hops` copies of a single-hop
    /// relationship with the same labels / properties / direction, chained
    /// through anonymous nodes.
    fn expand(
        part: &mut SingleQuery,
        clause_index: usize,
        pattern_index: usize,
        segment_index: usize,
        hops: u32,
    ) {
        let Clause::Match(m) = &mut part.clauses[clause_index] else { return };
        let pattern = &mut m.patterns[pattern_index];
        let original = pattern.segments.remove(segment_index);
        let mut replacement_segments = Vec::with_capacity(hops as usize);
        for hop in 0..hops {
            let relationship = RelationshipPattern {
                variable: None,
                labels: original.relationship.labels.clone(),
                properties: original.relationship.properties.clone(),
                direction: original.relationship.direction,
                length: None,
            };
            let node =
                if hop + 1 == hops { original.node.clone() } else { NodePattern::anonymous() };
            replacement_segments.push(PathSegment { relationship, node });
        }
        pattern.segments.splice(segment_index..segment_index, replacement_segments);
    }
}

/// Rule ③: expand `RETURN *` / `WITH *` into an explicit item list sorted
/// alphabetically.
mod rule3_return_star {
    use super::util;
    use super::*;

    /// Expands every star projection that has variables in scope.
    pub fn apply(query: &Query) -> Option<Query> {
        let mut result: Option<Query> = None;
        for (part_index, part) in query.parts.iter().enumerate() {
            for index in 0..part.clauses.len() {
                let Some(scope) = expansion(&part.clauses, index) else { continue };
                let result = result.get_or_insert_with(|| query.clone());
                let items =
                    scope.into_iter().map(|name| ProjectionItem::expr(Expr::Variable(name)));
                let items = ProjectionItems::Items(items.collect());
                match &mut result.parts[part_index].clauses[index] {
                    Clause::With(w) => w.projection.items = items,
                    Clause::Return(p) => p.items = items,
                    _ => unreachable!("only projections expand"),
                }
            }
        }
        result
    }

    /// The variables a `*` projection at `clauses[index]` expands to: the
    /// scope visible there, computed only at a star, and `None` when the
    /// clause is no star projection or nothing is in scope. (A star before
    /// it leaves the same set of names in scope whether or not it has been
    /// expanded, so expanding against the original query is exact.)
    fn expansion(clauses: &[Clause], index: usize) -> Option<Vec<String>> {
        let projection = match &clauses[index] {
            Clause::With(w) => &w.projection,
            Clause::Return(p) => p,
            _ => return None,
        };
        if projection.items != ProjectionItems::Star {
            return None;
        }
        let scope = util::visible_variables(&clauses[..index]);
        (!scope.is_empty()).then_some(scope)
    }
}

/// Rule ④: eliminate a redundant `WITH` clause (no `DISTINCT`, aggregation,
/// ordering, truncation or filter) by inlining its aliases into the
/// following clauses.
mod rule4_redundant_with {
    use super::util;
    use super::*;
    use std::collections::BTreeMap;

    /// Applies the rule to the first redundant `WITH` found.
    pub fn apply(query: &Query) -> Option<Query> {
        for (part_index, part) in query.parts.iter().enumerate() {
            for (index, clause) in part.clauses.iter().enumerate() {
                let Clause::With(w) = clause else { continue };
                if w.projection.distinct
                    || w.projection.has_sort_or_truncation()
                    || w.where_clause.is_some()
                {
                    continue;
                }
                let Some(items) = w.projection.explicit_items() else { continue };
                if items.iter().any(|item| item.expr.contains_aggregate()) {
                    continue;
                }
                // Output name -> defining expression. `WITH x` keeps `x` as
                // it is: nothing to substitute.
                let substitution: BTreeMap<String, &Expr> = items
                    .iter()
                    .filter(|item| item.alias.is_some() || !matches!(item.expr, Expr::Variable(_)))
                    .map(|item| (item.output_name(), &item.expr))
                    .collect();
                let mut result = query.clone();
                let clauses = &mut result.parts[part_index].clauses;
                clauses.remove(index);
                util::walk_expressions_mut(&mut clauses[index..], &mut |expr| {
                    if let Expr::Variable(name) = expr {
                        if let Some(&definition) = substitution.get(name.as_str()) {
                            *expr = definition.clone();
                        }
                    }
                });
                return Some(result);
            }
        }
        None
    }
}

/// Rule ⑤: standardize variable names to `n1, n2, ...` (nodes), `r1, ...`
/// (relationships) and `p1, ...` (paths) in order of first appearance.
mod rule5_standardize {
    use super::util;
    use super::*;
    use std::collections::BTreeMap;

    /// Renames the variables of every part; `None` when every name is
    /// already standard.
    pub fn apply(query: &Query) -> Option<Query> {
        let mut result: Option<Query> = None;
        for (index, part) in query.parts.iter().enumerate() {
            let mapping = build_mapping(part);
            if mapping.iter().all(|(from, to)| from == to) {
                continue;
            }
            let result = result.get_or_insert_with(|| query.clone());
            rename_part(&mut result.parts[index], &mapping);
        }
        result
    }

    fn build_mapping(part: &SingleQuery) -> BTreeMap<&str, String> {
        let mut mapping = BTreeMap::new();
        let mut nodes = 0usize;
        let mut rels = 0usize;
        let mut paths = 0usize;
        for clause in &part.clauses {
            let Clause::Match(m) = clause else { continue };
            for pattern in &m.patterns {
                if let Some(v) = &pattern.variable {
                    paths += 1;
                    mapping.entry(v.as_str()).or_insert_with(|| format!("p{paths}"));
                }
                for node in pattern.nodes() {
                    if let Some(v) = &node.variable {
                        if !mapping.contains_key(v.as_str()) {
                            nodes += 1;
                            mapping.insert(v.as_str(), format!("n{nodes}"));
                        }
                    }
                }
                for rel in pattern.relationships() {
                    if let Some(v) = &rel.variable {
                        if !mapping.contains_key(v.as_str()) {
                            rels += 1;
                            mapping.insert(v.as_str(), format!("r{rels}"));
                        }
                    }
                }
            }
        }
        mapping
    }

    fn rename_part(part: &mut SingleQuery, mapping: &BTreeMap<&str, String>) {
        let rename = |name: &mut String| {
            if let Some(new) = mapping.get(name.as_str()) {
                name.replace_range(.., new);
            }
        };
        for clause in &mut part.clauses {
            let Clause::Match(m) = clause else { continue };
            for pattern in &mut m.patterns {
                let segments = pattern.segments.iter_mut().flat_map(|segment| {
                    [&mut segment.relationship.variable, &mut segment.node.variable]
                });
                let variables = [&mut pattern.variable, &mut pattern.start.variable];
                for variable in variables.into_iter().chain(segments).flatten() {
                    rename(variable);
                }
            }
        }
        util::walk_expressions_mut(&mut part.clauses, &mut |expr| {
            if let Expr::Variable(name) = expr {
                rename(name);
            }
        });
    }
}

/// Rule ⑥: simplify `id(a) = id(b)` (or `a = b` on node variables) into a
/// variable unification: `b` is replaced by `a` and duplicate bare node
/// patterns are removed.
mod rule6_id_equality {
    use super::util;
    use super::*;

    /// Applies the rule to the first `id(a) = id(b)` conjunct found.
    pub fn apply(query: &Query) -> Option<Query> {
        for (part_index, part) in query.parts.iter().enumerate() {
            for (clause_index, clause) in part.clauses.iter().enumerate() {
                let Clause::Match(m) = clause else { continue };
                let Some(predicate) = &m.where_clause else { continue };
                let Some((keep, drop, remainder)) = find_id_equality(predicate) else { continue };
                let mut result = query.clone();
                let part = &mut result.parts[part_index];
                if let Clause::Match(m) = &mut part.clauses[clause_index] {
                    m.where_clause = remainder;
                }
                // Substitute `drop` by `keep` throughout the part.
                let rename = |name: &mut String| {
                    if name.as_str() == drop {
                        name.replace_range(.., keep);
                    }
                };
                for clause in &mut part.clauses {
                    let Clause::Match(m) = clause else { continue };
                    for pattern in &mut m.patterns {
                        let segments = pattern.segments.iter_mut().flat_map(|segment| {
                            [&mut segment.node.variable, &mut segment.relationship.variable]
                        });
                        let variables = std::iter::once(&mut pattern.start.variable);
                        for variable in variables.chain(segments).flatten() {
                            rename(variable);
                        }
                    }
                }
                util::walk_expressions_mut(&mut part.clauses, &mut |expr| {
                    if let Expr::Variable(name) = expr {
                        rename(name);
                    }
                });
                // Deduplicate bare single-node patterns that are now identical.
                if let Clause::Match(m) = &mut part.clauses[clause_index] {
                    let mut index = 0;
                    while index < m.patterns.len() {
                        let pattern = &m.patterns[index];
                        let bare = pattern.segments.is_empty()
                            && pattern.start.labels.is_empty()
                            && pattern.start.properties.is_empty()
                            && pattern.start.variable.is_some();
                        if bare && m.patterns[..index].contains(pattern) {
                            m.patterns.remove(index);
                        } else {
                            index += 1;
                        }
                    }
                }
                return Some(result);
            }
        }
        None
    }

    /// Finds a conjunct `id(a) = id(b)` in the AND-tree of the predicate.
    /// Returns `(a, b, predicate without the conjunct)`.
    fn find_id_equality(predicate: &Expr) -> Option<(&str, &str, Option<Expr>)> {
        let mut conjuncts = Vec::new();
        collect_conjuncts(predicate, &mut conjuncts);
        let (index, keep, drop) = conjuncts.iter().copied().enumerate().find_map(|(i, c)| {
            let Expr::Binary(BinaryOp::Eq, lhs, rhs) = c else { return None };
            let (a, b) = (id_argument(lhs)?, id_argument(rhs)?);
            (a != b).then_some((i, a, b))
        })?;
        conjuncts.remove(index);
        let remainder = conjuncts.into_iter().cloned().reduce(Expr::and);
        Some((keep, drop, remainder))
    }

    /// Appends the conjuncts of an AND-tree to `out`, left to right.
    fn collect_conjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
        match expr {
            Expr::Binary(BinaryOp::And, lhs, rhs) => {
                collect_conjuncts(lhs, out);
                collect_conjuncts(rhs, out);
            }
            other => out.push(other),
        }
    }

    /// Returns the variable inside `id(x)`.
    fn id_argument(expr: &Expr) -> Option<&str> {
        match expr {
            Expr::FunctionCall { name, args } if name == "id" && args.len() == 1 => {
                match &args[0] {
                    Expr::Variable(v) => Some(v),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;

    #[test]
    fn trace_records_each_rule_with_its_position() {
        let query = parse_query("MATCH (a)-[*1..2]->(b) RETURN *").unwrap();
        let trace = normalize_with_trace(&query);
        let rules: Vec<&str> = trace.iter().map(|s| s.rule).collect();
        assert_eq!(
            rules,
            [rule_names::VAR_LENGTH, rule_names::RETURN_STAR, rule_names::STANDARDIZE]
        );
        let positions: Vec<_> = trace.iter().map(|s| (s.part, s.clause)).collect();
        assert_eq!(positions, [(0, 0), (0, 1), (0, 0)]);
    }

    #[test]
    fn trace_is_empty_for_already_normal_queries() {
        let query = parse_query("MATCH (n1) RETURN n1").unwrap();
        assert!(normalize_with_trace(&query).is_empty());
    }

    #[test]
    fn diff_position_finds_the_first_changed_clause() {
        let before = parse_query("MATCH (a) WITH a.x AS y RETURN y").unwrap();
        let after = rule4_redundant_with::apply(&before).unwrap();
        assert_eq!(diff_position(&before, &after), (0, 1));
    }
}
