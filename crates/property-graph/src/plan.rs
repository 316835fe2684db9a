//! The query-plan layer: `MATCH` patterns and projections lowered once into
//! [`SymId`]-native compiled structures.
//!
//! Each clause is lowered **once per [`QueryPlan`]** into structures whose
//! variables are pre-interned [`SymId`]s, so the matcher
//! ([`crate::matching`]) performs integer-keyed row operations only on its
//! hot loop:
//!
//! * [`CompiledMatch`] — path patterns with pre-interned variable ids,
//!   the `WHERE` predicate, and the pre-computed `OPTIONAL MATCH` null-fill
//!   variable set;
//! * [`CompiledProjection`] — pre-computed output column names (no
//!   per-application pretty-printing) and pre-interned output ids;
//! * [`PlanCache`] — the per-plan lowering memo, keyed by AST node address
//!   (stable while the [`Query`] is alive), shared through
//!   [`crate::expr::EvalCtx::plans`];
//! * [`QueryPlan`] — a query's symbol table plus plan cache as one owned
//!   value, so a caller evaluating one query on many graphs (the
//!   counterexample search, once per query per search) lowers each clause
//!   once for all of them.

use std::cell::RefCell;
use std::rc::Rc;

use cypher_parser::ast::{
    Expr, MatchClause, NodePattern, PathPattern, Projection, ProjectionItems, Query, RelDirection,
    RelationshipPattern, VarLength,
};

use crate::expr::{eval_const_expr, SymId, SymbolTable};
use crate::fxhash::FxHashMap;
use crate::value::Value;

// ---------------------------------------------------------------------------
// Compiled structures
// ---------------------------------------------------------------------------

/// A `MATCH` clause lowered to [`SymId`]-native patterns.
#[derive(Debug)]
pub struct CompiledMatch {
    /// `true` for `OPTIONAL MATCH`.
    pub optional: bool,
    /// The compiled comma-separated path patterns.
    pub patterns: Vec<CompiledPathPattern>,
    /// The clause's `WHERE` predicate (evaluated through the shared
    /// expression evaluator — property-map and predicate expressions still
    /// resolve variables by name, they are not on the per-candidate path).
    pub where_clause: Option<Expr>,
    /// Every variable the clause's patterns introduce, pre-interned, for the
    /// `OPTIONAL MATCH` null-fill (name-sorted and deduplicated).
    pub optional_syms: Vec<SymId>,
}

/// One path pattern with pre-interned variables.
#[derive(Debug)]
pub struct CompiledPathPattern {
    /// The path variable, if the pattern is named.
    pub variable: Option<SymId>,
    /// The left-most node pattern.
    pub start: CompiledNodePattern,
    /// The chain of relationship/node segments.
    pub segments: Vec<CompiledSegment>,
}

/// One `-[...]-(...)` step of a compiled path pattern.
#[derive(Debug)]
pub struct CompiledSegment {
    /// The relationship pattern of this step.
    pub relationship: CompiledRelPattern,
    /// The node pattern this step ends at.
    pub node: CompiledNodePattern,
}

/// A required property value in a compiled pattern: constant expressions
/// (literals and unary `+`/`-` over them — the overwhelmingly common case in
/// property maps) pre-evaluate to a [`Value`] at lowering time; anything
/// row-dependent stays a dynamic [`Expr`].
#[derive(Debug)]
pub enum PropValue {
    /// The expression was row-independent; this is its value.
    Const(Value),
    /// The expression depends on the row/graph; evaluated per candidate.
    Dynamic(Expr),
}

fn lower_properties(properties: &[(String, Expr)]) -> Vec<(String, PropValue)> {
    properties
        .iter()
        .map(|(key, expr)| {
            let value = match eval_const_expr(expr) {
                Some(value) => PropValue::Const(value),
                None => PropValue::Dynamic(expr.clone()),
            };
            (key.clone(), value)
        })
        .collect()
}

/// A node pattern with its variable pre-interned. Labels stay as names
/// (label ids are per-graph — the adjacency index resolves them per graph);
/// property expressions are cloned out of the AST once at lowering time,
/// with constant values pre-evaluated (see [`PropValue`]).
#[derive(Debug)]
pub struct CompiledNodePattern {
    /// The pre-interned node variable, if given.
    pub variable: Option<SymId>,
    /// Labels required on the node (conjunctive).
    pub labels: Vec<String>,
    /// Required property values.
    pub properties: Vec<(String, PropValue)>,
}

/// A relationship pattern with its variable pre-interned.
#[derive(Debug)]
pub struct CompiledRelPattern {
    /// The pre-interned relationship variable, if given.
    pub variable: Option<SymId>,
    /// Alternative labels (`:A|B`).
    pub labels: Vec<String>,
    /// Required property values.
    pub properties: Vec<(String, PropValue)>,
    /// Direction of the relationship.
    pub direction: RelDirection,
    /// Variable-length specifier, if the pattern is `*`-quantified.
    pub length: Option<VarLength>,
}

impl CompiledRelPattern {
    /// Returns `true` if this is a variable-length pattern.
    pub fn is_var_length(&self) -> bool {
        self.length.is_some()
    }
}

/// A `WITH`/`RETURN` projection lowered to its output columns: names are
/// computed once (no pretty-printing of un-aliased expressions per
/// application) and output ids are pre-interned so per-row environment
/// binding skips name hashing. Explicit items lower once per plan through
/// the [`PlanCache`]; `RETURN *` is built per application, because its column
/// set depends on the rows.
#[derive(Debug)]
pub struct CompiledProjection {
    /// Output column names, in item order.
    pub columns: Vec<String>,
    /// The pre-interned ids of `columns`, position by position.
    pub syms: Vec<SymId>,
    /// The projected expressions, cloned out of the AST once.
    pub exprs: Vec<Expr>,
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

fn lower_node(symbols: &SymbolTable, pattern: &NodePattern) -> CompiledNodePattern {
    CompiledNodePattern {
        variable: pattern.variable.as_deref().map(|name| symbols.intern(name)),
        labels: pattern.labels.clone(),
        properties: lower_properties(&pattern.properties),
    }
}

fn lower_rel(symbols: &SymbolTable, pattern: &RelationshipPattern) -> CompiledRelPattern {
    CompiledRelPattern {
        variable: pattern.variable.as_deref().map(|name| symbols.intern(name)),
        labels: pattern.labels.clone(),
        properties: lower_properties(&pattern.properties),
        direction: pattern.direction,
        length: pattern.length,
    }
}

fn lower_path(symbols: &SymbolTable, pattern: &PathPattern) -> CompiledPathPattern {
    CompiledPathPattern {
        variable: pattern.variable.as_deref().map(|name| symbols.intern(name)),
        start: lower_node(symbols, &pattern.start),
        segments: pattern
            .segments
            .iter()
            .map(|segment| CompiledSegment {
                relationship: lower_rel(symbols, &segment.relationship),
                node: lower_node(symbols, &segment.node),
            })
            .collect(),
    }
}

/// Lowers a `MATCH` clause. Public so tests can lower without a cache.
pub fn lower_match(symbols: &SymbolTable, clause: &MatchClause) -> CompiledMatch {
    // The null-fill set: sorted by name, deduplicated, then interned.
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
    CompiledMatch {
        optional: clause.optional,
        patterns: clause.patterns.iter().map(|p| lower_path(symbols, p)).collect(),
        where_clause: clause.where_clause.clone(),
        optional_syms: names.iter().map(|name| symbols.intern(name)).collect(),
    }
}

/// Lowers a projection's explicit items. Callers must not pass `RETURN *`
/// projections (those stay dynamic).
pub fn lower_projection(symbols: &SymbolTable, projection: &Projection) -> CompiledProjection {
    let ProjectionItems::Items(items) = &projection.items else {
        unreachable!("star projections are not lowered");
    };
    let columns: Vec<String> = items.iter().map(|item| item.output_name()).collect();
    let syms = columns.iter().map(|name| symbols.intern(name)).collect();
    CompiledProjection {
        syms,
        exprs: items.iter().map(|item| item.expr.clone()).collect(),
        columns,
    }
}

// ---------------------------------------------------------------------------
// The per-plan lowering memo and the owned query plan
// ---------------------------------------------------------------------------

/// The per-plan lowering memo: each `MATCH` clause and explicit projection
/// of the query is lowered at most once, keyed by its AST node address, and
/// reused by every evaluation under the same [`QueryPlan`].
///
/// Address keys are sound because [`QueryPlan`] users keep query and plan
/// together (the AST nodes live in heap-allocated clause vectors, so moving
/// the `Query` value itself does not move them).
#[derive(Debug, Default)]
pub struct PlanCache {
    matches: RefCell<FxHashMap<usize, Rc<CompiledMatch>>>,
    projections: RefCell<FxHashMap<usize, Rc<CompiledProjection>>>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The compiled plan of `clause`, lowering on first use.
    pub fn match_plan(&self, symbols: &SymbolTable, clause: &MatchClause) -> Rc<CompiledMatch> {
        let key = clause as *const MatchClause as usize;
        if let Some(hit) = self.matches.borrow().get(&key) {
            return Rc::clone(hit);
        }
        let lowered = Rc::new(lower_match(symbols, clause));
        self.matches.borrow_mut().insert(key, Rc::clone(&lowered));
        lowered
    }

    /// The compiled plan of `projection` (explicit items only), lowering on
    /// first use.
    pub fn projection_plan(
        &self,
        symbols: &SymbolTable,
        projection: &Projection,
    ) -> Rc<CompiledProjection> {
        let key = projection as *const Projection as usize;
        if let Some(hit) = self.projections.borrow().get(&key) {
            return Rc::clone(hit);
        }
        let lowered = Rc::new(lower_projection(symbols, projection));
        self.projections.borrow_mut().insert(key, Rc::clone(&lowered));
        lowered
    }

    /// Number of lowered plans (matches + projections), for tests.
    pub fn len(&self) -> usize {
        self.matches.borrow().len() + self.projections.borrow().len()
    }

    /// Returns `true` if nothing has been lowered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A query's plan-time state as one owned value: the interned symbol table
/// plus the lowered-plan cache. Callers evaluating one query over many
/// graphs (the counterexample search) keep a `(Query, QueryPlan)` pair and
/// evaluate through [`crate::eval::evaluate_planned`].
///
/// A plan is tied to the exact query instance it was built from (plans key
/// on AST node addresses); evaluating a different query under it is safe but
/// wasteful — the addresses miss and everything re-lowers.
#[derive(Debug)]
pub struct QueryPlan {
    symbols: SymbolTable,
    plans: PlanCache,
}

impl QueryPlan {
    /// Plans `query`: interns every name it can bind or reference (the
    /// plan-time AST walk). Lowering itself stays lazy — each clause lowers
    /// on its first application.
    pub fn new(query: &Query) -> Self {
        QueryPlan { symbols: SymbolTable::for_query(query), plans: PlanCache::new() }
    }

    /// An empty plan (on-demand interning; used by one-shot evaluation,
    /// where the plan-time walk does not pay for itself).
    pub fn empty() -> Self {
        QueryPlan { symbols: SymbolTable::new(), plans: PlanCache::new() }
    }

    /// The plan's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The plan's lowering cache.
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::ast::Clause;
    use cypher_parser::parse_query;

    fn match_clause_of(text: &str) -> MatchClause {
        let query = parse_query(text).unwrap();
        match &query.parts[0].clauses[0] {
            Clause::Match(m) => m.clone(),
            _ => panic!("expected MATCH"),
        }
    }

    #[test]
    fn lowering_interns_every_pattern_variable() {
        let clause = match_clause_of("MATCH p = (a:Person)-[r:READ]->(b) WHERE a.age > 1 RETURN a");
        let symbols = SymbolTable::new();
        let compiled = lower_match(&symbols, &clause);
        for name in ["p", "a", "r", "b"] {
            assert!(symbols.lookup(name).is_some(), "{name} not interned by lowering");
        }
        assert_eq!(compiled.patterns.len(), 1);
        assert!(compiled.where_clause.is_some());
        // The null-fill set is name-sorted: a, b, p, r.
        let names: Vec<_> =
            compiled.optional_syms.iter().map(|sym| symbols.name(*sym).to_string()).collect();
        assert_eq!(names, vec!["a", "b", "p", "r"]);
    }

    #[test]
    fn plan_cache_lowers_each_clause_once() {
        let query = parse_query("MATCH (a)-[r]->(b) MATCH (b)-[s]->(c) RETURN a, c").unwrap();
        let symbols = SymbolTable::new();
        let cache = PlanCache::new();
        let Clause::Match(m1) = &query.parts[0].clauses[0] else { panic!() };
        let Clause::Match(m2) = &query.parts[0].clauses[1] else { panic!() };
        let first = cache.match_plan(&symbols, m1);
        let again = cache.match_plan(&symbols, m1);
        assert!(Rc::ptr_eq(&first, &again), "re-lowered an already-cached clause");
        let other = cache.match_plan(&symbols, m2);
        assert!(!Rc::ptr_eq(&first, &other));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn projection_lowering_precomputes_columns_and_ids() {
        let query = parse_query("MATCH (n) RETURN n.name AS name, n.age").unwrap();
        let Some(Clause::Return(projection)) = query.parts[0].clauses.last() else { panic!() };
        let symbols = SymbolTable::new();
        let compiled = lower_projection(&symbols, projection);
        assert_eq!(compiled.columns, vec!["name", "n.age"]);
        assert_eq!(compiled.syms.len(), 2);
        assert_eq!(symbols.lookup("name"), Some(compiled.syms[0]));
        assert_eq!(symbols.lookup("n.age"), Some(compiled.syms[1]));
        assert_eq!(compiled.exprs.len(), 2);
    }
}
