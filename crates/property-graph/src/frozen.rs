//! The frozen compiled-query artifact: an immutable, `Send + Sync` bundle of
//! a query, its interned name table, and its eagerly lowered plans.
//!
//! [`crate::plan::QueryPlan`] is deliberately thread-pinned: its
//! [`SymbolTable`] interns through `Rc<str>` and its [`PlanCache`] memoizes
//! through `RefCell`, which makes the per-candidate hot path cheap but means
//! a plan built on one thread cannot be handed to another. Before PR 8 the
//! counterexample search therefore kept one plan cache **per thread**, and
//! every serve worker re-lowered every query (a warm `plan_hit_rate` of only
//! 0.26).
//!
//! [`FrozenPlan`] splits the artifact from the working state: it is built
//! **once** per query (eager lowering, no interior mutability — plain vectors
//! and `Arc`s only, compile-enforced `Send + Sync` below), shared across
//! threads via `Arc`, and each thread *thaws* it into a private
//! [`QueryPlan`] in microseconds: re-interning the name snapshot reproduces
//! the exact [`crate::expr::SymId`] assignment (ids are assigned in
//! first-intern order), and the lowered plans are seeded by `Arc` clone —
//! no clause is ever lowered twice process-wide.
//!
//! The plans key on AST node addresses inside the frozen plan's **own**
//! query clone, so evaluation must run against [`FrozenPlan::query`] (a
//! different parse of the same text would miss the seeds and re-lower —
//! safe, but the point of freezing is lost).

use std::sync::Arc;

use cypher_parser::ast::{Clause, MatchClause, Projection, ProjectionItems, Query};

use crate::expr::SymbolTable;
use crate::plan::{
    lower_match, lower_projection, CompiledMatch, CompiledProjection, PlanCache, QueryPlan,
};

/// An immutable, cross-thread compiled-query artifact. See the module docs.
#[derive(Debug)]
pub struct FrozenPlan {
    /// The owned query the plans were lowered from. Plan keys are AST node
    /// addresses inside this exact clone.
    query: Query,
    /// Every interned name in [`crate::expr::SymId`] order.
    names: Vec<Box<str>>,
    /// Lowered `MATCH` clauses, keyed by AST node address within `query`.
    matches: Vec<(usize, Arc<CompiledMatch>)>,
    /// Lowered explicit-item projections, keyed like `matches`.
    projections: Vec<(usize, Arc<CompiledProjection>)>,
}

// The whole point of freezing: the artifact crosses threads. A field that
// reintroduces `Rc`/`RefCell` fails compilation here, not in a consumer.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrozenPlan>();
};

impl FrozenPlan {
    /// Builds the frozen artifact: clones `query`, interns every name, and
    /// eagerly lowers every `MATCH` clause and explicit-item projection.
    pub fn new(query: &Query) -> Self {
        let query = query.clone();
        let symbols = SymbolTable::for_query(&query);
        let mut matches = Vec::new();
        let mut projections = Vec::new();
        for part in &query.parts {
            for clause in &part.clauses {
                match clause {
                    Clause::Match(m) => {
                        let key = m as *const MatchClause as usize;
                        matches.push((key, Arc::new(lower_match(&symbols, m))));
                    }
                    Clause::Return(p) => {
                        if let Some(lowered) = lower_explicit(&symbols, p) {
                            projections.push(lowered);
                        }
                    }
                    Clause::With(w) => {
                        if let Some(lowered) = lower_explicit(&symbols, &w.projection) {
                            projections.push(lowered);
                        }
                    }
                    Clause::Unwind(_) => {}
                }
            }
        }
        // Snapshot *after* lowering, so every SymId baked into the compiled
        // plans is covered by the snapshot and reproduced by `thaw`.
        let names = symbols.snapshot_names();
        FrozenPlan { query, names, matches, projections }
    }

    /// The query instance the plans belong to: evaluate this one.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Thaws into a thread-private [`QueryPlan`]: re-interns the name
    /// snapshot (reproducing the frozen `SymId` assignment exactly) and
    /// seeds the plan cache with `Arc` clones of the lowered plans. Costs
    /// one hash insert per name and per plan — microseconds, against the
    /// milliseconds of a full lowering.
    pub fn thaw(&self) -> QueryPlan {
        let symbols = SymbolTable::from_names(&self.names);
        let plans = PlanCache::new();
        for (key, plan) in &self.matches {
            plans.seed_match(*key, Arc::clone(plan));
        }
        for (key, plan) in &self.projections {
            plans.seed_projection(*key, Arc::clone(plan));
        }
        QueryPlan::from_parts(symbols, plans)
    }

    /// Number of eagerly lowered plans (matches + projections).
    pub fn plan_count(&self) -> usize {
        self.matches.len() + self.projections.len()
    }
}

fn lower_explicit(
    symbols: &SymbolTable,
    projection: &Projection,
) -> Option<(usize, Arc<CompiledProjection>)> {
    match projection.items {
        // `RETURN *` stays dynamic — its column set depends on the rows.
        ProjectionItems::Star => None,
        ProjectionItems::Items(_) => {
            let key = projection as *const Projection as usize;
            Some((key, Arc::new(lower_projection(symbols, projection))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_planned;
    use crate::graph::PropertyGraph;
    use cypher_parser::parse_query;

    #[test]
    fn frozen_plan_lowers_matches_and_projections_eagerly() {
        let query =
            parse_query("MATCH (a:Person)-[r:READ]->(b) WITH a.name AS name RETURN name").unwrap();
        let frozen = FrozenPlan::new(&query);
        // One MATCH, one WITH projection, one RETURN projection.
        assert_eq!(frozen.plan_count(), 3);
    }

    #[test]
    fn star_projections_stay_dynamic() {
        let query = parse_query("MATCH (a)-[r]->(b) RETURN *").unwrap();
        let frozen = FrozenPlan::new(&query);
        assert_eq!(frozen.plan_count(), 1);
    }

    #[test]
    fn thawed_plan_evaluates_identically_to_a_fresh_plan() {
        let graph = PropertyGraph::paper_example();
        for text in [
            "MATCH (n:Person) RETURN n.name",
            "MATCH (reader:Person)-[:READ]->(b:Book)<-[:WRITE]-(writer) RETURN writer.name",
            "MATCH (a {name: 'Alice'})-[r]->(b) RETURN b.title",
            "MATCH (x) WITH x.age AS age RETURN age ORDER BY age",
        ] {
            let query = parse_query(text).unwrap();
            let frozen = FrozenPlan::new(&query);
            let thawed = frozen.thaw();
            let fresh = QueryPlan::new(frozen.query());
            let via_thaw = evaluate_planned(&graph, frozen.query(), &thawed).unwrap();
            let via_fresh = evaluate_planned(&graph, frozen.query(), &fresh).unwrap();
            assert_eq!(via_thaw, via_fresh, "thawed plan diverged on {text}");
        }
    }

    #[test]
    fn thaw_reproduces_symbol_ids() {
        let query = parse_query("MATCH (a)-[r]->(b) RETURN a, b").unwrap();
        let frozen = FrozenPlan::new(&query);
        let original = SymbolTable::for_query(&query);
        let thawed = frozen.thaw();
        for name in ["a", "r", "b"] {
            assert_eq!(original.lookup(name), thawed.symbols().lookup(name), "id drift on {name}");
        }
    }

    #[test]
    fn frozen_plans_evaluate_from_multiple_threads() {
        let query =
            parse_query("MATCH (p:Person)-[:READ]->(b:Book) RETURN p.name, b.title").unwrap();
        let frozen = Arc::new(FrozenPlan::new(&query));
        let baseline = {
            let graph = PropertyGraph::paper_example();
            evaluate_planned(&graph, frozen.query(), &frozen.thaw()).unwrap()
        };
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let frozen = Arc::clone(&frozen);
                let expected = baseline.clone();
                std::thread::spawn(move || {
                    let graph = PropertyGraph::paper_example();
                    let plan = frozen.thaw();
                    let got = evaluate_planned(&graph, frozen.query(), &plan).unwrap();
                    assert_eq!(got, expected);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }
}
