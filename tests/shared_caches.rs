//! Where work is shared must never change what comes out.
//!
//! 1. **One plan across a pool**: the counterexample search plans each query
//!    once and evaluates every pool graph under that plan. A reused
//!    [`QueryPlan`] must give the same rows, in the same order, as a fresh
//!    [`evaluate_query`] on each graph, and fail exactly where it fails (the
//!    evaluator itself is checked against the certificate checker's
//!    independent evaluator in `tests/checker_differential.rs`).
//! 2. **The shared normalize/build cache** hands concurrent provers the same
//!    entry, whose build equals a fresh one in every thread's arena and
//!    across an arena reset.
//! 3. **Concurrent smoke**: two batch workers prove the full CyEqSet and
//!    CyNeqSet corpora through the process-wide caches with the verdict
//!    totals pinned to the single-threaded expectations (138/0/10 and
//!    0/121/27), with limits off and under a run token that never trips.

use std::sync::Arc;
use std::time::Duration;

use gexpr::{BuildOutput, GExpr};
use graphqe::{normalize_cache_stats, parse_check_cached, GraphQE, NormalizedStages, ProveLimits};
use property_graph::{evaluate_planned, evaluate_query, GraphGenerator, PropertyGraph, QueryPlan};

// The normalize cache hands its entries to every thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NormalizedStages>();
    assert_send_sync::<Arc<NormalizedStages>>();
};

/// Every dataset query (sampled), planned once and evaluated under that one
/// plan on every graph of a small pool, against a fresh one-shot evaluation
/// per graph: the rows and their order must agree, and so must errors.
#[test]
fn one_plan_reused_across_a_pool_evaluates_like_fresh_evaluation() {
    let mut graphs = vec![PropertyGraph::paper_example()];
    graphs.extend(GraphGenerator::new(7).generate_many(8));
    let mut queries: Vec<String> = Vec::new();
    for pair in cyeqset::cyeqset().into_iter().step_by(4) {
        queries.push(pair.left);
        queries.push(pair.right);
    }
    for pair in cyeqset::cyneqset().into_iter().step_by(4) {
        queries.push(pair.left);
        queries.push(pair.right);
    }
    let mut checked = 0usize;
    for text in &queries {
        let Ok(query) = cypher_parser::parse_query(text) else { continue };
        let plan = QueryPlan::new(&query);
        for graph in &graphs {
            // Some dataset queries use features the evaluator rejects; a
            // rejection must be the same on both paths.
            let reused = evaluate_planned(graph, &plan);
            let fresh = evaluate_query(graph, &query);
            match (reused, fresh) {
                (Ok(reused_rows), Ok(fresh_rows)) => {
                    assert_eq!(
                        reused_rows, fresh_rows,
                        "the reused plan diverged from a fresh evaluation for {text} on {graph}"
                    );
                    checked += 1;
                }
                (Err(_), Err(_)) => {}
                (reused_result, fresh_result) => panic!(
                    "inconsistent evaluability for {text} on {graph}: reused={:?} fresh={:?}",
                    reused_result.is_ok(),
                    fresh_result.is_ok()
                ),
            }
        }
    }
    assert!(checked > 100, "the differential sweep barely ran: {checked} evaluations");
}

/// An entry's stage-③ memo as a tree: the entry's build in the calling
/// thread's arena, externalized.
fn externalized_build(stages: &NormalizedStages) -> (Arc<BuildOutput>, BuildOutput<GExpr>) {
    gexpr::with_thread_store(|store| {
        let built = stages.build(store).expect("build must succeed");
        let tree = BuildOutput {
            expr: store.extern_expr(built.expr),
            columns: built.columns,
            column_kinds: built.column_kinds.clone(),
        };
        (built, tree)
    })
}

/// The shared normalize/build cache serves the same entry to concurrent
/// provers. Its build memo holds ids of one arena: a thread whose arena
/// does not hold them builds into its own and gets an equal build, and
/// after an epoch reset the next prove rebuilds instead of reusing stale
/// ids.
#[test]
fn normalized_stages_are_shared_and_consistent_across_threads() {
    let text = "MATCH (fs_shared)-[r:R]->(m:Label) RETURN fs_shared.p";
    let query = parse_check_cached(text).unwrap();
    let baseline = graphqe::normalized_stages(&query).expect("normalization must succeed");
    let expected = gexpr::build_query(baseline.normalized()).expect("build must succeed");
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let query = Arc::clone(&query);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let stages = graphqe::normalized_stages(&query).unwrap();
                assert_eq!(externalized_build(&stages).1, expected);
                stages
            })
        })
        .collect();
    for handle in handles {
        let stages = handle.join().unwrap();
        assert!(
            Arc::ptr_eq(&stages, &baseline),
            "threads must receive the same shared cache entry"
        );
    }
    // The threads left the memo on their arenas: this thread rebuilds, and
    // its next build in the same epoch is a hit.
    let (before, tree) = externalized_build(&baseline);
    assert_eq!(tree, expected);
    assert!(Arc::ptr_eq(&before, &externalized_build(&baseline).0), "a same-epoch hit");
    liastar::reset_thread_caches();
    assert!(GraphQE::new().prove(text, text).is_equivalent());
    let (after, tree) = externalized_build(&baseline);
    assert!(!Arc::ptr_eq(&before, &after), "a reset arena must not reuse the memo's ids");
    assert_eq!(tree, expected);
}

/// Two batch workers drive the full corpora through every shared cache at
/// once; the verdict totals must stay pinned to the sequential expectations.
/// (The per-dataset totals are the same ones the benchmark checks: CyEqSet
/// 138/0/10, CyNeqSet 0/121/27.) The second configuration installs a run
/// token whose limits never trip — a one-hour deadline and unbounded step
/// and graph budgets — so every cooperative checkpoint executes, and must
/// move no verdict.
#[test]
fn two_workers_prove_the_full_corpus_with_pinned_verdicts() {
    let never_tripping = GraphQE {
        limits: ProveLimits {
            deadline: Some(Duration::from_secs(3600)),
            smt_step_budget: u64::MAX,
            search_graph_budget: u64::MAX,
            ..ProveLimits::default()
        },
        ..GraphQE::new()
    };
    let provers = [("limits off", GraphQE::new()), ("a never-tripping token", never_tripping)];
    let (_, normalize_misses_before) = normalize_cache_stats();
    let inputs = |pairs: Vec<cyeqset::QueryPair>| -> Vec<(String, String)> {
        pairs.into_iter().map(|pair| (pair.left, pair.right)).collect()
    };
    let corpora = [
        ("cyeqset", inputs(cyeqset::cyeqset()), (138, 0, 10)),
        ("cyneqset", inputs(cyeqset::cyneqset()), (0, 121, 27)),
    ];
    for (config, prover) in &provers {
        for (name, pairs, expected) in &corpora {
            let (outcomes, _) = prover.prove_batch(pairs, 2);
            let mut counts = (0usize, 0usize, 0usize);
            for outcome in &outcomes {
                if outcome.verdict.is_equivalent() {
                    counts.0 += 1;
                } else if outcome.verdict.is_not_equivalent() {
                    counts.1 += 1;
                } else {
                    counts.2 += 1;
                }
            }
            assert_eq!(
                counts, *expected,
                "{name} (equivalent, not_equivalent, unknown) drifted under 2 workers with {config}"
            );
        }
    }
    // The run flowed through the shared substrate, not around it.
    let (_, normalize_misses_after) = normalize_cache_stats();
    assert!(
        normalize_misses_after > normalize_misses_before,
        "the corpus run must populate the shared normalize cache"
    );
}
