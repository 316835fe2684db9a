//! PR 8 acceptance tests for the frozen shared substrate: cross-thread
//! frozen plans, the shared normalize/build cache, and hash-consed SMT
//! formula keys must change *where* work happens, never *what* comes out.
//!
//! 1. **Differential**: a thawed [`FrozenPlan`] evaluates row-identically to
//!    a freshly lowered plan, and bag-identically to the clause-walking
//!    interpreter, on every dataset query and a pool of random graphs.
//! 2. **Concurrent smoke**: two batch workers prove the full CyEqSet and
//!    CyNeqSet corpora through the shared caches with the verdict totals
//!    pinned to the single-threaded expectations (138/0/10 and 0/121/27),
//!    with limits off and under a run token that never trips.
//! 3. **Compile-enforced sharing**: the shared artifacts are `Send + Sync`
//!    by construction, asserted at compile time.

use std::sync::Arc;
use std::time::Duration;

use graphqe::{normalize_cache_stats, parse_check_cached, GraphQE, NormalizedStages, ProveLimits};
use property_graph::{
    evaluate_query_interpreted, Evaluator, FrozenPlan, GraphGenerator, PropertyGraph, QueryPlan,
};

// The substrate's whole premise, enforced at compile time: the artifacts the
// process-wide caches hand out must cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrozenPlan>();
    assert_send_sync::<Arc<FrozenPlan>>();
    assert_send_sync::<NormalizedStages>();
    assert_send_sync::<Arc<NormalizedStages>>();
};

/// Every dataset query (sampled) evaluated three ways on every graph of a
/// small pool: thawed frozen plan vs. freshly lowered plan must be
/// row-identical (same evaluation code path, so even row order agrees), and
/// both must be bag-equal to the interpreter (whose row order is its own).
#[test]
fn frozen_plans_evaluate_identically_to_fresh_plans_and_the_interpreter() {
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
        let frozen = FrozenPlan::new(&query);
        let thawed = frozen.thaw();
        let fresh = QueryPlan::new(frozen.query());
        for graph in &graphs {
            // Some dataset queries use features the evaluator rejects; a
            // rejection must be consistent across all three paths.
            let via_thaw = Evaluator::new().evaluate_planned(graph, frozen.query(), &thawed);
            let via_fresh = Evaluator::new().evaluate_planned(graph, frozen.query(), &fresh);
            let interpreted = evaluate_query_interpreted(graph, frozen.query());
            match (via_thaw, via_fresh, interpreted) {
                (Ok(thawed_rows), Ok(fresh_rows), Ok(interpreted_rows)) => {
                    assert_eq!(
                        thawed_rows, fresh_rows,
                        "thawed plan diverged from a fresh plan for {text} on {graph}"
                    );
                    assert!(
                        thawed_rows.bag_equal(&interpreted_rows),
                        "planned evaluation diverged from the interpreter for {text} on {graph}"
                    );
                    checked += 1;
                }
                (Err(_), Err(_), Err(_)) => {}
                (thawed_result, fresh_result, interpreted_result) => panic!(
                    "inconsistent evaluability for {text} on {graph}: thawed={:?} fresh={:?} \
                     interpreted={:?}",
                    thawed_result.is_ok(),
                    fresh_result.is_ok(),
                    interpreted_result.is_ok()
                ),
            }
        }
    }
    assert!(checked > 100, "the differential sweep barely ran: {checked} evaluations");
}

/// The shared normalize/build cache serves the same memoized entry to
/// concurrent provers, and the memoized build equals a fresh one.
#[test]
fn normalized_stages_are_shared_and_consistent_across_threads() {
    let query =
        parse_check_cached("MATCH (fs_shared)-[r:R]->(m:Label) RETURN fs_shared.p").unwrap();
    let baseline = graphqe::normalized_stages(&query).expect("normalization must succeed");
    let expected_build = baseline.build().expect("build must succeed");
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let query = Arc::clone(&query);
            let expected = expected_build.clone();
            std::thread::spawn(move || {
                let stages = graphqe::normalized_stages(&query).unwrap();
                assert_eq!(stages.build().unwrap(), expected);
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
    assert_eq!(gexpr::build_query(baseline.normalized()).unwrap(), expected_build);
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
