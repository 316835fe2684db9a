//! Determinism of the parallel counterexample search: it must reach the same
//! verdict as the sequential search (a witness iff one exists, not
//! necessarily the same graph index). The evaluator it runs is checked
//! against the certificate checker's independent evaluator in
//! `tests/checker_differential.rs`.

use cypher_parser::parse_and_check;
use graphqe::counterexample::{find_counterexample, find_counterexample_parallel};
use graphqe::SearchConfig;
use property_graph::evaluate_query;

/// Parallel-vs-sequential verdict determinism over dataset-derived pairs:
/// the parallel search must find a witness exactly when the sequential
/// search does. (The witness index may differ; the verdict may not.)
#[test]
fn parallel_search_verdict_matches_sequential_on_dataset_pairs() {
    // A slice of CyNeqSet (witnesses exist) and CyEqSet (pools exhaust).
    let pairs: Vec<_> = cyeqset::cyneqset()
        .into_iter()
        .step_by(17)
        .chain(cyeqset::cyeqset().into_iter().step_by(29))
        .collect();
    assert!(pairs.len() >= 10);
    // A reduced pool keeps the exhausting (equivalent) pairs fast while
    // still covering both verdict outcomes. The search memo is bypassed so
    // the parallel worker/cancellation machinery genuinely runs instead of
    // replaying the sequential outcome.
    let config = SearchConfig { random_graphs: 24, use_memo: false, ..SearchConfig::default() };
    for pair in &pairs {
        let (Ok(q1), Ok(q2)) = (parse_and_check(&pair.left), parse_and_check(&pair.right)) else {
            continue;
        };
        let sequential = find_counterexample(&q1, &q2, &config);
        for threads in [2, 3] {
            let parallel = find_counterexample_parallel(&q1, &q2, &config, threads);
            assert_eq!(
                sequential.is_some(),
                parallel.is_some(),
                "parallel verdict diverged on {} vs {} with {threads} threads",
                pair.left,
                pair.right,
            );
            if let (Some(seq), Some(par)) = (&sequential, &parallel) {
                // Any parallel witness must be a real witness; the smallest
                // possible index is the sequential one.
                assert!(par.pool_index >= seq.pool_index);
                let left = evaluate_query(&par.graph, &q1).unwrap();
                let right = evaluate_query(&par.graph, &q2).unwrap();
                assert!(!left.bag_equal(&right), "parallel witness does not witness");
            }
        }
    }
}
