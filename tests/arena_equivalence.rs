//! PR 1 acceptance tests: the hash-consed arena normalizer must be a drop-in
//! replacement for the reference tree normalizer — idempotent, and verdict
//! preserving on every CyEqSet / CyNeqSet pair.

use cyeqset::{cyeqset, cyneqset, QueryPair};
use cypher_normalizer::normalize_query;
use cypher_parser::parse_and_check;
use gexpr::{normalize, normalize_tree, GExpr};
use graphqe::GraphQE;
use liastar::{check_equivalence_with_opts, DecideOptions};

/// The G-expressions of every dataset pair that survives stages ① - ③.
fn dataset_gexprs() -> Vec<(String, GExpr)> {
    let mut out = Vec::new();
    for pair in cyeqset().into_iter().chain(cyneqset()) {
        for side in [&pair.left, &pair.right] {
            let Ok(parsed) = parse_and_check(side) else { continue };
            let Ok(built) = gexpr::build_query(&normalize_query(&parsed)) else { continue };
            out.push((side.clone(), built.expr));
        }
    }
    assert!(out.len() > 500, "dataset should produce hundreds of G-expressions");
    out
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, byte| (hash ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3))
}

/// The FNV-1a digest of stage ③ over both corpora: for every query that
/// survives stages ① and ②, in corpus order, the rendered G-expression (its
/// variable numbering included), the column count and the column kinds, or
/// the build error. A change to what the builder emits moves it.
const STAGE_THREE_DIGEST: u64 = 495_952_531_705_729_747;

#[test]
fn stage_three_builds_are_pinned() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut built = 0;
    for pair in cyeqset().into_iter().chain(cyneqset()) {
        for side in [&pair.left, &pair.right] {
            let Ok(parsed) = parse_and_check(side) else { continue };
            let text = match gexpr::build_query(&normalize_query(&parsed)) {
                Ok(output) => {
                    built += 1;
                    format!("{}|{}|{:?}\n", output.expr, output.columns, output.column_kinds)
                }
                Err(error) => format!("{error}\n"),
            };
            digest = fnv1a(digest, text.as_bytes());
        }
    }
    assert!(built > 500, "the corpora build hundreds of G-expressions: {built}");
    assert_eq!(digest, STAGE_THREE_DIGEST, "stage-③ builds drifted");
}

/// Building straight into the arena leaves no node behind that the built
/// G-expressions do not hold: every corpus query built into one fresh store
/// takes no more nodes than interning the same queries' trees into another.
#[test]
fn building_into_the_arena_interns_no_more_than_the_trees() {
    let mut built = gexpr::GStore::new();
    let mut interned = gexpr::GStore::new();
    for pair in cyeqset().into_iter().chain(cyneqset()) {
        for side in [&pair.left, &pair.right] {
            let Ok(parsed) = parse_and_check(side) else { continue };
            let normalized = normalize_query(&parsed);
            let Ok(tree) = gexpr::build_query(&normalized) else { continue };
            gexpr::build_into(&mut built, &normalized).expect("the tree built, so must this");
            interned.intern_expr(&tree.expr);
        }
    }
    assert!(interned.node_count() > 500, "the corpora intern hundreds of nodes");
    assert!(
        built.node_count() <= interned.node_count(),
        "building left {} nodes in the arena, interning the trees {}",
        built.node_count(),
        interned.node_count()
    );
}

/// The arena normalizer returns exactly what the reference tree normalizer
/// returns, on every G-expression the datasets can produce.
#[test]
fn arena_normalizer_matches_reference_on_all_dataset_pairs() {
    for (query, expr) in dataset_gexprs() {
        let via_arena = normalize(&expr);
        let reference = normalize_tree(&expr);
        assert_eq!(via_arena, reference, "normalizer mismatch for query: {query}");
    }
}

/// Normalization through the arena is idempotent.
#[test]
fn arena_normalizer_is_idempotent_on_all_dataset_pairs() {
    for (query, expr) in dataset_gexprs() {
        let once = normalize(&expr);
        let twice = normalize(&once);
        assert_eq!(once, twice, "arena normalization not idempotent for query: {query}");
    }
}

/// The decision procedure reaches the same verdict through both normalizers
/// on every dataset pair.
#[test]
fn decide_verdicts_identical_across_normalizers() {
    let pairs: Vec<QueryPair> = cyeqset().into_iter().chain(cyneqset()).collect();
    let mut decided = 0;
    for pair in &pairs {
        let (Ok(q1), Ok(q2)) = (parse_and_check(&pair.left), parse_and_check(&pair.right)) else {
            continue;
        };
        let (n1, n2) = (normalize_query(&q1), normalize_query(&q2));
        let (Ok(b1), Ok(b2)) = (gexpr::build_query(&n1), gexpr::build_query(&n2)) else {
            continue;
        };
        let tree = check_equivalence_with_opts(
            &b1.expr,
            &b2.expr,
            DecideOptions { tree_normalizer: true },
        );
        let arena = check_equivalence_with_opts(
            &b1.expr,
            &b2.expr,
            DecideOptions { tree_normalizer: false },
        );
        assert_eq!(tree.0, arena.0, "decision differs on {} vs {}", pair.left, pair.right);
        decided += 1;
    }
    assert!(decided > 200, "most dataset pairs should reach the decision stage: {decided}");
}

/// End-to-end: the full prover (including column permutation mapping and
/// divide-and-conquer, excluding only the normalizer-independent
/// counterexample search) reports the same verdict class with both
/// normalizers on every CyEqSet pair.
#[test]
fn full_prover_verdicts_identical_across_normalizers_on_cyeqset() {
    let arena_prover = GraphQE { search_counterexamples: false, ..GraphQE::new() };
    let tree_prover =
        GraphQE { search_counterexamples: false, use_tree_normalizer: true, ..GraphQE::new() };
    for pair in cyeqset() {
        let a = arena_prover.prove(&pair.left, &pair.right);
        let t = tree_prover.prove(&pair.left, &pair.right);
        assert_eq!(
            a.is_equivalent(),
            t.is_equivalent(),
            "prover verdict differs on {} vs {}",
            pair.left,
            pair.right
        );
    }
}
