//! Ablation benchmark: pipeline latency with and without Table II
//! normalization.

use graphqe::GraphQE;
use graphqe_bench::microbench::bench;

fn main() {
    let q1 = "MATCH (n1)-[*1..2]->(n2) RETURN n1";
    let q2 = "MATCH (n1)-[]->(n2) RETURN n1 UNION ALL MATCH (n1)-[]->()-[]->(n2) RETURN n1";
    println!("ablation/normalization");
    let full = GraphQE::new();
    let without = GraphQE { normalize: false, search_counterexamples: false, ..GraphQE::new() };
    bench("with_normalization", 10, || {
        std::hint::black_box(full.prove(q1, q2));
    });
    bench("without_normalization", 10, || {
        std::hint::black_box(without.prove(q1, q2));
    });
}
