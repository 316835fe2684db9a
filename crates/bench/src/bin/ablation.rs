//! Ablation study: how many CyEqSet pairs are provable with parts of the
//! pipeline disabled.

#![forbid(unsafe_code)]

use graphqe::{machine_parallelism, GraphQE};
use graphqe_bench::run_pairs;

fn main() {
    let configurations = [
        ("full pipeline", GraphQE::new()),
        ("without Table II normalization", GraphQE { normalize: false, ..GraphQE::new() }),
        (
            "without counterexample search",
            GraphQE { search_counterexamples: false, ..GraphQE::new() },
        ),
    ];
    println!("Ablation: proved CyEqSet pairs per configuration");
    for (name, prover) in configurations {
        let results = run_pairs(&prover, cyeqset::cyeqset(), machine_parallelism());
        let proved = results.iter().filter(|r| r.verdict.is_equivalent()).count();
        let rejected = results.iter().filter(|r| r.verdict.is_not_equivalent()).count();
        println!(
            "  {name:<34} proved {proved:>3} / {} (spurious rejections: {rejected})",
            results.len()
        );
    }
}
