//! Regenerates the CyNeqSet experiment of §VII-B: all 148 mutated pairs must
//! be rejected (never proven equivalent).

#![forbid(unsafe_code)]

use graphqe::{machine_parallelism, GraphQE};
use graphqe_bench::{format_neqset, run_pairs};

fn main() {
    let prover = GraphQE::new();
    let results = run_pairs(&prover, cyeqset::cyneqset(), machine_parallelism());
    print!("{}", format_neqset(&results));
    for result in &results {
        if result.verdict.is_equivalent() {
            println!("UNSOUND: {} was wrongly proven equivalent", result.pair.id);
        }
    }
}
