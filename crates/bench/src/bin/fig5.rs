//! Regenerates Fig. 5: the distribution of proving latency over CyEqSet.
//!
//! Pairs are proved on a single worker: Fig. 5 reports *per-pair* latency,
//! which must stay comparable to the paper's sequential measurements — under
//! an N-way parallel batch every pair's wall-clock would include CPU
//! contention from its neighbours.

#![forbid(unsafe_code)]

use graphqe::GraphQE;
use graphqe_bench::{format_fig5, latency_distribution, run_pairs};

fn main() {
    let prover = GraphQE::new();
    let results = run_pairs(&prover, cyeqset::cyeqset(), 1);
    let distribution = latency_distribution(&results);
    print!("{}", format_fig5(&distribution, results.len()));
}
