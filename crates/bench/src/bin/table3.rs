//! Regenerates Table III: proved query pairs by project, plus the §VII-B
//! failure breakdown when `--failures` is passed.

#![forbid(unsafe_code)]

use graphqe::{machine_parallelism, GraphQE};
use graphqe_bench::{failure_breakdown, format_table3, run_pairs, table3_rows};

fn main() {
    let show_failures = std::env::args().any(|a| a == "--failures");
    let prover = GraphQE::new();
    let results = run_pairs(&prover, cyeqset::cyeqset(), machine_parallelism());
    print!("{}", format_table3(&table3_rows(&results)));
    if show_failures {
        println!("\nFailure analysis (unknown verdicts by category):");
        for (category, count) in failure_breakdown(&results) {
            println!("  {category}: {count} pairs");
        }
    }
}
