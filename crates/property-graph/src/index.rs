//! The adjacency-index statistics the benchmark reads.
//!
//! No graph carries an adjacency index: every graph the evaluator sees is
//! small (counterexample pool graphs have at most 9 nodes and 16
//! relationships, the fixed seed graphs at most 4 nodes), and the matcher
//! ([`crate::matching`]) scans the graph's flat node and relationship
//! vectors in id order for less than an index would cost to build.

use std::time::Duration;

/// Always `(0, Duration::ZERO)`: no graph builds an adjacency index, so there
/// are no builds to count or time. Kept only because the benchmark reads it
/// for its `property-graph.index_builds` and `property-graph.index_build.us`
/// rows; it goes when a benchmark change retires those rows.
pub fn build_stats() -> (u64, Duration) {
    (0, Duration::ZERO)
}
