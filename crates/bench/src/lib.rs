//! Shared harness code for the benchmark / report binaries that regenerate
//! every table and figure of the paper's evaluation (§VII).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod microbench;

use std::time::Duration;

use cyeqset::{cyeqset, Project, QueryPair, TABLE3_TARGETS};
use graphqe::{FailureCategory, GraphQE, Verdict};

/// The result of proving one pair.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// The pair that was proved.
    pub pair: QueryPair,
    /// The verdict.
    pub verdict: Verdict,
    /// Wall-clock latency of the whole pipeline for this pair.
    pub latency: Duration,
}

/// Proves a dataset through [`GraphQE::prove_batch`] on `threads` pair
/// workers.
///
/// Note on latency semantics: each [`PairResult::latency`] is the wall-clock
/// of that pair *as observed by its worker*, so with several workers it
/// includes CPU contention from concurrently proved pairs. Reports that need
/// per-pair latencies comparable to sequential measurements (e.g. Fig. 5)
/// pass `threads = 1`.
pub fn run_pairs(prover: &GraphQE, pairs: Vec<QueryPair>, threads: usize) -> Vec<PairResult> {
    let texts: Vec<(&str, &str)> =
        pairs.iter().map(|pair| (pair.left.as_str(), pair.right.as_str())).collect();
    let (outcomes, _) = prover.prove_batch(&texts, threads);
    pairs
        .into_iter()
        .zip(outcomes)
        .map(|(pair, outcome)| PairResult {
            pair,
            verdict: outcome.verdict,
            latency: outcome.latency,
        })
        .collect()
}

/// One row of Table III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3Row {
    /// Project name.
    pub project: Project,
    /// Total pairs of the project.
    pub pairs: usize,
    /// Pairs proved equivalent.
    pub proved: usize,
    /// The number the paper reports for this row.
    pub paper_proved: usize,
}

/// Aggregates per-project proved counts (Table III).
pub fn table3_rows(results: &[PairResult]) -> Vec<Table3Row> {
    TABLE3_TARGETS
        .iter()
        .map(|(project, total, paper_proved)| {
            let of_project: Vec<_> =
                results.iter().filter(|r| r.pair.project == *project).collect();
            Table3Row {
                project: *project,
                pairs: *total,
                proved: of_project.iter().filter(|r| r.verdict.is_equivalent()).count(),
                paper_proved: *paper_proved,
            }
        })
        .collect()
}

/// Renders Table III as text.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("Table III: proved query pairs by project (paper numbers in parentheses)\n");
    out.push_str(&format!("{:<22} {:>11} {:>18}\n", "Project", "Query pairs", "Proved"));
    let mut total_pairs = 0;
    let mut total_proved = 0;
    let mut total_paper = 0;
    for row in rows {
        out.push_str(&format!(
            "{:<22} {:>11} {:>12} ({:>3})\n",
            row.project.name(),
            row.pairs,
            row.proved,
            row.paper_proved
        ));
        total_pairs += row.pairs;
        total_proved += row.proved;
        total_paper += row.paper_proved;
    }
    out.push_str(&format!(
        "{:<22} {:>11} {:>12} ({:>3})\n",
        "Total", total_pairs, total_proved, total_paper
    ));
    out
}

/// The latency distribution statistics of Fig. 5.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyDistribution {
    /// Average latency in milliseconds.
    pub average_ms: f64,
    /// Pairs proved within 10 ms.
    pub under_10ms: usize,
    /// Pairs proved within 100 ms.
    pub under_100ms: usize,
    /// Pairs above 500 ms.
    pub over_500ms: usize,
    /// All latencies (ms), sorted ascending.
    pub sorted_ms: Vec<f64>,
}

/// Computes the latency distribution over all pairs (Fig. 5).
pub fn latency_distribution(results: &[PairResult]) -> LatencyDistribution {
    let mut sorted_ms: Vec<f64> =
        results.iter().map(|r| r.latency.as_secs_f64() * 1000.0).collect();
    sorted_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let average_ms = if sorted_ms.is_empty() {
        0.0
    } else {
        sorted_ms.iter().sum::<f64>() / sorted_ms.len() as f64
    };
    LatencyDistribution {
        average_ms,
        under_10ms: sorted_ms.iter().filter(|v| **v <= 10.0).count(),
        under_100ms: sorted_ms.iter().filter(|v| **v <= 100.0).count(),
        over_500ms: sorted_ms.iter().filter(|v| **v > 500.0).count(),
        sorted_ms,
    }
}

/// Renders the Fig. 5 latency distribution as text (a cumulative histogram).
pub fn format_fig5(distribution: &LatencyDistribution, total: usize) -> String {
    let mut out = String::new();
    out.push_str("Fig. 5: proving latency distribution\n");
    out.push_str(&format!(
        "average latency: {:.1} ms (paper: ~38 ms on an i5-11300)\n",
        distribution.average_ms
    ));
    for (label, count) in [
        ("<= 10 ms", distribution.under_10ms),
        ("<= 100 ms", distribution.under_100ms),
        ("> 500 ms", distribution.over_500ms),
    ] {
        let percent = 100.0 * count as f64 / total.max(1) as f64;
        out.push_str(&format!("{label:<10} {count:>4} pairs ({percent:>5.1}%)\n"));
    }
    // A coarse cumulative histogram over latency buckets.
    for bucket in [1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0] {
        let count = distribution.sorted_ms.iter().filter(|v| **v <= bucket).count();
        let bar = "#".repeat(count * 40 / total.max(1));
        out.push_str(&format!("<= {bucket:>6.0} ms | {bar} {count}\n"));
    }
    out
}

/// The failure analysis of §VII-B: unknown verdicts per category.
pub fn failure_breakdown(results: &[PairResult]) -> Vec<(FailureCategory, usize)> {
    let categories = [
        FailureCategory::SortingTruncation,
        FailureCategory::NestedAggregate,
        FailureCategory::UninterpretedFunction,
        FailureCategory::InvalidQuery,
        FailureCategory::Other,
    ];
    categories
        .into_iter()
        .map(|category| {
            let count = results
                .iter()
                .filter(|r| {
                    matches!(&r.verdict, Verdict::Unknown { category: c, .. } if *c == category)
                })
                .count();
            (category, count)
        })
        .filter(|(_, count)| *count > 0)
        .collect()
}

/// Renders the CyNeqSet rejection report.
pub fn format_neqset(results: &[PairResult]) -> String {
    let rejected = results.iter().filter(|r| r.verdict.is_not_equivalent()).count();
    let wrongly_proved = results.iter().filter(|r| r.verdict.is_equivalent()).count();
    let unknown = results.len() - rejected - wrongly_proved;
    format!(
        "CyNeqSet: {} pairs — {} rejected with a counterexample graph, {} unknown, \
         {} wrongly proved equivalent (paper: 148 rejected, 0 wrongly proved)\n",
        results.len(),
        rejected,
        unknown,
        wrongly_proved
    )
}

/// A small deterministic subset of CyEqSet used by the Criterion
/// micro-benchmarks (one pair per project).
pub fn representative_pairs() -> Vec<QueryPair> {
    let mut pairs = Vec::new();
    for project in Project::all() {
        if let Some(pair) = cyeqset().into_iter().find(|p| p.project == project) {
            pairs.push(pair);
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_formatting_contains_all_projects() {
        let rows = vec![
            Table3Row { project: Project::CalciteCypher, pairs: 80, proved: 73, paper_proved: 73 },
            Table3Row { project: Project::Ldbc, pairs: 13, proved: 13, paper_proved: 13 },
        ];
        let text = format_table3(&rows);
        assert!(text.contains("Calcite-Cypher"));
        assert!(text.contains("Total"));
    }

    #[test]
    fn latency_distribution_statistics() {
        let results: Vec<PairResult> = Vec::new();
        let distribution = latency_distribution(&results);
        assert_eq!(distribution.average_ms, 0.0);
        assert_eq!(distribution.under_10ms, 0);
    }

    #[test]
    fn representative_pairs_cover_every_project() {
        let pairs = representative_pairs();
        assert_eq!(pairs.len(), 4);
    }
}
