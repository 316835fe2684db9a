//! Prover verdicts, proof statistics and failure categories.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use liastar::DecisionStats;
use property_graph::PropertyGraph;

/// The failure categories the paper's evaluation reports (§VII-B), extended
/// with the resource-limit and fault-isolation outcomes of this
/// implementation (deadline/budget trips, caught panics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCategory {
    /// Inconsistent `ORDER BY ... LIMIT ... SKIP ...` fragments inside
    /// subqueries (limitation of the divide-and-conquer approach).
    SortingTruncation,
    /// Nested aggregates or aggregate computations
    /// (`COUNT(SUM(n))`, `SUM(n)/COUNT(n)`).
    NestedAggregate,
    /// Features modeled with uninterpreted functions
    /// (`COLLECT`, built-in functions, arbitrary-length paths).
    UninterpretedFunction,
    /// The input failed the syntax or semantic check (stage ①).
    InvalidQuery,
    /// The static analyzer (stage ⓪) found a definite type error in one of
    /// the queries (e.g. `UNWIND` over a scalar, a non-boolean `WHERE`
    /// predicate, arithmetic over graph entities).
    TypeError,
    /// The proof's deadline expired; `stage` is where the expiry was
    /// observed.
    Timeout {
        /// The stage whose cooperative checkpoint observed the expired
        /// deadline.
        stage: limits::Stage,
    },
    /// A configured resource budget ran out before a verdict was reached.
    BudgetExhausted {
        /// The stage whose counter crossed its budget.
        stage: limits::Stage,
        /// The configured budget that was exceeded.
        budget: u64,
    },
    /// The proof's run token was cancelled externally.
    Cancelled,
    /// The prover panicked while proving this pair; the panic was caught at
    /// the batch boundary and degraded to this verdict.
    Panicked,
    /// A certificate was requested with checking, but emission failed or the
    /// independent checker rejected the emitted artifact; the definite
    /// verdict was withdrawn rather than served without valid evidence.
    CertificateInvalid,
    /// Any other reason.
    Other,
}

impl FailureCategory {
    /// The stable machine-readable code of this category — the `error.code`
    /// field of the serving wire protocol (see `graphqe-serve` and
    /// SERVING.md). One code per variant, snake_case, never reworded: clients
    /// dispatch on these strings, so renaming one is a wire-protocol break.
    pub fn code(&self) -> &'static str {
        match self {
            FailureCategory::SortingTruncation => "sorting_truncation",
            FailureCategory::NestedAggregate => "nested_aggregate",
            FailureCategory::UninterpretedFunction => "uninterpreted_function",
            FailureCategory::InvalidQuery => "invalid_query",
            FailureCategory::TypeError => "type_error",
            FailureCategory::Timeout { .. } => "timeout",
            FailureCategory::BudgetExhausted { .. } => "budget_exhausted",
            FailureCategory::Cancelled => "cancelled",
            FailureCategory::Panicked => "panicked",
            FailureCategory::CertificateInvalid => "certificate_invalid",
            FailureCategory::Other => "other",
        }
    }

    /// The pipeline stage a trip-shaped category is attributed to (`None`
    /// for the paper's static categories).
    pub fn stage(&self) -> Option<limits::Stage> {
        match self {
            FailureCategory::Timeout { stage } => Some(*stage),
            FailureCategory::BudgetExhausted { stage, .. } => Some(*stage),
            _ => None,
        }
    }

    /// The exhausted budget of a [`FailureCategory::BudgetExhausted`]
    /// verdict (`None` otherwise).
    pub fn budget(&self) -> Option<u64> {
        match self {
            FailureCategory::BudgetExhausted { budget, .. } => Some(*budget),
            _ => None,
        }
    }

    /// The stable codes of every category, one per variant (trip-shaped
    /// variants with representative payloads). Used by the repo's lint test
    /// to check the serving documentation covers the whole taxonomy.
    pub fn all_codes() -> Vec<&'static str> {
        let representatives = [
            FailureCategory::SortingTruncation,
            FailureCategory::NestedAggregate,
            FailureCategory::UninterpretedFunction,
            FailureCategory::InvalidQuery,
            FailureCategory::TypeError,
            FailureCategory::Timeout { stage: limits::Stage::Search },
            FailureCategory::BudgetExhausted { stage: limits::Stage::Smt, budget: 0 },
            FailureCategory::Cancelled,
            FailureCategory::Panicked,
            FailureCategory::CertificateInvalid,
            FailureCategory::Other,
        ];
        representatives.iter().map(|category| category.code()).collect()
    }
}

impl fmt::Display for FailureCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCategory::SortingTruncation => f.write_str("sorting and truncation"),
            FailureCategory::NestedAggregate => f.write_str("nested aggregate"),
            FailureCategory::UninterpretedFunction => f.write_str("uninterpreted function"),
            FailureCategory::InvalidQuery => f.write_str("invalid query"),
            FailureCategory::TypeError => f.write_str("type error"),
            FailureCategory::Timeout { stage } => write!(f, "timeout at {stage}"),
            FailureCategory::BudgetExhausted { stage, .. } => {
                write!(f, "budget exhausted at {stage}")
            }
            FailureCategory::Cancelled => f.write_str("cancelled"),
            FailureCategory::Panicked => f.write_str("panicked"),
            FailureCategory::CertificateInvalid => f.write_str("certificate invalid"),
            FailureCategory::Other => f.write_str("other"),
        }
    }
}

impl From<limits::Trip> for FailureCategory {
    fn from(trip: limits::Trip) -> FailureCategory {
        match trip {
            limits::Trip::Timeout { stage } => FailureCategory::Timeout { stage },
            limits::Trip::BudgetExhausted { stage, budget } => {
                FailureCategory::BudgetExhausted { stage, budget }
            }
            limits::Trip::Cancelled => FailureCategory::Cancelled,
        }
    }
}

/// Wall-clock time spent in each pipeline stage of one proof. Recorded on
/// **every** exit path — including stage-① rejections and cache-hit fast
/// paths — so a latency report never has unexplained gaps; stages that were
/// never entered stay at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Stage ① — syntax/semantic check (through the parse cache).
    pub parse: Duration,
    /// Stage ⓪ — static analysis (type inference and output signatures;
    /// runs after parsing, the numbering mirrors the serving docs).
    pub analyze: Duration,
    /// Stage ② — rule-based normalization.
    pub normalize: Duration,
    /// Stage ③ — G-expression construction (all permutation retries).
    pub build: Duration,
    /// Stage ④ — the LIA★/SMT decision (all permutation retries).
    pub decide: Duration,
    /// The counterexample search over concrete graphs.
    pub search: Duration,
}

/// Statistics gathered while proving a pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProofStats {
    /// Wall-clock time of the whole pipeline.
    pub latency: Duration,
    /// Per-stage wall-clock breakdown of `latency`.
    pub stages: StageTimings,
    /// Whether the divide-and-conquer path for `ORDER BY ... LIMIT` inside
    /// subqueries was taken.
    pub used_divide_and_conquer: bool,
    /// Which return-element mapping succeeded (0 = identity).
    pub column_permutation: usize,
    /// Statistics of the final G-expression decision.
    pub decision: DecisionStats,
}

/// A concrete graph on which the two queries return different results.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The differing property graph. Shared (`Arc`) with the candidate pool
    /// it came from: certifying and replaying a witness hands out references
    /// into the pool instead of deep-copying the graph per certificate.
    pub graph: Arc<PropertyGraph>,
    /// Number of rows the first query returned.
    pub left_rows: usize,
    /// Number of rows the second query returned.
    pub right_rows: usize,
    /// Position of the witness in the deterministic candidate pool (seed
    /// graphs first, then random graphs). Benchmarks report the distribution
    /// so the pool ordering can be tuned towards early witnesses.
    pub pool_index: usize,
}

/// The outcome of proving a pair of Cypher queries.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The queries are semantically equivalent on every property graph.
    Equivalent(ProofStats),
    /// The queries are definitely not equivalent: a counterexample graph was
    /// found on which their results differ.
    NotEquivalent(Box<Counterexample>),
    /// Neither equivalence nor a counterexample could be established.
    Unknown {
        /// The failure category (mirrors §VII-B of the paper).
        category: FailureCategory,
        /// Human readable explanation.
        reason: String,
    },
}

impl Verdict {
    /// Returns `true` if the verdict proves equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent(_))
    }

    /// Returns `true` if the verdict certifies non-equivalence.
    pub fn is_not_equivalent(&self) -> bool {
        matches!(self, Verdict::NotEquivalent(_))
    }

    /// Returns `true` for an unknown verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown { .. })
    }

    /// The failure category of an unknown verdict (`None` for the two
    /// definite verdicts).
    pub fn failure_category(&self) -> Option<FailureCategory> {
        match self {
            Verdict::Unknown { category, .. } => Some(*category),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Equivalent(stats) => {
                write!(f, "EQUIVALENT (proved in {:?})", stats.latency)
            }
            Verdict::NotEquivalent(example) => write!(
                f,
                "NOT EQUIVALENT ({} vs {} rows on a {}-node counterexample graph)",
                example.left_rows,
                example.right_rows,
                example.graph.node_count()
            ),
            Verdict::Unknown { category, reason } => {
                write!(f, "UNKNOWN ({category}): {reason}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_predicates() {
        let eq = Verdict::Equivalent(ProofStats::default());
        assert!(eq.is_equivalent());
        assert!(!eq.is_not_equivalent());
        let unknown =
            Verdict::Unknown { category: FailureCategory::Other, reason: "x".to_string() };
        assert!(unknown.is_unknown());
        assert!(format!("{unknown}").contains("UNKNOWN"));
    }

    #[test]
    fn failure_categories_display() {
        assert_eq!(FailureCategory::SortingTruncation.to_string(), "sorting and truncation");
        assert_eq!(FailureCategory::NestedAggregate.to_string(), "nested aggregate");
    }

    #[test]
    fn failure_category_codes_are_stable_and_carry_trip_details() {
        let all = [
            (FailureCategory::SortingTruncation, "sorting_truncation"),
            (FailureCategory::NestedAggregate, "nested_aggregate"),
            (FailureCategory::UninterpretedFunction, "uninterpreted_function"),
            (FailureCategory::InvalidQuery, "invalid_query"),
            (FailureCategory::TypeError, "type_error"),
            (FailureCategory::Timeout { stage: limits::Stage::Search }, "timeout"),
            (
                FailureCategory::BudgetExhausted { stage: limits::Stage::Smt, budget: 7 },
                "budget_exhausted",
            ),
            (FailureCategory::Cancelled, "cancelled"),
            (FailureCategory::Panicked, "panicked"),
            (FailureCategory::CertificateInvalid, "certificate_invalid"),
            (FailureCategory::Other, "other"),
        ];
        // The lint-facing enumeration covers exactly the same codes.
        assert_eq!(
            FailureCategory::all_codes(),
            all.iter().map(|(_, code)| *code).collect::<Vec<_>>()
        );
        for (category, code) in all {
            assert_eq!(category.code(), code);
        }
        let timeout = FailureCategory::Timeout { stage: limits::Stage::Search };
        assert_eq!(timeout.stage(), Some(limits::Stage::Search));
        assert_eq!(timeout.budget(), None);
        let budget = FailureCategory::BudgetExhausted { stage: limits::Stage::Smt, budget: 7 };
        assert_eq!(budget.stage(), Some(limits::Stage::Smt));
        assert_eq!(budget.budget(), Some(7));
        assert_eq!(FailureCategory::Other.stage(), None);
    }
}
