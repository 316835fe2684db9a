//! # cypher-normalizer
//!
//! Rule-based Cypher query normalization (stage ② of the GraphQE workflow,
//! §V / Table II of the paper). Each rule rewrites the AST into an equivalent
//! query that uses only features the G-expression builder models directly:
//!
//! | # | Rule |
//! |---|------|
//! | ① | eliminate undirected relationship patterns (union of both directions) |
//! | ② | rewrite bounded variable-length paths into a union over the lengths |
//! | ③ | expand `RETURN *` / `WITH *` into an explicit, alphabetically sorted item list |
//! | ④ | eliminate redundant `WITH` clauses by inlining their aliases |
//! | ⑤ | standardize variable names (`n1`, `r1`, ... in order of appearance) |
//! | ⑥ | simplify `id(a) = id(b)` equalities into variable unification |
//!
//! The driver applies one rule per round, in the dependency order the paper
//! describes (② before ⑤, ③ before ⑤, ⑤ before ⑥), until no rule fires.
//! It is generic over a [`Recorder`]: the prove path records nothing (`()`),
//! certificate emission records the full derivation as [`DerivationStep`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rules;

use cypher_parser::ast::Query;

/// Normalizes a query by applying the Table II rules to a fixpoint.
pub fn normalize_query(query: &Query) -> Query {
    normalize_query_with(query, &mut ())
}

/// A Table II rule, as the fixpoint loop reports it to a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Rule ①: undirected relationship elimination.
    Undirected,
    /// Rule ②: bounded variable-length path expansion.
    VarLength,
    /// Rule ③: `RETURN *` / `WITH *` expansion.
    ReturnStar,
    /// Rule ④: redundant `WITH` elimination.
    RedundantWith,
    /// Rule ⑤: variable standardization.
    Standardize,
    /// Rule ⑥: `id(a) = id(b)` simplification.
    IdEquality,
}

impl Rule {
    /// The stable identifier of the rule. The independent checker crate
    /// replays derivations under the same names; the two sides must agree
    /// exactly for a certificate to validate.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Undirected => "undirected",
            Rule::VarLength => "var_length",
            Rule::ReturnStar => "return_star",
            Rule::RedundantWith => "redundant_with",
            Rule::Standardize => "standardize",
            Rule::IdEquality => "id_equality",
        }
    }
}

/// One rewriting step of a fixpoint rule (`None` when the rule does not fire).
type Rewrite = fn(&Query) -> Option<Query>;

/// The fixpoint rules in priority order; the first that fires is the round's
/// one step. Rule ⑤ is pure renaming and runs once, after the fixpoint.
const FIXPOINT_RULES: [(Rule, Rewrite); 5] = [
    (Rule::VarLength, rules::rule2_var_length::apply),
    (Rule::Undirected, rules::rule1_undirected::apply),
    (Rule::ReturnStar, rules::rule3_return_star::apply),
    (Rule::RedundantWith, rules::rule4_redundant_with::apply),
    (Rule::IdEquality, rules::rule6_id_equality::apply),
];

/// Observes the rule applications of the normalization fixpoint.
pub trait Recorder {
    /// Called once per rule application (rule ⑤ only when it renamed
    /// something) with the query before and after the step.
    fn record(&mut self, rule: Rule, before: &Query, after: &Query);
}

/// The prove path's recorder: it keeps nothing.
impl Recorder for () {
    fn record(&mut self, _rule: Rule, _before: &Query, _after: &Query) {}
}

/// One recorded rule application of the normalization fixpoint, as a
/// certificate carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivationStep {
    /// Stable rule identifier ([`Rule::id`]).
    pub rule: &'static str,
    /// Index of the first union part changed by the step.
    pub part: usize,
    /// Index of the first clause changed inside that part.
    pub clause: usize,
    /// The query after the step.
    pub after: Query,
}

impl Recorder for Vec<DerivationStep> {
    fn record(&mut self, rule: Rule, before: &Query, after: &Query) {
        let (part, clause) = diff_position(before, after);
        self.push(DerivationStep { rule: rule.id(), part, clause, after: after.clone() });
    }
}

/// The position `(part, clause)` of the first difference between two queries.
///
/// This definition must stay in lock-step with the checker crate's copy
/// (`graphqe-checker`'s `rules::diff_position`): both sides compute positions
/// the same way so a replayed trace compares verbatim.
fn diff_position(before: &Query, after: &Query) -> (usize, usize) {
    for (i, (b, a)) in before.parts.iter().zip(after.parts.iter()).enumerate() {
        if b != a {
            for (j, (bc, ac)) in b.clauses.iter().zip(a.clauses.iter()).enumerate() {
                if bc != ac {
                    return (i, j);
                }
            }
            return (i, b.clauses.len().min(a.clauses.len()));
        }
    }
    if before.parts.len() != after.parts.len() {
        return (before.parts.len().min(after.parts.len()), 0);
    }
    (0, 0)
}

/// [`try_normalize_query_with`] with cooperative limit checkpoints suspended
/// for the duration, so it always completes: benches, tests, differential
/// oracles and certificate emission expect a result unconditionally.
pub fn normalize_query_with(query: &Query, recorder: &mut impl Recorder) -> Query {
    limits::without_token(|| try_normalize_query_with(query, recorder))
        .expect("normalization cannot trip without an ambient RunToken")
}

/// The normalization fixpoint, reporting every step to `recorder`: one rule
/// per round, bounded to 64 rounds so it terminates even if rules interplay
/// badly, then rule ⑤ once. Under an ambient [`limits::RunToken`] whose
/// deadline has passed (or that was cancelled), the per-round checkpoint
/// unwinds with the trip instead of completing the fixpoint.
pub fn try_normalize_query_with(
    query: &Query,
    recorder: &mut impl Recorder,
) -> Result<Query, limits::Trip> {
    // The query after the last step; `None` while no rule has fired, so a
    // query no rule rewrites is cloned once, at the end.
    let mut rewritten: Option<Query> = None;
    for _ in 0..64 {
        limits::checkpoint(limits::Stage::Normalize)?;
        let current = rewritten.as_ref().unwrap_or(query);
        let step = FIXPOINT_RULES
            .iter()
            .find_map(|(rule, apply)| apply(current).map(|next| (*rule, next)));
        let Some((rule, next)) = step else { break };
        recorder.record(rule, current, &next);
        rewritten = Some(next);
    }
    let current = rewritten.as_ref().unwrap_or(query);
    if let Some(renamed) = rules::rule5_standardize::apply(current) {
        recorder.record(Rule::Standardize, current, &renamed);
        return Ok(renamed);
    }
    Ok(rewritten.unwrap_or_else(|| query.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::{parse_query, pretty::query_to_string};

    fn normalize_text(text: &str) -> String {
        query_to_string(&normalize_query(&parse_query(text).unwrap()))
    }

    #[test]
    fn table_2_rule_1_undirected() {
        let normalized = normalize_text("MATCH (n1)-[]-(n2) RETURN n1.name");
        assert!(normalized.contains("UNION ALL"), "{normalized}");
        assert!(
            normalized.contains("-->") || normalized.contains("]->") || normalized.contains(")-["),
            "{normalized}"
        );
    }

    #[test]
    fn table_2_rule_2_var_length() {
        let normalized = normalize_text("MATCH (n1)-[*1..2]->(n2) RETURN n1");
        assert!(normalized.contains("UNION ALL"), "{normalized}");
        // The two-hop branch contains two relationship patterns.
        assert!(
            normalized.matches("]->(").count() >= 2 || normalized.matches("-->").count() >= 1,
            "{normalized}"
        );
        // Unbounded paths are left untouched (modeled with UNBOUNDED instead).
        let unbounded = normalize_text("MATCH (n1)-[*]->(n2) RETURN n1");
        assert!(!unbounded.contains("UNION"), "{unbounded}");
    }

    #[test]
    fn table_2_rule_3_return_star() {
        let normalized = normalize_text("MATCH (x)-[z]->()-[y]->() RETURN *");
        assert!(!normalized.contains('*'), "{normalized}");
        // Alphabetical order of the projected variables (x, y, z renamed by
        // rule ⑤ but still three items).
        assert!(normalized.matches(", ").count() >= 2, "{normalized}");
    }

    #[test]
    fn table_2_rule_4_redundant_with() {
        let normalized = normalize_text("MATCH (x) WITH x.name AS name RETURN name");
        assert!(!normalized.contains("WITH"), "{normalized}");
        assert!(normalized.contains(".name"), "{normalized}");
        // A WITH with DISTINCT / ORDER BY / aggregates is kept.
        let kept = normalize_text("MATCH (x) WITH DISTINCT x.name AS name RETURN name");
        assert!(kept.contains("WITH"), "{kept}");
    }

    #[test]
    fn table_2_rule_5_standardize() {
        let normalized = normalize_text("MATCH (person)-[]->(book) RETURN person");
        assert!(normalized.contains("(n1)"), "{normalized}");
        assert!(normalized.contains("(n2)"), "{normalized}");
        assert!(!normalized.contains("person"), "{normalized}");
    }

    #[test]
    fn table_2_rule_6_id_equality() {
        let normalized = normalize_text("MATCH (n1), (n2) WHERE id(n1) = id(n2) RETURN n2");
        assert!(!normalized.contains("id("), "{normalized}");
        // Only one node pattern remains.
        assert_eq!(normalized, "MATCH (n1) RETURN n1");
    }

    #[test]
    fn normalization_report_tracks_rules() {
        let query = parse_query("MATCH (a)-[*1..2]->(b) RETURN *").unwrap();
        let mut steps: Vec<DerivationStep> = Vec::new();
        normalize_query_with(&query, &mut steps);
        let fired = |rule: Rule| steps.iter().filter(|step| step.rule == rule.id()).count();
        assert!(fired(Rule::VarLength) >= 1);
        assert!(fired(Rule::ReturnStar) >= 1);
        assert_eq!(fired(Rule::Standardize), 1);
    }

    #[test]
    fn expired_deadline_trips_normalization_but_not_the_infallible_entry() {
        use std::sync::Arc;
        use std::time::{Duration, Instant};
        let query = parse_query("MATCH (n1)-[]-(n2) RETURN n1.name").unwrap();
        let token =
            Arc::new(limits::RunToken::new(Some(Instant::now() - Duration::from_millis(1)), 0, 0));
        limits::with_token(token, || {
            let tripped = try_normalize_query_with(&query, &mut ());
            assert!(matches!(
                tripped,
                Err(limits::Trip::Timeout { stage: limits::Stage::Normalize })
            ));
            // The infallible entry point suspends the ambient token and
            // completes even mid-deadline (bench baselines depend on it).
            let normalized = normalize_query_with(&query, &mut ());
            assert_eq!(normalized, normalize_query(&query));
        });
    }

    #[test]
    fn normalization_is_idempotent() {
        for text in [
            "MATCH (n1)-[]-(n2) RETURN n1.name",
            "MATCH (n1)-[*1..2]->(n2) RETURN n1",
            "MATCH (x)-[z]->()-[y]->() RETURN *",
            "MATCH (x) WITH x.name AS name RETURN name",
            "MATCH (a)-[r:KNOWS]->(b) WHERE a.age > 1 RETURN b.name ORDER BY b.name LIMIT 3",
        ] {
            let once = normalize_query(&parse_query(text).unwrap());
            let twice = normalize_query(&once);
            assert_eq!(once, twice, "normalization not idempotent for {text}");
        }
    }

    #[test]
    fn derivation_reproduces_the_pipeline_fixpoint() {
        for text in [
            "MATCH (n1)-[]-(n2) RETURN n1.name",
            "MATCH (n1)-[*1..2]->(n2) RETURN n1",
            "MATCH (x)-[z]->()-[y]->() RETURN *",
            "MATCH (x) WITH x.name AS name RETURN name",
            "MATCH (a), (b) WHERE id(a) = id(b) RETURN b.name",
            "MATCH (n1) RETURN n1",
        ] {
            let query = parse_query(text).unwrap();
            let mut steps: Vec<DerivationStep> = Vec::new();
            let derived = normalize_query_with(&query, &mut steps);
            assert_eq!(derived, normalize_query(&query), "derivation diverged for {text}");
            // The last recorded step (if any) is the normalized query.
            if let Some(last) = steps.last() {
                assert_eq!(last.after, derived, "trailing step mismatch for {text}");
            } else {
                assert_eq!(derived, query, "no steps but query changed for {text}");
            }
        }
    }

    #[test]
    fn preserves_results_on_the_paper_graph() {
        // The normalizer must be semantics-preserving: check against the
        // reference evaluator on the Fig. 1 graph.
        use property_graph::{evaluate_query, PropertyGraph};
        let graph = PropertyGraph::paper_example();
        for text in [
            "MATCH (n1)-[]-(n2) RETURN n1.name",
            "MATCH (n1)-[*1..2]->(n2) RETURN n1.name",
            "MATCH (x)-[z:READ]->(b) RETURN *",
            "MATCH (x) WITH x.name AS name RETURN name",
            "MATCH (a), (b) WHERE id(a) = id(b) RETURN b.name",
            "MATCH (a:Person)-[r]->(b) WHERE a.age > 26 RETURN a.name, b.title",
        ] {
            let original = parse_query(text).unwrap();
            let normalized = normalize_query(&original);
            let before = evaluate_query(&graph, &original).unwrap();
            let after = evaluate_query(&graph, &normalized).unwrap();
            assert!(
                before.bag_equal(&after),
                "rule broke semantics for {text}:\nbefore={before}\nafter={after}"
            );
        }
    }
}
