//! The certificate validation engine.
//!
//! [`check_certificate`] independently re-validates every claim a certificate
//! makes that does not require re-running the prover: the normalization
//! derivation is replayed rule-by-rule, proof trees are re-checked
//! structurally (summand partitions, atom removals, isomorphism pairings,
//! class counts), and counterexample bags are re-computed by the checker's
//! own evaluator. SMT facts (zero-pruning, implied atoms) are *trusted
//! obligations*: their structural consequences are verified, their
//! arithmetic is not re-proved. See the crate docs for the exact trust
//! boundary.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use cypher_parser::ast::{Clause, ProjectionItems, Query};
use cypher_parser::parse_query;

use crate::cert::{
    CertVerdict, Certificate, Evidence, KeptSummand, Matching, Proof, QueryCert, SideSummands,
    CERTIFICATE_VERSION,
};
use crate::eval::{evaluate_query, QueryResult};
use crate::gx::{self, Gx, VarMapping};
use crate::rules;
use crate::sig;
use crate::value::Value;

/// A structured validation failure.
///
/// `code` is a stable machine-readable identifier; `message` carries the
/// human-readable detail. Codes are part of the wire protocol and never
/// change meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Stable failure code (e.g. `"derivation_mismatch"`).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl CheckError {
    fn new(code: &'static str, message: impl Into<String>) -> CheckError {
        CheckError { code, message: message.into() }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Counts of the obligations a successful check discharged (or trusted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckSummary {
    /// Normalization rule applications replayed and confirmed (both sides).
    pub derivation_steps: usize,
    /// Divide-and-conquer segments whose proofs were checked.
    pub segments: usize,
    /// Summands matched via a verified isomorphism bijection.
    pub summands_matched: usize,
    /// Isomorphism classes whose membership and counts were re-verified.
    pub classes_counted: usize,
    /// SMT facts accepted on trust (zero-pruned summands, implied atoms).
    pub trusted_obligations: usize,
    /// Counterexample result rows re-computed by the checker's evaluator.
    pub rows_reevaluated: usize,
    /// Stage-⓪ signature columns re-inferred and confirmed (both sides).
    pub signature_columns: usize,
}

/// Independently validates a certificate.
///
/// Returns the obligation counts on success, or the first structured failure
/// encountered. The check never invokes the prover, the SMT solver, or any
/// crate other than the parser.
pub fn check_certificate(cert: &Certificate) -> Result<CheckSummary, CheckError> {
    if cert.version != CERTIFICATE_VERSION {
        return Err(CheckError::new(
            "schema_error",
            format!(
                "unsupported certificate version {} (checker supports {})",
                cert.version, CERTIFICATE_VERSION
            ),
        ));
    }
    let mut summary = CheckSummary::default();
    let mut parsed = ParsedQueries::default();
    let (left_source, left_normalized) =
        replay_derivation("left", &cert.left, &mut parsed, &mut summary)?;
    let (right_source, right_normalized) =
        replay_derivation("right", &cert.right, &mut parsed, &mut summary)?;
    match (cert.verdict, &cert.evidence) {
        (
            CertVerdict::Equivalent,
            Evidence::Equivalence { column_permutation, permuted_right, segments },
        ) => {
            check_equivalence(
                &right_normalized,
                column_permutation,
                permuted_right.as_deref(),
                segments,
                &mut parsed,
                &mut summary,
            )?;
            let _ = left_normalized;
        }
        (
            CertVerdict::NotEquivalent,
            Evidence::Counterexample {
                graph,
                pool_index: _,
                left_columns,
                left_rows,
                right_columns,
                right_rows,
            },
        ) => {
            check_witness(
                graph,
                &left_source,
                left_columns,
                left_rows,
                &right_source,
                right_columns,
                right_rows,
                &mut summary,
            )?;
        }
        (
            CertVerdict::NotEquivalent,
            Evidence::SignatureMismatch {
                left_signature,
                right_signature,
                graph,
                pool_index: _,
                left_columns,
                left_rows,
                right_columns,
                right_rows,
            },
        ) => {
            check_signature("left", &left_source, left_signature, &mut summary)?;
            check_signature("right", &right_source, right_signature, &mut summary)?;
            match sig::signatures_discriminate(left_signature, right_signature) {
                Some(true) => {}
                Some(false) => {
                    return Err(CheckError::new(
                        "signatures_compatible",
                        "the recorded signatures admit a type-compatible column bijection; \
                         they do not discriminate the queries",
                    ));
                }
                None => {
                    return Err(CheckError::new(
                        "schema_error",
                        "a recorded signature column carries an unknown type name",
                    ));
                }
            }
            // The signatures alone never validate NOT_EQUIVALENT — the
            // concrete witness must separate the queries just like a plain
            // counterexample certificate.
            check_witness(
                graph,
                &left_source,
                left_columns,
                left_rows,
                &right_source,
                right_columns,
                right_rows,
                &mut summary,
            )?;
        }
        (verdict, _) => {
            return Err(CheckError::new(
                "schema_error",
                format!("evidence type does not match verdict {}", verdict.name()),
            ));
        }
    }
    Ok(summary)
}

// ---------------------------------------------------------------------------
// Query texts
// ---------------------------------------------------------------------------

/// The query texts of one certificate, each distinct text parsed once.
///
/// A certificate repeats texts: the last derivation step's after-state is
/// the normalized query, a query without steps is its own normalization, and
/// both sides may share texts. Every comparison still runs; only the parse
/// of a repeated text is shared.
#[derive(Default)]
struct ParsedQueries<'c> {
    queries: HashMap<&'c str, Rc<Query>>,
}

impl<'c> ParsedQueries<'c> {
    /// Parses `text`, or returns its earlier parse. A parse failure is a
    /// `parse_error` naming `what`.
    fn parse(
        &mut self,
        text: &'c str,
        what: impl FnOnce() -> String,
    ) -> Result<Rc<Query>, CheckError> {
        if let Some(query) = self.queries.get(text) {
            return Ok(Rc::clone(query));
        }
        let query = parse_query(text)
            .map_err(|e| CheckError::new("parse_error", format!("{}: {e}", what())))?;
        let query = Rc::new(query);
        self.queries.insert(text, Rc::clone(&query));
        Ok(query)
    }
}

// ---------------------------------------------------------------------------
// Derivation replay
// ---------------------------------------------------------------------------

/// Replays the normalization derivation of one query and compares it 1:1
/// against the recorded steps. Returns the parsed source and the normalized
/// query (the recorded one, once it has been found equal to the replay's).
fn replay_derivation<'c>(
    side: &str,
    cert: &'c QueryCert,
    parsed: &mut ParsedQueries<'c>,
    summary: &mut CheckSummary,
) -> Result<(Rc<Query>, Rc<Query>), CheckError> {
    let source = parsed.parse(&cert.source, || format!("{side} source"))?;
    let trace = rules::normalize_with_trace(&source);
    if trace.len() != cert.steps.len() {
        return Err(CheckError::new(
            "derivation_mismatch",
            format!(
                "{side}: recorded {} derivation steps, replay produced {}",
                cert.steps.len(),
                trace.len()
            ),
        ));
    }
    for (index, (recorded, replayed)) in cert.steps.iter().zip(trace.iter()).enumerate() {
        if recorded.rule != replayed.rule {
            return Err(CheckError::new(
                "derivation_mismatch",
                format!(
                    "{side} step {index}: recorded rule {:?}, replay applied {:?}",
                    recorded.rule, replayed.rule
                ),
            ));
        }
        if (recorded.part, recorded.clause) != (replayed.part, replayed.clause) {
            return Err(CheckError::new(
                "derivation_mismatch",
                format!(
                    "{side} step {index} ({}): recorded position ({}, {}), replay changed \
                     ({}, {})",
                    recorded.rule, recorded.part, recorded.clause, replayed.part, replayed.clause
                ),
            ));
        }
        let recorded_after =
            parsed.parse(&recorded.after, || format!("{side} step {index} after-state"))?;
        if *recorded_after != replayed.after {
            return Err(CheckError::new(
                "derivation_mismatch",
                format!(
                    "{side} step {index} ({}): recorded after-state differs from replay",
                    recorded.rule
                ),
            ));
        }
    }
    let recorded_normalized = parsed.parse(&cert.normalized, || format!("{side} normalized"))?;
    let normalized = trace.last().map_or(&*source, |step| &step.after);
    if *recorded_normalized != *normalized {
        return Err(CheckError::new(
            "derivation_mismatch",
            format!("{side}: recorded normalized query differs from replayed fixpoint"),
        ));
    }
    summary.derivation_steps += cert.steps.len();
    Ok((source, recorded_normalized))
}

// ---------------------------------------------------------------------------
// Equivalence evidence
// ---------------------------------------------------------------------------

fn check_equivalence<'c>(
    right_normalized: &Query,
    permutation: &[usize],
    permuted_right: Option<&'c str>,
    segments: &[crate::cert::SegmentWitness],
    parsed: &mut ParsedQueries<'c>,
    summary: &mut CheckSummary,
) -> Result<(), CheckError> {
    check_permutation(right_normalized, permutation, permuted_right, parsed)?;
    if segments.is_empty() {
        return Err(CheckError::new("schema_error", "equivalence evidence carries no segments"));
    }
    summary.segments += segments.len();
    for (index, segment) in segments.iter().enumerate() {
        check_proof(&segment.left, &segment.right, &segment.proof, summary)
            .map_err(|e| CheckError::new(e.code, format!("segment {index}: {}", e.message)))?;
    }
    Ok(())
}

fn check_permutation<'c>(
    right_normalized: &Query,
    permutation: &[usize],
    permuted_right: Option<&'c str>,
    parsed: &mut ParsedQueries<'c>,
) -> Result<(), CheckError> {
    let n = permutation.len();
    let mut seen = vec![false; n];
    for &source in permutation {
        if source >= n || seen[source] {
            return Err(CheckError::new(
                "permutation_invalid",
                format!("{permutation:?} is not a permutation of 0..{n}"),
            ));
        }
        seen[source] = true;
    }
    let identity = permutation.iter().enumerate().all(|(i, p)| i == *p);
    match permuted_right {
        None => {
            if !identity {
                return Err(CheckError::new(
                    "permutation_invalid",
                    "non-identity permutation requires the permuted right query",
                ));
            }
        }
        Some(text) => {
            let recorded = parsed.parse(text, || "permuted right".to_string())?;
            let expected = permute_returns(right_normalized, permutation);
            if *recorded != expected {
                return Err(CheckError::new(
                    "permuted_right_mismatch",
                    "recorded permuted right query does not match applying the permutation \
                     to the normalized right query",
                ));
            }
        }
    }
    Ok(())
}

/// Reorders the items of every `RETURN` clause according to `permutation`
/// (output position `i` takes the item previously at `permutation[i]`).
/// Mirrors the prover's application exactly, including silently skipping
/// parts whose `RETURN` shape does not fit.
fn permute_returns(query: &Query, permutation: &[usize]) -> Query {
    let mut result = query.clone();
    for part in &mut result.parts {
        if let Some(Clause::Return(projection)) = part.clauses.last_mut() {
            if let ProjectionItems::Items(items) = &mut projection.items {
                if items.len() == permutation.len() {
                    let original = items.clone();
                    for (position, &source) in permutation.iter().enumerate() {
                        items[position] = original[source].clone();
                    }
                }
            }
        }
    }
    result
}

// ---------------------------------------------------------------------------
// Proof checking
// ---------------------------------------------------------------------------

fn check_proof(
    left: &Gx,
    right: &Gx,
    proof: &Proof,
    summary: &mut CheckSummary,
) -> Result<(), CheckError> {
    match proof {
        Proof::Identical => {
            if left != right {
                return Err(CheckError::new(
                    "identical_mismatch",
                    "proof claims structural identity but the trees differ",
                ));
            }
            Ok(())
        }
        Proof::Peel(inner) => match (left, right) {
            (Gx::Squash(a), Gx::Squash(b)) => check_proof(a, b, inner, summary),
            _ => Err(CheckError::new(
                "peel_mismatch",
                "peel proof requires both sides to be squashes",
            )),
        },
        Proof::Summands(sp) => {
            let left_kept = check_side_summands("left", left, &sp.left, summary)?;
            let right_kept = check_side_summands("right", right, &sp.right, summary)?;
            check_matching(&left_kept, &right_kept, &sp.matching, summary)
        }
    }
}

/// Verifies one side's summand partition and per-summand simplification
/// records; returns the kept (simplified) summands in record order.
fn check_side_summands<'c>(
    side: &str,
    expr: &Gx,
    recorded: &'c SideSummands,
    summary: &mut CheckSummary,
) -> Result<Vec<&'c KeptSummand>, CheckError> {
    let summands = gx::to_summands(expr);
    if summands.len() != recorded.total {
        return Err(CheckError::new(
            "summand_partition_mismatch",
            format!(
                "{side}: expression decomposes into {} summands, record claims {}",
                summands.len(),
                recorded.total
            ),
        ));
    }
    let mut covered = vec![false; recorded.total];
    let mut cover = |index: usize, role: &str| -> Result<(), CheckError> {
        if index >= recorded.total || covered[index] {
            return Err(CheckError::new(
                "summand_partition_mismatch",
                format!("{side}: summand {index} {role} out of range or covered twice"),
            ));
        }
        covered[index] = true;
        Ok(())
    };
    for &index in &recorded.zero_pruned {
        cover(index, "(zero-pruned)")?;
    }
    for kept in &recorded.kept {
        cover(kept.index, "(kept)")?;
    }
    if covered.iter().any(|c| !c) {
        return Err(CheckError::new(
            "summand_partition_mismatch",
            format!("{side}: not every summand is accounted for"),
        ));
    }
    // Each zero-pruned summand rests on a trusted unsatisfiability obligation.
    summary.trusted_obligations += recorded.zero_pruned.len();
    for kept in &recorded.kept {
        let (vars, factors) = gx::decompose_summand(&summands[kept.index]);
        let mut remaining = factors;
        for atom in &kept.removed_atoms {
            if !matches!(atom, Gx::Atom(_)) {
                return Err(CheckError::new(
                    "removed_atom_mismatch",
                    format!("{side} summand {}: removed factor is not an atom", kept.index),
                ));
            }
            let position = remaining.iter().position(|f| f == atom).ok_or_else(|| {
                CheckError::new(
                    "removed_atom_mismatch",
                    format!(
                        "{side} summand {}: removed atom is not among the remaining factors",
                        kept.index
                    ),
                )
            })?;
            remaining.remove(position);
            // The implication that justified the removal is a trusted
            // obligation; the structural removal itself is what we checked.
            summary.trusted_obligations += 1;
        }
        let rebuilt = Gx::sum(vars, Gx::mul(remaining));
        if rebuilt != kept.result {
            return Err(CheckError::new(
                "summand_simplification_mismatch",
                format!(
                    "{side} summand {}: recorded simplified form does not match rebuilding \
                     from the original summand",
                    kept.index
                ),
            ));
        }
    }
    Ok(recorded.kept.iter().collect())
}

fn check_matching(
    left_kept: &[&KeptSummand],
    right_kept: &[&KeptSummand],
    matching: &Matching,
    summary: &mut CheckSummary,
) -> Result<(), CheckError> {
    match matching {
        Matching::Bijection(pairs) => {
            if pairs.len() != left_kept.len() || pairs.len() != right_kept.len() {
                return Err(CheckError::new(
                    "iso_pair_mismatch",
                    format!(
                        "bijection has {} pairs for {} left and {} right kept summands",
                        pairs.len(),
                        left_kept.len(),
                        right_kept.len()
                    ),
                ));
            }
            let mut left_used = vec![false; left_kept.len()];
            let mut right_used = vec![false; right_kept.len()];
            let mut mapping = VarMapping::new();
            for &(l, r) in pairs {
                if l >= left_kept.len() || r >= right_kept.len() || left_used[l] || right_used[r] {
                    return Err(CheckError::new(
                        "iso_pair_mismatch",
                        format!("pair ({l}, {r}) out of range or repeated"),
                    ));
                }
                left_used[l] = true;
                right_used[r] = true;
                if !gx::unify_expr(&left_kept[l].result, &right_kept[r].result, &mut mapping) {
                    return Err(CheckError::new(
                        "iso_pair_mismatch",
                        format!("pair ({l}, {r}) does not unify under the shared variable mapping"),
                    ));
                }
            }
            summary.summands_matched += pairs.len();
            Ok(())
        }
        Matching::Classes {
            representatives,
            left_assign,
            right_assign,
            left_counts,
            right_counts,
        } => {
            if left_counts.len() != representatives.len()
                || right_counts.len() != representatives.len()
            {
                return Err(CheckError::new(
                    "class_count_mismatch",
                    "count vectors do not match the number of representatives",
                ));
            }
            let recompute = |side: &str,
                             kept: &[&KeptSummand],
                             assign: &[usize]|
             -> Result<Vec<usize>, CheckError> {
                if assign.len() != kept.len() {
                    return Err(CheckError::new(
                        "class_membership_mismatch",
                        format!(
                            "{side}: {} class assignments for {} kept summands",
                            assign.len(),
                            kept.len()
                        ),
                    ));
                }
                let mut counts = vec![0usize; representatives.len()];
                for (position, (&class, summand)) in assign.iter().zip(kept.iter()).enumerate() {
                    if class >= representatives.len() {
                        return Err(CheckError::new(
                            "class_membership_mismatch",
                            format!("{side} kept summand {position}: class {class} out of range"),
                        ));
                    }
                    let mut mapping = VarMapping::new();
                    if !gx::unify_expr(&representatives[class], &summand.result, &mut mapping) {
                        return Err(CheckError::new(
                            "class_membership_mismatch",
                            format!(
                                "{side} kept summand {position} does not unify with its \
                                 class representative {class}"
                            ),
                        ));
                    }
                    counts[class] += 1;
                }
                Ok(counts)
            };
            let left_recomputed = recompute("left", left_kept, left_assign)?;
            let right_recomputed = recompute("right", right_kept, right_assign)?;
            if &left_recomputed != left_counts || &right_recomputed != right_counts {
                return Err(CheckError::new(
                    "class_count_mismatch",
                    "recorded per-class counts differ from recomputed counts",
                ));
            }
            if left_counts != right_counts {
                return Err(CheckError::new(
                    "class_count_mismatch",
                    "per-class summand counts differ between the two sides",
                ));
            }
            summary.classes_counted += representatives.len();
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Counterexample evidence
// ---------------------------------------------------------------------------

/// The witness half shared by `Counterexample` and `SignatureMismatch`
/// evidence: both result bags are re-computed on the embedded graph and must
/// match the recorded bags, which in turn must differ from each other.
#[allow(clippy::too_many_arguments)]
fn check_witness(
    graph: &crate::cert::GraphCert,
    left_source: &Query,
    left_columns: &[String],
    left_rows: &[Vec<Value>],
    right_source: &Query,
    right_columns: &[String],
    right_rows: &[Vec<Value>],
    summary: &mut CheckSummary,
) -> Result<(), CheckError> {
    let graph = graph
        .build()
        .map_err(|e| CheckError::new("schema_error", format!("invalid graph: {e}")))?;
    check_side_evaluation("left", &graph, left_source, left_columns, left_rows, summary)?;
    check_side_evaluation("right", &graph, right_source, right_columns, right_rows, summary)?;
    let left_bag = QueryResult { columns: left_columns.to_vec(), rows: left_rows.to_vec() };
    let right_bag = QueryResult { columns: right_columns.to_vec(), rows: right_rows.to_vec() };
    if left_bag.bag_equal(&right_bag) {
        return Err(CheckError::new(
            "bags_equal",
            "counterexample result bags are equal; the graph does not distinguish the queries",
        ));
    }
    Ok(())
}

/// Re-infers one side's stage-⓪ signature with the checker's own typing
/// rules ([`sig::infer_signature`]) and compares it to the recorded columns.
fn check_signature(
    side: &str,
    source: &Query,
    recorded: &[crate::cert::SigColumn],
    summary: &mut CheckSummary,
) -> Result<(), CheckError> {
    let inferred = sig::infer_signature(source).ok_or_else(|| {
        CheckError::new(
            "signature_mismatch",
            format!("{side}: the checker infers no static output signature for this query"),
        )
    })?;
    if inferred != recorded {
        return Err(CheckError::new(
            "signature_mismatch",
            format!(
                "{side}: re-inferred signature {inferred:?} differs from recorded {recorded:?}"
            ),
        ));
    }
    summary.signature_columns += inferred.len();
    Ok(())
}

fn check_side_evaluation(
    side: &str,
    graph: &crate::graph::Graph,
    source: &Query,
    columns: &[String],
    rows: &[Vec<Value>],
    summary: &mut CheckSummary,
) -> Result<(), CheckError> {
    let result = evaluate_query(graph, source)
        .map_err(|e| CheckError::new("eval_error", format!("{side} query: {e}")))?;
    if result.columns != columns {
        return Err(CheckError::new(
            "bag_mismatch",
            format!(
                "{side}: evaluated columns {:?} differ from recorded {:?}",
                result.columns, columns
            ),
        ));
    }
    let recorded = QueryResult { columns: columns.to_vec(), rows: rows.to_vec() };
    if !result.bag_equal(&recorded) {
        return Err(CheckError::new(
            "bag_mismatch",
            format!(
                "{side}: evaluated result bag ({} rows) differs from recorded bag ({} rows)",
                result.rows.len(),
                rows.len()
            ),
        ));
    }
    summary.rows_reevaluated += result.rows.len();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{DerivationStep, Evidence, GraphCert, SegmentWitness, SummandsProof};
    use crate::graph::NodeData;
    use crate::gx::{CmpOp, GxAtom, GxTerm, VarId};
    use crate::value::NodeId;
    use cypher_parser::pretty::query_to_string;

    fn query_cert(source: &str) -> QueryCert {
        let parsed = parse_query(source).expect("test query parses");
        let trace = rules::normalize_with_trace(&parsed);
        let normalized = trace.last().map_or(&parsed, |step| &step.after);
        QueryCert {
            source: query_to_string(&parsed),
            steps: trace
                .iter()
                .map(|step| DerivationStep {
                    rule: step.rule.to_string(),
                    part: step.part,
                    clause: step.clause,
                    after: query_to_string(&step.after),
                })
                .collect(),
            normalized: query_to_string(normalized),
        }
    }

    fn identical_cert(left: &str, right: &str) -> Certificate {
        Certificate {
            version: CERTIFICATE_VERSION,
            verdict: CertVerdict::Equivalent,
            left: query_cert(left),
            right: query_cert(right),
            evidence: Evidence::Equivalence {
                column_permutation: vec![0],
                permuted_right: None,
                segments: vec![SegmentWitness {
                    left: Gx::One,
                    right: Gx::One,
                    proof: Proof::Identical,
                }],
            },
        }
    }

    #[test]
    fn accepts_identity_equivalence() {
        let cert = identical_cert(
            "MATCH (n) WHERE n.age > 1 RETURN n",
            "MATCH (m) WHERE m.age > 1 RETURN m",
        );
        let summary = check_certificate(&cert).expect("certificate checks");
        assert_eq!(summary.segments, 1);
    }

    #[test]
    fn rejects_dropped_derivation_step() {
        let mut cert = identical_cert("MATCH (a)-[r]-(b) RETURN a", "MATCH (a)-[r]-(b) RETURN a");
        // The undirected pattern guarantees at least one recorded rule.
        assert!(!cert.left.steps.is_empty(), "test premise: derivation is non-empty");
        cert.left.steps.remove(0);
        let err = check_certificate(&cert).unwrap_err();
        assert_eq!(err.code, "derivation_mismatch");
    }

    #[test]
    fn rejects_identical_claim_on_different_trees() {
        let mut cert = identical_cert("MATCH (n) RETURN n", "MATCH (n) RETURN n");
        if let Evidence::Equivalence { segments, .. } = &mut cert.evidence {
            segments[0].right = Gx::Zero;
        }
        let err = check_certificate(&cert).unwrap_err();
        assert_eq!(err.code, "identical_mismatch");
    }

    #[test]
    fn rejects_invalid_permutation() {
        let mut cert = identical_cert("MATCH (n) RETURN n", "MATCH (n) RETURN n");
        if let Evidence::Equivalence { column_permutation, .. } = &mut cert.evidence {
            *column_permutation = vec![1];
        }
        let err = check_certificate(&cert).unwrap_err();
        assert_eq!(err.code, "permutation_invalid");
    }

    #[test]
    fn checks_bijection_under_shared_mapping() {
        // left: x1 ⋅ [x1.a = x2.a], right: y7 ⋅ [y7.a = y9.a] — unifiable.
        let atom = |a: u32, b: u32| {
            Gx::Atom(GxAtom::Cmp(
                CmpOp::Eq,
                GxTerm::Prop(Box::new(GxTerm::Var(VarId(a))), "a".into()),
                GxTerm::Prop(Box::new(GxTerm::Var(VarId(b))), "a".into()),
            ))
        };
        let left = Gx::Add(vec![atom(1, 2)]);
        let right = Gx::Add(vec![atom(7, 9)]);
        let proof = Proof::Summands(Box::new(SummandsProof {
            left: SideSummands {
                total: 1,
                zero_pruned: vec![],
                kept: vec![KeptSummand { index: 0, removed_atoms: vec![], result: atom(1, 2) }],
            },
            right: SideSummands {
                total: 1,
                zero_pruned: vec![],
                kept: vec![KeptSummand { index: 0, removed_atoms: vec![], result: atom(7, 9) }],
            },
            matching: Matching::Bijection(vec![(0, 0)]),
        }));
        let mut summary = CheckSummary::default();
        check_proof(&left, &right, &proof, &mut summary).expect("bijection unifies");
        assert_eq!(summary.summands_matched, 1);
    }

    #[test]
    fn rejects_counterexample_with_equal_bags() {
        let left = query_cert("MATCH (n) RETURN n");
        let right = query_cert("MATCH (n) RETURN n");
        let cert = Certificate {
            version: CERTIFICATE_VERSION,
            verdict: CertVerdict::NotEquivalent,
            left,
            right,
            evidence: Evidence::Counterexample {
                graph: GraphCert { nodes: vec![NodeData::default()], relationships: vec![] },
                pool_index: 0,
                left_columns: vec!["n".into()],
                left_rows: vec![vec![Value::Node(NodeId(0))]],
                right_columns: vec!["n".into()],
                right_rows: vec![vec![Value::Node(NodeId(0))]],
            },
        };
        let err = check_certificate(&cert).unwrap_err();
        assert_eq!(err.code, "bags_equal");
    }

    #[test]
    fn rejects_tampered_bag_row() {
        let left = query_cert("MATCH (n) RETURN n.k");
        let right = query_cert("MATCH (n) WHERE n.k = 1 RETURN n.k");
        let cert = Certificate {
            version: CERTIFICATE_VERSION,
            verdict: CertVerdict::NotEquivalent,
            left,
            right,
            evidence: Evidence::Counterexample {
                graph: GraphCert { nodes: vec![NodeData::default()], relationships: vec![] },
                pool_index: 0,
                // The node has no `k` property: left yields one NULL row,
                // right yields nothing. Tamper: record an integer instead.
                left_columns: vec!["n.k".into()],
                left_rows: vec![vec![Value::Integer(42)]],
                right_columns: vec!["n.k".into()],
                right_rows: vec![],
            },
        };
        let err = check_certificate(&cert).unwrap_err();
        assert_eq!(err.code, "bag_mismatch");
    }

    fn signature_cert(
        left: &str,
        right: &str,
        left_ty: (&str, &str, bool),
        right_ty: (&str, &str, bool),
        left_rows: Vec<Vec<Value>>,
        right_rows: Vec<Vec<Value>>,
    ) -> Certificate {
        let column = |(name, ty, nullable): (&str, &str, bool)| crate::cert::SigColumn {
            name: name.to_string(),
            ty: ty.to_string(),
            nullable,
        };
        Certificate {
            version: CERTIFICATE_VERSION,
            verdict: CertVerdict::NotEquivalent,
            left: query_cert(left),
            right: query_cert(right),
            evidence: Evidence::SignatureMismatch {
                left_signature: vec![column(left_ty)],
                right_signature: vec![column(right_ty)],
                graph: GraphCert { nodes: vec![], relationships: vec![] },
                pool_index: 0,
                left_columns: vec!["x".into()],
                left_rows,
                right_columns: vec!["x".into()],
                right_rows,
            },
        }
    }

    #[test]
    fn accepts_signature_mismatch_with_witness() {
        let cert = signature_cert(
            "RETURN 1 AS x",
            "RETURN 'a' AS x",
            ("x", "Integer", false),
            ("x", "String", false),
            vec![vec![Value::Integer(1)]],
            vec![vec![Value::String("a".into())]],
        );
        let summary = check_certificate(&cert).expect("discriminating signatures plus witness");
        assert_eq!(summary.signature_columns, 2);
    }

    #[test]
    fn rejects_signature_evidence_when_signatures_are_compatible() {
        // Both sides re-infer as (Integer, non-null): the recorded signatures
        // are honest but admit a bijection, so they prove nothing.
        let cert = signature_cert(
            "RETURN 1 AS x",
            "RETURN 2 AS x",
            ("x", "Integer", false),
            ("x", "Integer", false),
            vec![vec![Value::Integer(1)]],
            vec![vec![Value::Integer(2)]],
        );
        let err = check_certificate(&cert).unwrap_err();
        assert_eq!(err.code, "signatures_compatible");
    }

    #[test]
    fn rejects_signature_evidence_with_tampered_type() {
        // The left side really infers Integer; recording Float is a tamper
        // the checker catches by re-running inference itself.
        let cert = signature_cert(
            "RETURN 1 AS x",
            "RETURN 'a' AS x",
            ("x", "Float", false),
            ("x", "String", false),
            vec![vec![Value::Integer(1)]],
            vec![vec![Value::String("a".into())]],
        );
        let err = check_certificate(&cert).unwrap_err();
        assert_eq!(err.code, "signature_mismatch");
    }

    #[test]
    fn rejects_signature_evidence_with_equal_bags() {
        // Signatures discriminate, but both queries yield the empty bag on
        // the empty graph — the witness requirement is not waived by a
        // signature mismatch.
        let cert = signature_cert(
            "MATCH (n) RETURN n AS x",
            "MATCH (n) RETURN 1 AS x",
            ("x", "Node", false),
            ("x", "Integer", false),
            vec![],
            vec![],
        );
        let err = check_certificate(&cert).unwrap_err();
        assert_eq!(err.code, "bags_equal");
    }
}
