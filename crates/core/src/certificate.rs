//! Proof-certificate emission.
//!
//! Every EQUIVALENT or NOT_EQUIVALENT verdict can be accompanied by a
//! machine-checkable [`Certificate`] (schema owned by the dependency-free
//! `graphqe-checker` crate). Evidence is a mode of the one prove pipeline,
//! not a second implementation of it:
//!
//! - the stage-② derivation comes from the normalizer's one fixpoint loop
//!   run with a [`cypher_normalizer::DerivationStep`] recorder (rule id +
//!   position per step, replayable by the checker's own rule mirror). It is
//!   memoized per query next to the build in [`crate::NormalizedStages`] —
//!   the stage-② record of the query text's parse-cache entry — so
//!   each query's derivation is recorded once, by the first certificate that
//!   needs it, and proving never pays for it;
//! - the stage-④ witness comes from proving the normalized pair once more in
//!   evidence mode: the same divide-and-conquer split and return-element
//!   permutation loop as every prove, with the arena decision recording what
//!   it decided ([`liastar::try_check_equivalence_recording`]: summand split,
//!   isomorphism pairing or class counts, per-summand SMT obligations). On
//!   warm caches that re-prove is a few cache probes;
//! - the NOT_EQUIVALENT bags come from the evaluator
//!   ([`property_graph::evaluate_query`]) on the verdict's counterexample
//!   graph.
//!
//! Emission runs under [`limits::without_token`]: a deadline configured for
//! the *proof* must not trip the evidence-mode re-prove, which is bounded by
//! the same work the proof already did.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cypher_parser::ast::Query;
use cypher_parser::pretty::query_to_string;
use gexpr::{GAggKind, GAtom, GConst, GExpr, GTerm};
use graphqe_checker::cert::{
    CertVerdict, DerivationStep, Evidence, GraphCert, KeptSummand, Matching, Proof, QueryCert,
    SegmentWitness, SideSummands, SigColumn, SummandsProof, CERTIFICATE_VERSION,
};
use graphqe_checker::graph as checker_graph;
use graphqe_checker::gx::{AggKind, CmpOp, Gx, GxAtom, GxConst, GxTerm, VarId};
use graphqe_checker::value::{NodeId, RelId, Value};
use graphqe_checker::Certificate;
use liastar::witness::{MatchingRecord, ProofRecord, SegmentRecord, SideRecord};
use property_graph::{EntityId, PropertyGraph};

use crate::verdict::{FailureCategory, Verdict};
use crate::{GraphQE, NormalizedStages, ProofStats};

/// What a prove in evidence mode records: the decision witness of each
/// proved segment (one for a whole-query proof) and the column alignment
/// the proof closed under.
#[derive(Debug, Default)]
pub(crate) struct EvidenceLog {
    segments: Vec<SegmentRecord>,
    /// The column permutation applied to the right query.
    pub(crate) permutation: Vec<usize>,
    /// The permuted right query, when the permutation is not the identity.
    pub(crate) permuted_right: Option<Query>,
}

impl EvidenceLog {
    /// Appends one proved segment with the alignment it was proved under.
    pub(crate) fn push(
        &mut self,
        segment: SegmentRecord,
        permutation: Vec<usize>,
        permuted_right: Option<Query>,
    ) {
        self.segments.push(segment);
        self.permutation = permutation;
        self.permuted_right = permuted_right;
    }
}

// ---------------------------------------------------------------------------
// Process-wide emission counters
// ---------------------------------------------------------------------------

static CERT_EMITTED: AtomicU64 = AtomicU64::new(0);
static CERT_CHECK_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(emitted, check_failures)` certificate counters.
///
/// `emitted` counts successfully produced certificates;
/// `check_failures` counts pairs downgraded to
/// [`FailureCategory::CertificateInvalid`] because emission failed or the
/// independent checker rejected the artifact while checking was requested.
pub fn certificate_counters() -> (u64, u64) {
    (CERT_EMITTED.load(Ordering::Relaxed), CERT_CHECK_FAILURES.load(Ordering::Relaxed))
}

impl GraphQE {
    /// Emits the certificate for a definite `verdict` on `(q1, q2)`.
    ///
    /// The evidence comes from the prove pipeline in evidence mode (see the
    /// module docs) on the normalized queries, whatever this prover's
    /// `normalize` and `use_tree_normalizer` settings: the checker always
    /// replays the full Table II fixpoint, and only the arena decision
    /// records witnesses. So this works for verdicts produced by any prove
    /// path, cold or warm, and the artifact does not depend on cache state.
    /// Errors are descriptive strings; an `Unknown` verdict has no
    /// certificate by definition.
    pub fn certificate_for(
        &self,
        q1: &str,
        q2: &str,
        verdict: &Verdict,
    ) -> Result<Certificate, String> {
        let cert = limits::without_token(|| self.certificate_for_inner(q1, q2, verdict))?;
        CERT_EMITTED.fetch_add(1, Ordering::Relaxed);
        Ok(cert)
    }

    /// [`GraphQE::prove`] plus certificate emission, and (with `check`) an
    /// independent validation of the emitted artifact.
    ///
    /// `Unknown` verdicts pass through with no certificate. For a definite
    /// verdict whose certificate cannot be emitted, or is emitted but fails
    /// the independent checker, the pair is downgraded to
    /// `Unknown(CertificateInvalid)` when `check` is requested — a verdict
    /// whose evidence does not validate is not a verdict this API stands
    /// behind. Without `check`, emission failures surface as a missing
    /// certificate and the verdict stands.
    pub fn prove_certified(
        &self,
        q1: &str,
        q2: &str,
        check: bool,
    ) -> (Verdict, Option<Certificate>) {
        let verdict = self.prove(q1, q2);
        self.certify_verdict(q1, q2, verdict, check)
    }

    /// The certification half of [`GraphQE::prove_certified`], for callers
    /// that already hold a verdict (batch frontends certify after the batch).
    pub fn certify_verdict(
        &self,
        q1: &str,
        q2: &str,
        verdict: Verdict,
        check: bool,
    ) -> (Verdict, Option<Certificate>) {
        if verdict.is_unknown() {
            return (verdict, None);
        }
        match self.certificate_for(q1, q2, &verdict) {
            Ok(cert) => {
                if check {
                    if let Err(error) = graphqe_checker::check_certificate(&cert) {
                        CERT_CHECK_FAILURES.fetch_add(1, Ordering::Relaxed);
                        return (
                            Verdict::Unknown {
                                category: FailureCategory::CertificateInvalid,
                                reason: format!("certificate failed validation: {error}"),
                            },
                            Some(cert),
                        );
                    }
                }
                (verdict, Some(cert))
            }
            Err(reason) => {
                if check {
                    CERT_CHECK_FAILURES.fetch_add(1, Ordering::Relaxed);
                    (
                        Verdict::Unknown {
                            category: FailureCategory::CertificateInvalid,
                            reason: format!("certificate emission failed: {reason}"),
                        },
                        None,
                    )
                } else {
                    (verdict, None)
                }
            }
        }
    }

    fn certificate_for_inner(
        &self,
        q1: &str,
        q2: &str,
        verdict: &Verdict,
    ) -> Result<Certificate, String> {
        let stages1 = self.certificate_stages(q1).map_err(|e| format!("left query: {e}"))?;
        let stages2 = self.certificate_stages(q2).map_err(|e| format!("right query: {e}"))?;
        let (cert_verdict, evidence) = match verdict {
            Verdict::Equivalent(_) => {
                let mut log = EvidenceLog::default();
                self.prove_normalized(
                    &stages1,
                    &stages2,
                    &mut ProofStats::default(),
                    Some(&mut log),
                )
                .map_err(|unproved| format!("no equivalence witness: {}", unproved.reason()))?;
                let evidence = Evidence::Equivalence {
                    column_permutation: log.permutation,
                    permuted_right: log.permuted_right.as_ref().map(query_to_string),
                    segments: log.segments.iter().map(segment_of).collect(),
                };
                (CertVerdict::Equivalent, evidence)
            }
            Verdict::NotEquivalent(example) => (
                CertVerdict::NotEquivalent,
                counterexample_evidence(
                    &stages1.source,
                    &stages2.source,
                    &example.graph,
                    example.pool_index,
                )?,
            ),
            Verdict::Unknown { .. } => {
                return Err("an unknown verdict carries no certificate".to_string())
            }
        };
        Ok(Certificate {
            version: CERTIFICATE_VERSION,
            verdict: cert_verdict,
            left: stages1.query_cert().clone(),
            right: stages2.query_cert().clone(),
            evidence,
        })
    }

    /// Stages ① and ② of one query for emission, through the caches this
    /// prover uses. A prover with either cache off gets one-shot stages of
    /// the same shape.
    fn certificate_stages(&self, text: &str) -> Result<Arc<NormalizedStages>, String> {
        let entry = self.parse_checked(text).map_err(|e| e.to_string())?;
        self.stages_of(&entry, true).map_err(|trip| trip.to_string())
    }
}

/// The per-query attestation: pretty-printed source, the full normalization
/// derivation, and the fixpoint.
pub(crate) fn query_cert(source: &Query) -> QueryCert {
    let mut steps: Vec<cypher_normalizer::DerivationStep> = Vec::new();
    let normalized = cypher_normalizer::normalize_query_with(source, &mut steps);
    QueryCert {
        source: query_to_string(source),
        steps: steps
            .iter()
            .map(|step| DerivationStep {
                rule: step.rule.to_string(),
                part: step.part,
                clause: step.clause,
                after: query_to_string(&step.after),
            })
            .collect(),
        normalized: query_to_string(&normalized),
    }
}

/// The NOT_EQUIVALENT evidence: the counterexample graph plus both result
/// bags, re-computed on the **original** queries by the evaluator (whose
/// semantics — including `LIMIT` without `ORDER BY` production order — the
/// checker's evaluator re-implements).
fn counterexample_evidence(
    q1: &Query,
    q2: &Query,
    graph: &PropertyGraph,
    pool_index: usize,
) -> Result<Evidence, String> {
    let left =
        property_graph::evaluate_query(graph, q1).map_err(|e| format!("left evaluation: {e}"))?;
    let right =
        property_graph::evaluate_query(graph, q2).map_err(|e| format!("right evaluation: {e}"))?;
    let left_rows = left.rows.iter().map(|row| row.iter().map(value_of).collect()).collect();
    let right_rows = right.rows.iter().map(|row| row.iter().map(value_of).collect()).collect();
    // When the stage-⓪ signatures discriminate the pair, the certificate
    // records them alongside the witness (the richer `signature_mismatch`
    // evidence kind); the checker then re-infers both signatures on top of
    // re-evaluating the witness. Recomputed here rather than threaded from
    // the verdict so emission works for any prove path (including warm
    // cached proves and verdicts from an analyzer-off prover).
    let signatures = signature_pair(q1, q2);
    Ok(match signatures {
        Some((left_signature, right_signature)) => Evidence::SignatureMismatch {
            left_signature,
            right_signature,
            graph: graph_cert_of(graph),
            pool_index,
            left_columns: left.columns,
            left_rows,
            right_columns: right.columns,
            right_rows,
        },
        None => Evidence::Counterexample {
            graph: graph_cert_of(graph),
            pool_index,
            left_columns: left.columns,
            left_rows,
            right_columns: right.columns,
            right_rows,
        },
    })
}

/// The two analyzer signatures in the checker's wire form, when the
/// analysis succeeds on both sides **and** the signatures discriminate —
/// the only situation the `signature_mismatch` evidence kind describes.
fn signature_pair(q1: &Query, q2: &Query) -> Option<(Vec<SigColumn>, Vec<SigColumn>)> {
    let left = graphqe_analyzer::analyze(q1).ok()?.signature?;
    let right = graphqe_analyzer::analyze(q2).ok()?.signature?;
    if !graphqe_analyzer::signatures_discriminate(&left, &right) {
        return None;
    }
    let wire = |signature: Vec<graphqe_analyzer::TypeSig>| {
        signature
            .into_iter()
            .map(|column| SigColumn {
                name: column.name,
                ty: column.ty.to_string(),
                nullable: column.nullable,
            })
            .collect()
    };
    Some((wire(left), wire(right)))
}

// ---------------------------------------------------------------------------
// Type bridges into the checker's mirrored language
// ---------------------------------------------------------------------------

/// The checker's wire form of `graph`: nodes and relationships in id order,
/// so [`GraphCert::build`] reproduces every id.
pub fn graph_cert_of(graph: &PropertyGraph) -> GraphCert {
    let properties = |entity| {
        graph
            .properties(entity)
            .iter()
            .map(|(key, value)| (graph.names().name(*key).to_string(), value_of(value)))
            .collect()
    };
    GraphCert {
        nodes: graph
            .node_ids()
            .map(|id| checker_graph::NodeData {
                labels: graph.label_names(id).map(str::to_string).collect(),
                properties: properties(EntityId::Node(id)),
            })
            .collect(),
        relationships: graph
            .relationship_ids()
            .map(|id| {
                let rel = graph.relationship(id);
                checker_graph::RelData {
                    label: graph.rel_type_name(id).to_string(),
                    source: NodeId(rel.source.0),
                    target: NodeId(rel.target.0),
                    properties: properties(EntityId::Relationship(id)),
                }
            })
            .collect(),
    }
}

/// The checker's form of an evaluator value (same variant, same payload).
pub fn value_of(value: &property_graph::Value) -> Value {
    match value {
        property_graph::Value::Null => Value::Null,
        property_graph::Value::Boolean(b) => Value::Boolean(*b),
        property_graph::Value::Integer(i) => Value::Integer(*i),
        property_graph::Value::Float(f) => Value::Float(*f),
        property_graph::Value::String(s) => Value::String(s.clone()),
        property_graph::Value::List(items) => Value::List(items.iter().map(value_of).collect()),
        property_graph::Value::Map(map) => {
            Value::Map(map.iter().map(|(k, v)| (k.clone(), value_of(v))).collect())
        }
        property_graph::Value::Node(id) => Value::Node(NodeId(id.0)),
        property_graph::Value::Relationship(id) => Value::Relationship(RelId(id.0)),
        property_graph::Value::Path(items) => Value::Path(items.iter().map(value_of).collect()),
    }
}

fn segment_of(record: &SegmentRecord) -> SegmentWitness {
    SegmentWitness {
        left: gx_of(&record.left),
        right: gx_of(&record.right),
        proof: proof_of(&record.proof),
    }
}

fn proof_of(record: &ProofRecord) -> Proof {
    match record {
        ProofRecord::Identical => Proof::Identical,
        ProofRecord::Peel(inner) => Proof::Peel(Box::new(proof_of(inner))),
        ProofRecord::Summands(summands) => Proof::Summands(Box::new(SummandsProof {
            left: side_of(&summands.left),
            right: side_of(&summands.right),
            matching: matching_of(&summands.matching),
        })),
    }
}

fn side_of(record: &SideRecord) -> SideSummands {
    SideSummands {
        total: record.total,
        zero_pruned: record.zero_pruned.clone(),
        kept: record
            .kept
            .iter()
            .map(|kept| KeptSummand {
                index: kept.index,
                removed_atoms: kept.removed_atoms.iter().map(gx_of).collect(),
                result: gx_of(&kept.result),
            })
            .collect(),
    }
}

fn matching_of(record: &MatchingRecord) -> Matching {
    match record {
        MatchingRecord::Bijection(pairs) => Matching::Bijection(pairs.clone()),
        MatchingRecord::Classes {
            representatives,
            left_assign,
            right_assign,
            left_counts,
            right_counts,
        } => Matching::Classes {
            representatives: representatives.iter().map(gx_of).collect(),
            left_assign: left_assign.clone(),
            right_assign: right_assign.clone(),
            left_counts: left_counts.clone(),
            right_counts: right_counts.clone(),
        },
    }
}

fn gx_of(expr: &GExpr) -> Gx {
    match expr {
        GExpr::Zero => Gx::Zero,
        GExpr::One => Gx::One,
        GExpr::Const(n) => Gx::Const(*n),
        GExpr::Atom(atom) => Gx::Atom(atom_of(atom)),
        GExpr::NodeFn(t) => Gx::NodeFn(term_of(t)),
        GExpr::RelFn(t) => Gx::RelFn(term_of(t)),
        GExpr::LabFn(t, label) => Gx::LabFn(term_of(t), label.clone()),
        GExpr::Unbounded(t) => Gx::Unbounded(term_of(t)),
        GExpr::Mul(items) => Gx::Mul(items.iter().map(gx_of).collect()),
        GExpr::Add(items) => Gx::Add(items.iter().map(gx_of).collect()),
        GExpr::Squash(inner) => Gx::Squash(Box::new(gx_of(inner))),
        GExpr::Not(inner) => Gx::Not(Box::new(gx_of(inner))),
        GExpr::Sum { vars, body } => {
            Gx::Sum { vars: vars.iter().map(|v| VarId(v.0)).collect(), body: Box::new(gx_of(body)) }
        }
    }
}

fn atom_of(atom: &GAtom) -> GxAtom {
    match atom {
        GAtom::Cmp(op, a, b) => GxAtom::Cmp(cmp_of(*op), term_of(a), term_of(b)),
        GAtom::IsNull(t, negated) => GxAtom::IsNull(term_of(t), *negated),
        GAtom::Pred(name, args) => GxAtom::Pred(name.clone(), args.iter().map(term_of).collect()),
    }
}

fn term_of(term: &GTerm) -> GxTerm {
    match term {
        GTerm::Var(v) => GxTerm::Var(VarId(v.0)),
        GTerm::OutCol(i) => GxTerm::OutCol(*i),
        GTerm::Prop(base, key) => GxTerm::Prop(Box::new(term_of(base)), key.clone()),
        GTerm::Const(c) => GxTerm::Const(const_of(c)),
        GTerm::App(name, args) => GxTerm::App(name.clone(), args.iter().map(term_of).collect()),
        GTerm::Agg { kind, distinct, arg, group } => GxTerm::Agg {
            kind: agg_of(*kind),
            distinct: *distinct,
            arg: Box::new(term_of(arg)),
            group: Box::new(gx_of(group)),
        },
    }
}

fn const_of(c: &GConst) -> GxConst {
    match c {
        GConst::Integer(i) => GxConst::Integer(*i),
        GConst::Float(f) => GxConst::Float(*f),
        GConst::String(s) => GxConst::String(s.clone()),
        GConst::Boolean(b) => GxConst::Boolean(*b),
        GConst::Null => GxConst::Null,
    }
}

/// Enum-to-enum: the prover's wire names are uppercase (`COUNT`), the
/// checker's lowercase, so mapping by name would silently skew.
fn agg_of(kind: GAggKind) -> AggKind {
    match kind {
        GAggKind::Count => AggKind::Count,
        GAggKind::Sum => AggKind::Sum,
        GAggKind::Min => AggKind::Min,
        GAggKind::Max => AggKind::Max,
        GAggKind::Avg => AggKind::Avg,
        GAggKind::Collect => AggKind::Collect,
    }
}

fn cmp_of(op: gexpr::CmpOp) -> CmpOp {
    match op {
        gexpr::CmpOp::Eq => CmpOp::Eq,
        gexpr::CmpOp::Neq => CmpOp::Neq,
        gexpr::CmpOp::Lt => CmpOp::Lt,
        gexpr::CmpOp::Le => CmpOp::Le,
        gexpr::CmpOp::Gt => CmpOp::Gt,
        gexpr::CmpOp::Ge => CmpOp::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphqe_checker::check_certificate;

    #[test]
    fn equivalent_verdicts_yield_checkable_certificates() {
        let prover = GraphQE::new();
        let pairs = [
            ("MATCH (a) RETURN a", "MATCH (b) RETURN b"),
            ("MATCH (a)-[r:READ]->(b) RETURN a.name", "MATCH (b)<-[r:READ]-(a) RETURN a.name"),
            ("MATCH (n1)-[r:READ]->(n2) RETURN n1, n2", "MATCH (n1)<-[r:READ]-(n2) RETURN n2, n1"),
        ];
        for (q1, q2) in pairs {
            let (verdict, cert) = prover.prove_certified(q1, q2, true);
            assert!(verdict.is_equivalent(), "{q1} vs {q2}: {verdict}");
            let cert = cert.expect("certificate emitted");
            let summary = check_certificate(&cert).expect("certificate validates");
            assert!(summary.segments >= 1);
        }
    }

    #[test]
    fn not_equivalent_verdicts_yield_checkable_certificates() {
        let prover = GraphQE::new();
        let (verdict, cert) = prover.prove_certified(
            "MATCH (n:Person) WHERE n.age = 59 RETURN n.name",
            "MATCH (n:Person) WHERE n.age = 60 RETURN n.name",
            true,
        );
        assert!(verdict.is_not_equivalent(), "{verdict}");
        let cert = cert.expect("certificate emitted");
        let summary = check_certificate(&cert).expect("certificate validates");
        assert!(summary.rows_reevaluated >= 1);
        // The artifact survives a JSON round trip bit-exactly.
        let back = Certificate::from_json(&cert.to_json()).expect("round trip");
        assert_eq!(back, cert);
    }

    #[test]
    fn divide_and_conquer_proofs_are_certified_per_segment() {
        let prover = GraphQE::new();
        let (verdict, cert) = prover.prove_certified(
            "MATCH (n1) WITH n1 ORDER BY n1.p1 LIMIT 1 MATCH (n1)-[]->(n2) RETURN n2",
            "MATCH (n1) WITH n1 ORDER BY n1.p1 LIMIT 1 MATCH (n2)<-[]-(n1) RETURN n2",
            true,
        );
        assert!(verdict.is_equivalent(), "{verdict}");
        let cert = cert.expect("certificate emitted");
        let summary = check_certificate(&cert).expect("certificate validates");
        assert!(summary.segments >= 2, "expected a multi-segment witness");
    }

    #[test]
    fn unknown_verdicts_carry_no_certificate() {
        let prover = GraphQE { search_counterexamples: false, ..GraphQE::new() };
        let (verdict, cert) = prover.prove_certified(
            "MATCH (n) RETURN SUM(n.a) / COUNT(n)",
            "MATCH (n) RETURN SUM(n.a) / COUNT(n)",
            true,
        );
        assert!(verdict.is_unknown());
        assert!(cert.is_none());
    }

    #[test]
    fn checking_downgrades_when_evidence_cannot_be_rederived() {
        // Lie about the verdict: a NOT_EQUIVALENT pair presented as
        // EQUIVALENT has no witness, so emission fails and checking
        // downgrades the pair instead of standing behind it.
        let prover = GraphQE::new();
        let q1 = "MATCH (a:Person)-[r:READ]->(b) RETURN a.name";
        let q2 = "MATCH (a:Person)<-[r:READ]-(b) RETURN a.name";
        let fake = Verdict::Equivalent(crate::ProofStats::default());
        let before = certificate_counters().1;
        let (downgraded, cert) = prover.certify_verdict(q1, q2, fake, true);
        assert_eq!(
            downgraded.failure_category(),
            Some(FailureCategory::CertificateInvalid),
            "{downgraded}"
        );
        assert!(cert.is_none());
        assert!(certificate_counters().1 > before);
    }
}
