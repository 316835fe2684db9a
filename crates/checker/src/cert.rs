//! The certificate data model and its JSON wire format.
//!
//! The checker crate owns the schema: the prover emits certificates by
//! encoding into this exact format, and any divergence is a checker rejection
//! rather than a silent skew. The encoding is deliberately exact — integers
//! ride as JSON numbers within `i64`, floats as tagged `{"f": "<repr>"}`
//! strings using Rust's round-tripping `{:?}` representation (see
//! [`crate::json`]).
//!
//! [`Certificate::to_json`] writes compact JSON, with no whitespace and the
//! members of every object in one fixed order, so a certificate has exactly
//! one encoding. [`Certificate::from_json`] looks members up by name: it
//! accepts any member order and any whitespace and ignores unknown members,
//! but rejects a member name repeated within an object, a node,
//! relationship or variable id beyond `u32`, and trees nested deeper than
//! [`MAX_NESTING`] (256) levels.

use crate::graph::{Graph, NodeData, RelData};
use crate::gx::{AggKind, CmpOp, Gx, GxAtom, GxConst, GxTerm, VarId};
use crate::json::{self, Elements, JsonRef, Tape};
use crate::value::{NodeId, RelId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The deepest nesting a certificate's trees may reach; [`Certificate::from_json`]
/// rejects anything deeper before its decoders recurse further.
///
/// Each G-expression, atom, term, runtime value and proof step is one level,
/// counted from the root of a segment's tree, of a segment's proof (a proof's
/// summand trees nest inside it), of a result row's value, and of a graph
/// property's value. The bound sits well above what the prover emits for the
/// queries the parser accepts ([`cypher_parser::MAX_NESTING`] levels), and
/// keeps the decoders' and the checker's recursion within a 2 MiB stack.
pub const MAX_NESTING: usize = 256;

/// The schema version this crate reads and writes.
///
/// Version 2 added the `signature_mismatch` evidence kind (stage-⓪ inferred
/// output signatures alongside the concrete witness).
pub const CERTIFICATE_VERSION: i64 = 2;

/// The verdict a certificate attests to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertVerdict {
    /// The two queries are equivalent on all graphs.
    Equivalent,
    /// The two queries differ on the embedded counterexample graph.
    NotEquivalent,
}

impl CertVerdict {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            CertVerdict::Equivalent => "equivalent",
            CertVerdict::NotEquivalent => "not_equivalent",
        }
    }
}

/// One recorded normalization step (rule ① – ⑥ of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct DerivationStep {
    /// Stable rule identifier (see [`crate::rules::rule_names`]).
    pub rule: String,
    /// Index of the first union part the step changed.
    pub part: usize,
    /// Index of the first clause changed inside that part.
    pub clause: usize,
    /// Pretty-printed query after the step.
    pub after: String,
}

/// Per-query attestation: source text plus the full normalization derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCert {
    /// The original query, pretty-printed after parsing.
    pub source: String,
    /// Every rule application of the normalization fixpoint, in order.
    pub steps: Vec<DerivationStep>,
    /// The pretty-printed normalized query (must equal the final step).
    pub normalized: String,
}

/// One summand kept after zero-pruning, with its simplification record.
#[derive(Debug, Clone, PartialEq)]
pub struct KeptSummand {
    /// Index into the original summand list of this side.
    pub index: usize,
    /// Atoms removed as SMT-implied by the remaining factors (in removal
    /// order). Their implication is a trusted obligation; their *removal*
    /// is structurally re-checked.
    pub removed_atoms: Vec<Gx>,
    /// The simplified summand the matching operates on.
    pub result: Gx,
}

/// One side's summand accounting inside a [`SummandsProof`].
#[derive(Debug, Clone, PartialEq)]
pub struct SideSummands {
    /// Total number of summands before pruning.
    pub total: usize,
    /// Indices pruned as SMT-unsatisfiable (trusted obligations).
    pub zero_pruned: Vec<usize>,
    /// The summands that survived, with their simplification records.
    pub kept: Vec<KeptSummand>,
}

/// How the kept summands of the two sides were matched.
#[derive(Debug, Clone, PartialEq)]
pub enum Matching {
    /// A one-to-one pairing `(left kept index, right kept index)` unifiable
    /// under a single shared variable renaming, applied in order.
    Bijection(Vec<(usize, usize)>),
    /// Isomorphism-class counting: each kept summand is assigned to a
    /// representative class; equivalence holds because the per-class counts
    /// agree on both sides.
    Classes {
        /// Class representative expressions.
        representatives: Vec<Gx>,
        /// Class index of each left kept summand.
        left_assign: Vec<usize>,
        /// Class index of each right kept summand.
        right_assign: Vec<usize>,
        /// Recorded per-class summand counts on the left.
        left_counts: Vec<usize>,
        /// Recorded per-class summand counts on the right.
        right_counts: Vec<usize>,
    },
}

/// The summand-level proof of one squash-peeled level.
#[derive(Debug, Clone, PartialEq)]
pub struct SummandsProof {
    /// Left side accounting.
    pub left: SideSummands,
    /// Right side accounting.
    pub right: SideSummands,
    /// The matching establishing bag equality of the kept summands.
    pub matching: Matching,
}

/// Proof that a segment's two G-expressions denote the same bag.
#[derive(Debug, Clone, PartialEq)]
pub enum Proof {
    /// The two trees are structurally identical after normalization.
    Identical,
    /// Both sides are squashes; equality follows from the bodies' equality.
    Peel(Box<Proof>),
    /// Summand decomposition, simplification and matching.
    Summands(Box<SummandsProof>),
}

/// The witness for one divide-and-conquer segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentWitness {
    /// Normalized G-expression tree of the left segment.
    pub left: Gx,
    /// Normalized G-expression tree of the right segment.
    pub right: Gx,
    /// The proof relating them.
    pub proof: Proof,
}

/// A serialized counterexample graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphCert {
    /// Nodes in id order.
    pub nodes: Vec<NodeData>,
    /// Relationships in id order.
    pub relationships: Vec<RelData>,
}

impl GraphCert {
    /// Materializes the certificate graph into an evaluable [`Graph`].
    pub fn build(&self) -> Result<Graph, String> {
        let mut graph = Graph::new();
        for node in &self.nodes {
            graph.add_node(node.clone());
        }
        for rel in &self.relationships {
            graph.add_relationship(rel.clone())?;
        }
        Ok(graph)
    }
}

/// One column of a stage-⓪ inferred output signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigColumn {
    /// Column name (alias or textual form of the projected expression).
    pub name: String,
    /// Stable type-lattice name (`"Integer"`, `"Node"`, `"Any"`, …) as
    /// parsed by [`crate::sig::SigType::from_name`].
    pub ty: String,
    /// Whether the column can evaluate to `NULL` on some graph.
    pub nullable: bool,
}

/// Verdict-specific evidence.
#[derive(Debug, Clone, PartialEq)]
pub enum Evidence {
    /// EQUIVALENT: per-segment tree witnesses under a column permutation.
    Equivalence {
        /// The permutation applied to the right query's `RETURN` items
        /// (`column_permutation[i]` is the right column placed at position
        /// `i`). Identity when no reordering was needed.
        column_permutation: Vec<usize>,
        /// Pretty-printed right query after applying the permutation; absent
        /// when the permutation is the identity.
        permuted_right: Option<String>,
        /// One witness per divide-and-conquer segment.
        segments: Vec<SegmentWitness>,
    },
    /// NOT_EQUIVALENT: a concrete graph on which the result bags differ.
    Counterexample {
        /// The distinguishing property graph.
        graph: GraphCert,
        /// Index of the graph in the prover's deterministic search pools
        /// (provenance only; the checker re-evaluates regardless).
        pool_index: usize,
        /// Column names the left query produced.
        left_columns: Vec<String>,
        /// The left result bag, in production order.
        left_rows: Vec<Vec<Value>>,
        /// Column names the right query produced.
        right_columns: Vec<String>,
        /// The right result bag, in production order.
        right_rows: Vec<Vec<Value>>,
    },
    /// NOT_EQUIVALENT found via the stage-⓪ signature-discrimination fast
    /// path: the inferred output signatures admit no type-compatible column
    /// bijection, **and** a concrete witness graph confirms the separation.
    /// The checker re-infers both signatures from the source queries,
    /// re-checks the discrimination, and re-evaluates the witness — the
    /// signatures alone never validate a verdict.
    SignatureMismatch {
        /// The left query's inferred output signature.
        left_signature: Vec<SigColumn>,
        /// The right query's inferred output signature.
        right_signature: Vec<SigColumn>,
        /// The distinguishing property graph.
        graph: GraphCert,
        /// Index of the graph in the prover's deterministic search pools.
        pool_index: usize,
        /// Column names the left query produced.
        left_columns: Vec<String>,
        /// The left result bag, in production order.
        left_rows: Vec<Vec<Value>>,
        /// Column names the right query produced.
        right_columns: Vec<String>,
        /// The right result bag, in production order.
        right_rows: Vec<Vec<Value>>,
    },
}

/// A complete, self-contained proof certificate for one query pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Schema version (currently [`CERTIFICATE_VERSION`]).
    pub version: i64,
    /// The verdict attested.
    pub verdict: CertVerdict,
    /// Left query attestation.
    pub left: QueryCert,
    /// Right query attestation.
    pub right: QueryCert,
    /// Verdict-specific evidence.
    pub evidence: Evidence,
}

impl Certificate {
    /// Serializes to compact JSON: no whitespace, members in a fixed order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        encode_certificate(&mut out, self);
        out
    }

    /// Parses a certificate from its JSON serialization.
    ///
    /// Members may come in any order and with any whitespace, and unknown
    /// members are ignored; a member name repeated within an object, a node,
    /// relationship or variable id beyond `u32`, or a tree nested deeper than
    /// [`MAX_NESTING`] levels is an error.
    pub fn from_json(text: &str) -> Result<Certificate, String> {
        let tape = Tape::parse(text).map_err(|e| e.to_string())?;
        decode_certificate(tape.root())
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------
//
// Every encoder appends to `out`, writing member names and punctuation as
// literal text: each function spells out the exact bytes of its part of the
// format.

fn encode_usize(out: &mut String, n: usize) {
    json::write_int(out, n as i64);
}

fn encode_usizes(out: &mut String, items: &[usize]) {
    json::write_array(out, items, |out, &n| encode_usize(out, n));
}

fn encode_strs<S: AsRef<str>>(out: &mut String, items: impl IntoIterator<Item = S>) {
    json::write_array(out, items, |out, s| json::write_str(out, s.as_ref()));
}

fn encode_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Floats ride as `{"f":"<repr>"}` with Rust's round-tripping `{:?}`
/// representation, whose characters (digits, `.`, `-`, `e`, `inf`, `NaN`)
/// need no escaping.
fn encode_float(out: &mut String, f: f64) {
    let _ = write!(out, r#"{{"f":"{f:?}"}}"#);
}

fn encode_certificate(out: &mut String, cert: &Certificate) {
    out.push_str(r#"{"version":"#);
    json::write_int(out, cert.version);
    out.push_str(r#","verdict":"#);
    json::write_str(out, cert.verdict.name());
    out.push_str(r#","left":"#);
    encode_query_cert(out, &cert.left);
    out.push_str(r#","right":"#);
    encode_query_cert(out, &cert.right);
    out.push_str(r#","evidence":"#);
    encode_evidence(out, &cert.evidence);
    out.push('}');
}

fn encode_query_cert(out: &mut String, q: &QueryCert) {
    out.push_str(r#"{"source":"#);
    json::write_str(out, &q.source);
    out.push_str(r#","steps":"#);
    json::write_array(out, &q.steps, |out, step| {
        out.push_str(r#"{"rule":"#);
        json::write_str(out, &step.rule);
        out.push_str(r#","part":"#);
        encode_usize(out, step.part);
        out.push_str(r#","clause":"#);
        encode_usize(out, step.clause);
        out.push_str(r#","after":"#);
        json::write_str(out, &step.after);
        out.push('}');
    });
    out.push_str(r#","normalized":"#);
    json::write_str(out, &q.normalized);
    out.push('}');
}

fn encode_evidence(out: &mut String, evidence: &Evidence) {
    match evidence {
        Evidence::Equivalence { column_permutation, permuted_right, segments } => {
            out.push_str(r#"{"type":"equivalence","column_permutation":"#);
            encode_usizes(out, column_permutation);
            out.push_str(r#","permuted_right":"#);
            match permuted_right {
                Some(text) => json::write_str(out, text),
                None => out.push_str("null"),
            }
            out.push_str(r#","segments":"#);
            json::write_array(out, segments, |out, segment| {
                out.push_str(r#"{"left":"#);
                encode_gx(out, &segment.left);
                out.push_str(r#","right":"#);
                encode_gx(out, &segment.right);
                out.push_str(r#","proof":"#);
                encode_proof(out, &segment.proof);
                out.push('}');
            });
            out.push('}');
        }
        Evidence::Counterexample {
            graph,
            pool_index,
            left_columns,
            left_rows,
            right_columns,
            right_rows,
        } => {
            out.push_str(r#"{"type":"counterexample""#);
            encode_witness(
                out,
                graph,
                *pool_index,
                left_columns,
                left_rows,
                right_columns,
                right_rows,
            );
        }
        Evidence::SignatureMismatch {
            left_signature,
            right_signature,
            graph,
            pool_index,
            left_columns,
            left_rows,
            right_columns,
            right_rows,
        } => {
            out.push_str(r#"{"type":"signature_mismatch","left_signature":"#);
            encode_signature(out, left_signature);
            out.push_str(r#","right_signature":"#);
            encode_signature(out, right_signature);
            encode_witness(
                out,
                graph,
                *pool_index,
                left_columns,
                left_rows,
                right_columns,
                right_rows,
            );
        }
    }
}

/// The members both witness evidences end with, `graph` through
/// `right_rows`, and the object's closing brace.
fn encode_witness(
    out: &mut String,
    graph: &GraphCert,
    pool_index: usize,
    left_columns: &[String],
    left_rows: &[Vec<Value>],
    right_columns: &[String],
    right_rows: &[Vec<Value>],
) {
    out.push_str(r#","graph":"#);
    encode_graph(out, graph);
    out.push_str(r#","pool_index":"#);
    encode_usize(out, pool_index);
    out.push_str(r#","left_columns":"#);
    encode_strs(out, left_columns);
    out.push_str(r#","left_rows":"#);
    encode_rows(out, left_rows);
    out.push_str(r#","right_columns":"#);
    encode_strs(out, right_columns);
    out.push_str(r#","right_rows":"#);
    encode_rows(out, right_rows);
    out.push('}');
}

fn encode_signature(out: &mut String, signature: &[SigColumn]) {
    json::write_array(out, signature, |out, column| {
        out.push_str(r#"{"name":"#);
        json::write_str(out, &column.name);
        out.push_str(r#","ty":"#);
        json::write_str(out, &column.ty);
        out.push_str(r#","nullable":"#);
        encode_bool(out, column.nullable);
        out.push('}');
    });
}

fn encode_rows(out: &mut String, rows: &[Vec<Value>]) {
    json::write_array(out, rows, |out, row| json::write_array(out, row, encode_value));
}

fn encode_graph(out: &mut String, graph: &GraphCert) {
    out.push_str(r#"{"nodes":"#);
    json::write_array(out, &graph.nodes, |out, node| {
        out.push_str(r#"{"labels":"#);
        encode_strs(out, &node.labels);
        out.push_str(r#","properties":"#);
        encode_properties(out, &node.properties);
        out.push('}');
    });
    out.push_str(r#","relationships":"#);
    json::write_array(out, &graph.relationships, |out, rel| {
        out.push_str(r#"{"label":"#);
        json::write_str(out, &rel.label);
        out.push_str(r#","source":"#);
        json::write_int(out, i64::from(rel.source.0));
        out.push_str(r#","target":"#);
        json::write_int(out, i64::from(rel.target.0));
        out.push_str(r#","properties":"#);
        encode_properties(out, &rel.properties);
        out.push('}');
    });
    out.push('}');
}

fn encode_properties(out: &mut String, props: &BTreeMap<String, Value>) {
    out.push('{');
    for (i, (name, value)) in props.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, name);
        out.push(':');
        encode_value(out, value);
    }
    out.push('}');
}

/// Encodes a runtime value. Floats take the `{"f":…}` form of
/// [`encode_float`]; maps are wrapped as `{"m":{...}}` so they cannot collide
/// with the tagged forms.
fn encode_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Boolean(b) => encode_bool(out, *b),
        Value::Integer(i) => json::write_int(out, *i),
        Value::Float(f) => encode_float(out, *f),
        Value::String(s) => json::write_str(out, s),
        Value::List(items) => json::write_array(out, items, encode_value),
        Value::Map(map) => {
            out.push_str(r#"{"m":"#);
            encode_properties(out, map);
            out.push('}');
        }
        Value::Node(id) => {
            out.push_str(r#"{"n":"#);
            json::write_int(out, i64::from(id.0));
            out.push('}');
        }
        Value::Relationship(id) => {
            out.push_str(r#"{"r":"#);
            json::write_int(out, i64::from(id.0));
            out.push('}');
        }
        Value::Path(items) => {
            out.push_str(r#"{"p":"#);
            json::write_array(out, items, encode_value);
            out.push('}');
        }
    }
}

fn encode_proof(out: &mut String, proof: &Proof) {
    match proof {
        Proof::Identical => out.push_str(r#"["identical"]"#),
        Proof::Peel(inner) => {
            out.push_str(r#"["peel","#);
            encode_proof(out, inner);
            out.push(']');
        }
        Proof::Summands(sp) => {
            out.push_str(r#"["summands",{"left":"#);
            encode_side(out, &sp.left);
            out.push_str(r#","right":"#);
            encode_side(out, &sp.right);
            out.push_str(r#","matching":"#);
            encode_matching(out, &sp.matching);
            out.push_str("}]");
        }
    }
}

fn encode_side(out: &mut String, side: &SideSummands) {
    out.push_str(r#"{"total":"#);
    encode_usize(out, side.total);
    out.push_str(r#","zero_pruned":"#);
    encode_usizes(out, &side.zero_pruned);
    out.push_str(r#","kept":"#);
    json::write_array(out, &side.kept, |out, kept| {
        out.push_str(r#"{"index":"#);
        encode_usize(out, kept.index);
        out.push_str(r#","removed_atoms":"#);
        json::write_array(out, &kept.removed_atoms, encode_gx);
        out.push_str(r#","result":"#);
        encode_gx(out, &kept.result);
        out.push('}');
    });
    out.push('}');
}

fn encode_matching(out: &mut String, matching: &Matching) {
    match matching {
        Matching::Bijection(pairs) => {
            out.push_str(r#"{"bijection":"#);
            json::write_array(out, pairs, |out, &(l, r)| encode_usizes(out, &[l, r]));
            out.push('}');
        }
        Matching::Classes {
            representatives,
            left_assign,
            right_assign,
            left_counts,
            right_counts,
        } => {
            out.push_str(r#"{"classes":{"representatives":"#);
            json::write_array(out, representatives, encode_gx);
            out.push_str(r#","left_assign":"#);
            encode_usizes(out, left_assign);
            out.push_str(r#","right_assign":"#);
            encode_usizes(out, right_assign);
            out.push_str(r#","left_counts":"#);
            encode_usizes(out, left_counts);
            out.push_str(r#","right_counts":"#);
            encode_usizes(out, right_counts);
            out.push_str("}}");
        }
    }
}

/// Encodes a G-expression as a tagged array, `["tag",operand,…]`. Each arm
/// writes the tag and the operands; the closing bracket is shared.
fn encode_gx(out: &mut String, gx: &Gx) {
    match gx {
        Gx::Zero => out.push_str(r#"["zero""#),
        Gx::One => out.push_str(r#"["one""#),
        Gx::Const(n) => {
            out.push_str(r#"["const","#);
            json::write_int(out, *n as i64);
        }
        Gx::Atom(atom) => {
            out.push_str(r#"["atom","#);
            encode_atom(out, atom);
        }
        Gx::NodeFn(t) => {
            out.push_str(r#"["nodefn","#);
            encode_term(out, t);
        }
        Gx::RelFn(t) => {
            out.push_str(r#"["relfn","#);
            encode_term(out, t);
        }
        Gx::LabFn(t, label) => {
            out.push_str(r#"["labfn","#);
            encode_term(out, t);
            out.push(',');
            json::write_str(out, label);
        }
        Gx::Unbounded(t) => {
            out.push_str(r#"["unbounded","#);
            encode_term(out, t);
        }
        Gx::Mul(items) => {
            out.push_str(r#"["mul","#);
            json::write_array(out, items, encode_gx);
        }
        Gx::Add(items) => {
            out.push_str(r#"["add","#);
            json::write_array(out, items, encode_gx);
        }
        Gx::Squash(inner) => {
            out.push_str(r#"["squash","#);
            encode_gx(out, inner);
        }
        Gx::Not(inner) => {
            out.push_str(r#"["not","#);
            encode_gx(out, inner);
        }
        Gx::Sum { vars, body } => {
            out.push_str(r#"["sum","#);
            json::write_array(out, vars, |out, v| json::write_int(out, i64::from(v.0)));
            out.push(',');
            encode_gx(out, body);
        }
    }
    out.push(']');
}

fn encode_atom(out: &mut String, atom: &GxAtom) {
    match atom {
        GxAtom::Cmp(op, a, b) => {
            out.push_str(r#"["cmp","#);
            json::write_str(out, op.name());
            out.push(',');
            encode_term(out, a);
            out.push(',');
            encode_term(out, b);
        }
        GxAtom::IsNull(t, negated) => {
            out.push_str(r#"["isnull","#);
            encode_term(out, t);
            out.push(',');
            encode_bool(out, *negated);
        }
        GxAtom::Pred(name, args) => {
            out.push_str(r#"["pred","#);
            json::write_str(out, name);
            out.push(',');
            json::write_array(out, args, encode_term);
        }
    }
    out.push(']');
}

fn encode_term(out: &mut String, term: &GxTerm) {
    match term {
        GxTerm::Var(v) => {
            out.push_str(r#"["var","#);
            json::write_int(out, i64::from(v.0));
        }
        GxTerm::OutCol(i) => {
            out.push_str(r#"["outcol","#);
            encode_usize(out, *i);
        }
        GxTerm::Prop(base, key) => {
            out.push_str(r#"["prop","#);
            encode_term(out, base);
            out.push(',');
            json::write_str(out, key);
        }
        GxTerm::Const(c) => {
            out.push_str(r#"["const","#);
            encode_const(out, c);
        }
        GxTerm::App(name, args) => {
            out.push_str(r#"["app","#);
            json::write_str(out, name);
            out.push(',');
            json::write_array(out, args, encode_term);
        }
        GxTerm::Agg { kind, distinct, arg, group } => {
            out.push_str(r#"["agg","#);
            json::write_str(out, kind.name());
            out.push(',');
            encode_bool(out, *distinct);
            out.push(',');
            encode_term(out, arg);
            out.push(',');
            encode_gx(out, group);
        }
    }
    out.push(']');
}

fn encode_const(out: &mut String, c: &GxConst) {
    match c {
        GxConst::Integer(i) => json::write_int(out, *i),
        GxConst::Float(f) => encode_float(out, *f),
        GxConst::String(s) => json::write_str(out, s),
        GxConst::Boolean(b) => encode_bool(out, *b),
        GxConst::Null => out.push_str("null"),
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn field<'t>(doc: JsonRef<'t>, key: &str) -> Result<JsonRef<'t>, String> {
    doc.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn dec_array<'t>(doc: JsonRef<'t>, what: &str) -> Result<Elements<'t>, String> {
    doc.as_array().ok_or_else(|| format!("{what}: expected an array"))
}

fn dec_str(doc: JsonRef<'_>, what: &str) -> Result<String, String> {
    doc.as_str().map(str::to_string).ok_or_else(|| format!("{what}: expected a string"))
}

fn dec_usize(doc: JsonRef<'_>, what: &str) -> Result<usize, String> {
    match doc.as_int() {
        Some(n) if n >= 0 => Ok(n as usize),
        _ => Err(format!("{what}: expected a non-negative integer")),
    }
}

/// Decodes a node, relationship or variable id, which must fit `u32`.
fn dec_u32(doc: JsonRef<'_>, what: &str) -> Result<u32, String> {
    let n = dec_usize(doc, what)?;
    u32::try_from(n).map_err(|_| format!("{what}: {n} is out of the u32 range"))
}

fn dec_usize_arr(doc: JsonRef<'_>, what: &str) -> Result<Vec<usize>, String> {
    dec_array(doc, what)?.map(|item| dec_usize(item, what)).collect()
}

fn decode_certificate(doc: JsonRef<'_>) -> Result<Certificate, String> {
    let version = field(doc, "version")?.as_int().ok_or("version: expected an integer")?;
    if version != CERTIFICATE_VERSION {
        return Err(format!("unsupported certificate version {version}"));
    }
    let verdict = match field(doc, "verdict")?.as_str() {
        Some("equivalent") => CertVerdict::Equivalent,
        Some("not_equivalent") => CertVerdict::NotEquivalent,
        other => return Err(format!("unknown verdict {other:?}")),
    };
    Ok(Certificate {
        version,
        verdict,
        left: decode_query_cert(field(doc, "left")?)?,
        right: decode_query_cert(field(doc, "right")?)?,
        evidence: decode_evidence(field(doc, "evidence")?)?,
    })
}

fn decode_query_cert(doc: JsonRef<'_>) -> Result<QueryCert, String> {
    let steps = dec_array(field(doc, "steps")?, "steps")?
        .map(|step| {
            Ok(DerivationStep {
                rule: dec_str(field(step, "rule")?, "rule")?,
                part: dec_usize(field(step, "part")?, "part")?,
                clause: dec_usize(field(step, "clause")?, "clause")?,
                after: dec_str(field(step, "after")?, "after")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(QueryCert {
        source: dec_str(field(doc, "source")?, "source")?,
        steps,
        normalized: dec_str(field(doc, "normalized")?, "normalized")?,
    })
}

fn decode_evidence(doc: JsonRef<'_>) -> Result<Evidence, String> {
    match field(doc, "type")?.as_str() {
        Some("equivalence") => {
            let permuted_right = match field(doc, "permuted_right")? {
                JsonRef::Null => None,
                other => Some(dec_str(other, "permuted_right")?),
            };
            let segments = dec_array(field(doc, "segments")?, "segments")?
                .map(|seg| {
                    Ok(SegmentWitness {
                        left: decode_gx(field(seg, "left")?, 1)?,
                        right: decode_gx(field(seg, "right")?, 1)?,
                        proof: decode_proof(field(seg, "proof")?, 1)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Evidence::Equivalence {
                column_permutation: dec_usize_arr(
                    field(doc, "column_permutation")?,
                    "column_permutation",
                )?,
                permuted_right,
                segments,
            })
        }
        Some("counterexample") => Ok(Evidence::Counterexample {
            graph: decode_graph(field(doc, "graph")?)?,
            pool_index: dec_usize(field(doc, "pool_index")?, "pool_index")?,
            left_columns: decode_columns(field(doc, "left_columns")?)?,
            left_rows: decode_rows(field(doc, "left_rows")?)?,
            right_columns: decode_columns(field(doc, "right_columns")?)?,
            right_rows: decode_rows(field(doc, "right_rows")?)?,
        }),
        Some("signature_mismatch") => Ok(Evidence::SignatureMismatch {
            left_signature: decode_signature(field(doc, "left_signature")?)?,
            right_signature: decode_signature(field(doc, "right_signature")?)?,
            graph: decode_graph(field(doc, "graph")?)?,
            pool_index: dec_usize(field(doc, "pool_index")?, "pool_index")?,
            left_columns: decode_columns(field(doc, "left_columns")?)?,
            left_rows: decode_rows(field(doc, "left_rows")?)?,
            right_columns: decode_columns(field(doc, "right_columns")?)?,
            right_rows: decode_rows(field(doc, "right_rows")?)?,
        }),
        other => Err(format!("unknown evidence type {other:?}")),
    }
}

fn decode_signature(doc: JsonRef<'_>) -> Result<Vec<SigColumn>, String> {
    dec_array(doc, "signature")?
        .map(|column| {
            Ok(SigColumn {
                name: dec_str(field(column, "name")?, "name")?,
                ty: dec_str(field(column, "ty")?, "ty")?,
                nullable: field(column, "nullable")?
                    .as_bool()
                    .ok_or("nullable: expected a boolean")?,
            })
        })
        .collect()
}

fn decode_columns(doc: JsonRef<'_>) -> Result<Vec<String>, String> {
    dec_array(doc, "columns")?.map(|c| dec_str(c, "column")).collect()
}

fn decode_rows(doc: JsonRef<'_>) -> Result<Vec<Vec<Value>>, String> {
    dec_array(doc, "rows")?
        .map(|row| dec_array(row, "row")?.map(|value| decode_value(value, 1)).collect())
        .collect()
}

fn decode_graph(doc: JsonRef<'_>) -> Result<GraphCert, String> {
    let nodes = dec_array(field(doc, "nodes")?, "nodes")?
        .map(|n| {
            let mut labels = BTreeSet::new();
            for label in dec_array(field(n, "labels")?, "labels")? {
                labels.insert(dec_str(label, "label")?);
            }
            Ok(NodeData { labels, properties: decode_properties(field(n, "properties")?, 1)? })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let relationships = dec_array(field(doc, "relationships")?, "relationships")?
        .map(|r| {
            Ok(RelData {
                label: dec_str(field(r, "label")?, "label")?,
                source: NodeId(dec_u32(field(r, "source")?, "source")?),
                target: NodeId(dec_u32(field(r, "target")?, "target")?),
                properties: decode_properties(field(r, "properties")?, 1)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(GraphCert { nodes, relationships })
}

/// Decodes a property map whose values sit at nesting `level`.
fn decode_properties(doc: JsonRef<'_>, level: usize) -> Result<BTreeMap<String, Value>, String> {
    // Inserting one by one skips the staging `Vec` a `collect` sorts.
    let mut properties = BTreeMap::new();
    for (name, value) in doc.as_object().ok_or("properties: expected an object")? {
        properties.insert(name.to_string(), decode_value(value, level)?);
    }
    Ok(properties)
}

/// Decodes a runtime value at nesting `level` from its certificate encoding.
fn decode_value(doc: JsonRef<'_>, level: usize) -> Result<Value, String> {
    within_bound(level)?;
    let items = |doc, what| -> Result<Vec<Value>, String> {
        dec_array(doc, what)?.map(|item| decode_value(item, level + 1)).collect()
    };
    match doc {
        JsonRef::Null => Ok(Value::Null),
        JsonRef::Bool(b) => Ok(Value::Boolean(b)),
        JsonRef::Int(i) => Ok(Value::Integer(i)),
        JsonRef::Str(s) => Ok(Value::String(s.to_string())),
        JsonRef::Arr(_) => Ok(Value::List(items(doc, "list")?)),
        JsonRef::Obj(mut members) => {
            let (Some((tag, payload)), None) = (members.next(), members.next()) else {
                return Err("tagged value: expected a single-member object".to_string());
            };
            match tag {
                "f" => decode_float(payload).map(Value::Float),
                "m" => Ok(Value::Map(decode_properties(payload, level + 1)?)),
                "n" => Ok(Value::Node(NodeId(dec_u32(payload, "node id")?))),
                "r" => Ok(Value::Relationship(RelId(dec_u32(payload, "relationship id")?))),
                "p" => Ok(Value::Path(items(payload, "path")?)),
                other => Err(format!("unknown value tag `{other}`")),
            }
        }
    }
}

fn decode_float(doc: JsonRef<'_>) -> Result<f64, String> {
    let text = doc.as_str().ok_or("float: expected a string repr")?;
    text.parse::<f64>().map_err(|_| format!("float: invalid repr `{text}`"))
}

/// Decodes a segment proof at nesting `level`.
fn decode_proof(doc: JsonRef<'_>, level: usize) -> Result<Proof, String> {
    within_bound(level)?;
    let mut items = dec_array(doc, "proof")?;
    match items.next().and_then(JsonRef::as_str) {
        Some("identical") => Ok(Proof::Identical),
        Some("peel") => {
            let inner = items.next().ok_or("peel: missing inner proof")?;
            Ok(Proof::Peel(Box::new(decode_proof(inner, level + 1)?)))
        }
        Some("summands") => {
            let body = items.next().ok_or("summands: missing body")?;
            // The proof's trees nest inside it.
            let level = level + 1;
            Ok(Proof::Summands(Box::new(SummandsProof {
                left: decode_side(field(body, "left")?, level)?,
                right: decode_side(field(body, "right")?, level)?,
                matching: decode_matching(field(body, "matching")?, level)?,
            })))
        }
        other => Err(format!("unknown proof tag {other:?}")),
    }
}

/// Decodes one side's summand accounting, its trees at nesting `level`.
fn decode_side(doc: JsonRef<'_>, level: usize) -> Result<SideSummands, String> {
    let kept = dec_array(field(doc, "kept")?, "kept")?
        .map(|k| {
            let removed_atoms = decode_gx_list(field(k, "removed_atoms")?, level)?;
            Ok(KeptSummand {
                index: dec_usize(field(k, "index")?, "index")?,
                removed_atoms,
                result: decode_gx(field(k, "result")?, level)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SideSummands {
        total: dec_usize(field(doc, "total")?, "total")?,
        zero_pruned: dec_usize_arr(field(doc, "zero_pruned")?, "zero_pruned")?,
        kept,
    })
}

/// Decodes a summand matching, its class representatives at nesting `level`.
fn decode_matching(doc: JsonRef<'_>, level: usize) -> Result<Matching, String> {
    if let Some(pairs) = doc.get("bijection") {
        let pairs = dec_array(pairs, "bijection")?
            .map(|pair| {
                let mut items = dec_array(pair, "pair")?;
                let (Some(l), Some(r), None) = (items.next(), items.next(), items.next()) else {
                    return Err("pair: expected two elements".to_string());
                };
                Ok((dec_usize(l, "pair")?, dec_usize(r, "pair")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        return Ok(Matching::Bijection(pairs));
    }
    if let Some(classes) = doc.get("classes") {
        let representatives = decode_gx_list(field(classes, "representatives")?, level)?;
        return Ok(Matching::Classes {
            representatives,
            left_assign: dec_usize_arr(field(classes, "left_assign")?, "left_assign")?,
            right_assign: dec_usize_arr(field(classes, "right_assign")?, "right_assign")?,
            left_counts: dec_usize_arr(field(classes, "left_counts")?, "left_counts")?,
            right_counts: dec_usize_arr(field(classes, "right_counts")?, "right_counts")?,
        });
    }
    Err("matching: expected `bijection` or `classes`".to_string())
}

/// A tagged array, `["tag",operand,…]`, read operand by operand.
struct Tagged<'t> {
    what: &'static str,
    tag: &'t str,
    operands: Elements<'t>,
    taken: usize,
}

impl<'t> Tagged<'t> {
    fn read(doc: JsonRef<'t>, what: &'static str) -> Result<Tagged<'t>, String> {
        let mut operands = dec_array(doc, what)?;
        let tag = operands.next().and_then(JsonRef::as_str);
        let tag = tag.ok_or_else(|| format!("{what}: missing tag"))?;
        Ok(Tagged { what, tag, operands, taken: 0 })
    }

    /// The next operand; extra operands are never read.
    fn operand(&mut self) -> Result<JsonRef<'t>, String> {
        self.taken += 1;
        let (what, tag, index) = (self.what, self.tag, self.taken);
        self.operands.next().ok_or_else(|| format!("{what} `{tag}`: missing operand {index}"))
    }
}

/// Decodes a G-expression at nesting `level` from its tagged-array encoding.
fn decode_gx(doc: JsonRef<'_>, level: usize) -> Result<Gx, String> {
    within_bound(level)?;
    let mut gx = Tagged::read(doc, "gx")?;
    let inner = level + 1;
    match gx.tag {
        "zero" => Ok(Gx::Zero),
        "one" => Ok(Gx::One),
        "const" => Ok(Gx::Const(dec_usize(gx.operand()?, "const")? as u64)),
        "atom" => Ok(Gx::Atom(decode_atom(gx.operand()?, inner)?)),
        "nodefn" => Ok(Gx::NodeFn(decode_term(gx.operand()?, inner)?)),
        "relfn" => Ok(Gx::RelFn(decode_term(gx.operand()?, inner)?)),
        "labfn" => Ok(Gx::LabFn(
            decode_term(gx.operand()?, inner)?,
            dec_str(gx.operand()?, "labfn label")?,
        )),
        "unbounded" => Ok(Gx::Unbounded(decode_term(gx.operand()?, inner)?)),
        "mul" => Ok(Gx::Mul(decode_gx_list(gx.operand()?, inner)?)),
        "add" => Ok(Gx::Add(decode_gx_list(gx.operand()?, inner)?)),
        "squash" => Ok(Gx::Squash(Box::new(decode_gx(gx.operand()?, inner)?))),
        "not" => Ok(Gx::Not(Box::new(decode_gx(gx.operand()?, inner)?))),
        "sum" => {
            let vars = dec_array(gx.operand()?, "sum vars")?
                .map(|v| Ok(VarId(dec_u32(v, "var id")?)))
                .collect::<Result<_, String>>()?;
            Ok(Gx::Sum { vars, body: Box::new(decode_gx(gx.operand()?, inner)?) })
        }
        other => Err(format!("unknown gx tag `{other}`")),
    }
}

/// Decodes a list of G-expressions, each at nesting `level`.
fn decode_gx_list(doc: JsonRef<'_>, level: usize) -> Result<Vec<Gx>, String> {
    dec_array(doc, "gx list")?.map(|item| decode_gx(item, level)).collect()
}

/// Decodes an atom at nesting `level`.
fn decode_atom(doc: JsonRef<'_>, level: usize) -> Result<GxAtom, String> {
    within_bound(level)?;
    let mut atom = Tagged::read(doc, "atom")?;
    let inner = level + 1;
    match atom.tag {
        "cmp" => {
            let op = atom.operand()?.as_str().and_then(CmpOp::from_name);
            let op = op.ok_or("cmp: unknown operator")?;
            let lhs = decode_term(atom.operand()?, inner)?;
            Ok(GxAtom::Cmp(op, lhs, decode_term(atom.operand()?, inner)?))
        }
        "isnull" => Ok(GxAtom::IsNull(
            decode_term(atom.operand()?, inner)?,
            atom.operand()?.as_bool().ok_or("isnull: expected a bool")?,
        )),
        "pred" => {
            let name = dec_str(atom.operand()?, "pred name")?;
            Ok(GxAtom::Pred(name, decode_terms(atom.operand()?, "pred args", inner)?))
        }
        other => Err(format!("unknown atom tag `{other}`")),
    }
}

/// Decodes a term at nesting `level`.
fn decode_term(doc: JsonRef<'_>, level: usize) -> Result<GxTerm, String> {
    within_bound(level)?;
    let mut term = Tagged::read(doc, "term")?;
    let inner = level + 1;
    match term.tag {
        "var" => Ok(GxTerm::Var(VarId(dec_u32(term.operand()?, "var id")?))),
        "outcol" => Ok(GxTerm::OutCol(dec_usize(term.operand()?, "outcol")?)),
        "prop" => Ok(GxTerm::Prop(
            Box::new(decode_term(term.operand()?, inner)?),
            dec_str(term.operand()?, "prop key")?,
        )),
        "const" => Ok(GxTerm::Const(decode_gconst(term.operand()?)?)),
        "app" => {
            let name = dec_str(term.operand()?, "app name")?;
            Ok(GxTerm::App(name, decode_terms(term.operand()?, "app args", inner)?))
        }
        "agg" => {
            let kind = term.operand()?.as_str().and_then(AggKind::from_name);
            Ok(GxTerm::Agg {
                kind: kind.ok_or("agg: unknown kind")?,
                distinct: term.operand()?.as_bool().ok_or("agg: expected a bool")?,
                arg: Box::new(decode_term(term.operand()?, inner)?),
                group: Box::new(decode_gx(term.operand()?, inner)?),
            })
        }
        other => Err(format!("unknown term tag `{other}`")),
    }
}

/// Decodes a list of terms, each at nesting `level`.
fn decode_terms(doc: JsonRef<'_>, what: &str, level: usize) -> Result<Vec<GxTerm>, String> {
    dec_array(doc, what)?.map(|item| decode_term(item, level)).collect()
}

/// `Ok` when a node at nesting `level` is within [`MAX_NESTING`]; checked
/// before a decoder reads the node, so the bound caps the decoders' recursion.
fn within_bound(level: usize) -> Result<(), String> {
    if level > MAX_NESTING {
        return Err(format!("certificate nests deeper than {MAX_NESTING} levels"));
    }
    Ok(())
}

fn decode_gconst(doc: JsonRef<'_>) -> Result<GxConst, String> {
    match doc {
        JsonRef::Null => Ok(GxConst::Null),
        JsonRef::Bool(b) => Ok(GxConst::Boolean(b)),
        JsonRef::Int(i) => Ok(GxConst::Integer(i)),
        JsonRef::Str(s) => Ok(GxConst::String(s.to_string())),
        JsonRef::Obj(mut members) => match (members.next(), members.next()) {
            (Some(("f", payload)), None) => decode_float(payload).map(GxConst::Float),
            _ => Err("const: expected a float tag object".to_string()),
        },
        JsonRef::Arr(_) => Err("const: unsupported shape".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonRef;

    fn sample_certificate() -> Certificate {
        let gx = Gx::sum(
            vec![VarId(0)],
            Gx::mul(vec![
                Gx::NodeFn(GxTerm::Var(VarId(0))),
                Gx::Atom(GxAtom::Cmp(
                    CmpOp::Eq,
                    GxTerm::Prop(Box::new(GxTerm::Var(VarId(0))), "age".to_string()),
                    GxTerm::Const(GxConst::Float(1.5)),
                )),
            ]),
        );
        Certificate {
            version: CERTIFICATE_VERSION,
            verdict: CertVerdict::Equivalent,
            left: QueryCert {
                source: "MATCH (a) RETURN a".to_string(),
                steps: vec![DerivationStep {
                    rule: "standardize".to_string(),
                    part: 0,
                    clause: 0,
                    after: "MATCH (n1) RETURN n1".to_string(),
                }],
                normalized: "MATCH (n1) RETURN n1".to_string(),
            },
            right: QueryCert {
                source: "MATCH (n1) RETURN n1".to_string(),
                steps: vec![],
                normalized: "MATCH (n1) RETURN n1".to_string(),
            },
            evidence: Evidence::Equivalence {
                column_permutation: vec![0],
                permuted_right: None,
                segments: vec![SegmentWitness {
                    left: gx.clone(),
                    right: gx,
                    proof: Proof::Peel(Box::new(Proof::Summands(Box::new(SummandsProof {
                        left: SideSummands {
                            total: 2,
                            zero_pruned: vec![1],
                            kept: vec![KeptSummand {
                                index: 0,
                                removed_atoms: vec![],
                                result: Gx::One,
                            }],
                        },
                        right: SideSummands {
                            total: 1,
                            zero_pruned: vec![],
                            kept: vec![KeptSummand {
                                index: 0,
                                removed_atoms: vec![],
                                result: Gx::One,
                            }],
                        },
                        matching: Matching::Bijection(vec![(0, 0)]),
                    })))),
                }],
            },
        }
    }

    fn counterexample_certificate() -> Certificate {
        let mut node = NodeData::default();
        node.labels.insert("Person".to_string());
        node.properties.insert("w".to_string(), Value::Float(-0.0));
        Certificate {
            version: CERTIFICATE_VERSION,
            verdict: CertVerdict::NotEquivalent,
            left: QueryCert {
                source: "MATCH (a) RETURN a".to_string(),
                steps: vec![],
                normalized: "MATCH (n1) RETURN n1".to_string(),
            },
            right: QueryCert {
                source: "MATCH (b:Person) RETURN b".to_string(),
                steps: vec![],
                normalized: "MATCH (n1:Person) RETURN n1".to_string(),
            },
            evidence: Evidence::Counterexample {
                graph: GraphCert {
                    nodes: vec![node, NodeData::default()],
                    relationships: vec![RelData {
                        label: "KNOWS".to_string(),
                        source: NodeId(0),
                        target: NodeId(1),
                        properties: BTreeMap::new(),
                    }],
                },
                pool_index: 7,
                left_columns: vec!["a".to_string()],
                left_rows: vec![
                    vec![Value::Node(NodeId(0))],
                    vec![Value::List(vec![Value::Null, Value::Integer(i64::MIN)])],
                ],
                right_columns: vec!["b".to_string()],
                right_rows: vec![vec![Value::Node(NodeId(0))]],
            },
        }
    }

    /// A certificate whose evidence uses every G-expression, atom, term and
    /// constant form, escaped strings and class-counting matching.
    fn every_gx_certificate() -> Certificate {
        let var = |v| GxTerm::Var(VarId(v));
        let term = GxTerm::Agg {
            kind: AggKind::Collect,
            distinct: true,
            arg: Box::new(GxTerm::App(
                "toLower".to_string(),
                vec![GxTerm::OutCol(1), GxTerm::Const(GxConst::String("a\"b\\c".to_string()))],
            )),
            group: Box::new(Gx::Add(vec![Gx::Zero, Gx::Const(3)])),
        };
        let gx = Gx::Mul(vec![
            Gx::RelFn(var(1)),
            Gx::LabFn(var(0), "Person".to_string()),
            Gx::Unbounded(GxTerm::Prop(Box::new(var(2)), "näme".to_string())),
            Gx::Squash(Box::new(Gx::Not(Box::new(Gx::Atom(GxAtom::IsNull(term.clone(), true)))))),
            Gx::Atom(GxAtom::Pred(
                "starts_with".to_string(),
                vec![
                    GxTerm::Const(GxConst::Null),
                    GxTerm::Const(GxConst::Boolean(false)),
                    GxTerm::Const(GxConst::Integer(-7)),
                ],
            )),
            Gx::Atom(GxAtom::Cmp(CmpOp::Ge, term, GxTerm::Const(GxConst::Float(f64::INFINITY)))),
        ]);
        let query = QueryCert {
            source: "RETURN 1 AS x, 2 AS y".to_string(),
            steps: vec![],
            normalized: "RETURN 1 AS x, 2 AS y".to_string(),
        };
        let kept = KeptSummand {
            index: 0,
            removed_atoms: vec![Gx::Atom(GxAtom::IsNull(var(0), false))],
            result: Gx::One,
        };
        let side = SideSummands { total: 2, zero_pruned: vec![1], kept: vec![kept] };
        Certificate {
            version: CERTIFICATE_VERSION,
            verdict: CertVerdict::Equivalent,
            left: query.clone(),
            right: query,
            evidence: Evidence::Equivalence {
                column_permutation: vec![1, 0],
                permuted_right: Some("RETURN 2 AS y, 'é\t\u{1}' AS x".to_string()),
                segments: vec![
                    SegmentWitness { left: gx, right: Gx::One, proof: Proof::Identical },
                    SegmentWitness {
                        left: Gx::Sum { vars: vec![VarId(0), VarId(7)], body: Box::new(Gx::One) },
                        right: Gx::One,
                        proof: Proof::Peel(Box::new(Proof::Summands(Box::new(SummandsProof {
                            left: side.clone(),
                            right: side,
                            matching: Matching::Classes {
                                representatives: vec![Gx::Zero],
                                left_assign: vec![0],
                                right_assign: vec![0],
                                left_counts: vec![1],
                                right_counts: vec![1],
                            },
                        })))),
                    },
                ],
            },
        }
    }

    /// A certificate whose evidence uses every runtime value form, float
    /// specials and signature columns.
    fn every_value_certificate() -> Certificate {
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), Value::List(vec![Value::Boolean(true), Value::Null]));
        let mut node = NodeData::default();
        node.labels.insert("B".to_string());
        node.labels.insert("A".to_string());
        node.properties.insert("esc\"\\\u{1f}".to_string(), Value::String("tab\there".to_string()));
        node.properties.insert("map".to_string(), Value::Map(map));
        node.properties.insert("nan".to_string(), Value::Float(f64::NAN));
        let mut rel_properties = BTreeMap::new();
        rel_properties.insert("w".to_string(), Value::Float(-1e300));
        let column =
            |ty: &str, nullable| SigColumn { name: "x".to_string(), ty: ty.to_string(), nullable };
        Certificate {
            version: CERTIFICATE_VERSION,
            verdict: CertVerdict::NotEquivalent,
            left: QueryCert {
                source: "MATCH p = (a)-[r]->(a) RETURN p AS x".to_string(),
                steps: vec![],
                normalized: "MATCH p = (n1)-[r1]->(n1) RETURN p AS x".to_string(),
            },
            right: QueryCert {
                source: "RETURN 'x' AS x".to_string(),
                steps: vec![],
                normalized: "RETURN 'x' AS x".to_string(),
            },
            evidence: Evidence::SignatureMismatch {
                left_signature: vec![column("Path", false)],
                right_signature: vec![column("String", true)],
                graph: GraphCert {
                    nodes: vec![node],
                    relationships: vec![RelData {
                        label: "R".to_string(),
                        source: NodeId(0),
                        target: NodeId(0),
                        properties: rel_properties,
                    }],
                },
                pool_index: 3,
                left_columns: vec!["x".to_string()],
                left_rows: vec![
                    vec![Value::Path(vec![
                        Value::Node(NodeId(0)),
                        Value::Relationship(RelId(0)),
                        Value::Node(NodeId(0)),
                    ])],
                    vec![Value::Float(f64::NEG_INFINITY)],
                    vec![Value::Integer(i64::MAX)],
                ],
                right_columns: vec!["x".to_string()],
                right_rows: vec![vec![Value::String("x".to_string())]],
            },
        }
    }

    const SAMPLE_JSON: &str = concat!(
        r#"{"version":2,"verdict":"equivalent","#,
        r#""left":{"source":"MATCH (a) RETURN a","steps":[{"rule":"standardize","part":0,"#,
        r#""clause":0,"after":"MATCH (n1) RETURN n1"}],"normalized":"MATCH (n1) RETURN n1"},"#,
        r#""right":{"source":"MATCH (n1) RETURN n1","steps":[],"normalized":"MATCH (n1) RETURN n1"},"#,
        r#""evidence":{"type":"equivalence","column_permutation":[0],"permuted_right":null,"#,
        r#""segments":[{"#,
        r#""left":["sum",[0],["mul",[["nodefn",["var",0]],"#,
        r#"["atom",["cmp","eq",["prop",["var",0],"age"],["const",{"f":"1.5"}]]]]]],"#,
        r#""right":["sum",[0],["mul",[["nodefn",["var",0]],"#,
        r#"["atom",["cmp","eq",["prop",["var",0],"age"],["const",{"f":"1.5"}]]]]]],"#,
        r#""proof":["peel",["summands",{"#,
        r#""left":{"total":2,"zero_pruned":[1],"#,
        r#""kept":[{"index":0,"removed_atoms":[],"result":["one"]}]},"#,
        r#""right":{"total":1,"zero_pruned":[],"#,
        r#""kept":[{"index":0,"removed_atoms":[],"result":["one"]}]},"#,
        r#""matching":{"bijection":[[0,0]]}}]]}]}}"#,
    );

    const COUNTEREXAMPLE_JSON: &str = concat!(
        r#"{"version":2,"verdict":"not_equivalent","#,
        r#""left":{"source":"MATCH (a) RETURN a","steps":[],"normalized":"MATCH (n1) RETURN n1"},"#,
        r#""right":{"source":"MATCH (b:Person) RETURN b","steps":[],"#,
        r#""normalized":"MATCH (n1:Person) RETURN n1"},"#,
        r#""evidence":{"type":"counterexample","graph":{"#,
        r#""nodes":[{"labels":["Person"],"properties":{"w":{"f":"-0.0"}}},"#,
        r#"{"labels":[],"properties":{}}],"#,
        r#""relationships":[{"label":"KNOWS","source":0,"target":1,"properties":{}}]},"#,
        r#""pool_index":7,"left_columns":["a"],"#,
        r#""left_rows":[[{"n":0}],[[null,-9223372036854775808]]],"#,
        r#""right_columns":["b"],"right_rows":[[{"n":0}]]}}"#,
    );

    const EVERY_GX_JSON: &str = concat!(
        r#"{"version":2,"verdict":"equivalent","#,
        r#""left":{"source":"RETURN 1 AS x, 2 AS y","steps":[],"normalized":"RETURN 1 AS x, 2 AS y"},"#,
        r#""right":{"source":"RETURN 1 AS x, 2 AS y","steps":[],"#,
        r#""normalized":"RETURN 1 AS x, 2 AS y"},"#,
        r#""evidence":{"type":"equivalence","column_permutation":[1,0],"#,
        r#""permuted_right":"RETURN 2 AS y, 'é\t\u0001' AS x","#,
        r#""segments":[{"left":["mul",[["relfn",["var",1]],["labfn",["var",0],"Person"],"#,
        r#"["unbounded",["prop",["var",2],"näme"]],"#,
        r#"["squash",["not",["atom",["isnull",["agg","collect",true,"#,
        r#"["app","toLower",[["outcol",1],["const","a\"b\\c"]]],"#,
        r#"["add",[["zero"],["const",3]]]],true]]]],"#,
        r#"["atom",["pred","starts_with",[["const",null],["const",false],["const",-7]]]],"#,
        r#"["atom",["cmp","ge",["agg","collect",true,"#,
        r#"["app","toLower",[["outcol",1],["const","a\"b\\c"]]],"#,
        r#"["add",[["zero"],["const",3]]]],["const",{"f":"inf"}]]]]],"#,
        r#""right":["one"],"proof":["identical"]},"#,
        r#"{"left":["sum",[0,7],["one"]],"right":["one"],"proof":["peel",["summands",{"#,
        r#""left":{"total":2,"zero_pruned":[1],"kept":[{"index":0,"#,
        r#""removed_atoms":[["atom",["isnull",["var",0],false]]],"result":["one"]}]},"#,
        r#""right":{"total":2,"zero_pruned":[1],"kept":[{"index":0,"#,
        r#""removed_atoms":[["atom",["isnull",["var",0],false]]],"result":["one"]}]},"#,
        r#""matching":{"classes":{"representatives":[["zero"]],"left_assign":[0],"#,
        r#""right_assign":[0],"left_counts":[1],"right_counts":[1]}}}]]}]}}"#,
    );

    const EVERY_VALUE_JSON: &str = concat!(
        r#"{"version":2,"verdict":"not_equivalent","#,
        r#""left":{"source":"MATCH p = (a)-[r]->(a) RETURN p AS x","steps":[],"#,
        r#""normalized":"MATCH p = (n1)-[r1]->(n1) RETURN p AS x"},"#,
        r#""right":{"source":"RETURN 'x' AS x","steps":[],"normalized":"RETURN 'x' AS x"},"#,
        r#""evidence":{"type":"signature_mismatch","#,
        r#""left_signature":[{"name":"x","ty":"Path","nullable":false}],"#,
        r#""right_signature":[{"name":"x","ty":"String","nullable":true}],"#,
        r#""graph":{"nodes":[{"labels":["A","B"],"properties":{"#,
        r#""esc\"\\\u001f":"tab\there","map":{"m":{"k":[true,null]}},"nan":{"f":"NaN"}}}],"#,
        r#""relationships":[{"label":"R","source":0,"target":0,"#,
        r#""properties":{"w":{"f":"-1e300"}}}]},"#,
        r#""pool_index":3,"left_columns":["x"],"#,
        r#""left_rows":[[{"p":[{"n":0},{"r":0},{"n":0}]}],[{"f":"-inf"}],[9223372036854775807]],"#,
        r#""right_columns":["x"],"right_rows":[["x"]]}}"#,
    );

    #[test]
    fn certificates_round_trip_through_json() {
        let cert = sample_certificate();
        let text = cert.to_json();
        assert_eq!(text, SAMPLE_JSON);
        let back = Certificate::from_json(&text).unwrap();
        assert_eq!(back, cert);
    }

    #[test]
    fn counterexample_evidence_round_trips() {
        let cert = counterexample_certificate();
        let text = cert.to_json();
        assert_eq!(text, COUNTEREXAMPLE_JSON);
        let back = Certificate::from_json(&text).unwrap();
        assert_eq!(back, cert);
        // -0.0 must survive bit-exactly through the tagged float repr.
        let Evidence::Counterexample { graph, .. } = &back.evidence else { panic!() };
        let Value::Float(w) = graph.nodes[0].properties["w"] else { panic!() };
        assert!(w == 0.0 && w.is_sign_negative());
    }

    #[test]
    fn every_encoding_form_is_pinned() {
        let gx = every_gx_certificate();
        assert_eq!(gx.to_json(), EVERY_GX_JSON);
        assert_eq!(Certificate::from_json(EVERY_GX_JSON).unwrap(), gx);
        // NaN is not equal to itself, so this one compares its re-encoding.
        assert_eq!(every_value_certificate().to_json(), EVERY_VALUE_JSON);
        let back = Certificate::from_json(EVERY_VALUE_JSON).unwrap();
        assert_eq!(back.to_json(), EVERY_VALUE_JSON);
    }

    /// Writes `value` back out with every object's members in reverse order
    /// and whitespace around every token.
    fn reversed(value: JsonRef<'_>, out: &mut String) {
        match value {
            JsonRef::Null => out.push_str("null"),
            JsonRef::Bool(b) => encode_bool(out, b),
            JsonRef::Int(n) => json::write_int(out, n),
            JsonRef::Str(s) => json::write_str(out, s),
            JsonRef::Arr(items) => {
                out.push_str("[ ");
                for (i, item) in items.enumerate() {
                    if i > 0 {
                        out.push_str(" ,\n ");
                    }
                    reversed(item, out);
                }
                out.push_str(" ]");
            }
            JsonRef::Obj(members) => {
                out.push_str("{\n\t");
                let members: Vec<_> = members.collect();
                for (i, (name, value)) in members.into_iter().rev().enumerate() {
                    if i > 0 {
                        out.push_str(" ,\r\n ");
                    }
                    json::write_str(out, name);
                    out.push_str(" : ");
                    reversed(value, out);
                }
                out.push_str("\n}");
            }
        }
    }

    #[test]
    fn decoding_accepts_any_member_order_whitespace_and_unknown_members() {
        let certs = [sample_certificate(), counterexample_certificate(), every_gx_certificate()];
        for cert in certs {
            let text = cert
                .to_json()
                .replacen(r#"{"version":2,"#, r#"{"comment":"by hand","version":2,"#, 1)
                .replace(r#"{"rule":"#, r#"{"extra":[1,{"x":null}],"rule":"#)
                .replacen(r#""evidence":{"#, r#""evidence":{"note":true,"#, 1);
            let mut shuffled = String::new();
            reversed(Tape::parse(&text).unwrap().root(), &mut shuffled);
            assert!(shuffled.starts_with("{\n\t\"evidence\" : {\n\t"), "{shuffled}");
            assert_eq!(Certificate::from_json(&shuffled).unwrap(), cert);
        }
    }

    #[test]
    fn decoding_rejects_malformed_documents() {
        assert!(Certificate::from_json("{}").is_err());
        assert!(Certificate::from_json("{\"version\":2}").is_err());
        let cert = sample_certificate();
        let good = cert.to_json();
        let bad = good.replace("\"equivalent\"", "\"maybe\"");
        assert!(Certificate::from_json(&bad).is_err());
    }

    #[test]
    fn decoding_rejects_repeated_member_names() {
        // A first-match reader would see EQUIVALENT, a last-match one
        // NOT_EQUIVALENT: the document has no single meaning.
        let text = SAMPLE_JSON.replacen(
            r#""verdict":"equivalent","#,
            r#""verdict":"equivalent","verdict":"not_equivalent","#,
            1,
        );
        let error = Certificate::from_json(&text).unwrap_err();
        assert!(error.contains("duplicate member name `verdict`"), "{error}");
    }

    #[test]
    fn decoding_rejects_ids_beyond_u32() {
        let beyond = u64::from(u32::MAX) + 1;
        let edits = [
            (COUNTEREXAMPLE_JSON, r#""source":0"#, format!(r#""source":{beyond}"#)),
            (COUNTEREXAMPLE_JSON, r#""target":1"#, format!(r#""target":{beyond}"#)),
            (COUNTEREXAMPLE_JSON, r#"{"n":0}"#, format!(r#"{{"n":{beyond}}}"#)),
            (EVERY_VALUE_JSON, r#"{"r":0}"#, format!(r#"{{"r":{beyond}}}"#)),
            (SAMPLE_JSON, r#"["var",0]"#, format!(r#"["var",{beyond}]"#)),
            (SAMPLE_JSON, r#"["sum",[0]"#, format!(r#"["sum",[{beyond}]"#)),
        ];
        for (text, from, to) in edits {
            assert!(text.contains(from), "{from}");
            let error = Certificate::from_json(&text.replacen(from, &to, 1)).unwrap_err();
            assert!(error.contains("out of the u32 range"), "{from}: {error}");
        }
        // The largest id still decodes.
        let max = SAMPLE_JSON.replacen(r#"["var",0]"#, &format!(r#"["var",{}]"#, u32::MAX), 1);
        assert!(Certificate::from_json(&max).is_ok());
    }
}
