//! The equivalence witness the arena decision records in evidence mode
//! ([`crate::try_check_equivalence_recording`]).
//!
//! A witness holds everything an independent checker needs to re-validate
//! the proof without re-running SMT:
//!
//! - which summands were zero-pruned and which atoms were removed as implied
//!   (so the structural simplification can be replayed);
//! - the exact isomorphism pairing when the kept summands matched
//!   bijectively (so the checker can re-unify each pair under one shared
//!   variable mapping);
//! - the class representatives, per-summand assignments, and per-class
//!   counts when class counting decided the proof.
//!
//! Nothing here re-proves anything: the records are read off the ids the
//! decision already holds, so a witness always describes the decision that
//! produced the verdict. With recording off the decision does no extra work.

use gexpr::arena::{GStore, NodeId};
use gexpr::GExpr;

/// One kept summand with its simplification record.
#[derive(Debug, Clone, PartialEq)]
pub struct KeptRecord {
    /// Index into the side's original summand list.
    pub index: usize,
    /// Atoms removed as SMT-implied, in the summand's factor order.
    pub removed_atoms: Vec<GExpr>,
    /// The simplified summand.
    pub result: GExpr,
}

/// One side's summand accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SideRecord {
    /// Number of summands before pruning.
    pub total: usize,
    /// Indices of summands pruned as identically zero.
    pub zero_pruned: Vec<usize>,
    /// Surviving summands in original order.
    pub kept: Vec<KeptRecord>,
}

/// How the two sides' kept summands were matched.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchingRecord {
    /// `(left kept position, right kept position)` pairs unifiable in order
    /// under a single shared variable mapping.
    Bijection(Vec<(usize, usize)>),
    /// Isomorphism-class counting with a final (trusted-free) count equality.
    Classes {
        /// Class representative expressions.
        representatives: Vec<GExpr>,
        /// Class of each left kept summand.
        left_assign: Vec<usize>,
        /// Class of each right kept summand.
        right_assign: Vec<usize>,
        /// Per-class counts on the left.
        left_counts: Vec<usize>,
        /// Per-class counts on the right.
        right_counts: Vec<usize>,
    },
}

/// The recorded proof tree.
#[derive(Debug, Clone, PartialEq)]
pub enum ProofRecord {
    /// The normalized trees are structurally identical.
    Identical,
    /// Both sides are squashes; the proof continues on the bodies.
    Peel(Box<ProofRecord>),
    /// Summand decomposition, simplification, and matching.
    Summands(Box<SummandsRecord>),
}

/// The summand-level record of one decision step.
#[derive(Debug, Clone, PartialEq)]
pub struct SummandsRecord {
    /// Left side accounting.
    pub left: SideRecord,
    /// Right side accounting.
    pub right: SideRecord,
    /// The matching that closed the proof.
    pub matching: MatchingRecord,
}

/// A complete witness for one pair of G-expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRecord {
    /// The left tree after disjoint-squash splitting and normalization.
    pub left: GExpr,
    /// The right tree after disjoint-squash splitting and normalization.
    pub right: GExpr,
    /// The recorded proof relating them.
    pub proof: ProofRecord,
}

/// One side's accounting from the decision's intermediate results: the
/// side's summands, the indices pruned as zero (ascending), and the kept
/// simplifications in order.
pub(crate) fn side_record(
    store: &GStore,
    summands: &[NodeId],
    zero_pruned: Vec<usize>,
    kept: &[NodeId],
) -> SideRecord {
    let kept_indices = (0..summands.len()).filter(|index| !zero_pruned.contains(index));
    let kept = kept_indices
        .zip(kept)
        .map(|(index, &result)| KeptRecord {
            index,
            removed_atoms: removed_atoms(store, summands[index], result),
            result: store.extern_expr(result),
        })
        .collect();
    SideRecord { total: summands.len(), zero_pruned, kept }
}

/// The factors of `summand` that its simplification `result` no longer
/// has, in factor order. Implication pruning only ever drops factors, so
/// this is exactly the removed atoms — and, read off the two interned forms
/// instead of logged by the simplifier, it is the same on a summand-cache
/// hit as on the miss that filled the entry.
fn removed_atoms(store: &GStore, summand: NodeId, result: NodeId) -> Vec<GExpr> {
    let (_, mut remaining) = crate::decompose_summand(store, result);
    let (_, factors) = crate::decompose_summand(store, summand);
    factors
        .into_iter()
        .filter(|factor| match remaining.iter().position(|kept| kept == factor) {
            Some(position) => {
                remaining.swap_remove(position);
                false
            }
            None => true,
        })
        .map(|atom| store.extern_expr(atom))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::{cloning, VarMapping};
    use crate::{try_check_equivalence_recording, try_check_equivalence_with_opts, DecideOptions};
    use cypher_parser::parse_query;
    use gexpr::build_query;

    fn gexpr_of(query: &str) -> GExpr {
        build_query(&parse_query(query).unwrap()).unwrap().expr
    }

    /// The query's G-expression, built into the calling thread's arena.
    fn id_of(query: &str) -> NodeId {
        let query = parse_query(query).unwrap();
        gexpr::with_thread_store(|store| gexpr::build_into(store, &query).unwrap().expr)
    }

    fn witness_of(q1: &str, q2: &str) -> Option<SegmentRecord> {
        try_check_equivalence_recording(id_of(q1), id_of(q2)).expect("no limits").2
    }

    #[test]
    fn witness_matches_the_tree_pipeline_verdict() {
        let pairs = [
            ("MATCH (n1) RETURN n1", "MATCH (n1) RETURN n1", true),
            ("MATCH (n1) RETURN n1.a", "MATCH (n2) RETURN n2.a", true),
            (
                "MATCH (n1) WHERE n1.a > 5 AND n1.a > 3 RETURN n1",
                "MATCH (n1) WHERE n1.a > 5 RETURN n1",
                true,
            ),
            ("MATCH (n:Person) RETURN n", "MATCH (n:Book) RETURN n", false),
        ];
        for (q1, q2, expected) in pairs {
            let (tree, _) = crate::check_equivalence_with_opts(
                &gexpr_of(q1),
                &gexpr_of(q2),
                DecideOptions { tree_normalizer: true },
            );
            assert_eq!(tree.is_proved(), expected, "tree pipeline: {q1} vs {q2}");
            assert_eq!(witness_of(q1, q2).is_some(), expected, "recorded witness: {q1} vs {q2}");
        }
    }

    #[test]
    fn recorded_bijection_unifies_sequentially() {
        // Two summands per side whose bijection must cross.
        let witness = witness_of(
            "MATCH (a:Person) RETURN a.x UNION ALL MATCH (b:Book) RETURN b.x",
            "MATCH (c:Book) RETURN c.x UNION ALL MATCH (d:Person) RETURN d.x",
        )
        .expect("witness exists");
        let ProofRecord::Summands(record) = &witness.proof else {
            panic!("expected a summands proof, got {:?}", witness.proof);
        };
        let MatchingRecord::Bijection(pairs) = &record.matching else {
            panic!("expected a bijection");
        };
        assert_eq!(pairs.len(), 2);
        let mut mapping = VarMapping::new();
        for &(l, r) in pairs {
            mapping = cloning::unify_expr(
                &record.left.kept[l].result,
                &record.right.kept[r].result,
                &mapping,
            )
            .unwrap_or_else(|| panic!("pair ({l}, {r}) unifies under the shared mapping"));
        }
    }

    #[test]
    fn implied_atom_removal_is_recorded() {
        fn removed_count(proof: &ProofRecord) -> usize {
            match proof {
                ProofRecord::Identical => 0,
                ProofRecord::Peel(inner) => removed_count(inner),
                ProofRecord::Summands(record) => record
                    .left
                    .kept
                    .iter()
                    .chain(record.right.kept.iter())
                    .map(|k| k.removed_atoms.len())
                    .sum(),
            }
        }
        crate::reset_thread_caches();
        let q1 = "MATCH (n1) WHERE n1.a > 5 AND n1.a > 3 RETURN n1";
        let q2 = "MATCH (n1) WHERE n1.a > 5 RETURN n1";
        let cold = witness_of(q1, q2).expect("witness exists");
        assert!(
            removed_count(&cold.proof) >= 1,
            "the implied atom [n1.a > 3] should be recorded as removed"
        );
        // The second decision hits the summand cache and records the same.
        assert_eq!(witness_of(q1, q2), Some(cold));
    }

    #[test]
    fn recording_leaves_decision_and_stats_unchanged() {
        let pairs = [
            ("MATCH (n1) RETURN n1", "MATCH (n2) RETURN n2"),
            (
                "MATCH (n) WHERE n.age < 10 OR n.age > 20 RETURN n.name",
                "MATCH (n) WHERE n.age < 10 RETURN n.name \
                 UNION ALL MATCH (n) WHERE n.age > 20 RETURN n.name",
            ),
            (
                "MATCH (n) WHERE n.age = 1 AND n.age = 2 RETURN n",
                "MATCH (m:Person) WHERE m.x < 1 AND m.x > 1 RETURN m",
            ),
            ("MATCH (a) RETURN a UNION ALL MATCH (b) RETURN b", "MATCH (a) RETURN a"),
            ("MATCH (n) RETURN DISTINCT n.name", "MATCH (n) RETURN n.name"),
        ];
        for (q1, q2) in pairs {
            let (g1, g2) = (id_of(q1), id_of(q2));
            let off = try_check_equivalence_with_opts(g1, g2, DecideOptions::default());
            let (decision, stats, witness) = try_check_equivalence_recording(g1, g2).unwrap();
            assert_eq!(off, Ok((decision, stats)), "{q1} vs {q2}");
            assert_eq!(witness.is_some(), decision.is_proved(), "{q1} vs {q2}");
        }
    }
}
