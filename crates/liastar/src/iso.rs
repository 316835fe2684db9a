//! Isomorphism matching of normalized G-expressions.
//!
//! Two normalized G-expressions are *isomorphic* when there is a bijective
//! renaming of summation variables that makes them syntactically identical
//! (products and sums are compared as multisets). By the U-semiring axioms,
//! isomorphic expressions denote the same multiplicity function, so
//! isomorphism is a sound sufficient condition for equivalence — this is the
//! structural core of the decision procedure, with the SMT-backed reasoning
//! layered on top in [`crate::check_equivalence`].
//!
//! Two matchers share the [`VarMapping`]:
//!
//! * [`ids`] — the decision procedure's matcher, walking interned arena ids.
//!   It is a backtracking search: instead of cloning the candidate variable
//!   mapping at every nondeterministic branch, a single [`VarMapping`] is
//!   threaded mutably through the search and an **undo trail** records each
//!   fresh binding; on a failed branch the trail is rolled back to the
//!   branch's checkpoint. Backtracking is thereby O(bindings undone) with
//!   zero allocation, instead of O(mapping size) clones per branch.
//! * [`cloning`] — the tree pipeline's matcher, which clones the mapping at
//!   every branch; it is the reference the id matcher is tested against.

use std::collections::BTreeMap;

use gexpr::VarId;

/// A (partial) injective variable mapping from the left expression to the
/// right expression, with an undo trail for cheap backtracking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarMapping {
    forward: BTreeMap<VarId, VarId>,
    backward: BTreeMap<VarId, VarId>,
    /// Every binding ever inserted, in insertion order; `rollback_to`
    /// removes a suffix of this trail from both maps.
    trail: Vec<(VarId, VarId)>,
}

/// A point in the search to which a [`VarMapping`] can be rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint(usize);

impl VarMapping {
    /// An empty mapping.
    pub fn new() -> Self {
        VarMapping::default()
    }

    /// Tries to record `from ↦ to`; fails if it would break injectivity or
    /// contradict an existing entry. Fresh bindings are pushed on the trail.
    pub fn bind(&mut self, from: VarId, to: VarId) -> bool {
        match (self.forward.get(&from), self.backward.get(&to)) {
            (Some(existing_to), _) => *existing_to == to,
            (None, Some(existing_from)) => *existing_from == from,
            (None, None) => {
                self.forward.insert(from, to);
                self.backward.insert(to, from);
                self.trail.push((from, to));
                true
            }
        }
    }

    /// The current position of the undo trail.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.trail.len())
    }

    /// Undoes every binding recorded after `mark`.
    pub fn rollback_to(&mut self, mark: Checkpoint) {
        while self.trail.len() > mark.0 {
            let (from, to) = self.trail.pop().expect("trail length checked");
            self.forward.remove(&from);
            self.backward.remove(&to);
        }
    }

    /// The forward map.
    pub fn forward(&self) -> &BTreeMap<VarId, VarId> {
        &self.forward
    }
}

/// Arena-native undo-trail matcher, walking interned [`gexpr::arena`] ids
/// instead of `GExpr` trees.
///
/// Two wins over a tree walk:
///
/// * **same-node fast path** — hash-consing guarantees that two equal ids
///   are the *same* subtree, and on an identical pair the structural walk's
///   first-choice (identity) pairing succeeds exactly when binding every
///   variable of the node to itself is compatible with the ambient mapping.
///   The fast path replays precisely that — the memoized variable set of the
///   node (`GStore::node_all_variables`) is bound identically — so the
///   ubiquitous "identical summand on both sides" case costs O(#variables)
///   instead of a full structural walk, *with bit-identical behavior*: the
///   same bindings are recorded, and if identity is blocked by the ambient
///   mapping the matcher falls through to the ordinary walk (which may still
///   succeed via a non-identity pairing, exactly like the tree matcher).
/// * **no tree materialization** — candidates stay as ids end-to-end; the
///   only allocations are one-level `ANode` clones at the nodes actually
///   visited.
pub mod ids {
    use super::VarMapping;
    use gexpr::arena::{AAtom, ANode, ATerm, GStore, NodeId, TermId};

    /// Checks whether the interned nodes `left` and `right` are isomorphic,
    /// extending `mapping` in place. On failure the mapping is restored to
    /// its entry state.
    pub fn unify_node(
        store: &mut GStore,
        left: NodeId,
        right: NodeId,
        mapping: &mut VarMapping,
    ) -> bool {
        let mark = mapping.checkpoint();
        if left == right {
            // Fast path: identical interned node. The structural walk's
            // depth-first search tries the identity pairing first, which
            // succeeds iff every variable of the node binds to itself under
            // the ambient mapping — replay exactly that. On success the
            // recorded bindings are identical to the walk's; on failure fall
            // through to the walk, which may still find a non-identity
            // match (identical to the tree matcher's behavior).
            if store.node_all_variables(left).iter().all(|v| mapping.bind(*v, *v)) {
                return true;
            }
            mapping.rollback_to(mark);
        }
        let ok = unify_node_inner(store, left, right, mapping);
        if !ok {
            mapping.rollback_to(mark);
        }
        ok
    }

    fn unify_node_inner(
        store: &mut GStore,
        left: NodeId,
        right: NodeId,
        mapping: &mut VarMapping,
    ) -> bool {
        match (store.node_of(left).clone(), store.node_of(right).clone()) {
            (ANode::Zero, ANode::Zero) | (ANode::One, ANode::One) => true,
            (ANode::Const(a), ANode::Const(b)) => a == b,
            (ANode::Atom(a), ANode::Atom(b)) => unify_atom(store, &a, &b, mapping),
            (ANode::NodeFn(a), ANode::NodeFn(b))
            | (ANode::RelFn(a), ANode::RelFn(b))
            | (ANode::Unbounded(a), ANode::Unbounded(b)) => unify_term(store, a, b, mapping),
            (ANode::Lab(a, la), ANode::Lab(b, lb)) => la == lb && unify_term(store, a, b, mapping),
            (ANode::Squash(a), ANode::Squash(b)) | (ANode::Not(a), ANode::Not(b)) => {
                unify_node(store, a, b, mapping)
            }
            (ANode::Mul(a), ANode::Mul(b)) | (ANode::Add(a), ANode::Add(b)) => {
                unify_multiset(store, &a, &b, mapping, None)
            }
            (ANode::Sum(va, ba), ANode::Sum(vb, bb)) => {
                va.len() == vb.len() && unify_node(store, ba, bb, mapping)
            }
            _ => false,
        }
    }

    /// Finds a bijection between the two multisets of nodes under which
    /// every pair unifies, threading the variable mapping through; on failure
    /// the mapping is restored to its entry state. On success, `assignment`
    /// (when given) receives the right index matched by each left position,
    /// in position order: the pairs unify one after another under one shared
    /// mapping.
    pub fn unify_multiset(
        store: &mut GStore,
        left: &[NodeId],
        right: &[NodeId],
        mapping: &mut VarMapping,
        assignment: Option<&mut Vec<usize>>,
    ) -> bool {
        if left.len() != right.len() {
            return false;
        }
        let mut used = vec![false; right.len()];
        unify_multiset_from(store, left, right, 0, &mut used, mapping, assignment)
    }

    fn unify_multiset_from(
        store: &mut GStore,
        left: &[NodeId],
        right: &[NodeId],
        position: usize,
        used: &mut [bool],
        mapping: &mut VarMapping,
        mut assignment: Option<&mut Vec<usize>>,
    ) -> bool {
        if position == left.len() {
            return true;
        }
        let first = left[position];
        for index in 0..right.len() {
            if used[index] {
                continue;
            }
            let mark = mapping.checkpoint();
            if unify_node(store, first, right[index], mapping) {
                used[index] = true;
                if let Some(assignment) = assignment.as_deref_mut() {
                    assignment.push(index);
                }
                if unify_multiset_from(
                    store,
                    left,
                    right,
                    position + 1,
                    used,
                    mapping,
                    assignment.as_deref_mut(),
                ) {
                    return true;
                }
                if let Some(assignment) = assignment.as_deref_mut() {
                    assignment.pop();
                }
                used[index] = false;
            }
            mapping.rollback_to(mark);
        }
        false
    }

    fn unify_atom(
        store: &mut GStore,
        left: &AAtom,
        right: &AAtom,
        mapping: &mut VarMapping,
    ) -> bool {
        match (left, right) {
            (AAtom::Cmp(op_l, a1, a2), AAtom::Cmp(op_r, b1, b2)) => {
                if op_l == op_r && unify_term_pair(store, *a1, *a2, *b1, *b2, mapping) {
                    return true;
                }
                *op_r == op_l.flipped() && unify_term_pair(store, *a1, *a2, *b2, *b1, mapping)
            }
            (AAtom::IsNull(a, na), AAtom::IsNull(b, nb)) => {
                na == nb && unify_term(store, *a, *b, mapping)
            }
            (AAtom::Pred(name_a, args_a), AAtom::Pred(name_b, args_b)) => {
                if name_a != name_b || args_a.len() != args_b.len() {
                    return false;
                }
                let mark = mapping.checkpoint();
                for (a, b) in args_a.iter().zip(args_b.iter()) {
                    if !unify_term(store, *a, *b, mapping) {
                        mapping.rollback_to(mark);
                        return false;
                    }
                }
                true
            }
            _ => false,
        }
    }

    fn unify_term_pair(
        store: &mut GStore,
        a1: TermId,
        a2: TermId,
        b1: TermId,
        b2: TermId,
        mapping: &mut VarMapping,
    ) -> bool {
        let mark = mapping.checkpoint();
        if unify_term(store, a1, b1, mapping) && unify_term(store, a2, b2, mapping) {
            return true;
        }
        mapping.rollback_to(mark);
        false
    }

    /// Checks whether two interned terms unify under an injective variable
    /// renaming, extending `mapping` in place. On failure the mapping is
    /// restored.
    pub fn unify_term(
        store: &mut GStore,
        left: TermId,
        right: TermId,
        mapping: &mut VarMapping,
    ) -> bool {
        let mark = mapping.checkpoint();
        let ok = unify_term_inner(store, left, right, mapping);
        if !ok {
            mapping.rollback_to(mark);
        }
        ok
    }

    fn unify_term_inner(
        store: &mut GStore,
        left: TermId,
        right: TermId,
        mapping: &mut VarMapping,
    ) -> bool {
        match (store.term_of(left).clone(), store.term_of(right).clone()) {
            (ATerm::Var(a), ATerm::Var(b)) => mapping.bind(a, b),
            (ATerm::OutCol(a), ATerm::OutCol(b)) => a == b,
            (ATerm::Const(a), ATerm::Const(b)) => a == b,
            (ATerm::Prop(base_a, key_a), ATerm::Prop(base_b, key_b)) => {
                key_a == key_b && unify_term(store, base_a, base_b, mapping)
            }
            (ATerm::App(name_a, args_a), ATerm::App(name_b, args_b)) => {
                if name_a != name_b || args_a.len() != args_b.len() {
                    return false;
                }
                for (a, b) in args_a.iter().zip(args_b.iter()) {
                    if !unify_term(store, *a, *b, mapping) {
                        return false;
                    }
                }
                true
            }
            (
                ATerm::Agg { kind: ka, distinct: da, arg: aa, group: ga },
                ATerm::Agg { kind: kb, distinct: db, arg: ab, group: gb },
            ) => {
                ka == kb
                    && da == db
                    && unify_term(store, aa, ab, mapping)
                    && unify_node(store, ga, gb, mapping)
            }
            _ => false,
        }
    }

    /// Convenience: `true` if the two interned nodes are isomorphic starting
    /// from an empty mapping.
    pub fn isomorphic(store: &mut GStore, left: NodeId, right: NodeId) -> bool {
        unify_node(store, left, right, &mut VarMapping::new())
    }
}

/// The tree pipeline's matcher: clones the whole mapping at every
/// nondeterministic branch and the remaining multisets at every recursion
/// level. It backs the paper-faithful tree pipeline (the benchmark baseline)
/// and is the reference the [`ids`] matcher is tested against.
pub mod cloning {
    use super::VarMapping;
    use gexpr::{GAtom, GExpr, GTerm};

    /// Unifies two expression trees under an injective variable renaming
    /// extending `mapping`, returning the extended mapping on success.
    pub fn unify_expr(left: &GExpr, right: &GExpr, mapping: &VarMapping) -> Option<VarMapping> {
        match (left, right) {
            (GExpr::Zero, GExpr::Zero) | (GExpr::One, GExpr::One) => Some(mapping.clone()),
            (GExpr::Const(a), GExpr::Const(b)) if a == b => Some(mapping.clone()),
            (GExpr::Atom(a), GExpr::Atom(b)) => unify_atom(a, b, mapping),
            (GExpr::NodeFn(a), GExpr::NodeFn(b))
            | (GExpr::RelFn(a), GExpr::RelFn(b))
            | (GExpr::Unbounded(a), GExpr::Unbounded(b)) => unify_term(a, b, mapping),
            (GExpr::LabFn(a, la), GExpr::LabFn(b, lb)) if la == lb => unify_term(a, b, mapping),
            (GExpr::Squash(a), GExpr::Squash(b)) | (GExpr::Not(a), GExpr::Not(b)) => {
                unify_expr(a, b, mapping)
            }
            (GExpr::Mul(a), GExpr::Mul(b)) | (GExpr::Add(a), GExpr::Add(b)) => {
                unify_multiset(a, b, mapping)
            }
            (GExpr::Sum { vars: va, body: ba }, GExpr::Sum { vars: vb, body: bb }) => {
                if va.len() != vb.len() {
                    return None;
                }
                unify_expr(ba, bb, mapping)
            }
            _ => None,
        }
    }

    /// Finds a bijection between the two multisets under which every pair
    /// unifies, returning the extended mapping on success.
    pub fn unify_multiset(
        left: &[GExpr],
        right: &[GExpr],
        mapping: &VarMapping,
    ) -> Option<VarMapping> {
        if left.len() != right.len() {
            return None;
        }
        if left.is_empty() {
            return Some(mapping.clone());
        }
        let first = &left[0];
        let rest: Vec<GExpr> = left[1..].to_vec();
        for (index, candidate) in right.iter().enumerate() {
            if let Some(extended) = unify_expr(first, candidate, mapping) {
                let mut remaining = right.to_vec();
                remaining.remove(index);
                if let Some(result) = unify_multiset(&rest, &remaining, &extended) {
                    return Some(result);
                }
            }
        }
        None
    }

    fn unify_atom(left: &GAtom, right: &GAtom, mapping: &VarMapping) -> Option<VarMapping> {
        match (left, right) {
            (GAtom::Cmp(op_l, a1, a2), GAtom::Cmp(op_r, b1, b2)) => {
                if op_l == op_r {
                    if let Some(m) = unify_term_pair(a1, a2, b1, b2, mapping) {
                        return Some(m);
                    }
                }
                if *op_r == op_l.flipped() {
                    if let Some(m) = unify_term_pair(a1, a2, b2, b1, mapping) {
                        return Some(m);
                    }
                }
                None
            }
            (GAtom::IsNull(a, na), GAtom::IsNull(b, nb)) if na == nb => unify_term(a, b, mapping),
            (GAtom::Pred(name_a, args_a), GAtom::Pred(name_b, args_b))
                if name_a == name_b && args_a.len() == args_b.len() =>
            {
                let mut current = mapping.clone();
                for (a, b) in args_a.iter().zip(args_b.iter()) {
                    current = unify_term(a, b, &current)?;
                }
                Some(current)
            }
            _ => None,
        }
    }

    fn unify_term_pair(
        a1: &GTerm,
        a2: &GTerm,
        b1: &GTerm,
        b2: &GTerm,
        mapping: &VarMapping,
    ) -> Option<VarMapping> {
        let first = unify_term(a1, b1, mapping)?;
        unify_term(a2, b2, &first)
    }

    /// Unifies two terms under an injective variable renaming extending
    /// `mapping`, returning the extended mapping on success.
    pub fn unify_term(left: &GTerm, right: &GTerm, mapping: &VarMapping) -> Option<VarMapping> {
        match (left, right) {
            (GTerm::Var(a), GTerm::Var(b)) => {
                let mut extended = mapping.clone();
                if extended.bind(*a, *b) {
                    Some(extended)
                } else {
                    None
                }
            }
            (GTerm::OutCol(a), GTerm::OutCol(b)) if a == b => Some(mapping.clone()),
            (GTerm::Const(a), GTerm::Const(b)) if a == b => Some(mapping.clone()),
            (GTerm::Prop(base_a, key_a), GTerm::Prop(base_b, key_b)) if key_a == key_b => {
                unify_term(base_a, base_b, mapping)
            }
            (GTerm::App(name_a, args_a), GTerm::App(name_b, args_b))
                if name_a == name_b && args_a.len() == args_b.len() =>
            {
                let mut current = mapping.clone();
                for (a, b) in args_a.iter().zip(args_b.iter()) {
                    current = unify_term(a, b, &current)?;
                }
                Some(current)
            }
            (
                GTerm::Agg { kind: ka, distinct: da, arg: aa, group: ga },
                GTerm::Agg { kind: kb, distinct: db, arg: ab, group: gb },
            ) if ka == kb && da == db => {
                let current = unify_term(aa, ab, mapping)?;
                unify_expr(ga, gb, &current)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gexpr::{CmpOp, GAtom, GExpr, GStore, GTerm};

    fn var(i: u32) -> GTerm {
        GTerm::Var(VarId(i))
    }

    /// The id matcher on both sides interned into a fresh store.
    fn isomorphic(left: &GExpr, right: &GExpr) -> bool {
        let mut store = GStore::new();
        let (l, r) = (store.intern_expr(left), store.intern_expr(right));
        ids::isomorphic(&mut store, l, r)
    }

    /// The tree pipeline's matcher from an empty mapping.
    fn tree_isomorphic(left: &GExpr, right: &GExpr) -> bool {
        cloning::unify_expr(left, right, &VarMapping::new()).is_some()
    }

    #[test]
    fn variable_renaming_is_found() {
        let left = GExpr::mul(vec![
            GExpr::NodeFn(var(0)),
            GExpr::eq(GTerm::prop(var(0), "age"), GTerm::int(59)),
        ]);
        let right = GExpr::mul(vec![
            GExpr::NodeFn(var(7)),
            GExpr::eq(GTerm::prop(var(7), "age"), GTerm::int(59)),
        ]);
        assert!(isomorphic(&left, &right));
    }

    #[test]
    fn injectivity_is_enforced() {
        // e0 and e1 on the left cannot both map to e5 on the right.
        let left = GExpr::mul(vec![GExpr::NodeFn(var(0)), GExpr::RelFn(var(1))]);
        let right = GExpr::mul(vec![GExpr::NodeFn(var(5)), GExpr::RelFn(var(5))]);
        assert!(!isomorphic(&left, &right));
    }

    #[test]
    fn products_are_compared_as_multisets() {
        let left = GExpr::mul(vec![
            GExpr::NodeFn(var(0)),
            GExpr::LabFn(var(0), "A".into()),
            GExpr::RelFn(var(1)),
        ]);
        let right = GExpr::mul(vec![
            GExpr::RelFn(var(3)),
            GExpr::NodeFn(var(2)),
            GExpr::LabFn(var(2), "A".into()),
        ]);
        assert!(isomorphic(&left, &right));
    }

    #[test]
    fn mirrored_comparisons_unify() {
        let left = GExpr::Atom(GAtom::Cmp(CmpOp::Lt, var(0), GTerm::int(5)));
        let right = GExpr::Atom(GAtom::Cmp(CmpOp::Gt, GTerm::int(5), var(9)));
        assert!(isomorphic(&left, &right));
        let left = GExpr::eq(var(0), var(1));
        let right = GExpr::eq(var(4), var(3));
        assert!(isomorphic(&left, &right));
    }

    #[test]
    fn different_constants_do_not_unify() {
        let left = GExpr::eq(GTerm::prop(var(0), "age"), GTerm::int(59));
        let right = GExpr::eq(GTerm::prop(var(0), "age"), GTerm::int(60));
        assert!(!isomorphic(&left, &right));
        let left = GExpr::LabFn(var(0), "Person".into());
        let right = GExpr::LabFn(var(0), "Book".into());
        assert!(!isomorphic(&left, &right));
    }

    #[test]
    fn out_columns_must_match_positionally() {
        let left = GExpr::eq(GTerm::OutCol(0), var(0));
        let right = GExpr::eq(GTerm::OutCol(0), var(5));
        assert!(isomorphic(&left, &right));
        let right = GExpr::eq(GTerm::OutCol(1), var(5));
        assert!(!isomorphic(&left, &right));
    }

    #[test]
    fn summations_unify_through_their_bodies() {
        let left = GExpr::sum(
            vec![VarId(0), VarId(1)],
            GExpr::mul(vec![
                GExpr::NodeFn(var(0)),
                GExpr::RelFn(var(1)),
                GExpr::eq(GTerm::app("src", vec![var(1)]), var(0)),
            ]),
        );
        let right = GExpr::sum(
            vec![VarId(10), VarId(20)],
            GExpr::mul(vec![
                GExpr::RelFn(var(20)),
                GExpr::NodeFn(var(10)),
                GExpr::eq(GTerm::app("src", vec![var(20)]), var(10)),
            ]),
        );
        assert!(isomorphic(&left, &right));
        // Different arity of the summation is rejected.
        let fewer = GExpr::sum(vec![VarId(10)], GExpr::NodeFn(var(10)));
        assert!(!isomorphic(&left, &fewer));
    }

    #[test]
    fn the_mapping_is_consistent_across_factors() {
        // [src(e1) = e0] × [tgt(e1) = e0]  vs  [src(e3) = e2] × [tgt(e3) = e4]
        // must NOT unify: e0 would have to map to both e2 and e4.
        let left = GExpr::mul(vec![
            GExpr::eq(GTerm::app("src", vec![var(1)]), var(0)),
            GExpr::eq(GTerm::app("tgt", vec![var(1)]), var(0)),
        ]);
        let right = GExpr::mul(vec![
            GExpr::eq(GTerm::app("src", vec![var(3)]), var(2)),
            GExpr::eq(GTerm::app("tgt", vec![var(3)]), var(4)),
        ]);
        assert!(!isomorphic(&left, &right));
    }

    #[test]
    fn failed_unification_restores_the_mapping() {
        let mut mapping = VarMapping::new();
        assert!(mapping.bind(VarId(0), VarId(10)));
        let before = mapping.clone();
        // This fails mid-way: e0 is already bound to e10, so binding it to
        // e11 is rejected after other bindings may have been recorded.
        let left =
            GExpr::mul(vec![GExpr::NodeFn(var(1)), GExpr::eq(var(0), GTerm::prop(var(1), "x"))]);
        let right =
            GExpr::mul(vec![GExpr::NodeFn(var(12)), GExpr::eq(var(11), GTerm::prop(var(12), "x"))]);
        let mut store = GStore::new();
        let (l, r) = (store.intern_expr(&left), store.intern_expr(&right));
        assert!(!ids::unify_node(&mut store, l, r, &mut mapping));
        assert_eq!(mapping, before, "mapping must be rolled back on failure");
    }

    #[test]
    fn backtracking_explores_later_candidates() {
        // The first candidate for Node(e0) is Node(e5), which dead-ends when
        // the equality forces e0 ↦ e6; the matcher must undo and retry.
        let left = GExpr::mul(vec![
            GExpr::NodeFn(var(0)),
            GExpr::NodeFn(var(1)),
            GExpr::eq(GTerm::prop(var(0), "a"), GTerm::int(1)),
        ]);
        let right = GExpr::mul(vec![
            GExpr::NodeFn(var(5)),
            GExpr::NodeFn(var(6)),
            GExpr::eq(GTerm::prop(var(6), "a"), GTerm::int(1)),
        ]);
        assert!(isomorphic(&left, &right));
    }

    #[test]
    fn id_matcher_agrees_with_tree_matcher() {
        let mut store = GStore::new();
        let cases: Vec<(GExpr, GExpr)> = vec![
            (
                GExpr::mul(vec![GExpr::NodeFn(var(0)), GExpr::RelFn(var(1))]),
                GExpr::mul(vec![GExpr::RelFn(var(9)), GExpr::NodeFn(var(8))]),
            ),
            (
                GExpr::mul(vec![GExpr::NodeFn(var(0)), GExpr::RelFn(var(1))]),
                GExpr::mul(vec![GExpr::NodeFn(var(5)), GExpr::RelFn(var(5))]),
            ),
            (
                GExpr::mul(vec![
                    GExpr::eq(GTerm::app("src", vec![var(1)]), var(0)),
                    GExpr::eq(GTerm::app("tgt", vec![var(1)]), var(0)),
                ]),
                GExpr::mul(vec![
                    GExpr::eq(GTerm::app("src", vec![var(3)]), var(2)),
                    GExpr::eq(GTerm::app("tgt", vec![var(3)]), var(4)),
                ]),
            ),
            (
                GExpr::sum(vec![VarId(0)], GExpr::NodeFn(var(0))),
                GExpr::sum(vec![VarId(7)], GExpr::NodeFn(var(7))),
            ),
            (GExpr::eq(var(0), GTerm::int(1)), GExpr::eq(GTerm::int(1), var(2))),
            (GExpr::eq(var(0), GTerm::int(1)), GExpr::eq(GTerm::int(2), var(2))),
            (
                GExpr::eq(GTerm::OutCol(0), GTerm::prop(var(0), "name")),
                GExpr::eq(GTerm::OutCol(1), GTerm::prop(var(5), "name")),
            ),
            (
                GExpr::Atom(GAtom::Cmp(CmpOp::Lt, var(0), GTerm::int(5))),
                GExpr::Atom(GAtom::Cmp(CmpOp::Gt, GTerm::int(5), var(9))),
            ),
        ];
        for (left, right) in cases {
            let tree = tree_isomorphic(&left, &right);
            let (l, r) = (store.intern_expr(&left), store.intern_expr(&right));
            let by_id = ids::isomorphic(&mut store, l, r);
            assert_eq!(by_id, tree, "matchers disagree on {left} vs {right}");
        }
    }

    #[test]
    fn same_node_fast_path_is_behaviorally_identical_to_the_tree_walk() {
        let mut store = GStore::new();
        let closed = GExpr::sum(
            vec![VarId(0)],
            GExpr::mul(vec![GExpr::NodeFn(var(0)), GExpr::LabFn(var(0), "A".into())]),
        );
        let id = store.intern_expr(&closed);
        // Empty ambient mapping: matches, and records the same identity
        // bindings the structural walk would (e0 ↦ e0).
        let mut mapping = VarMapping::new();
        assert!(ids::unify_node(&mut store, id, id, &mut mapping));
        assert_eq!(mapping.forward().get(&VarId(0)), Some(&VarId(0)));
        // Conflicting ambient mapping: the tree matcher fails here (it tries
        // to bind e0 ↦ e0 against the ambient e0 ↦ e42), so the fast path
        // must fail identically — even though the node is closed.
        let mut conflicted = VarMapping::new();
        assert!(conflicted.bind(VarId(0), VarId(42)));
        let before = conflicted.clone();
        let by_id = ids::unify_node(&mut store, id, id, &mut conflicted);
        let by_tree = cloning::unify_expr(&closed, &closed, &before).is_some();
        assert_eq!(by_id, by_tree, "fast path diverged from the tree walk");
        assert!(!by_id);
        assert_eq!(conflicted, before, "mapping must be restored on failure");
    }

    #[test]
    fn unused_sum_binders_are_not_bound_by_the_fast_path() {
        let mut store = GStore::new();
        // Regression shape from review: the normalizer keeps Σ binders with
        // no occurrence in the body (unbounded domain factors). The tree
        // walk never binds such a binder, so the fast path must not either —
        // here S's unused binder e9 must stay free for the sibling summand
        // to bind e9 ↦ e8.
        let s = GExpr::sum(vec![VarId(9)], GExpr::NodeFn(var(0)));
        let left = GExpr::add(vec![s.clone(), GExpr::NodeFn(var(9))]);
        let right = GExpr::add(vec![s.clone(), GExpr::NodeFn(var(8))]);
        let by_tree = tree_isomorphic(&left, &right);
        assert!(by_tree, "tree oracle proves this pair");
        let (l, r) = (store.intern_expr(&left), store.intern_expr(&right));
        assert_eq!(ids::isomorphic(&mut store, l, r), by_tree, "fast path over-binds e9");
    }

    #[test]
    fn ambient_bindings_against_shared_closed_subterms_match_the_oracle() {
        let mut store = GStore::new();
        // Regression shape from review: a closed squashed subterm C shared
        // (same interned id) by both sides, whose Σ-bound variable id
        // collides with an ambient-bound variable. A naive same-node
        // shortcut that skips C's bindings would prove this pair while the
        // tree oracle does not.
        let c = GExpr::squash(GExpr::sum(vec![VarId(0)], GExpr::NodeFn(var(0))));
        let left = GExpr::mul(vec![GExpr::NodeFn(var(0)), c.clone()]);
        let right = GExpr::mul(vec![GExpr::NodeFn(var(1)), c.clone()]);
        let by_tree = tree_isomorphic(&left, &right);
        let (l, r) = (store.intern_expr(&left), store.intern_expr(&right));
        let by_id = ids::isomorphic(&mut store, l, r);
        assert_eq!(
            by_id, by_tree,
            "id matcher diverges from the cloning oracle on {left} vs {right}"
        );
    }

    #[test]
    fn rollback_is_scoped_to_the_checkpoint() {
        let mut mapping = VarMapping::new();
        assert!(mapping.bind(VarId(0), VarId(5)));
        let mark = mapping.checkpoint();
        assert!(mapping.bind(VarId(1), VarId(6)));
        assert!(mapping.bind(VarId(2), VarId(7)));
        mapping.rollback_to(mark);
        assert_eq!(mapping.forward().len(), 1);
        assert_eq!(mapping.forward().get(&VarId(0)), Some(&VarId(5)));
        // The undone variables can be re-bound differently.
        assert!(mapping.bind(VarId(1), VarId(9)));
    }
}
