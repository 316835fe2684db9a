//! A self-contained mirror of the prover's G-expression language.
//!
//! The checker re-validates structural claims about G-expressions (summand
//! decomposition, simplification rebuilds, isomorphism pairings) without
//! linking against the `gexpr` or `liastar` crates. To do that soundly it
//! carries its own copy of the term language, of the normalizing smart
//! constructors, and of the injective-renaming unifier. The definitions here
//! must stay semantically identical to their originals; the full-corpus
//! certificate test is the cross-check.

use std::collections::BTreeMap;

/// A bound summation variable, mirroring `gexpr::VarId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// Comparison operators usable inside atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Wire name used in the certificate encoding.
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Neq => "neq",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Parses a wire name back into an operator.
    pub fn from_name(name: &str) -> Option<CmpOp> {
        Some(match name {
            "eq" => CmpOp::Eq,
            "neq" => CmpOp::Neq,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }
}

/// Aggregate kinds, mirroring `gexpr::GAggKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// `count(...)`
    Count,
    /// `sum(...)`
    Sum,
    /// `min(...)`
    Min,
    /// `max(...)`
    Max,
    /// `avg(...)`
    Avg,
    /// `collect(...)`
    Collect,
}

impl AggKind {
    /// Wire name used in the certificate encoding.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::Avg => "avg",
            AggKind::Collect => "collect",
        }
    }

    /// Parses a wire name back into an aggregate kind.
    pub fn from_name(name: &str) -> Option<AggKind> {
        Some(match name {
            "count" => AggKind::Count,
            "sum" => AggKind::Sum,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            "avg" => AggKind::Avg,
            "collect" => AggKind::Collect,
            _ => return None,
        })
    }
}

/// Constants, mirroring `gexpr::GConst`.
#[derive(Debug, Clone, PartialEq)]
pub enum GxConst {
    /// An integer literal.
    Integer(i64),
    /// A float literal (compared with `f64` equality, as in the prover).
    Float(f64),
    /// A string literal.
    String(String),
    /// A boolean literal.
    Boolean(bool),
    /// `NULL`.
    Null,
}

/// Terms, mirroring `gexpr::GTerm`.
#[derive(Debug, Clone, PartialEq)]
pub enum GxTerm {
    /// A bound summation variable.
    Var(VarId),
    /// Reference to an output column of the other query side.
    OutCol(usize),
    /// Property access `base.key`.
    Prop(Box<GxTerm>, String),
    /// A constant.
    Const(GxConst),
    /// An uninterpreted function application.
    App(String, Vec<GxTerm>),
    /// An aggregate over a group expression.
    Agg {
        /// Which aggregate.
        kind: AggKind,
        /// Whether `DISTINCT` was requested.
        distinct: bool,
        /// The aggregated term.
        arg: Box<GxTerm>,
        /// The group (a U-semiring expression describing the multiset).
        group: Box<Gx>,
    },
}

/// Atoms, mirroring `gexpr::GAtom`.
#[derive(Debug, Clone, PartialEq)]
pub enum GxAtom {
    /// A comparison between two terms.
    Cmp(CmpOp, GxTerm, GxTerm),
    /// `IS NULL` (`negated` ⇒ `IS NOT NULL`).
    IsNull(GxTerm, bool),
    /// An uninterpreted predicate.
    Pred(String, Vec<GxTerm>),
}

/// U-semiring expressions, mirroring `gexpr::GExpr`.
#[derive(Debug, Clone, PartialEq)]
pub enum Gx {
    /// Additive identity (empty bag).
    Zero,
    /// Multiplicative identity.
    One,
    /// A non-negative constant multiplicity.
    Const(u64),
    /// A 0/1-valued logical atom.
    Atom(GxAtom),
    /// "term is a node" indicator.
    NodeFn(GxTerm),
    /// "term is a relationship" indicator.
    RelFn(GxTerm),
    /// "term has label" indicator.
    LabFn(GxTerm, String),
    /// Unbounded-recursion marker for var-length paths.
    Unbounded(GxTerm),
    /// Product of factors.
    Mul(Vec<Gx>),
    /// Sum of summands.
    Add(Vec<Gx>),
    /// Squash `‖e‖` (0 if e = 0, else 1).
    Squash(Box<Gx>),
    /// Logical negation `¬e` (1 if e = 0, else 0).
    Not(Box<Gx>),
    /// Unbounded summation over bound variables.
    Sum {
        /// Variables bound by the summation.
        vars: Vec<VarId>,
        /// Body of the summation.
        body: Box<Gx>,
    },
}

impl Gx {
    /// Smart constructor for products: drops `One`, `Zero` annihilates,
    /// flattens nested `Mul`, unwraps singletons.
    pub fn mul(factors: Vec<Gx>) -> Gx {
        let mut flat = Vec::with_capacity(factors.len());
        for factor in factors {
            match factor {
                Gx::One => {}
                Gx::Zero => return Gx::Zero,
                Gx::Mul(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Gx::One,
            1 => flat.pop().unwrap(),
            _ => Gx::Mul(flat),
        }
    }

    /// Smart constructor for sums: drops `Zero`, flattens nested `Add`,
    /// unwraps singletons.
    pub fn add(summands: Vec<Gx>) -> Gx {
        let mut flat = Vec::with_capacity(summands.len());
        for summand in summands {
            match summand {
                Gx::Zero => {}
                Gx::Add(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Gx::Zero,
            1 => flat.pop().unwrap(),
            _ => Gx::Add(flat),
        }
    }

    /// Smart constructor for squash: idempotent, identity on `Zero`/`One`.
    pub fn squash(expr: Gx) -> Gx {
        match expr {
            Gx::Zero => Gx::Zero,
            Gx::One => Gx::One,
            already @ Gx::Squash(_) => already,
            other => Gx::Squash(Box::new(other)),
        }
    }

    /// Smart constructor for negation: constant-folds `Zero`/`One`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(expr: Gx) -> Gx {
        match expr {
            Gx::Zero => Gx::One,
            Gx::One => Gx::Zero,
            other => Gx::Not(Box::new(other)),
        }
    }

    /// Smart constructor for summation: drops empty binders, annihilates on
    /// `Zero`, merges nested sums (outer variables first).
    pub fn sum(vars: Vec<VarId>, body: Gx) -> Gx {
        if vars.is_empty() {
            return body;
        }
        match body {
            Gx::Zero => Gx::Zero,
            Gx::Sum { vars: inner_vars, body: inner_body } => {
                let mut merged = vars;
                merged.extend(inner_vars);
                Gx::Sum { vars: merged, body: inner_body }
            }
            other => Gx::Sum { vars, body: Box::new(other) },
        }
    }

    /// Whether this expression is literally `Zero`.
    pub fn is_zero(&self) -> bool {
        matches!(self, Gx::Zero)
    }
}

/// Splits an expression into its top-level summands, mirroring the prover's
/// `to_summands`: `Add` yields its items, `Zero` yields nothing, anything
/// else is a single summand.
pub fn to_summands(expr: &Gx) -> Vec<Gx> {
    match expr {
        Gx::Add(items) => items.clone(),
        Gx::Zero => Vec::new(),
        other => vec![other.clone()],
    }
}

/// Splits a summand into its binder list and factor list, mirroring the
/// prover's summand simplifier preamble.
pub fn decompose_summand(summand: &Gx) -> (Vec<VarId>, Vec<Gx>) {
    let (vars, body) = match summand {
        Gx::Sum { vars, body } => (vars.clone(), (**body).clone()),
        other => (Vec::new(), other.clone()),
    };
    let factors = match body {
        Gx::Mul(items) => items,
        other => vec![other],
    };
    (vars, factors)
}

/// An injective renaming of bound variables, mirroring `liastar`'s
/// `VarMapping`: bindings are recorded in both directions and on a trail so
/// speculative matching can be rolled back.
#[derive(Debug, Default, Clone)]
pub struct VarMapping {
    forward: BTreeMap<VarId, VarId>,
    backward: BTreeMap<VarId, VarId>,
    trail: Vec<(VarId, VarId)>,
}

/// A rollback point into a [`VarMapping`] trail.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint(usize);

impl VarMapping {
    /// Creates an empty mapping.
    pub fn new() -> VarMapping {
        VarMapping::default()
    }

    /// Attempts to bind `from ↦ to`; fails if either side is already bound
    /// to a different partner (injectivity in both directions).
    pub fn bind(&mut self, from: VarId, to: VarId) -> bool {
        if let Some(existing) = self.forward.get(&from) {
            return *existing == to;
        }
        if let Some(existing) = self.backward.get(&to) {
            return *existing == from;
        }
        self.forward.insert(from, to);
        self.backward.insert(to, from);
        self.trail.push((from, to));
        true
    }

    /// Current rollback point.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.trail.len())
    }

    /// Undoes all bindings made after `mark`.
    pub fn rollback_to(&mut self, mark: Checkpoint) {
        while self.trail.len() > mark.0 {
            let (from, to) = self.trail.pop().unwrap();
            self.forward.remove(&from);
            self.backward.remove(&to);
        }
    }
}

/// Structural unification of two expressions up to an injective renaming of
/// bound variables, threading `mapping`. Mirrors the prover's matcher,
/// `liastar::iso::ids::unify_node`, over trees instead of interned ids.
pub fn unify_expr(a: &Gx, b: &Gx, mapping: &mut VarMapping) -> bool {
    let mark = mapping.checkpoint();
    if unify_expr_inner(a, b, mapping) {
        true
    } else {
        mapping.rollback_to(mark);
        false
    }
}

fn unify_expr_inner(a: &Gx, b: &Gx, mapping: &mut VarMapping) -> bool {
    match (a, b) {
        (Gx::Zero, Gx::Zero) | (Gx::One, Gx::One) => true,
        (Gx::Const(x), Gx::Const(y)) => x == y,
        (Gx::Atom(x), Gx::Atom(y)) => unify_atom(x, y, mapping),
        (Gx::NodeFn(x), Gx::NodeFn(y)) => unify_term(x, y, mapping),
        (Gx::RelFn(x), Gx::RelFn(y)) => unify_term(x, y, mapping),
        (Gx::Unbounded(x), Gx::Unbounded(y)) => unify_term(x, y, mapping),
        (Gx::LabFn(x, lx), Gx::LabFn(y, ly)) => lx == ly && unify_term(x, y, mapping),
        (Gx::Squash(x), Gx::Squash(y)) => unify_expr(x, y, mapping),
        (Gx::Not(x), Gx::Not(y)) => unify_expr(x, y, mapping),
        (Gx::Mul(xs), Gx::Mul(ys)) => unify_multiset(xs, ys, mapping),
        (Gx::Add(xs), Gx::Add(ys)) => unify_multiset(xs, ys, mapping),
        (Gx::Sum { vars: va, body: ba }, Gx::Sum { vars: vb, body: bb }) => {
            va.len() == vb.len() && unify_expr(ba, bb, mapping)
        }
        _ => false,
    }
}

/// Backtracking multiset unification: every element of `xs` must pair with a
/// distinct element of `ys` under one shared mapping.
pub fn unify_multiset(xs: &[Gx], ys: &[Gx], mapping: &mut VarMapping) -> bool {
    if xs.len() != ys.len() {
        return false;
    }
    let mut used = vec![false; ys.len()];
    unify_multiset_rec(xs, ys, &mut used, mapping)
}

fn unify_multiset_rec(xs: &[Gx], ys: &[Gx], used: &mut [bool], mapping: &mut VarMapping) -> bool {
    let Some((first, rest)) = xs.split_first() else {
        return true;
    };
    for (index, candidate) in ys.iter().enumerate() {
        if used[index] {
            continue;
        }
        let mark = mapping.checkpoint();
        if unify_expr(first, candidate, mapping) {
            used[index] = true;
            if unify_multiset_rec(rest, ys, used, mapping) {
                return true;
            }
            used[index] = false;
        }
        mapping.rollback_to(mark);
    }
    false
}

fn unify_atom(a: &GxAtom, b: &GxAtom, mapping: &mut VarMapping) -> bool {
    match (a, b) {
        (GxAtom::Cmp(op_a, a1, a2), GxAtom::Cmp(op_b, b1, b2)) => {
            if op_a == op_b {
                let mark = mapping.checkpoint();
                if unify_term(a1, b1, mapping) && unify_term(a2, b2, mapping) {
                    return true;
                }
                mapping.rollback_to(mark);
            }
            if *op_b == op_a.flipped() {
                let mark = mapping.checkpoint();
                if unify_term(a1, b2, mapping) && unify_term(a2, b1, mapping) {
                    return true;
                }
                mapping.rollback_to(mark);
            }
            false
        }
        (GxAtom::IsNull(ta, na), GxAtom::IsNull(tb, nb)) => na == nb && unify_term(ta, tb, mapping),
        (GxAtom::Pred(name_a, args_a), GxAtom::Pred(name_b, args_b)) => {
            if name_a != name_b || args_a.len() != args_b.len() {
                return false;
            }
            let mark = mapping.checkpoint();
            for (x, y) in args_a.iter().zip(args_b) {
                if !unify_term(x, y, mapping) {
                    mapping.rollback_to(mark);
                    return false;
                }
            }
            true
        }
        _ => false,
    }
}

fn unify_term(a: &GxTerm, b: &GxTerm, mapping: &mut VarMapping) -> bool {
    let mark = mapping.checkpoint();
    if unify_term_inner(a, b, mapping) {
        true
    } else {
        mapping.rollback_to(mark);
        false
    }
}

fn unify_term_inner(a: &GxTerm, b: &GxTerm, mapping: &mut VarMapping) -> bool {
    match (a, b) {
        (GxTerm::Var(x), GxTerm::Var(y)) => mapping.bind(*x, *y),
        (GxTerm::OutCol(x), GxTerm::OutCol(y)) => x == y,
        (GxTerm::Const(x), GxTerm::Const(y)) => x == y,
        (GxTerm::Prop(base_a, key_a), GxTerm::Prop(base_b, key_b)) => {
            key_a == key_b && unify_term(base_a, base_b, mapping)
        }
        (GxTerm::App(name_a, args_a), GxTerm::App(name_b, args_b)) => {
            if name_a != name_b || args_a.len() != args_b.len() {
                return false;
            }
            for (x, y) in args_a.iter().zip(args_b) {
                if !unify_term(x, y, mapping) {
                    return false;
                }
            }
            true
        }
        (
            GxTerm::Agg { kind: ka, distinct: da, arg: aa, group: ga },
            GxTerm::Agg { kind: kb, distinct: db, arg: ab, group: gb },
        ) => ka == kb && da == db && unify_term(aa, ab, mapping) && unify_expr(ga, gb, mapping),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(n: u32) -> GxTerm {
        GxTerm::Var(VarId(n))
    }

    #[test]
    fn smart_constructors_normalize() {
        assert_eq!(Gx::mul(vec![Gx::One, Gx::Const(3)]), Gx::Const(3));
        assert_eq!(Gx::mul(vec![Gx::Const(3), Gx::Zero]), Gx::Zero);
        assert_eq!(Gx::add(vec![]), Gx::Zero);
        assert_eq!(Gx::squash(Gx::One), Gx::One);
        assert_eq!(Gx::not(Gx::Zero), Gx::One);
        assert_eq!(
            Gx::sum(vec![VarId(0)], Gx::sum(vec![VarId(1)], Gx::NodeFn(var(0)))),
            Gx::Sum { vars: vec![VarId(0), VarId(1)], body: Box::new(Gx::NodeFn(var(0))) }
        );
    }

    #[test]
    fn unification_is_injective_renaming() {
        let a = Gx::mul(vec![Gx::NodeFn(var(0)), Gx::NodeFn(var(1))]);
        let b = Gx::mul(vec![Gx::NodeFn(var(5)), Gx::NodeFn(var(7))]);
        assert!(unify_expr(&a, &b, &mut VarMapping::new()));

        // Two distinct variables cannot map to the same target.
        let clash = Gx::mul(vec![Gx::NodeFn(var(5)), Gx::NodeFn(var(5))]);
        let distinct =
            Gx::mul(vec![Gx::Atom(GxAtom::Cmp(CmpOp::Eq, var(0), var(1))), Gx::NodeFn(var(0))]);
        let same =
            Gx::mul(vec![Gx::Atom(GxAtom::Cmp(CmpOp::Eq, var(3), var(3))), Gx::NodeFn(var(3))]);
        assert!(!unify_expr(&distinct, &same, &mut VarMapping::new()));
        let _ = clash;
    }

    #[test]
    fn flipped_comparisons_unify() {
        let a = Gx::Atom(GxAtom::Cmp(CmpOp::Lt, var(0), var(1)));
        let b = Gx::Atom(GxAtom::Cmp(CmpOp::Gt, var(9), var(8)));
        assert!(unify_expr(&a, &b, &mut VarMapping::new()));
    }
}
