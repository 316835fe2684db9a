//! Hash-consed G-expression arena with memoized normalization.
//!
//! The tree representation in [`crate::expr`] is ideal for construction and
//! for the paper-faithful reference algorithms, but it is expensive on the
//! prover's hottest path: normalization repeatedly clones and rebuilds whole
//! subtrees, and every structural equality check walks both operands. This
//! module provides the interned alternative:
//!
//! * a [`GStore`] arena that **hash-conses** every term and expression node
//!   into a dense `u32` id ([`TermId`] / [`NodeId`]), with string interning
//!   ([`Sym`]) for labels, property keys and function names — structurally
//!   equal subtrees are stored exactly once, so equality and hashing are O(1)
//!   id comparisons and shared subtrees are built once;
//! * a **memoized normalizer** over the arena: the result of normalizing a
//!   node is cached by id (`NodeId -> NodeId`), so re-normalizing a shared
//!   subexpression — across fixpoint passes, across the two sides of a pair,
//!   and across *pairs in a batch* — is a single hash-map lookup instead of a
//!   clone-and-rebuild pass;
//! * conversions to and from the [`GExpr`] tree form, so the arena can slot
//!   under the existing public API without disturbing callers.
//!
//! The normalization algorithm is a faithful port of the reference
//! implementation in [`crate::normalize()`] (same rewrites, same canonical
//! ordering, same fixpoint bound), so `normalize_via_arena` returns exactly
//! the same tree as the reference `normalize_tree` — property tests in the
//! crate assert this on every dataset pair.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::expr::GExpr;
use crate::normalize::compare_constants;
use crate::term::{CmpOp, GAggKind, GAtom, GConst, GTerm, VarId};

/// An interned string (label, property key, function or predicate name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

/// An interned constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(u32);

/// An interned scalar term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

/// An interned G-expression node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

/// Hashable identity key for a [`GConst`] (floats are compared by bit
/// pattern, which is exactly the identity hash-consing needs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ConstKey {
    Int(i64),
    Float(u64),
    Str(String),
    Bool(bool),
    Null,
}

impl ConstKey {
    fn of(c: &GConst) -> ConstKey {
        match c {
            GConst::Integer(v) => ConstKey::Int(*v),
            GConst::Float(v) => ConstKey::Float(v.to_bits()),
            GConst::String(s) => ConstKey::Str(s.clone()),
            GConst::Boolean(b) => ConstKey::Bool(*b),
            GConst::Null => ConstKey::Null,
        }
    }
}

/// The interned form of [`GTerm`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ATerm {
    /// A summation-bound variable.
    Var(VarId),
    /// Column `i` of the output tuple.
    OutCol(usize),
    /// A property access `base.key`.
    Prop(TermId, Sym),
    /// A constant.
    Const(ConstId),
    /// An (uninterpreted) function application.
    App(Sym, Box<[TermId]>),
    /// An aggregate over a group expression.
    Agg {
        /// Which aggregate function.
        kind: GAggKind,
        /// Whether the aggregate deduplicates its input.
        distinct: bool,
        /// The aggregated term.
        arg: TermId,
        /// The group's G-expression.
        group: NodeId,
    },
}

/// The interned form of [`GAtom`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AAtom {
    /// A comparison between two terms.
    Cmp(CmpOp, TermId, TermId),
    /// `IS NULL` / `IS NOT NULL`.
    IsNull(TermId, bool),
    /// An uninterpreted boolean predicate.
    Pred(Sym, Box<[TermId]>),
}

/// The interned form of [`GExpr`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ANode {
    /// The additive identity 0.
    Zero,
    /// The multiplicative identity 1.
    One,
    /// A natural-number constant.
    Const(u64),
    /// The bracket operator applied to an atom.
    Atom(AAtom),
    /// `Node(e)`.
    NodeFn(TermId),
    /// `Rel(e)`.
    RelFn(TermId),
    /// `Lab(e, label)`.
    Lab(TermId, Sym),
    /// `UNBOUNDED(e)`.
    Unbounded(TermId),
    /// An n-ary product.
    Mul(Box<[NodeId]>),
    /// An n-ary sum.
    Add(Box<[NodeId]>),
    /// The squash operator.
    Squash(NodeId),
    /// The `not` operator.
    Not(NodeId),
    /// An unbounded summation.
    Sum(Box<[VarId]>, NodeId),
}

/// The hash-consing arena plus the normalizer's memo tables.
#[derive(Debug, Default)]
pub struct GStore {
    strings: Vec<String>,
    string_ids: HashMap<String, Sym>,
    consts: Vec<GConst>,
    const_ids: HashMap<ConstKey, ConstId>,
    terms: Vec<ATerm>,
    term_ids: HashMap<ATerm, TermId>,
    nodes: Vec<ANode>,
    node_ids: HashMap<ANode, NodeId>,
    /// Memo: node -> result of one `normalize_once` pass.
    once_cache: HashMap<NodeId, NodeId>,
    /// Memo: node -> fully normalized (fixpoint + canonical sort) node.
    full_cache: HashMap<NodeId, NodeId>,
    /// Memo: node -> canonically sorted node.
    sort_cache: HashMap<NodeId, NodeId>,
    /// Memo: rendered text of a node (the canonical sort key).
    node_text: HashMap<NodeId, String>,
    /// Memo: rendered text of a term.
    term_text: HashMap<TermId, String>,
    /// Memo: every distinct variable occurring in a node (free *and*
    /// Σ-bound, including inside aggregate groups), in first-occurrence
    /// order — exactly what the iso matcher's structural walk binds on an
    /// identical pair, powering its same-node fast path.
    all_vars_cache: HashMap<NodeId, std::rc::Rc<[VarId]>>,
    /// Bumped by [`GStore::reset_epoch`]; caches elsewhere that key on this
    /// store's ids compare epochs to detect staleness.
    epoch: u64,
    /// Process-unique identity of this store's current epoch (see
    /// [`GStore::stamp`]).
    stamp: Stamp,
}

/// The source of [`GStore::stamp`] values: every new store and every epoch
/// reset draws the next one, so no two (store, epoch) pairs of a process
/// share a stamp.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

/// A freshly drawn arena stamp. Deliberately not `Clone`, so neither is
/// [`GStore`]: a copied store would share the stamp while its ids diverge.
#[derive(Debug)]
struct Stamp(u64);

impl Default for Stamp {
    fn default() -> Stamp {
        Stamp(NEXT_STAMP.fetch_add(1, Ordering::Relaxed))
    }
}

/// High-water mark of [`GStore::node_count`] across every store of the
/// process (updated on interning, so it also covers stores that were since
/// epoch-reset). Drives the `peak_arena_nodes` benchmark metric.
static PEAK_NODES: AtomicUsize = AtomicUsize::new(0);

/// The process-wide peak node count (see [`reset_peak_node_count`]).
pub fn peak_node_count() -> usize {
    PEAK_NODES.load(Ordering::Relaxed)
}

/// Resets the process-wide peak node counter (benchmark bookkeeping).
pub fn reset_peak_node_count() {
    PEAK_NODES.store(0, Ordering::Relaxed);
}

/// Folds an observed arena size into the process-wide peak. Interning
/// already updates the peak, but after [`reset_peak_node_count`] a warm
/// arena interns nothing new — batch workers call this with their current
/// [`GStore::node_count`] so per-run peaks stay accurate.
pub fn note_node_peak(nodes: usize) {
    PEAK_NODES.fetch_max(nodes, Ordering::Relaxed);
}

impl GStore {
    /// An empty arena.
    pub fn new() -> GStore {
        GStore::default()
    }

    /// Number of distinct expression nodes interned so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct terms interned so far.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Number of distinct strings interned so far.
    pub fn string_count(&self) -> usize {
        self.strings.len()
    }

    /// The store's current epoch (starts at 0, bumped by
    /// [`GStore::reset_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A process-unique identity of this store in its current epoch. An id
    /// handed out by a store is valid in exactly the stores that still
    /// carry the stamp it was handed out under, so a cache shared across
    /// threads can record the stamp next to the ids it holds and reuse them
    /// only where the stamp matches. Epochs alone cannot tell two threads'
    /// arenas apart; stamps can.
    pub fn stamp(&self) -> u64 {
        self.stamp.0
    }

    /// Drops every interned node, term, string and memo entry and bumps the
    /// store's epoch.
    ///
    /// This is the arena's eviction story: a long-running batch worker calls
    /// this between pairs once the arena outgrows its budget, so memory stops
    /// growing monotonically. **Every id handed out before the reset is
    /// invalidated** — callers that cache ids must compare [`GStore::epoch`]
    /// (or, across threads, [`GStore::stamp`]) and drop their caches on
    /// mismatch (`liastar` does exactly that for its summand and disjointness
    /// caches).
    pub fn reset_epoch(&mut self) {
        self.strings.clear();
        self.string_ids.clear();
        self.consts.clear();
        self.const_ids.clear();
        self.terms.clear();
        self.term_ids.clear();
        self.nodes.clear();
        self.node_ids.clear();
        self.once_cache.clear();
        self.full_cache.clear();
        self.sort_cache.clear();
        self.node_text.clear();
        self.term_text.clear();
        self.all_vars_cache.clear();
        self.epoch += 1;
        self.stamp = Stamp::default();
    }

    /// Every distinct variable **occurring** in the node (at `Var` leaves,
    /// including inside aggregate groups), in first-occurrence order.
    ///
    /// This is exactly the set of variables the iso matcher's structural
    /// walk binds on an identical pair — Σ binder lists are deliberately
    /// *not* included, because the walk only compares binder-list lengths
    /// and never binds a binder that has no occurrence in the body (the
    /// normalizer keeps such unused binders as unbounded domain factors).
    /// Memoized per id and computed bottom-up through the memo, so shared
    /// sub-DAGs are walked once per arena, not once per root.
    pub fn node_all_variables(&mut self, n: NodeId) -> std::rc::Rc<[VarId]> {
        if let Some(vars) = self.all_vars_cache.get(&n) {
            return vars.clone();
        }
        let mut out = Vec::new();
        match self.node_of(n).clone() {
            ANode::Zero | ANode::One | ANode::Const(_) => {}
            ANode::Atom(atom) => match atom {
                AAtom::Cmp(_, lhs, rhs) => {
                    self.collect_term_occurring_vars(lhs, &mut out);
                    self.collect_term_occurring_vars(rhs, &mut out);
                }
                AAtom::IsNull(t, _) => self.collect_term_occurring_vars(t, &mut out),
                AAtom::Pred(_, args) => {
                    for arg in args.iter() {
                        self.collect_term_occurring_vars(*arg, &mut out);
                    }
                }
            },
            ANode::NodeFn(t) | ANode::RelFn(t) | ANode::Unbounded(t) | ANode::Lab(t, _) => {
                self.collect_term_occurring_vars(t, &mut out)
            }
            ANode::Mul(items) | ANode::Add(items) => {
                for item in items.iter() {
                    self.merge_node_vars(*item, &mut out);
                }
            }
            ANode::Squash(inner) | ANode::Not(inner) => self.merge_node_vars(inner, &mut out),
            ANode::Sum(_, body) => self.merge_node_vars(body, &mut out),
        }
        let vars: std::rc::Rc<[VarId]> = out.into();
        self.all_vars_cache.insert(n, vars.clone());
        vars
    }

    /// Merges a child node's (memoized) variable set into `out`.
    fn merge_node_vars(&mut self, n: NodeId, out: &mut Vec<VarId>) {
        let child = self.node_all_variables(n);
        for v in child.iter() {
            if !out.contains(v) {
                out.push(*v);
            }
        }
    }

    fn collect_term_occurring_vars(&mut self, t: TermId, out: &mut Vec<VarId>) {
        match self.term_of(t).clone() {
            ATerm::Var(v) => {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            ATerm::OutCol(_) | ATerm::Const(_) => {}
            ATerm::Prop(base, _) => self.collect_term_occurring_vars(base, out),
            ATerm::App(_, args) => {
                for arg in args.iter() {
                    self.collect_term_occurring_vars(*arg, out);
                }
            }
            ATerm::Agg { arg, group, .. } => {
                self.collect_term_occurring_vars(arg, out);
                self.merge_node_vars(group, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Interning primitives
    // ------------------------------------------------------------------

    /// Interns a string.
    pub fn sym(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.string_ids.get(s) {
            return id;
        }
        let id = Sym(self.strings.len() as u32);
        self.strings.push(s.to_string());
        self.string_ids.insert(s.to_string(), id);
        id
    }

    /// The string behind a [`Sym`].
    pub fn str_of(&self, s: Sym) -> &str {
        &self.strings[s.0 as usize]
    }

    /// Interns a constant.
    pub fn konst(&mut self, c: &GConst) -> ConstId {
        let key = ConstKey::of(c);
        if let Some(&id) = self.const_ids.get(&key) {
            return id;
        }
        let id = ConstId(self.consts.len() as u32);
        self.consts.push(c.clone());
        self.const_ids.insert(key, id);
        id
    }

    /// The constant behind a [`ConstId`].
    pub fn const_of(&self, c: ConstId) -> &GConst {
        &self.consts[c.0 as usize]
    }

    /// Interns a term, returning its unique id.
    pub fn term(&mut self, t: ATerm) -> TermId {
        if let Some(&id) = self.term_ids.get(&t) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t.clone());
        self.term_ids.insert(t, id);
        id
    }

    /// The structure behind a [`TermId`].
    pub fn term_of(&self, t: TermId) -> &ATerm {
        &self.terms[t.0 as usize]
    }

    /// Interns an expression node, returning its unique id.
    pub fn node(&mut self, n: ANode) -> NodeId {
        if let Some(&id) = self.node_ids.get(&n) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(n.clone());
        self.node_ids.insert(n, id);
        PEAK_NODES.fetch_max(self.nodes.len(), Ordering::Relaxed);
        id
    }

    /// The structure behind a [`NodeId`].
    pub fn node_of(&self, n: NodeId) -> &ANode {
        &self.nodes[n.0 as usize]
    }

    // ------------------------------------------------------------------
    // Tree <-> arena conversion
    // ------------------------------------------------------------------

    /// Interns a [`GTerm`] tree.
    pub fn intern_term(&mut self, t: &GTerm) -> TermId {
        let node = match t {
            GTerm::Var(v) => ATerm::Var(*v),
            GTerm::OutCol(i) => ATerm::OutCol(*i),
            GTerm::Prop(base, key) => {
                let base = self.intern_term(base);
                let key = self.sym(key);
                ATerm::Prop(base, key)
            }
            GTerm::Const(c) => ATerm::Const(self.konst(c)),
            GTerm::App(name, args) => {
                let name = self.sym(name);
                let args: Vec<TermId> = args.iter().map(|a| self.intern_term(a)).collect();
                ATerm::App(name, args.into())
            }
            GTerm::Agg { kind, distinct, arg, group } => {
                let arg = self.intern_term(arg);
                let group = self.intern_expr(group);
                ATerm::Agg { kind: *kind, distinct: *distinct, arg, group }
            }
        };
        self.term(node)
    }

    fn intern_atom(&mut self, a: &GAtom) -> AAtom {
        match a {
            GAtom::Cmp(op, lhs, rhs) => {
                let lhs = self.intern_term(lhs);
                let rhs = self.intern_term(rhs);
                AAtom::Cmp(*op, lhs, rhs)
            }
            GAtom::IsNull(t, negated) => AAtom::IsNull(self.intern_term(t), *negated),
            GAtom::Pred(name, args) => {
                let name = self.sym(name);
                let args: Vec<TermId> = args.iter().map(|a| self.intern_term(a)).collect();
                AAtom::Pred(name, args.into())
            }
        }
    }

    /// Interns a [`GExpr`] tree.
    pub fn intern_expr(&mut self, e: &GExpr) -> NodeId {
        let node = match e {
            GExpr::Zero => ANode::Zero,
            GExpr::One => ANode::One,
            GExpr::Const(v) => ANode::Const(*v),
            GExpr::Atom(a) => ANode::Atom(self.intern_atom(a)),
            GExpr::NodeFn(t) => {
                let t = self.intern_term(t);
                ANode::NodeFn(t)
            }
            GExpr::RelFn(t) => {
                let t = self.intern_term(t);
                ANode::RelFn(t)
            }
            GExpr::LabFn(t, label) => {
                let t = self.intern_term(t);
                let label = self.sym(label);
                ANode::Lab(t, label)
            }
            GExpr::Unbounded(t) => {
                let t = self.intern_term(t);
                ANode::Unbounded(t)
            }
            GExpr::Mul(items) => {
                let items: Vec<NodeId> = items.iter().map(|i| self.intern_expr(i)).collect();
                ANode::Mul(items.into())
            }
            GExpr::Add(items) => {
                let items: Vec<NodeId> = items.iter().map(|i| self.intern_expr(i)).collect();
                ANode::Add(items.into())
            }
            GExpr::Squash(inner) => ANode::Squash(self.intern_expr(inner)),
            GExpr::Not(inner) => ANode::Not(self.intern_expr(inner)),
            GExpr::Sum { vars, body } => {
                let body = self.intern_expr(body);
                ANode::Sum(vars.clone().into(), body)
            }
        };
        self.node(node)
    }

    /// Reconstructs the [`GTerm`] tree of a term id.
    pub fn extern_term(&self, t: TermId) -> GTerm {
        match self.term_of(t).clone() {
            ATerm::Var(v) => GTerm::Var(v),
            ATerm::OutCol(i) => GTerm::OutCol(i),
            ATerm::Prop(base, key) => {
                GTerm::Prop(Box::new(self.extern_term(base)), self.str_of(key).to_string())
            }
            ATerm::Const(c) => GTerm::Const(self.const_of(c).clone()),
            ATerm::App(name, args) => GTerm::App(
                self.str_of(name).to_string(),
                args.iter().map(|a| self.extern_term(*a)).collect(),
            ),
            ATerm::Agg { kind, distinct, arg, group } => GTerm::Agg {
                kind,
                distinct,
                arg: Box::new(self.extern_term(arg)),
                group: Box::new(self.extern_expr(group)),
            },
        }
    }

    fn extern_atom(&self, a: &AAtom) -> GAtom {
        match a {
            AAtom::Cmp(op, lhs, rhs) => {
                GAtom::Cmp(*op, self.extern_term(*lhs), self.extern_term(*rhs))
            }
            AAtom::IsNull(t, negated) => GAtom::IsNull(self.extern_term(*t), *negated),
            AAtom::Pred(name, args) => GAtom::Pred(
                self.str_of(*name).to_string(),
                args.iter().map(|a| self.extern_term(*a)).collect(),
            ),
        }
    }

    /// Reconstructs the [`GExpr`] tree of a node id.
    pub fn extern_expr(&self, n: NodeId) -> GExpr {
        match self.node_of(n).clone() {
            ANode::Zero => GExpr::Zero,
            ANode::One => GExpr::One,
            ANode::Const(v) => GExpr::Const(v),
            ANode::Atom(a) => GExpr::Atom(self.extern_atom(&a)),
            ANode::NodeFn(t) => GExpr::NodeFn(self.extern_term(t)),
            ANode::RelFn(t) => GExpr::RelFn(self.extern_term(t)),
            ANode::Lab(t, label) => {
                GExpr::LabFn(self.extern_term(t), self.str_of(label).to_string())
            }
            ANode::Unbounded(t) => GExpr::Unbounded(self.extern_term(t)),
            ANode::Mul(items) => GExpr::Mul(items.iter().map(|i| self.extern_expr(*i)).collect()),
            ANode::Add(items) => GExpr::Add(items.iter().map(|i| self.extern_expr(*i)).collect()),
            ANode::Squash(inner) => GExpr::Squash(Box::new(self.extern_expr(inner))),
            ANode::Not(inner) => GExpr::Not(Box::new(self.extern_expr(inner))),
            ANode::Sum(vars, body) => {
                GExpr::Sum { vars: vars.to_vec(), body: Box::new(self.extern_expr(body)) }
            }
        }
    }

    // ------------------------------------------------------------------
    // Smart constructors (mirrors of the GExpr constructors)
    // ------------------------------------------------------------------

    fn zero(&mut self) -> NodeId {
        self.node(ANode::Zero)
    }

    fn one(&mut self) -> NodeId {
        self.node(ANode::One)
    }

    /// Builds a product, flattening nested products and dropping units.
    pub fn mk_mul(&mut self, factors: Vec<NodeId>) -> NodeId {
        let mut flat = Vec::new();
        for factor in factors {
            match self.node_of(factor) {
                ANode::One => {}
                ANode::Zero => return self.zero(),
                ANode::Mul(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(factor),
            }
        }
        match flat.len() {
            0 => self.one(),
            1 => flat[0],
            _ => self.node(ANode::Mul(flat.into())),
        }
    }

    /// Builds a sum, flattening nested sums and dropping zeros.
    pub fn mk_add(&mut self, terms: Vec<NodeId>) -> NodeId {
        let mut flat = Vec::new();
        for term in terms {
            match self.node_of(term) {
                ANode::Zero => {}
                ANode::Add(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(term),
            }
        }
        match flat.len() {
            0 => self.zero(),
            1 => flat[0],
            _ => self.node(ANode::Add(flat.into())),
        }
    }

    /// Builds a squash, collapsing trivial cases.
    pub fn mk_squash(&mut self, inner: NodeId) -> NodeId {
        match self.node_of(inner) {
            ANode::Zero | ANode::One | ANode::Squash(_) => inner,
            _ => self.node(ANode::Squash(inner)),
        }
    }

    /// Builds a negation, collapsing trivial cases.
    pub fn mk_not(&mut self, inner: NodeId) -> NodeId {
        match self.node_of(inner) {
            ANode::Zero => self.one(),
            ANode::One => self.zero(),
            _ => self.node(ANode::Not(inner)),
        }
    }

    /// Builds a summation; an empty variable list is the body itself.
    pub fn mk_sum(&mut self, vars: Vec<VarId>, body: NodeId) -> NodeId {
        if vars.is_empty() {
            return body;
        }
        match self.node_of(body) {
            ANode::Zero => self.zero(),
            ANode::Sum(inner_vars, inner_body) => {
                let mut all = vars;
                all.extend(inner_vars.iter().copied());
                let inner_body = *inner_body;
                self.node(ANode::Sum(all.into(), inner_body))
            }
            _ => self.node(ANode::Sum(vars.into(), body)),
        }
    }

    // ------------------------------------------------------------------
    // Term utilities
    // ------------------------------------------------------------------

    /// Collects every variable occurring in the term (including inside
    /// aggregate groups), preserving first-occurrence order.
    pub fn term_variables(&self, t: TermId, out: &mut Vec<VarId>) {
        match self.term_of(t) {
            ATerm::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            ATerm::OutCol(_) | ATerm::Const(_) => {}
            ATerm::Prop(base, _) => self.term_variables(*base, out),
            ATerm::App(_, args) => {
                for arg in args.iter() {
                    self.term_variables(*arg, out);
                }
            }
            ATerm::Agg { arg, group, .. } => {
                self.term_variables(*arg, out);
                self.node_free_variables(*group, out);
            }
        }
    }

    /// Returns `true` if the term mentions the given variable
    /// (short-circuits on the first occurrence).
    pub fn term_mentions(&self, t: TermId, var: VarId) -> bool {
        match self.term_of(t) {
            ATerm::Var(v) => *v == var,
            ATerm::OutCol(_) | ATerm::Const(_) => false,
            ATerm::Prop(base, _) => self.term_mentions(*base, var),
            ATerm::App(_, args) => args.iter().any(|arg| self.term_mentions(*arg, var)),
            ATerm::Agg { arg, group, .. } => {
                if self.term_mentions(*arg, var) {
                    return true;
                }
                // Free variables of the group (bound Σ-variables shadow).
                let mut vars = Vec::new();
                self.node_free_variables(*group, &mut vars);
                vars.contains(&var)
            }
        }
    }

    /// Collects the free variables of an expression node (mirror of
    /// [`GExpr::free_variables`]).
    pub fn node_free_variables(&self, n: NodeId, out: &mut Vec<VarId>) {
        match self.node_of(n) {
            ANode::Zero | ANode::One | ANode::Const(_) => {}
            ANode::Atom(atom) => match atom {
                AAtom::Cmp(_, lhs, rhs) => {
                    self.term_variables(*lhs, out);
                    self.term_variables(*rhs, out);
                }
                AAtom::IsNull(t, _) => self.term_variables(*t, out),
                AAtom::Pred(_, args) => {
                    for arg in args.iter() {
                        self.term_variables(*arg, out);
                    }
                }
            },
            ANode::NodeFn(t) | ANode::RelFn(t) | ANode::Unbounded(t) | ANode::Lab(t, _) => {
                self.term_variables(*t, out)
            }
            ANode::Mul(items) | ANode::Add(items) => {
                for item in items.iter() {
                    self.node_free_variables(*item, out);
                }
            }
            ANode::Squash(inner) | ANode::Not(inner) => self.node_free_variables(*inner, out),
            ANode::Sum(vars, body) => {
                let mut inner = Vec::new();
                self.node_free_variables(*body, &mut inner);
                for v in inner {
                    if !vars.contains(&v) && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
    }

    /// Substitutes a variable by a term throughout a term.
    pub fn subst_term(&mut self, t: TermId, var: VarId, replacement: TermId) -> TermId {
        match self.term_of(t).clone() {
            ATerm::Var(v) if v == var => replacement,
            ATerm::Var(_) | ATerm::OutCol(_) | ATerm::Const(_) => t,
            ATerm::Prop(base, key) => {
                let base = self.subst_term(base, var, replacement);
                self.term(ATerm::Prop(base, key))
            }
            ATerm::App(name, args) => {
                let args: Vec<TermId> =
                    args.iter().map(|a| self.subst_term(*a, var, replacement)).collect();
                self.term(ATerm::App(name, args.into()))
            }
            ATerm::Agg { kind, distinct, arg, group } => {
                let arg = self.subst_term(arg, var, replacement);
                let group = self.subst_node(group, var, replacement);
                self.term(ATerm::Agg { kind, distinct, arg, group })
            }
        }
    }

    fn subst_atom(&mut self, a: &AAtom, var: VarId, replacement: TermId) -> AAtom {
        match a {
            AAtom::Cmp(op, lhs, rhs) => AAtom::Cmp(
                *op,
                self.subst_term(*lhs, var, replacement),
                self.subst_term(*rhs, var, replacement),
            ),
            AAtom::IsNull(t, negated) => {
                AAtom::IsNull(self.subst_term(*t, var, replacement), *negated)
            }
            AAtom::Pred(name, args) => {
                let args: Vec<TermId> =
                    args.iter().map(|a| self.subst_term(*a, var, replacement)).collect();
                AAtom::Pred(*name, args.into())
            }
        }
    }

    /// Substitutes a (free) variable by a term throughout an expression
    /// (mirror of [`GExpr::substitute`], including `Σ` shadowing).
    pub fn subst_node(&mut self, n: NodeId, var: VarId, replacement: TermId) -> NodeId {
        match self.node_of(n).clone() {
            ANode::Zero | ANode::One | ANode::Const(_) => n,
            ANode::Atom(a) => {
                let a = self.subst_atom(&a, var, replacement);
                self.node(ANode::Atom(a))
            }
            ANode::NodeFn(t) => {
                let t = self.subst_term(t, var, replacement);
                self.node(ANode::NodeFn(t))
            }
            ANode::RelFn(t) => {
                let t = self.subst_term(t, var, replacement);
                self.node(ANode::RelFn(t))
            }
            ANode::Lab(t, label) => {
                let t = self.subst_term(t, var, replacement);
                self.node(ANode::Lab(t, label))
            }
            ANode::Unbounded(t) => {
                let t = self.subst_term(t, var, replacement);
                self.node(ANode::Unbounded(t))
            }
            ANode::Mul(items) => {
                let items: Vec<NodeId> =
                    items.iter().map(|i| self.subst_node(*i, var, replacement)).collect();
                self.node(ANode::Mul(items.into()))
            }
            ANode::Add(items) => {
                let items: Vec<NodeId> =
                    items.iter().map(|i| self.subst_node(*i, var, replacement)).collect();
                self.node(ANode::Add(items.into()))
            }
            ANode::Squash(inner) => {
                let inner = self.subst_node(inner, var, replacement);
                self.node(ANode::Squash(inner))
            }
            ANode::Not(inner) => {
                let inner = self.subst_node(inner, var, replacement);
                self.node(ANode::Not(inner))
            }
            ANode::Sum(vars, body) => {
                if vars.contains(&var) {
                    // The variable is shadowed; nothing to substitute.
                    n
                } else {
                    let body = self.subst_node(body, var, replacement);
                    self.node(ANode::Sum(vars, body))
                }
            }
        }
    }

    /// Renames every variable occurrence of a term, bound and free, with
    /// `f` in one pass (mirror of [`GTerm::rename_vars`]).
    pub(crate) fn rename_term(&mut self, t: TermId, f: &impl Fn(VarId) -> VarId) -> TermId {
        let renamed = match self.term_of(t).clone() {
            ATerm::Var(v) => ATerm::Var(f(v)),
            ATerm::OutCol(_) | ATerm::Const(_) => return t,
            ATerm::Prop(base, key) => ATerm::Prop(self.rename_term(base, f), key),
            ATerm::App(name, args) => {
                ATerm::App(name, args.iter().map(|a| self.rename_term(*a, f)).collect())
            }
            ATerm::Agg { kind, distinct, arg, group } => {
                let arg = self.rename_term(arg, f);
                let group = self.rename_node(group, f);
                ATerm::Agg { kind, distinct, arg, group }
            }
        };
        self.term(renamed)
    }

    /// Renames every variable occurrence of an expression, Σ binders
    /// included, with `f` in one pass (mirror of [`GExpr::rename_all`]).
    /// The shape is rebuilt as it is, without the smart constructors.
    pub(crate) fn rename_node(&mut self, n: NodeId, f: &impl Fn(VarId) -> VarId) -> NodeId {
        let renamed = match self.node_of(n).clone() {
            ANode::Zero | ANode::One | ANode::Const(_) => return n,
            ANode::Atom(AAtom::Cmp(op, lhs, rhs)) => {
                let lhs = self.rename_term(lhs, f);
                ANode::Atom(AAtom::Cmp(op, lhs, self.rename_term(rhs, f)))
            }
            ANode::Atom(AAtom::IsNull(t, negated)) => {
                ANode::Atom(AAtom::IsNull(self.rename_term(t, f), negated))
            }
            ANode::Atom(AAtom::Pred(name, args)) => ANode::Atom(AAtom::Pred(
                name,
                args.iter().map(|a| self.rename_term(*a, f)).collect(),
            )),
            ANode::NodeFn(t) => ANode::NodeFn(self.rename_term(t, f)),
            ANode::RelFn(t) => ANode::RelFn(self.rename_term(t, f)),
            ANode::Lab(t, label) => ANode::Lab(self.rename_term(t, f), label),
            ANode::Unbounded(t) => ANode::Unbounded(self.rename_term(t, f)),
            ANode::Mul(items) => {
                ANode::Mul(items.iter().map(|i| self.rename_node(*i, f)).collect())
            }
            ANode::Add(items) => {
                ANode::Add(items.iter().map(|i| self.rename_node(*i, f)).collect())
            }
            ANode::Squash(inner) => ANode::Squash(self.rename_node(inner, f)),
            ANode::Not(inner) => ANode::Not(self.rename_node(inner, f)),
            ANode::Sum(vars, body) => {
                ANode::Sum(vars.iter().map(|v| f(*v)).collect(), self.rename_node(body, f))
            }
        };
        self.node(renamed)
    }

    // ------------------------------------------------------------------
    // Rendering (the canonical sort key — mirrors the Display impls)
    // ------------------------------------------------------------------

    fn write_const(out: &mut String, c: &GConst) {
        match c {
            GConst::Integer(v) => {
                let _ = write!(out, "{v}");
            }
            GConst::Float(v) => {
                let _ = write!(out, "{v}");
            }
            GConst::String(s) => {
                let _ = write!(out, "'{s}'");
            }
            GConst::Boolean(b) => {
                let _ = write!(out, "{b}");
            }
            GConst::Null => out.push_str("null"),
        }
    }

    fn write_var(out: &mut String, v: VarId, anon: bool) {
        if anon {
            out.push_str("e0");
        } else {
            let _ = write!(out, "e{}", v.0);
        }
    }

    fn write_term(&self, out: &mut String, t: TermId, anon: bool) {
        match self.term_of(t) {
            ATerm::Var(v) => Self::write_var(out, *v, anon),
            ATerm::OutCol(i) => {
                let _ = write!(out, "t.col{}", i + 1);
            }
            ATerm::Prop(base, key) => {
                self.write_term(out, *base, anon);
                out.push('.');
                out.push_str(self.str_of(*key));
            }
            ATerm::Const(c) => Self::write_const(out, self.const_of(*c)),
            ATerm::App(name, args) => {
                out.push_str(self.str_of(*name));
                out.push('(');
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.write_term(out, *arg, anon);
                }
                out.push(')');
            }
            ATerm::Agg { kind, distinct, arg, group } => {
                out.push_str(kind.name());
                out.push('(');
                if *distinct {
                    out.push_str("DISTINCT ");
                }
                self.write_term(out, *arg, anon);
                out.push_str(" | ");
                self.write_node(out, *group, anon);
                out.push(')');
            }
        }
    }

    fn write_atom(&self, out: &mut String, a: &AAtom, anon: bool) {
        match a {
            AAtom::Cmp(op, lhs, rhs) => {
                out.push('[');
                self.write_term(out, *lhs, anon);
                out.push(' ');
                out.push_str(op.symbol());
                out.push(' ');
                self.write_term(out, *rhs, anon);
                out.push(']');
            }
            AAtom::IsNull(t, negated) => {
                out.push_str(if *negated { "[isNotNull(" } else { "[isNull(" });
                self.write_term(out, *t, anon);
                out.push_str(")]");
            }
            AAtom::Pred(name, args) => {
                out.push('[');
                out.push_str(self.str_of(*name));
                out.push('(');
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.write_term(out, *arg, anon);
                }
                out.push_str(")]");
            }
        }
    }

    fn write_node(&self, out: &mut String, n: NodeId, anon: bool) {
        match self.node_of(n) {
            ANode::Zero => out.push('0'),
            ANode::One => out.push('1'),
            ANode::Const(v) => {
                let _ = write!(out, "{v}");
            }
            ANode::Atom(a) => self.write_atom(out, a, anon),
            ANode::NodeFn(t) => {
                out.push_str("Node(");
                self.write_term(out, *t, anon);
                out.push(')');
            }
            ANode::RelFn(t) => {
                out.push_str("Rel(");
                self.write_term(out, *t, anon);
                out.push(')');
            }
            ANode::Lab(t, label) => {
                out.push_str("Lab(");
                self.write_term(out, *t, anon);
                out.push_str(", ");
                out.push_str(self.str_of(*label));
                out.push(')');
            }
            ANode::Unbounded(t) => {
                out.push_str("UNBOUNDED(");
                self.write_term(out, *t, anon);
                out.push(')');
            }
            ANode::Mul(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" × ");
                    }
                    if matches!(self.node_of(*item), ANode::Add(_)) {
                        out.push('(');
                        self.write_node(out, *item, anon);
                        out.push(')');
                    } else {
                        self.write_node(out, *item, anon);
                    }
                }
            }
            ANode::Add(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" + ");
                    }
                    self.write_node(out, *item, anon);
                }
            }
            ANode::Squash(inner) => {
                out.push('‖');
                self.write_node(out, *inner, anon);
                out.push('‖');
            }
            ANode::Not(inner) => {
                out.push_str("not(");
                self.write_node(out, *inner, anon);
                out.push(')');
            }
            ANode::Sum(vars, body) => {
                out.push_str("Σ_{");
                for (i, v) in vars.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Self::write_var(out, *v, anon);
                }
                out.push_str("}(");
                self.write_node(out, *body, anon);
                out.push(')');
            }
        }
    }

    /// The rendered text of a node — identical to `GExpr::to_string` on the
    /// externalized tree. Cached per id.
    pub fn node_string(&mut self, n: NodeId) -> String {
        self.cache_node_text(n);
        self.node_text[&n].clone()
    }

    /// Renders a node into the text cache unless it is there already.
    fn cache_node_text(&mut self, n: NodeId) {
        if !self.node_text.contains_key(&n) {
            let mut out = String::new();
            self.write_node(&mut out, n, false);
            self.node_text.insert(n, out);
        }
    }

    /// The rendered text of a term — identical to `GTerm::to_string`.
    pub fn term_string(&mut self, t: TermId) -> String {
        if let Some(text) = self.term_text.get(&t) {
            return text.clone();
        }
        let mut out = String::new();
        self.write_term(&mut out, t, false);
        self.term_text.insert(t, out.clone());
        out
    }

    /// The variable-anonymized rendering of a term (every variable printed as
    /// `e0`) — identical to `term.rename_vars(|_| VarId(0)).to_string()`.
    fn term_anon_string(&self, t: TermId) -> String {
        let mut out = String::new();
        self.write_term(&mut out, t, true);
        out
    }

    // ------------------------------------------------------------------
    // Normalization (memoized mirror of crate::normalize)
    // ------------------------------------------------------------------

    /// Returns `true` if the node is guaranteed to evaluate to 0 or 1 in
    /// every interpretation (mirror of [`crate::normalize::is_zero_one`]).
    pub fn is_zero_one(&self, n: NodeId) -> bool {
        match self.node_of(n) {
            ANode::Zero | ANode::One => true,
            ANode::Const(v) => *v <= 1,
            ANode::Atom(_)
            | ANode::NodeFn(_)
            | ANode::RelFn(_)
            | ANode::Lab(_, _)
            | ANode::Unbounded(_)
            | ANode::Squash(_)
            | ANode::Not(_) => true,
            ANode::Mul(items) => items.iter().all(|i| self.is_zero_one(*i)),
            ANode::Add(_) | ANode::Sum(_, _) => false,
        }
    }

    /// Canonicalizes + constant-folds an atom (mirror of `simplify_atom`).
    fn simplify_atom(&mut self, atom: &AAtom) -> NodeId {
        // Orientation: the lexicographically smaller rendering goes left.
        let atom = match atom {
            AAtom::Cmp(op, lhs, rhs) => {
                let key_l = self.term_string(*lhs);
                let key_r = self.term_string(*rhs);
                if key_r < key_l {
                    AAtom::Cmp(op.flipped(), *rhs, *lhs)
                } else {
                    atom.clone()
                }
            }
            _ => atom.clone(),
        };
        if let AAtom::Cmp(op, lhs, rhs) = &atom {
            // Identical terms: O(1) id comparison thanks to hash-consing.
            if lhs == rhs {
                return match op {
                    CmpOp::Eq | CmpOp::Le | CmpOp::Ge => self.one(),
                    CmpOp::Neq | CmpOp::Lt | CmpOp::Gt => self.zero(),
                };
            }
            // Comparisons between distinct constants.
            if let (ATerm::Const(a), ATerm::Const(b)) =
                (self.term_of(*lhs).clone(), self.term_of(*rhs).clone())
            {
                let (a, b) = (self.const_of(a).clone(), self.const_of(b).clone());
                if let Some(result) = compare_constants(*op, &a, &b) {
                    return if result { self.one() } else { self.zero() };
                }
            }
        }
        if let AAtom::IsNull(t, negated) = &atom {
            if let ATerm::Const(c) = self.term_of(*t) {
                let is_null = matches!(self.const_of(*c), GConst::Null);
                let truth = if *negated { !is_null } else { is_null };
                return if truth { self.one() } else { self.zero() };
            }
        }
        self.node(ANode::Atom(atom))
    }

    /// One normalization pass over a node (memoized mirror of
    /// `normalize_once`).
    fn normalize_once(&mut self, n: NodeId) -> NodeId {
        if let Some(&cached) = self.once_cache.get(&n) {
            return cached;
        }
        let result = match self.node_of(n).clone() {
            ANode::Zero | ANode::One | ANode::Const(_) => n,
            ANode::Atom(atom) => self.simplify_atom(&atom),
            ANode::NodeFn(_) | ANode::RelFn(_) | ANode::Lab(_, _) | ANode::Unbounded(_) => n,
            ANode::Mul(items) => {
                let items: Vec<NodeId> = items.iter().map(|i| self.normalize_once(*i)).collect();
                self.distribute_product(items)
            }
            ANode::Add(items) => {
                let items: Vec<NodeId> = items.iter().map(|i| self.normalize_once(*i)).collect();
                self.mk_add(items)
            }
            ANode::Squash(inner) => {
                let inner = self.normalize_once(inner);
                if self.is_zero_one(inner) {
                    inner
                } else {
                    self.mk_squash(inner)
                }
            }
            ANode::Not(inner) => {
                let inner = self.normalize_once(inner);
                match self.node_of(inner).clone() {
                    // Brackets are 0/1-valued, so `not([φ]) = [¬φ]`.
                    ANode::Atom(AAtom::Cmp(op, lhs, rhs)) => {
                        self.simplify_atom(&AAtom::Cmp(op.negated(), lhs, rhs))
                    }
                    ANode::Atom(AAtom::IsNull(t, negated)) => {
                        self.simplify_atom(&AAtom::IsNull(t, !negated))
                    }
                    _ => self.mk_not(inner),
                }
            }
            ANode::Sum(vars, body) => {
                let body = self.normalize_once(body);
                match self.node_of(body).clone() {
                    // Σ over a sum splits into a sum of Σs.
                    ANode::Add(items) => {
                        let terms: Vec<NodeId> = items
                            .iter()
                            .map(|item| {
                                let summed = self.mk_sum(vars.to_vec(), *item);
                                self.normalize_once(summed)
                            })
                            .collect();
                        self.mk_add(terms)
                    }
                    _ => self.eliminate_pinned_variables(vars.to_vec(), body),
                }
            }
        };
        self.once_cache.insert(n, result);
        result
    }

    /// Mirror of `distribute_product`: expands sums, pulls out summations and
    /// deduplicates idempotent factors.
    fn distribute_product(&mut self, items: Vec<NodeId>) -> NodeId {
        // First check whether any factor is a sum that must be expanded.
        if let Some(position) = items.iter().position(|i| matches!(self.node_of(*i), ANode::Add(_)))
        {
            let ANode::Add(alternatives) = self.node_of(items[position]).clone() else {
                unreachable!()
            };
            let mut expanded = Vec::new();
            for alternative in alternatives.iter() {
                let mut factors = items.clone();
                factors[position] = *alternative;
                let product = self.mk_mul(factors);
                expanded.push(self.normalize_once(product));
            }
            return self.mk_add(expanded);
        }
        // Pull inner summations out of the product: `A × Σ_v B = Σ_v (A × B)`
        // (sound because summation variables are globally unique).
        if let Some(position) =
            items.iter().position(|i| matches!(self.node_of(*i), ANode::Sum(_, _)))
        {
            let ANode::Sum(vars, body) = self.node_of(items[position]).clone() else {
                unreachable!()
            };
            let mut factors = items.clone();
            factors[position] = body;
            let product = self.mk_mul(factors);
            let summed = self.mk_sum(vars.to_vec(), product);
            return self.normalize_once(summed);
        }
        // Deduplicate idempotent (0/1-valued) factors.
        let one = self.one();
        let zero = self.zero();
        let mut deduped: Vec<NodeId> = Vec::new();
        for item in items {
            if item == one {
                continue;
            }
            if item == zero {
                return zero;
            }
            if self.is_zero_one(item) && deduped.contains(&item) {
                continue;
            }
            // A factor and its negation in the same product make it zero.
            if let ANode::Not(inner) = self.node_of(item) {
                if deduped.contains(inner) {
                    return zero;
                }
            }
            if deduped
                .iter()
                .any(|d| matches!(self.node_of(*d), ANode::Not(inner) if *inner == item))
            {
                return zero;
            }
            deduped.push(item);
        }
        self.mk_mul(deduped)
    }

    /// Mirror of `eliminate_pinned_variables`: applies
    /// `Σ_v [v = t] × F(v) = F(t)` repeatedly with the same canonical choice
    /// of replacement, then rebuilds the summation.
    fn eliminate_pinned_variables(&mut self, mut vars: Vec<VarId>, body: NodeId) -> NodeId {
        let mut factors = match self.node_of(body).clone() {
            ANode::Mul(items) => items.to_vec(),
            _ => vec![body],
        };
        loop {
            // Collect, per bound variable, every factor of the form [v = t]
            // (or [t = v]) where `t` does not mention `v`.
            let mut pins: Vec<(VarId, usize, TermId)> = Vec::new();
            for (index, factor) in factors.iter().enumerate() {
                if let ANode::Atom(AAtom::Cmp(CmpOp::Eq, lhs, rhs)) = self.node_of(*factor) {
                    for (var_side, other) in [(*lhs, *rhs), (*rhs, *lhs)] {
                        if let ATerm::Var(v) = self.term_of(var_side) {
                            let v = *v;
                            if vars.contains(&v) && !self.term_mentions(other, v) {
                                pins.push((v, index, other));
                            }
                        }
                    }
                }
            }
            if pins.is_empty() {
                break;
            }
            // Pick the replacement canonically — prefer terms without bound
            // variables, then the smallest variable-anonymized rendering; a
            // variable with an ambiguous minimal key is left alone (see the
            // tree implementation for the full rationale).
            let mut best: Option<(usize, VarId, TermId, (bool, String))> = None;
            for candidate_var in vars.clone() {
                let candidate_pins: Vec<&(VarId, usize, TermId)> =
                    pins.iter().filter(|(v, _, _)| *v == candidate_var).collect();
                if candidate_pins.is_empty() {
                    continue;
                }
                let mut keyed: Vec<((bool, String), usize, TermId)> = candidate_pins
                    .iter()
                    .map(|(_, index, term)| {
                        let mut term_vars = Vec::new();
                        self.term_variables(*term, &mut term_vars);
                        let has_bound = term_vars.iter().any(|v| vars.contains(v));
                        let anonymized = self.term_anon_string(*term);
                        ((has_bound, anonymized), *index, *term)
                    })
                    .collect();
                keyed.sort_by(|a, b| a.0.cmp(&b.0));
                // Ambiguous minimal key: skip this variable.
                if keyed.len() > 1 && keyed[0].0 == keyed[1].0 {
                    continue;
                }
                let (candidate_key, index, term) = keyed.into_iter().next().expect("non-empty");
                let better = match &best {
                    None => true,
                    Some((_, _, _, best_key)) => candidate_key < *best_key,
                };
                if better {
                    best = Some((index, candidate_var, term, candidate_key));
                }
            }
            let Some((index, var, replacement, _)) = best else { break };
            factors.remove(index);
            factors = factors.iter().map(|f| self.subst_node(*f, var, replacement)).collect();
            vars.retain(|x| *x != var);
        }
        // Variables no longer occurring in the body still contribute an
        // unbounded domain factor, so the summation is rebuilt over all of
        // them (mirror of the tree implementation).
        let rebuilt = self.distribute_product(factors);
        match self.node_of(rebuilt).clone() {
            ANode::Add(items) => {
                let terms: Vec<NodeId> =
                    items.iter().map(|item| self.mk_sum(vars.clone(), *item)).collect();
                self.mk_add(terms)
            }
            _ => self.mk_sum(vars, rebuilt),
        }
    }

    /// Canonical ordering: sorts products and sums by their rendered text
    /// (memoized mirror of `sort_expr`).
    fn sort_node(&mut self, n: NodeId) -> NodeId {
        if let Some(&cached) = self.sort_cache.get(&n) {
            return cached;
        }
        let result = match self.node_of(n).clone() {
            ANode::Mul(items) => {
                let items = self.sort_items(&items);
                self.node(ANode::Mul(items))
            }
            ANode::Add(items) => {
                let items = self.sort_items(&items);
                self.node(ANode::Add(items))
            }
            ANode::Squash(inner) => {
                let inner = self.sort_node(inner);
                self.node(ANode::Squash(inner))
            }
            ANode::Not(inner) => {
                let inner = self.sort_node(inner);
                self.node(ANode::Not(inner))
            }
            ANode::Sum(vars, body) => {
                let body = self.sort_node(body);
                self.node(ANode::Sum(vars, body))
            }
            _ => n,
        };
        self.sort_cache.insert(n, result);
        result
    }

    /// The operands of a product or sum, each canonically sorted, in the
    /// order of their rendered text (stable, so equal texts keep their
    /// order). Each key is rendered once and compared borrowed.
    fn sort_items(&mut self, items: &[NodeId]) -> Box<[NodeId]> {
        let items: Vec<NodeId> = items.iter().map(|i| self.sort_node(*i)).collect();
        for &item in &items {
            self.cache_node_text(item);
        }
        let mut keyed: Vec<(&str, NodeId)> =
            items.iter().map(|i| (self.node_text[i].as_str(), *i)).collect();
        keyed.sort_by(|a, b| a.0.cmp(b.0));
        keyed.into_iter().map(|(_, item)| item).collect()
    }

    /// Fully normalizes a node: the same bounded fixpoint of rewrite passes
    /// as the reference tree normalizer, followed by the canonical sort. The
    /// result is cached per id, so normalizing a shared subexpression twice —
    /// including across different pairs of a batch — is a hash lookup.
    pub fn normalize_id(&mut self, id: NodeId) -> NodeId {
        if let Some(&cached) = self.full_cache.get(&id) {
            return cached;
        }
        let mut current = id;
        // The rewrite system is terminating but individual passes can enable
        // new rewrites; iterate to a fixpoint with the same safety bound as
        // the tree implementation.
        for _ in 0..16 {
            let next = self.normalize_once(current);
            if next == current {
                break;
            }
            current = next;
        }
        let result = self.sort_node(current);
        self.full_cache.insert(id, result);
        // Note: `result` is deliberately NOT marked as its own fixpoint here.
        // If the pass bound above was hit without convergence, re-normalizing
        // the result must keep rewriting, exactly like the tree reference —
        // the memoized `once_cache` makes that re-run cheap anyway.
        result
    }

    /// Tree-level convenience: interns, normalizes, externalizes.
    pub fn normalize_expr(&mut self, expr: &GExpr) -> GExpr {
        let id = self.intern_expr(expr);
        let normalized = self.normalize_id(id);
        self.extern_expr(normalized)
    }
}

thread_local! {
    static THREAD_STORE: RefCell<GStore> = RefCell::new(GStore::new());
}

/// Normalizes through the calling thread's shared arena. Repeated calls on
/// structurally overlapping expressions (the common case in a batch of
/// related query pairs) hit the arena's memo tables.
pub fn normalize_via_arena(expr: &GExpr) -> GExpr {
    THREAD_STORE.with(|store| store.borrow_mut().normalize_expr(expr))
}

/// Runs `f` with the calling thread's shared arena.
pub fn with_thread_store<R>(f: impl FnOnce(&mut GStore) -> R) -> R {
    THREAD_STORE.with(|store| f(&mut store.borrow_mut()))
}

/// Node count of the calling thread's shared arena (budget checks).
pub fn thread_store_node_count() -> usize {
    with_thread_store(|store| store.node_count())
}

/// Epoch of the calling thread's shared arena.
pub fn thread_store_epoch() -> u64 {
    with_thread_store(|store| store.epoch())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_tree;

    fn var(i: u32) -> GTerm {
        GTerm::Var(VarId(i))
    }

    fn sample_expressions() -> Vec<GExpr> {
        vec![
            GExpr::Zero,
            GExpr::One,
            GExpr::Const(3),
            GExpr::sum(
                vec![VarId(0), VarId(1)],
                GExpr::mul(vec![
                    GExpr::NodeFn(var(0)),
                    GExpr::RelFn(var(1)),
                    GExpr::LabFn(var(0), "Person".into()),
                    GExpr::eq(GTerm::app("src", vec![var(1)]), var(0)),
                    GExpr::eq(GTerm::OutCol(0), GTerm::prop(var(0), "name")),
                ]),
            ),
            GExpr::squash(GExpr::add(vec![GExpr::NodeFn(var(0)), GExpr::RelFn(var(0))])),
            GExpr::not(GExpr::sum(vec![VarId(2)], GExpr::NodeFn(var(2)))),
            GExpr::sum(
                vec![VarId(0)],
                GExpr::mul(vec![
                    GExpr::NodeFn(var(0)),
                    GExpr::add(vec![
                        GExpr::Atom(GAtom::Cmp(
                            CmpOp::Lt,
                            GTerm::prop(var(0), "age"),
                            GTerm::int(10),
                        )),
                        GExpr::Atom(GAtom::Cmp(
                            CmpOp::Gt,
                            GTerm::prop(var(0), "age"),
                            GTerm::int(20),
                        )),
                    ]),
                ]),
            ),
            GExpr::Atom(GAtom::IsNull(GTerm::Const(GConst::Null), false)),
            GExpr::sum(
                vec![VarId(0), VarId(1)],
                GExpr::mul(vec![
                    GExpr::eq(var(1), GTerm::prop(var(0), "name")),
                    GExpr::NodeFn(var(0)),
                    GExpr::eq(GTerm::OutCol(0), var(1)),
                ]),
            ),
            GExpr::Atom(GAtom::Pred(
                "startsWith".into(),
                vec![GTerm::prop(var(0), "name"), GTerm::string("A")],
            )),
            GExpr::NodeFn(GTerm::Agg {
                kind: GAggKind::Sum,
                distinct: true,
                arg: Box::new(GTerm::prop(var(0), "age")),
                group: Box::new(GExpr::sum(vec![VarId(0)], GExpr::NodeFn(var(0)))),
            }),
        ]
    }

    #[test]
    fn intern_extern_round_trips() {
        let mut store = GStore::new();
        for expr in sample_expressions() {
            let id = store.intern_expr(&expr);
            assert_eq!(store.extern_expr(id), expr, "round trip failed for {expr}");
        }
    }

    #[test]
    fn interning_is_canonical() {
        let mut store = GStore::new();
        let a = GExpr::mul(vec![
            GExpr::NodeFn(var(0)),
            GExpr::eq(GTerm::prop(var(0), "age"), GTerm::int(59)),
        ]);
        let b = a.clone();
        let id_a = store.intern_expr(&a);
        let id_b = store.intern_expr(&b);
        assert_eq!(id_a, id_b, "structurally equal expressions must share an id");
        // Shared subtrees are stored once: interning a again adds no nodes.
        let nodes_before = store.node_count();
        store.intern_expr(&a);
        assert_eq!(store.node_count(), nodes_before);
    }

    #[test]
    fn string_interning_dedupes_labels() {
        let mut store = GStore::new();
        store.intern_expr(&GExpr::LabFn(var(0), "Person".into()));
        store.intern_expr(&GExpr::LabFn(var(1), "Person".into()));
        let persons = store.strings.iter().filter(|s| s.as_str() == "Person").count();
        assert_eq!(persons, 1);
    }

    #[test]
    fn rendering_matches_tree_display() {
        let mut store = GStore::new();
        for expr in sample_expressions() {
            let id = store.intern_expr(&expr);
            assert_eq!(store.node_string(id), expr.to_string());
        }
    }

    #[test]
    fn renaming_matches_tree_renaming() {
        let mut store = GStore::new();
        // A swap and a shift, so a sequential renaming would show.
        let swap = |v: VarId| match v.0 {
            0 => VarId(1),
            1 => VarId(0),
            n => VarId(n + 7),
        };
        for expr in sample_expressions() {
            let id = store.intern_expr(&expr);
            let renamed = store.rename_node(id, &swap);
            assert_eq!(store.extern_expr(renamed), expr.rename_all(&swap), "for {expr}");
        }
    }

    #[test]
    fn arena_normalization_matches_reference() {
        let mut store = GStore::new();
        for expr in sample_expressions() {
            let via_arena = store.normalize_expr(&expr);
            let reference = normalize_tree(&expr);
            assert_eq!(via_arena, reference, "mismatch for {expr}");
        }
    }

    #[test]
    fn arena_normalization_is_idempotent() {
        let mut store = GStore::new();
        for expr in sample_expressions() {
            let once = store.normalize_expr(&expr);
            let twice = store.normalize_expr(&once);
            assert_eq!(once, twice, "not idempotent for {expr}");
        }
    }

    #[test]
    fn reset_epoch_invalidates_and_recovers() {
        let mut store = GStore::new();
        let exprs = sample_expressions();
        let old_ids: Vec<NodeId> = exprs.iter().map(|e| store.intern_expr(e)).collect();
        let old_normal: Vec<GExpr> = exprs.iter().map(|e| store.normalize_expr(e)).collect();
        let epoch_before = store.epoch();
        store.reset_epoch();
        assert_eq!(store.epoch(), epoch_before + 1, "epoch must advance");
        assert_eq!(store.node_count(), 0, "all nodes dropped");
        assert_eq!(store.term_count(), 0, "all terms dropped");
        assert_eq!(store.string_count(), 0, "all strings dropped");
        // Re-interning after the reset hands out dense ids from zero again,
        // and normalization results are unchanged (fresh memo tables).
        let new_ids: Vec<NodeId> = exprs.iter().map(|e| store.intern_expr(e)).collect();
        assert_eq!(old_ids, new_ids, "deterministic interning order after reset");
        for (expr, before) in exprs.iter().zip(&old_normal) {
            assert_eq!(store.normalize_expr(expr), *before, "normalize changed for {expr}");
        }
    }

    #[test]
    fn node_all_variables_collects_occurrences_only() {
        let mut store = GStore::new();
        // Variables occurring at leaves are collected (free and Σ-bound)...
        let expr = GExpr::sum(
            vec![VarId(0)],
            GExpr::mul(vec![GExpr::NodeFn(var(0)), GExpr::RelFn(var(1))]),
        );
        let id = store.intern_expr(&expr);
        assert_eq!(store.node_all_variables(id).to_vec(), vec![VarId(0), VarId(1)]);
        // ... but a Σ binder with no occurrence in the body is NOT: the iso
        // matcher's walk never binds it (it only compares binder counts).
        let unused = GExpr::sum(vec![VarId(9)], GExpr::NodeFn(var(0)));
        let unused_id = store.intern_expr(&unused);
        assert_eq!(store.node_all_variables(unused_id).to_vec(), vec![VarId(0)]);
        // Memoized answers stay stable.
        assert_eq!(store.node_all_variables(id).to_vec(), vec![VarId(0), VarId(1)]);
    }

    #[test]
    fn peak_node_count_tracks_interning() {
        let mut store = GStore::new();
        store.intern_expr(&sample_expressions()[3]);
        assert!(peak_node_count() >= store.node_count());
        // A reset does not lower the recorded peak.
        let peak = peak_node_count();
        store.reset_epoch();
        assert!(peak_node_count() >= peak);
    }

    #[test]
    fn normalization_memo_hits_on_shared_structure() {
        let mut store = GStore::new();
        let expr = sample_expressions().remove(3);
        let id = store.intern_expr(&expr);
        let first = store.normalize_id(id);
        let second = store.normalize_id(id);
        assert_eq!(first, second);
        assert!(store.full_cache.contains_key(&id), "input is memoized");
        // Normalizing the result again must still converge to itself (and is
        // computed, not assumed — see normalize_id).
        assert_eq!(store.normalize_id(first), first);
    }
}
