//! The term store every check runs on: hash-consed term nodes over interned
//! symbols, and the builder sessions that construct terms in it directly.
//!
//! Every stage of a check — the Tseitin abstraction, congruence closure and
//! Fourier–Motzkin — works on the store's dense term ids. Structurally equal
//! terms intern to equal ids, so id equality *is* structural equality, and a
//! term never needs to be cloned, hashed as a tree or rendered to be
//! compared. Names (of variables and uninterpreted functions) are interned
//! once into symbol ids, with the `const:` prefix test that marks interpreted
//! constants done once per symbol. The store keeps a name only as the key
//! that finds its symbol: nothing turns an id back into a [`Term`] or a name.
//!
//! Terms reach the store on two roads:
//!
//! * [`Solver::check`](crate::Solver::check) interns [`Term`] trees, bottom-up,
//!   once per check;
//! * a [`with_term_builder`] session builds terms in the thread's store
//!   directly, with [`TermBuilder`]'s id-level mirrors of [`Term`]'s
//!   constructors. A name is given in parts ([`Name`]) and joined in one
//!   reusable buffer, so a name seen before costs a lookup and no allocation.
//!   The mirrors are exact, so a session's term has the id that interning the
//!   equal `Term` gives, and [`TermBuilder::check`] shares the formula cache
//!   with the `Term` road.
//!
//! Each thread owns one store (see [`with_thread_store`]) for the checks
//! that use the formula cache. It lives as long as that cache, whose keys
//! are its ids: [`clear_formula_cache`](crate::clear_formula_cache) drops
//! both together. A session's [`TermRef`]s carry the session's lifetime, so
//! none can outlive it and meet a dropped store. An uncached check interns
//! into a store of its own.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::marker::PhantomData;

use crate::solver::{self, SmtResult};
use crate::term::{SortTag, Term};

/// A dense id of a hash-consed term in one [`TermStore`].
pub(crate) type TermId = u32;

/// A dense id of an interned name in one [`TermStore`].
pub(crate) type SymbolId = u32;

/// One hash-consed node; children are ids. The variants mirror [`Term`]'s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    BoolConst(bool),
    IntConst(i64),
    Var(SymbolId, SortTag),
    App(SymbolId, Box<[TermId]>),
    Eq(TermId, TermId),
    Le(TermId, TermId),
    Add(Box<[TermId]>),
    MulConst(i64, TermId),
    Not(TermId),
    And(Box<[TermId]>),
    Or(Box<[TermId]>),
    Implies(TermId, TermId),
    Ite(TermId, TermId, TermId),
}

/// The store: nodes by id, the hash-consing table and the symbol table.
#[derive(Debug, Default)]
pub(crate) struct TermStore {
    nodes: Vec<Node>,
    ids: HashMap<Node, TermId>,
    /// Per symbol: `true` for names starting with `const:`, the encoding of
    /// string and other named constants. A nullary application of such a
    /// symbol is an interpreted constant, distinct from every other constant.
    const_symbols: Vec<bool>,
    symbol_ids: HashMap<Box<str>, SymbolId>,
    /// The buffer a [`Name`] is joined in.
    name: String,
}

impl TermStore {
    /// The node of `id`.
    pub(crate) fn node(&self, id: TermId) -> &Node {
        &self.nodes[id as usize]
    }

    /// `true` if `symbol` names an interpreted constant (`const:` prefix).
    pub(crate) fn is_const_symbol(&self, symbol: SymbolId) -> bool {
        self.const_symbols[symbol as usize]
    }

    /// The number of distinct nodes interned so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Interns `term` bottom-up, returning its id.
    pub(crate) fn intern(&mut self, term: &Term) -> TermId {
        let node = match term {
            Term::BoolConst(b) => Node::BoolConst(*b),
            Term::IntConst(v) => Node::IntConst(*v),
            Term::Var(name, sort) => Node::Var(self.symbol(name), *sort),
            Term::App(name, args) => Node::App(self.symbol(name), self.intern_all(args)),
            Term::Eq(lhs, rhs) => Node::Eq(self.intern(lhs), self.intern(rhs)),
            Term::Le(lhs, rhs) => Node::Le(self.intern(lhs), self.intern(rhs)),
            Term::Add(items) => Node::Add(self.intern_all(items)),
            Term::MulConst(c, inner) => Node::MulConst(*c, self.intern(inner)),
            Term::Not(inner) => Node::Not(self.intern(inner)),
            Term::And(items) => Node::And(self.intern_all(items)),
            Term::Or(items) => Node::Or(self.intern_all(items)),
            Term::Implies(lhs, rhs) => Node::Implies(self.intern(lhs), self.intern(rhs)),
            Term::Ite(c, t, e) => Node::Ite(self.intern(c), self.intern(t), self.intern(e)),
        };
        self.insert(node)
    }

    fn intern_all(&mut self, items: &[Term]) -> Box<[TermId]> {
        items.iter().map(|item| self.intern(item)).collect()
    }

    /// Mirrors [`Term::not`]: constants flip and double negations cancel.
    pub(crate) fn mk_not(&mut self, term: TermId) -> TermId {
        match *self.node(term) {
            Node::BoolConst(b) => self.insert(Node::BoolConst(!b)),
            Node::Not(inner) => inner,
            _ => self.insert(Node::Not(term)),
        }
    }

    /// Mirrors [`Term::and`]: drops `true`, short-circuits on `false`, and
    /// splices the children of direct `And` items.
    pub(crate) fn mk_and(&mut self, items: impl IntoIterator<Item = TermId>) -> TermId {
        self.mk_junction(items, true)
    }

    /// Mirrors [`Term::or`], dually to [`TermStore::mk_and`].
    pub(crate) fn mk_or(&mut self, items: impl IntoIterator<Item = TermId>) -> TermId {
        self.mk_junction(items, false)
    }

    /// `And` (`conjunction`) or `Or` of `items` with the simplifications of
    /// [`Term::and`] / [`Term::or`]: the unit is dropped, the absorbing
    /// constant wins, and same-kind items are spliced one level deep.
    fn mk_junction(
        &mut self,
        items: impl IntoIterator<Item = TermId>,
        conjunction: bool,
    ) -> TermId {
        let items = items.into_iter();
        let mut flat = Vec::with_capacity(items.size_hint().0);
        for item in items {
            match self.node(item) {
                Node::BoolConst(b) if *b == conjunction => {}
                Node::BoolConst(_) => return self.insert(Node::BoolConst(!conjunction)),
                Node::And(args) if conjunction => flat.extend_from_slice(args),
                Node::Or(args) if !conjunction => flat.extend_from_slice(args),
                _ => flat.push(item),
            }
        }
        match flat.len() {
            0 => self.insert(Node::BoolConst(conjunction)),
            1 => flat[0],
            _ if conjunction => self.insert(Node::And(flat.into())),
            _ => self.insert(Node::Or(flat.into())),
        }
    }

    /// Mirrors [`Term::add`]: splices the children of direct `Add` items, and
    /// a single item is itself.
    fn mk_add(&mut self, items: impl IntoIterator<Item = TermId>) -> TermId {
        let items = items.into_iter();
        let mut flat = Vec::with_capacity(items.size_hint().0);
        for item in items {
            match self.node(item) {
                Node::Add(args) => flat.extend_from_slice(args),
                _ => flat.push(item),
            }
        }
        match flat.len() {
            1 => flat[0],
            _ => self.insert(Node::Add(flat.into())),
        }
    }

    /// Interns `name` as a symbol.
    fn symbol(&mut self, name: &str) -> SymbolId {
        if let Some(&symbol) = self.symbol_ids.get(name) {
            return symbol;
        }
        let symbol = self.const_symbols.len() as SymbolId;
        self.const_symbols.push(name.starts_with("const:"));
        self.symbol_ids.insert(name.into(), symbol);
        symbol
    }

    /// Interns the name `parts` joins, through the reusable buffer.
    fn symbol_in_parts(&mut self, parts: impl Name) -> SymbolId {
        let mut name = std::mem::take(&mut self.name);
        name.clear();
        parts.write_to(&mut name);
        let symbol = self.symbol(&name);
        self.name = name;
        symbol
    }

    /// The hash-consing step: the id of the node equal to `node`, inserted
    /// if new.
    fn insert(&mut self, node: Node) -> TermId {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let id = self.nodes.len() as TermId;
        self.nodes.push(node.clone());
        self.ids.insert(node, id);
        id
    }
}

thread_local! {
    /// The calling thread's store (see the module docs for its lifetime).
    static STORE: RefCell<TermStore> = RefCell::new(TermStore::default());
}

/// Runs `f` on the calling thread's store.
///
/// The store is borrowed for the duration of `f`; a panic inside `f` (an
/// injected fault at an SMT step, say) releases the borrow while unwinding,
/// and since every store mutation completes before control returns to the
/// solver loop, the store stays usable afterwards.
pub(crate) fn with_thread_store<R>(f: impl FnOnce(&mut TermStore) -> R) -> R {
    STORE.with(|store| f(&mut store.borrow_mut()))
}

/// Drops the calling thread's store, and with it every id handed out so far.
pub(crate) fn drop_thread_store() {
    STORE.with(|store| *store.borrow_mut() = TermStore::default());
}

// ---------------------------------------------------------------------------
// Builder sessions
// ---------------------------------------------------------------------------

/// The brand tying a [`TermRef`] to its session: invariant in `'s`, so a
/// reference can be neither widened nor shortened into another session's.
type Brand<'s> = PhantomData<fn(&'s ()) -> &'s ()>;

/// A term built in a [`with_term_builder`] session: a store id that cannot
/// outlive the session.
///
/// ```compile_fail
/// // The session's lifetime is the closure's own: a term cannot leave it.
/// let escaped = smt::with_term_builder(|b| b.int(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermRef<'s> {
    id: TermId,
    brand: Brand<'s>,
}

/// A symbol name given in parts, such as `"const:null"`, `("prop:", key)` or
/// `("e", 3)`, which [`TermBuilder::var`] and [`TermBuilder::app`] join in
/// the store's reusable buffer.
pub trait Name {
    /// Appends the joined name to `out`.
    fn write_to(&self, out: &mut String);
}

impl Name for &str {
    fn write_to(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl<T: fmt::Display> Name for (&str, T) {
    fn write_to(&self, out: &mut String) {
        out.push_str(self.0);
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{}", self.1);
    }
}

/// A builder session on the calling thread's term store (see
/// [`with_term_builder`]).
///
/// Every constructor mirrors the [`Term`] constructor of the same name, so the
/// term it builds has the id that interning the equal `Term` gives: `lt`
/// builds an unflattened `Add`, `neq` a raw `Not`, and `not`, `and`, `or` and
/// `add` simplify exactly as their `Term` counterparts do.
#[derive(Debug)]
pub struct TermBuilder<'s> {
    store: &'s mut TermStore,
    brand: Brand<'s>,
}

/// Runs `f` with a builder session on the calling thread's term store.
///
/// The session holds the store for the duration of `f`: a check through a
/// cached [`Solver`](crate::Solver), a nested session or
/// [`clear_formula_cache`](crate::clear_formula_cache) inside `f` panics on
/// the held borrow. A panic inside `f`, an injected fault in
/// [`TermBuilder::check`] among them, releases the store while unwinding,
/// and the store and the formula cache stay usable.
///
/// ```
/// use smt::{with_term_builder, SortTag};
///
/// let unsat = with_term_builder(|b| {
///     let x = b.var(("x", 1), SortTag::Int);
///     let (three, five) = (b.int(3), b.int(5));
///     let low = b.le(x, three);
///     let high = b.ge(x, five);
///     let both = b.and(&[low, high]);
///     b.check(both).is_unsat()
/// });
/// assert!(unsat);
/// ```
pub fn with_term_builder<R>(f: impl for<'s> FnOnce(&mut TermBuilder<'s>) -> R) -> R {
    with_thread_store(|store| f(&mut TermBuilder { store, brand: PhantomData }))
}

impl<'s> TermBuilder<'s> {
    fn wrap(&self, id: TermId) -> TermRef<'s> {
        TermRef { id, brand: PhantomData }
    }

    fn insert(&mut self, node: Node) -> TermRef<'s> {
        let id = self.store.insert(node);
        self.wrap(id)
    }

    /// Interns a [`Term`] tree, as [`Solver::check`](crate::Solver::check)
    /// does with its assertions.
    pub fn intern(&mut self, term: &Term) -> TermRef<'s> {
        let id = self.store.intern(term);
        self.wrap(id)
    }

    /// The boolean constant `value` (`Term::BoolConst`).
    pub fn bool(&mut self, value: bool) -> TermRef<'s> {
        self.insert(Node::BoolConst(value))
    }

    /// The integer constant `value` ([`Term::int`]).
    pub fn int(&mut self, value: i64) -> TermRef<'s> {
        self.insert(Node::IntConst(value))
    }

    /// The variable `name` of sort `sort` (`Term::Var`).
    pub fn var(&mut self, name: impl Name, sort: SortTag) -> TermRef<'s> {
        let symbol = self.store.symbol_in_parts(name);
        self.insert(Node::Var(symbol, sort))
    }

    /// The application of `name` to `args` (`Term::App`).
    pub fn app(&mut self, name: impl Name, args: &[TermRef<'s>]) -> TermRef<'s> {
        let symbol = self.store.symbol_in_parts(name);
        self.insert(Node::App(symbol, args.iter().map(|arg| arg.id).collect()))
    }

    /// [`Term::eq`].
    pub fn eq(&mut self, lhs: TermRef<'s>, rhs: TermRef<'s>) -> TermRef<'s> {
        self.insert(Node::Eq(lhs.id, rhs.id))
    }

    /// [`Term::neq`]: a raw `Not` over the equality.
    pub fn neq(&mut self, lhs: TermRef<'s>, rhs: TermRef<'s>) -> TermRef<'s> {
        let eq = self.eq(lhs, rhs);
        self.insert(Node::Not(eq.id))
    }

    /// [`Term::le`].
    pub fn le(&mut self, lhs: TermRef<'s>, rhs: TermRef<'s>) -> TermRef<'s> {
        self.insert(Node::Le(lhs.id, rhs.id))
    }

    /// [`Term::lt`]: `lhs + 1 ≤ rhs`, with the sum left unflattened.
    pub fn lt(&mut self, lhs: TermRef<'s>, rhs: TermRef<'s>) -> TermRef<'s> {
        let one = self.int(1);
        let sum = self.insert(Node::Add(Box::new([lhs.id, one.id])));
        self.le(sum, rhs)
    }

    /// [`Term::ge`]: `rhs ≤ lhs`.
    pub fn ge(&mut self, lhs: TermRef<'s>, rhs: TermRef<'s>) -> TermRef<'s> {
        self.le(rhs, lhs)
    }

    /// [`Term::gt`]: `rhs < lhs`.
    pub fn gt(&mut self, lhs: TermRef<'s>, rhs: TermRef<'s>) -> TermRef<'s> {
        self.lt(rhs, lhs)
    }

    /// [`Term::not`].
    pub fn not(&mut self, term: TermRef<'s>) -> TermRef<'s> {
        let id = self.store.mk_not(term.id);
        self.wrap(id)
    }

    /// [`Term::and`].
    pub fn and(&mut self, items: &[TermRef<'s>]) -> TermRef<'s> {
        let id = self.store.mk_and(items.iter().map(|item| item.id));
        self.wrap(id)
    }

    /// [`Term::or`].
    pub fn or(&mut self, items: &[TermRef<'s>]) -> TermRef<'s> {
        let id = self.store.mk_or(items.iter().map(|item| item.id));
        self.wrap(id)
    }

    /// [`Term::implies`].
    pub fn implies(&mut self, lhs: TermRef<'s>, rhs: TermRef<'s>) -> TermRef<'s> {
        self.insert(Node::Implies(lhs.id, rhs.id))
    }

    /// [`Term::add`].
    pub fn add(&mut self, items: &[TermRef<'s>]) -> TermRef<'s> {
        let id = self.store.mk_add(items.iter().map(|item| item.id));
        self.wrap(id)
    }

    /// `c · term` (`Term::MulConst`).
    pub fn mul_const(&mut self, c: i64, term: TermRef<'s>) -> TermRef<'s> {
        self.insert(Node::MulConst(c, term.id))
    }

    /// Checks the satisfiability of `formula` as
    /// [`check_formula_cached`](crate::check_formula_cached) checks the equal
    /// `Term`: the fault gate, a probe of the thread's formula cache under
    /// the formula's id, then DPLL(T) on a miss.
    pub fn check(&mut self, formula: TermRef<'s>) -> SmtResult {
        solver::check_cached(self.store, &[formula.id], solver::MAX_ITERATIONS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str, args: Vec<Term>) -> Term {
        Term::App(name.to_string(), args)
    }

    fn sample() -> Term {
        Term::and(vec![
            Term::le(Term::add(vec![Term::int_var("x"), Term::int(1)]), Term::int_var("y")),
            Term::eq(f("f", vec![Term::value_var("a")]), f("const:s:b", vec![])),
            Term::implies(Term::bool_var("p"), Term::not(Term::bool_var("q"))),
        ])
    }

    #[test]
    fn interning_is_canonical() {
        let mut store = TermStore::default();
        let term = sample();
        let id = store.intern(&term);
        let nodes = store.len();
        assert_eq!(store.intern(&term.clone()), id);
        assert_eq!(store.len(), nodes, "re-interning allocates no node");
        let other = store.intern(&Term::and(vec![term.clone(), Term::bool_var("r")]));
        assert_ne!(other, id);
    }

    #[test]
    fn distinct_shapes_get_distinct_ids() {
        let mut store = TermStore::default();
        // Same name, different sorts; same rendering, different structure.
        let int_x = store.intern(&Term::int_var("x"));
        let value_x = store.intern(&Term::value_var("x"));
        assert_ne!(int_x, value_x);
        let one = store.intern(&f("g", vec![f("const:s:p(), const:s:q", vec![])]));
        let two = store.intern(&f("g", vec![f("const:s:p", vec![]), f("const:s:q", vec![])]));
        assert_ne!(one, two);
        // Empty n-ary nodes of different kinds stay apart.
        let add = store.intern(&Term::Add(vec![]));
        let and = store.intern(&Term::And(vec![]));
        let or = store.intern(&Term::Or(vec![]));
        assert!(add != and && and != or && add != or);
    }

    #[test]
    fn smart_constructors_mirror_the_term_constructors() {
        let a = Term::bool_var("a");
        let b = Term::bool_var("b");
        let ab = Term::And(vec![a.clone(), b.clone()]);
        let items = [
            Term::tt(),
            Term::ff(),
            a.clone(),
            Term::not(a.clone()),
            ab.clone(),
            Term::Or(vec![a.clone(), b.clone()]),
            Term::And(vec![ab.clone(), Term::tt()]),
        ];
        let mut store = TermStore::default();
        let ids: Vec<TermId> = items.iter().map(|t| store.intern(t)).collect();
        for (i, item) in items.iter().enumerate() {
            let not = store.mk_not(ids[i]);
            assert_eq!(not, store.intern(&Term::not(item.clone())));
            for (j, other) in items.iter().enumerate() {
                let pair = [ids[i], ids[j]];
                let and = store.mk_and(pair);
                let or = store.mk_or(pair);
                assert_eq!(and, store.intern(&Term::and(vec![item.clone(), other.clone()])));
                assert_eq!(or, store.intern(&Term::or(vec![item.clone(), other.clone()])));
            }
        }
        let empty_and = store.mk_and([]);
        let empty_or = store.mk_or([]);
        assert_eq!(empty_and, store.intern(&Term::tt()));
        assert_eq!(empty_or, store.intern(&Term::ff()));
    }

    #[test]
    fn const_symbols_are_marked_once() {
        let mut store = TermStore::default();
        let constant = store.intern(&f("const:s:x", vec![]));
        let function = store.intern(&f("fn:x", vec![]));
        let symbol_of = |id| match store.node(id) {
            Node::App(symbol, _) => *symbol,
            other => panic!("expected an application, got {other:?}"),
        };
        assert!(store.is_const_symbol(symbol_of(constant)));
        assert!(!store.is_const_symbol(symbol_of(function)));
    }

    #[test]
    fn builder_constructors_mirror_the_term_constructors() {
        with_term_builder(|b| {
            let x = b.var(("x", ""), SortTag::Int);
            assert_eq!(x, b.intern(&Term::int_var("x")));
            let y = b.var("y", SortTag::Int);
            let v = b.var(("v", 7), SortTag::Value);
            assert_eq!(v, b.intern(&Term::value_var("v7")));
            let p = b.var("p", SortTag::Bool);
            let fv = b.app(("fn:", "f"), &[v]);
            assert_eq!(fv, b.intern(&f("fn:f", vec![Term::value_var("v7")])));
            let null = b.app("const:null", &[]);
            assert_eq!(null, b.intern(&f("const:null", vec![])));
            let (one, t, ff) = (b.int(1), b.bool(true), b.bool(false));
            assert_eq!(
                (one, t, ff),
                (b.intern(&Term::int(1)), b.intern(&Term::tt()), b.intern(&Term::ff()))
            );

            let (tx, ty, tp) = (Term::int_var("x"), Term::int_var("y"), Term::bool_var("p"));
            let pairs = [
                (b.eq(x, y), Term::eq(tx.clone(), ty.clone())),
                (b.neq(x, y), Term::neq(tx.clone(), ty.clone())),
                (b.le(x, y), Term::le(tx.clone(), ty.clone())),
                (b.lt(x, y), Term::lt(tx.clone(), ty.clone())),
                (b.ge(x, y), Term::ge(tx.clone(), ty.clone())),
                (b.gt(x, y), Term::gt(tx.clone(), ty.clone())),
                (b.implies(p, t), Term::implies(tp.clone(), Term::tt())),
                (b.mul_const(3, x), Term::MulConst(3, Box::new(tx.clone()))),
            ];
            for (built, term) in pairs {
                assert_eq!(built, b.intern(&term), "{term}");
            }
            // `add` splices nested sums one level deep, as `Term::add` does.
            let sum = b.add(&[x, y]);
            let nested = b.add(&[sum, one]);
            let expected = Term::add(vec![Term::add(vec![tx.clone(), ty.clone()]), Term::int(1)]);
            assert_eq!(nested, b.intern(&expected));
            assert_eq!(b.add(&[x]), x);
            let empty = b.add(&[]);
            assert_eq!(empty, b.intern(&Term::Add(vec![])));
            // `not`, `and` and `or` simplify: the store tests above cover
            // their shapes, this checks the session forwards to them.
            let np = b.not(p);
            assert_eq!(b.not(np), p);
            assert_eq!(b.and(&[p, t]), p);
            assert_eq!(b.or(&[p, t]), t);
        });
    }

    #[test]
    fn known_names_reuse_their_symbol() {
        with_term_builder(|b| {
            let first = b.app(("prop:", "age"), &[]);
            let second = b.app(("prop:", "age"), &[]);
            let whole = b.app("prop:age", &[]);
            assert!(first == second && second == whole);
            assert_ne!(first, b.app(("prop:", "ages"), &[]));
        });
    }

    #[test]
    fn builder_checks_share_the_formula_cache_with_terms() {
        let term = Term::and(vec![
            Term::le(Term::int_var("builder_cache_x"), Term::int(3)),
            Term::ge(Term::int_var("builder_cache_x"), Term::int(5)),
        ]);
        assert_eq!(crate::check_formula_cached(term.clone()), SmtResult::Unsat);
        let (hits, _) = crate::formula_cache_stats();
        let answer = with_term_builder(|b| {
            let x = b.var("builder_cache_x", SortTag::Int);
            let (three, five) = (b.int(3), b.int(5));
            let low = b.le(x, three);
            let high = b.ge(x, five);
            let formula = b.and(&[low, high]);
            assert_eq!(formula, b.intern(&term));
            b.check(formula)
        });
        assert_eq!(answer, SmtResult::Unsat);
        assert!(crate::formula_cache_stats().0 > hits, "the builder's check hit the cache");
    }
}
