//! The term store every check runs on: hash-consed term nodes over interned
//! symbols.
//!
//! [`Term`] is the construction API; [`Solver::check`](crate::Solver::check)
//! interns its assertions here once and every later stage — the Tseitin
//! abstraction, congruence closure and Fourier–Motzkin — works on the dense
//! [`TermId`]s. Structurally equal terms intern to equal ids, so id equality
//! *is* structural equality, and a term never needs to be cloned, hashed as a
//! tree or rendered to be compared. Names (of variables and uninterpreted
//! functions) are interned once into [`SymbolId`]s, with the `const:` prefix
//! test that marks interpreted constants done once per symbol.
//!
//! Each thread owns one store (see [`with_thread_store`]) for the checks
//! that use the formula cache. It lives as long as that cache, whose keys
//! are its ids: [`clear_formula_cache`](crate::clear_formula_cache) drops
//! both together. An uncached check interns into a store of its own.

use std::cell::RefCell;
use std::collections::HashMap;

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

/// An interned name.
#[derive(Debug)]
struct Symbol {
    name: Box<str>,
    /// `true` for names starting with `const:`, the encoding of string and
    /// other named constants: a nullary application of such a symbol is an
    /// interpreted constant, distinct from every other constant.
    is_const: bool,
}

/// The store: nodes by id, the hash-consing table and the symbol table.
#[derive(Debug, Default)]
pub(crate) struct TermStore {
    nodes: Vec<Node>,
    ids: HashMap<Node, TermId>,
    symbols: Vec<Symbol>,
    symbol_ids: HashMap<Box<str>, SymbolId>,
}

impl TermStore {
    /// The node of `id`.
    pub(crate) fn node(&self, id: TermId) -> &Node {
        &self.nodes[id as usize]
    }

    /// `true` if `symbol` names an interpreted constant (`const:` prefix).
    pub(crate) fn is_const_symbol(&self, symbol: SymbolId) -> bool {
        self.symbols[symbol as usize].is_const
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

    /// Rebuilds the [`Term`] of `id`.
    pub(crate) fn term(&self, id: TermId) -> Term {
        let all = |args: &[TermId]| args.iter().map(|&a| self.term(a)).collect();
        let boxed = |id: TermId| Box::new(self.term(id));
        match *self.node(id) {
            Node::BoolConst(b) => Term::BoolConst(b),
            Node::IntConst(v) => Term::IntConst(v),
            Node::Var(symbol, sort) => Term::Var(self.name(symbol).to_owned(), sort),
            Node::App(symbol, ref args) => Term::App(self.name(symbol).to_owned(), all(args)),
            Node::Eq(lhs, rhs) => Term::Eq(boxed(lhs), boxed(rhs)),
            Node::Le(lhs, rhs) => Term::Le(boxed(lhs), boxed(rhs)),
            Node::Add(ref args) => Term::Add(all(args)),
            Node::MulConst(c, inner) => Term::MulConst(c, boxed(inner)),
            Node::Not(inner) => Term::Not(boxed(inner)),
            Node::And(ref args) => Term::And(all(args)),
            Node::Or(ref args) => Term::Or(all(args)),
            Node::Implies(lhs, rhs) => Term::Implies(boxed(lhs), boxed(rhs)),
            Node::Ite(c, t, e) => Term::Ite(boxed(c), boxed(t), boxed(e)),
        }
    }

    fn name(&self, symbol: SymbolId) -> &str {
        &self.symbols[symbol as usize].name
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
    pub(crate) fn mk_and(&mut self, items: &[TermId]) -> TermId {
        self.mk_junction(items, true)
    }

    /// Mirrors [`Term::or`], dually to [`TermStore::mk_and`].
    pub(crate) fn mk_or(&mut self, items: &[TermId]) -> TermId {
        self.mk_junction(items, false)
    }

    /// `And` (`conjunction`) or `Or` of `items` with the simplifications of
    /// [`Term::and`] / [`Term::or`]: the unit is dropped, the absorbing
    /// constant wins, and same-kind items are spliced one level deep.
    fn mk_junction(&mut self, items: &[TermId], conjunction: bool) -> TermId {
        let mut flat = Vec::with_capacity(items.len());
        for &item in items {
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

    /// Interns `name` as a symbol.
    fn symbol(&mut self, name: &str) -> SymbolId {
        if let Some(&symbol) = self.symbol_ids.get(name) {
            return symbol;
        }
        let symbol = self.symbols.len() as SymbolId;
        let name: Box<str> = name.into();
        self.symbols.push(Symbol { is_const: name.starts_with("const:"), name: name.clone() });
        self.symbol_ids.insert(name, symbol);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str, args: Vec<Term>) -> Term {
        Term::App(name.to_string(), args)
    }

    #[test]
    fn interning_is_canonical_and_round_trips() {
        let mut store = TermStore::default();
        let term = Term::and(vec![
            Term::le(Term::add(vec![Term::int_var("x"), Term::int(1)]), Term::int_var("y")),
            Term::eq(f("f", vec![Term::value_var("a")]), f("const:s:b", vec![])),
            Term::implies(Term::bool_var("p"), Term::not(Term::bool_var("q"))),
        ]);
        let id = store.intern(&term);
        let nodes = store.len();
        assert_eq!(store.intern(&term.clone()), id);
        assert_eq!(store.len(), nodes, "re-interning allocates no node");
        assert_eq!(store.term(id), term);
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
            assert_eq!(store.term(not), Term::not(item.clone()));
            for (j, other) in items.iter().enumerate() {
                let pair = [ids[i], ids[j]];
                let and = store.mk_and(&pair);
                let or = store.mk_or(&pair);
                assert_eq!(store.term(and), Term::and(vec![item.clone(), other.clone()]));
                assert_eq!(store.term(or), Term::or(vec![item.clone(), other.clone()]));
            }
        }
        let empty_and = store.mk_and(&[]);
        let empty_or = store.mk_or(&[]);
        assert_eq!(store.term(empty_and), Term::tt());
        assert_eq!(store.term(empty_or), Term::ff());
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
}
