//! Congruence closure for equality with uninterpreted functions (EUF).
//!
//! Given a conjunction of equalities and disequalities over variables,
//! constants and function applications, the checker decides consistency by
//! computing the congruence closure of the asserted equalities and checking
//! every disequality (and every pair of distinct interpreted constants)
//! against it.
//!
//! Terms are [`TermStore`] ids, numbered densely per check. Congruence is
//! found by signature: two applications with the same symbol whose
//! arguments lie in the same classes are merged, with signatures compared as
//! `(symbol, root classes)` integer tuples. Interpreted constants (integers,
//! booleans and nullary `const:` applications) are distinct from each other
//! exactly when their ids differ.

use std::collections::HashMap;

use crate::store::{Node, SymbolId, TermId, TermStore};

/// The result of a theory consistency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TheoryResult {
    /// The conjunction is consistent (a model exists for this theory).
    Consistent,
    /// The conjunction is inconsistent.
    Inconsistent,
}

/// A congruence-closure based EUF solver over the ids of one [`TermStore`].
#[derive(Debug, Default)]
pub(crate) struct CongruenceClosure {
    /// The store id of every distinct sub-term, indexed densely.
    terms: Vec<TermId>,
    index: HashMap<TermId, u32>,
    parent: Vec<u32>,
    /// Asserted disequalities (pairs of dense indices).
    disequalities: Vec<(u32, u32)>,
}

/// An application among the closure's terms: its dense index, symbol and
/// the range of its arguments' dense indices in a flat buffer.
#[derive(Clone, Copy)]
struct Application {
    index: u32,
    symbol: SymbolId,
    start: u32,
    len: u32,
}

impl CongruenceClosure {
    fn intern(&mut self, store: &TermStore, term: TermId) -> u32 {
        if let Some(&index) = self.index.get(&term) {
            return index;
        }
        // Intern sub-terms of applications first so congruence can see them.
        if let Node::App(_, args) = store.node(term) {
            for &arg in args.iter() {
                self.intern(store, arg);
            }
        }
        let index = self.terms.len() as u32;
        self.terms.push(term);
        self.parent.push(index);
        self.index.insert(term, index);
        index
    }

    fn find(&mut self, mut index: u32) -> u32 {
        while self.parent[index as usize] != index {
            let grandparent = self.parent[self.parent[index as usize] as usize];
            self.parent[index as usize] = grandparent;
            index = grandparent;
        }
        index
    }

    /// Merges the classes of `a` and `b`, returning `true` if they differed.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
        ra != rb
    }

    /// Asserts an equality between two terms.
    pub(crate) fn assert_eq(&mut self, store: &TermStore, lhs: TermId, rhs: TermId) {
        let a = self.intern(store, lhs);
        let b = self.intern(store, rhs);
        self.union(a, b);
    }

    /// Asserts a disequality between two terms.
    pub(crate) fn assert_neq(&mut self, store: &TermStore, lhs: TermId, rhs: TermId) {
        let a = self.intern(store, lhs);
        let b = self.intern(store, rhs);
        self.disequalities.push((a, b));
    }

    /// Checks consistency of the asserted literals.
    pub(crate) fn check(&mut self, store: &TermStore) -> TheoryResult {
        self.close_congruence(store);
        // Disequalities must not join classes.
        for i in 0..self.disequalities.len() {
            let (a, b) = self.disequalities[i];
            if self.find(a) == self.find(b) {
                return TheoryResult::Inconsistent;
            }
        }
        // Two distinct interpreted constants in one class are inconsistent.
        let mut constant_of_class: Vec<Option<TermId>> = vec![None; self.terms.len()];
        for index in 0..self.terms.len() as u32 {
            let term = self.terms[index as usize];
            if is_interpreted_constant(store, term) {
                let root = self.find(index) as usize;
                match constant_of_class[root] {
                    Some(existing) if existing != term => return TheoryResult::Inconsistent,
                    _ => constant_of_class[root] = Some(term),
                }
            }
        }
        TheoryResult::Consistent
    }

    /// Returns `true` if the two terms are currently known to be equal.
    #[cfg(test)]
    pub(crate) fn are_equal(&mut self, store: &TermStore, lhs: TermId, rhs: TermId) -> bool {
        // Intern first so newly mentioned applications participate in the
        // congruence propagation.
        let a = self.intern(store, lhs);
        let b = self.intern(store, rhs);
        self.close_congruence(store);
        self.find(a) == self.find(b)
    }

    /// Propagates congruence (`x ≃ y ⇒ f(x) ≃ f(y)`) to a fixpoint.
    ///
    /// Each round computes every application's signature — its symbol and
    /// the root classes of its arguments — sorts the applications by
    /// signature and merges neighbours with equal ones.
    fn close_congruence(&mut self, store: &TermStore) {
        let mut applications = Vec::new();
        let mut arguments: Vec<u32> = Vec::new();
        for (index, &term) in self.terms.iter().enumerate() {
            if let Node::App(symbol, ref args) = *store.node(term) {
                let start = arguments.len() as u32;
                arguments.extend(args.iter().map(|arg| self.index[arg]));
                let len = args.len() as u32;
                applications.push(Application { index: index as u32, symbol, start, len });
            }
        }
        if applications.len() < 2 {
            return;
        }
        let mut roots = vec![0u32; arguments.len()];
        loop {
            for (slot, &argument) in roots.iter_mut().zip(&arguments) {
                *slot = self.find(argument);
            }
            let signature = |app: &Application| {
                (app.symbol, &roots[app.start as usize..(app.start + app.len) as usize])
            };
            applications.sort_unstable_by(|a, b| signature(a).cmp(&signature(b)));
            let mut changed = false;
            for pair in applications.windows(2) {
                if signature(&pair[0]) == signature(&pair[1]) {
                    changed |= self.union(pair[0].index, pair[1].index);
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// Interpreted constants: integers, booleans, and nullary applications of a
/// `const:` symbol (the encoding used for string / named constants).
fn is_interpreted_constant(store: &TermStore, term: TermId) -> bool {
    match *store.node(term) {
        Node::IntConst(_) | Node::BoolConst(_) => true,
        Node::App(symbol, ref args) => args.is_empty() && store.is_const_symbol(symbol),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn v(name: &str) -> Term {
        Term::value_var(name)
    }

    fn f(name: &str, args: Vec<Term>) -> Term {
        Term::App(name.to_string(), args)
    }

    /// A closure with its store, driven by `Term`s.
    #[derive(Default)]
    struct Harness {
        store: TermStore,
        cc: CongruenceClosure,
    }

    impl Harness {
        fn assert_eq(&mut self, lhs: &Term, rhs: &Term) {
            let (lhs, rhs) = (self.store.intern(lhs), self.store.intern(rhs));
            self.cc.assert_eq(&self.store, lhs, rhs);
        }

        fn assert_neq(&mut self, lhs: &Term, rhs: &Term) {
            let (lhs, rhs) = (self.store.intern(lhs), self.store.intern(rhs));
            self.cc.assert_neq(&self.store, lhs, rhs);
        }

        fn are_equal(&mut self, lhs: &Term, rhs: &Term) -> bool {
            let (lhs, rhs) = (self.store.intern(lhs), self.store.intern(rhs));
            self.cc.are_equal(&self.store, lhs, rhs)
        }

        fn check(&mut self) -> TheoryResult {
            self.cc.check(&self.store)
        }
    }

    #[test]
    fn transitivity() {
        let mut cc = Harness::default();
        cc.assert_eq(&v("a"), &v("b"));
        cc.assert_eq(&v("b"), &v("c"));
        assert!(cc.are_equal(&v("a"), &v("c")));
        assert_eq!(cc.check(), TheoryResult::Consistent);
        cc.assert_neq(&v("a"), &v("c"));
        assert_eq!(cc.check(), TheoryResult::Inconsistent);
    }

    #[test]
    fn congruence_propagates_through_functions() {
        let mut cc = Harness::default();
        cc.assert_eq(&v("x"), &v("y"));
        assert!(cc.are_equal(&f("f", vec![v("x")]), &f("f", vec![v("y")])));
        // And functions of functions.
        assert!(
            cc.are_equal(&f("g", vec![f("f", vec![v("x")])]), &f("g", vec![f("f", vec![v("y")])]))
        );
        // Different functions stay apart.
        assert!(!cc.are_equal(&f("f", vec![v("x")]), &f("g", vec![v("x")])));
    }

    #[test]
    fn classic_euf_inconsistency() {
        // f(f(f(a))) = a ∧ f(f(f(f(f(a))))) = a ∧ f(a) ≠ a is inconsistent.
        let a = v("a");
        let fa = |n: usize| {
            let mut t = a.clone();
            for _ in 0..n {
                t = f("f", vec![t]);
            }
            t
        };
        let mut cc = Harness::default();
        cc.assert_eq(&fa(3), &a);
        cc.assert_eq(&fa(5), &a);
        cc.assert_neq(&fa(1), &a);
        assert_eq!(cc.check(), TheoryResult::Inconsistent);
    }

    #[test]
    fn distinct_constants_conflict() {
        let mut cc = Harness::default();
        cc.assert_eq(&v("x"), &Term::int(1));
        cc.assert_eq(&v("x"), &Term::int(2));
        assert_eq!(cc.check(), TheoryResult::Inconsistent);

        let mut cc = Harness::default();
        cc.assert_eq(&v("x"), &f("const:alice", vec![]));
        cc.assert_eq(&v("y"), &f("const:bob", vec![]));
        assert_eq!(cc.check(), TheoryResult::Consistent);
        cc.assert_eq(&v("x"), &v("y"));
        assert_eq!(cc.check(), TheoryResult::Inconsistent);
    }

    #[test]
    fn consistent_assignments_stay_consistent() {
        let mut cc = Harness::default();
        cc.assert_eq(&v("a"), &v("b"));
        cc.assert_neq(&v("a"), &v("c"));
        cc.assert_neq(&f("f", vec![v("a")]), &f("g", vec![v("a")]));
        assert_eq!(cc.check(), TheoryResult::Consistent);
    }

    #[test]
    fn congruence_separates_arities_and_merges_multi_argument_applications() {
        let mut cc = Harness::default();
        cc.assert_eq(&v("a"), &v("b"));
        assert!(cc.are_equal(&f("f", vec![v("a"), v("c")]), &f("f", vec![v("b"), v("c")])));
        assert!(!cc.are_equal(&f("f", vec![v("a")]), &f("f", vec![v("a"), v("a")])));
        assert!(!cc.are_equal(&f("f", vec![v("a"), v("c")]), &f("f", vec![v("c"), v("b")])));
    }
}
