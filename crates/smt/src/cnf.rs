//! Tseitin transformation of formulas into CNF over abstracted theory atoms.
//!
//! Boolean structure (`and`, `or`, `not`, `=>`, `ite`) is encoded with
//! auxiliary variables; theory atoms (equalities, inequalities, boolean
//! variables) become propositional variables whose meaning the lazy DPLL(T)
//! loop later checks with the theory solvers.
//!
//! The transformation walks the [`TermStore`] ids of the formula and keys
//! atoms by id, so a shared atom is found by one integer probe. `=>` and
//! `ite` are rewritten into `or`/`and` through the store's smart
//! constructors, which mirror [`Term::not`](crate::Term::not),
//! [`Term::or`](crate::Term::or) and [`Term::and`](crate::Term::and): the
//! clauses and their variable numbering are those of the same rewrite on
//! `Term` trees.

use std::collections::HashMap;

use crate::sat::{Lit, SatSolver};
use crate::store::{Node, TermId, TermStore};

/// The result of abstracting a formula: the SAT solver is loaded with the
/// CNF, and `atoms` names the theory atom of each atom variable.
#[derive(Debug, Default)]
pub(crate) struct Abstraction {
    /// `(propositional variable, theory atom)` in allocation order.
    pub(crate) atoms: Vec<(usize, TermId)>,
    atom_vars: HashMap<TermId, usize>,
}

impl Abstraction {
    /// Encodes `formula` and asserts it (top-level) into `solver`.
    pub(crate) fn assert_formula(
        &mut self,
        store: &mut TermStore,
        solver: &mut SatSolver,
        formula: TermId,
    ) {
        let literal = self.encode(store, solver, formula);
        solver.add_clause(vec![literal]);
    }

    /// Returns the propositional variable of a theory atom, allocating one if
    /// needed.
    fn atom_var(&mut self, solver: &mut SatSolver, atom: TermId) -> usize {
        if let Some(&var) = self.atom_vars.get(&atom) {
            return var;
        }
        let var = solver.new_var();
        self.atom_vars.insert(atom, var);
        self.atoms.push((var, atom));
        var
    }

    /// Encodes a formula, returning a literal equivalent to it.
    fn encode(&mut self, store: &mut TermStore, solver: &mut SatSolver, formula: TermId) -> Lit {
        match *store.node(formula) {
            Node::BoolConst(b) => {
                // A fresh variable pinned to the constant.
                let var = solver.new_var();
                solver.add_clause(vec![Lit::new(var, b)]);
                Lit::new(var, true)
            }
            Node::Not(inner) => self.encode(store, solver, inner).negated(),
            Node::And(ref items) => {
                let items = items.to_vec();
                let literals: Vec<Lit> =
                    items.into_iter().map(|item| self.encode(store, solver, item)).collect();
                let output = Lit::new(solver.new_var(), true);
                // output -> each literal.
                for literal in &literals {
                    solver.add_clause(vec![output.negated(), *literal]);
                }
                // all literals -> output.
                let mut clause: Vec<Lit> = literals.iter().map(|l| l.negated()).collect();
                clause.push(output);
                solver.add_clause(clause);
                output
            }
            Node::Or(ref items) => {
                let items = items.to_vec();
                let literals: Vec<Lit> =
                    items.into_iter().map(|item| self.encode(store, solver, item)).collect();
                let output = Lit::new(solver.new_var(), true);
                // each literal -> output.
                for literal in &literals {
                    solver.add_clause(vec![literal.negated(), output]);
                }
                // output -> some literal.
                let mut clause = literals;
                clause.push(output.negated());
                solver.add_clause(clause);
                output
            }
            Node::Implies(lhs, rhs) => {
                let not_lhs = store.mk_not(lhs);
                let encoded = store.mk_or([not_lhs, rhs]);
                self.encode(store, solver, encoded)
            }
            Node::Ite(cond, then_branch, else_branch) => {
                let not_cond = store.mk_not(cond);
                let then_clause = store.mk_or([not_cond, then_branch]);
                let else_clause = store.mk_or([cond, else_branch]);
                let encoded = store.mk_and([then_clause, else_clause]);
                self.encode(store, solver, encoded)
            }
            // Anything else is a theory atom (boolean variable, equality,
            // inequality).
            _ => Lit::new(self.atom_var(solver, formula), true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;
    use crate::term::Term;

    fn solve(formula: &Term) -> SatOutcome {
        let mut store = TermStore::default();
        let mut solver = SatSolver::new();
        let mut abstraction = Abstraction::default();
        let formula = store.intern(formula);
        abstraction.assert_formula(&mut store, &mut solver, formula);
        solver.solve()
    }

    #[test]
    fn propositional_tautologies_and_contradictions() {
        let a = Term::bool_var("a");
        let b = Term::bool_var("b");
        // a ∧ ¬a is UNSAT.
        assert_eq!(solve(&Term::and(vec![a.clone(), Term::not(a.clone())])), SatOutcome::Unsat);
        // (a ∨ b) ∧ ¬a ∧ ¬b is UNSAT.
        assert_eq!(
            solve(&Term::and(vec![
                Term::or(vec![a.clone(), b.clone()]),
                Term::not(a.clone()),
                Term::not(b.clone()),
            ])),
            SatOutcome::Unsat
        );
        // (a => b) ∧ a ∧ ¬b is UNSAT.
        assert_eq!(
            solve(&Term::and(vec![
                Term::implies(a.clone(), b.clone()),
                a.clone(),
                Term::not(b.clone()),
            ])),
            SatOutcome::Unsat
        );
        // (a => b) ∧ a ∧ b is SAT.
        assert!(matches!(
            solve(&Term::and(vec![Term::implies(a.clone(), b.clone()), a, b])),
            SatOutcome::Sat(_)
        ));
    }

    #[test]
    fn atoms_are_shared() {
        let atom = Term::eq(Term::int_var("x"), Term::int(1));
        let mut store = TermStore::default();
        let mut solver = SatSolver::new();
        let mut abstraction = Abstraction::default();
        let formula = store.intern(&Term::or(vec![atom.clone(), Term::not(atom)]));
        abstraction.assert_formula(&mut store, &mut solver, formula);
        // The same atom must map to a single propositional variable.
        assert_eq!(abstraction.atoms.len(), 1);
    }

    #[test]
    fn ite_encoding() {
        let c = Term::bool_var("c");
        let t = Term::bool_var("t");
        let e = Term::bool_var("e");
        // (ite c t e) ∧ c ∧ ¬t is UNSAT.
        let formula = Term::and(vec![
            Term::Ite(Box::new(c.clone()), Box::new(t.clone()), Box::new(e.clone())),
            c,
            Term::not(t),
        ]);
        assert_eq!(solve(&formula), SatOutcome::Unsat);
    }

    #[test]
    fn bool_constants() {
        assert!(matches!(solve(&Term::tt()), SatOutcome::Sat(_)));
        assert_eq!(solve(&Term::ff()), SatOutcome::Unsat);
    }
}
