//! # smt
//!
//! A from-scratch SMT solver used as the decision substrate of GraphQE-rs
//! (substituting for Z3, which the paper uses: the workspace is std-only
//! and builds without external dependencies).
//!
//! The solver decides quantifier-free formulas over **EUF** (equality with
//! uninterpreted functions) and **LIA** (linear integer arithmetic) — exactly
//! the fragment the LIA\*-based decision procedure of the paper produces
//! after eliminating unbounded summations. The architecture is the classic
//! lazy DPLL(T) loop:
//!
//! * [`sat`] — a CDCL SAT solver (watched literals, 1UIP learning,
//!   non-chronological backjumping);
//! * `store` — the thread's term store: hash-consed term nodes over
//!   interned symbols, which every check runs on, and the builder sessions
//!   ([`with_term_builder`]) that construct terms in it directly;
//! * `cnf` — Tseitin transformation with theory-atom abstraction;
//! * `euf` — congruence closure;
//! * `lia` — Fourier–Motzkin based consistency with integer case splits;
//! * [`solver`] — the combination loop and the public [`Solver`] API.
//!
//! Terms reach the store on two roads. [`Term`] is the tree construction
//! API: [`Solver::check`] interns its assertions into the store once. A
//! [`with_term_builder`] session skips the tree: its [`TermBuilder`] mirrors
//! `Term`'s constructors on store ids, names are given in parts and joined
//! without allocating, and [`TermBuilder::check`] runs the same cached check
//! on the built formula. Either way, the abstraction and both theory solvers
//! work on the store's integer ids, never on `Term` trees or their
//! renderings, and an answer ([`SmtResult`]) carries no model.
//!
//! `Unsat` answers are sound; `Sat` answers may over-approximate (see the
//! module docs of [`solver`]), which can only make the equivalence prover
//! less complete, never unsound.
//!
//! ```
//! use smt::{Solver, Term};
//!
//! let mut solver = Solver::new();
//! let x = Term::int_var("x");
//! solver.assert(Term::le(x.clone(), Term::int(3)));
//! solver.assert(Term::ge(x, Term::int(5)));
//! assert!(solver.check().is_unsat());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
mod euf;
mod lia;
pub mod sat;
pub mod solver;
mod store;
pub mod term;

pub use sat::{Lit, SatOutcome, SatSolver};
pub use solver::{
    check_formula, check_formula_cached, clear_formula_cache, formula_cache_len,
    formula_cache_stats, is_valid, SmtResult, Solver,
};
pub use store::{with_term_builder, Name, TermBuilder, TermRef};
pub use term::{Sort, SortTag, Term};
