//! The lazy DPLL(T) solver: a CDCL SAT core enumerating boolean models of
//! the abstracted formula, with EUF and LIA theory solvers refuting models
//! whose theory literals are inconsistent.
//!
//! `Unsat` answers are sound: they are produced only when every boolean
//! model is refuted by a genuine theory inconsistency. `Sat` answers may in
//! rare cases be over-approximations (the EUF × LIA combination is not a full
//! Nelson–Oppen combination and the LIA checker is rational-complete only),
//! which affects completeness of the equivalence prover, never its soundness
//! — mirroring §VI of the paper.
//!
//! A check runs on the ids of a term store (see the `store` module). A
//! cached check — [`Solver::check`] with the formula cache on, and every
//! [`TermBuilder::check`](crate::TermBuilder::check) — uses the thread's
//! store, and the formula cache keys its answer by the sorted assertion ids.
//! An uncached [`Solver::check`] interns into a store of its own. On a cache
//! miss, and on every uncached check, the DPLL(T) loop runs on those ids: the
//! Tseitin abstraction keys atoms by id, congruence closure compares ids, and
//! an opaque sub-term of an arithmetic atom (an uninterpreted application, a
//! value variable) enters Fourier–Motzkin as the variable named by its id.
//! An answer is one of three words: no model is kept or handed out, so
//! nothing turns ids back into [`Term`]s.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cnf::Abstraction;
use crate::euf::{CongruenceClosure, TheoryResult};
use crate::lia::{LiaProblem, LinearConstraint};
use crate::sat::{Lit, SatOutcome, SatSolver};
use crate::store::{self, Node, TermId, TermStore};
use crate::term::{SortTag, Term};

/// The result of an SMT check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtResult {
    /// A theory-consistent boolean model was found.
    Sat,
    /// The assertions are unsatisfiable.
    Unsat,
    /// The solver gave up (iteration budget exhausted).
    Unknown,
}

impl SmtResult {
    /// Returns `true` for [`SmtResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }

    /// Returns `true` for [`SmtResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat)
    }
}

/// The default bound on lazy refinement iterations of one check.
pub(crate) const MAX_ITERATIONS: usize = 10_000;

/// The SMT solver front-end.
#[derive(Debug, Default)]
pub struct Solver {
    assertions: Vec<Term>,
    /// Maximum number of lazy refinement iterations before giving up.
    pub max_iterations: usize,
    /// Memoize [`Solver::check`] results in the thread's formula cache,
    /// keyed by the (order-insensitive) set of asserted formulas. Off by
    /// default so the paper-faithful baseline measurements stay cache-free;
    /// the arena decision pipeline turns it on via [`Solver::cached`].
    pub use_cache: bool,
}

thread_local! {
    /// Formula-level result cache, keyed by the **sorted term-store id set**
    /// of the asserted formulas: id equality is structural equality by
    /// hash-consing, so a probe compares a few `u32`s. `Unknown` answers are
    /// not cached (they depend on the iteration budget, which is not part of
    /// the key).
    static FORMULA_CACHE: RefCell<HashMap<Box<[TermId]>, SmtResult>> = RefCell::new(HashMap::new());
}

/// Lifetime hit counter of the formula cache, summed over all threads.
static FORMULA_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
/// Lifetime miss counter of the formula cache, summed over all threads.
static FORMULA_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` of the formula cache, accumulated across every thread
/// since process start.
pub fn formula_cache_stats() -> (u64, u64) {
    (FORMULA_CACHE_HITS.load(Ordering::Relaxed), FORMULA_CACHE_MISSES.load(Ordering::Relaxed))
}

/// Drops every entry of the calling thread's formula cache **and** its term
/// store (cache keys are store ids, so the two live and die together).
/// Part of the epoch-based eviction story: long-running batch workers call
/// this (through `liastar::reset_thread_caches`) so solver memory stops
/// growing monotonically.
pub fn clear_formula_cache() {
    FORMULA_CACHE.with(|cache| cache.borrow_mut().clear());
    store::drop_thread_store();
}

/// Number of entries in the calling thread's formula cache.
pub fn formula_cache_len() -> usize {
    FORMULA_CACHE.with(|cache| cache.borrow().len())
}

impl Solver {
    /// Creates an empty solver (cache-free — see [`Solver::cached`]).
    pub fn new() -> Self {
        Solver { assertions: Vec::new(), max_iterations: MAX_ITERATIONS, use_cache: false }
    }

    /// Creates an empty solver that memoizes results in the thread's
    /// formula cache.
    pub fn cached() -> Self {
        Solver { use_cache: true, ..Solver::new() }
    }

    /// Asserts a formula.
    pub fn assert(&mut self, formula: Term) {
        self.assertions.push(formula);
    }

    /// Checks satisfiability of the asserted formulas.
    ///
    /// The assertions are interned into a term store once. With
    /// [`Solver::use_cache`] that is the thread's store, and the result is
    /// memoized under their sorted ids, so re-checking the same formula set
    /// — ubiquitous across the decision procedure's permutation retries — is
    /// one interning walk plus a small-integer-slice hash lookup. Without
    /// it, the check runs on a store of its own, so nothing outlives it.
    pub fn check(&self) -> SmtResult {
        if !self.use_cache {
            if limits::faults::forced_smt_unknown() {
                return SmtResult::Unknown;
            }
            let mut store = TermStore::default();
            let ids = self.intern(&mut store);
            return solve(&mut store, &ids, self.max_iterations);
        }
        store::with_thread_store(|store| {
            let ids = self.intern(store);
            check_cached(store, &ids, self.max_iterations)
        })
    }

    /// The store ids of the assertions, in assertion order.
    fn intern(&self, store: &mut TermStore) -> Vec<TermId> {
        self.assertions.iter().map(|assertion| store.intern(assertion)).collect()
    }
}

/// A check through the thread's formula cache, on assertions interned in the
/// thread's `store`.
pub(crate) fn check_cached(
    store: &mut TermStore,
    assertions: &[TermId],
    max_iterations: usize,
) -> SmtResult {
    // Fault injection (test-only, inert unless armed): a forced `Unknown` is
    // reported *before* the cache probe, so the injected failure can never be
    // masked by — or leak into — a warm formula cache.
    if limits::faults::forced_smt_unknown() {
        return SmtResult::Unknown;
    }
    // Sort the ids for order insensitivity (a copy, unless they are sorted
    // already, as one assertion always is). Id equality is structural
    // equality, so the probe needs no structural verification.
    let mut sorted = Vec::new();
    let key = if assertions.is_sorted() {
        assertions
    } else {
        sorted.extend_from_slice(assertions);
        sorted.sort_unstable();
        sorted.as_slice()
    };
    if let Some(result) = FORMULA_CACHE.with(|cache| cache.borrow().get(key).copied()) {
        FORMULA_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return result;
    }
    FORMULA_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let result = solve(store, assertions, max_iterations);
    if result != SmtResult::Unknown {
        FORMULA_CACHE.with(|cache| cache.borrow_mut().insert(key.into(), result));
    }
    result
}

/// The lazy DPLL(T) loop on interned assertions (in assertion order, which
/// fixes the propositional variable numbering).
fn solve(store: &mut TermStore, assertions: &[TermId], max_iterations: usize) -> SmtResult {
    let formula = store.mk_and(assertions.iter().copied());
    match store.node(formula) {
        Node::BoolConst(true) => return SmtResult::Sat,
        Node::BoolConst(false) => return SmtResult::Unsat,
        _ => {}
    }
    let mut sat = SatSolver::new();
    let mut abstraction = Abstraction::default();
    abstraction.assert_formula(store, &mut sat, formula);

    let mut literals: Vec<(usize, TermId, bool)> = Vec::new();
    for _ in 0..max_iterations {
        // Cooperative budget/deadline checkpoint: each CDCL(T) refinement
        // iteration charges the ambient RunToken's SMT step budget. On a
        // trip the solver degrades to `Unknown`, which every caller already
        // treats conservatively (and which is never cached).
        if limits::smt_step().is_err() {
            return SmtResult::Unknown;
        }
        match sat.solve() {
            SatOutcome::Unsat => return SmtResult::Unsat,
            SatOutcome::Sat(assignment) => {
                // Collect the theory literals implied by this model.
                literals.clear();
                literals.extend(
                    abstraction
                        .atoms
                        .iter()
                        .filter(|(var, _)| *var < assignment.len())
                        .map(|&(var, atom)| (var, atom, assignment[var])),
                );
                if theory_consistent(store, &literals) {
                    return SmtResult::Sat;
                }
                // Refute this boolean model: at least one theory literal
                // must flip.
                let blocking: Vec<Lit> =
                    literals.iter().map(|(var, _, value)| Lit::new(*var, !value)).collect();
                sat.add_clause(blocking);
            }
        }
    }
    SmtResult::Unknown
}

/// Convenience helper: checks a single formula (cache-free).
pub fn check_formula(formula: Term) -> SmtResult {
    let mut solver = Solver::new();
    solver.assert(formula);
    solver.check()
}

/// Convenience helper: returns `true` if `formula` is valid (its negation is
/// unsatisfiable). Cache-free.
pub fn is_valid(formula: Term) -> bool {
    check_formula(Term::not(formula)).is_unsat()
}

/// [`check_formula`] through the thread's formula cache.
pub fn check_formula_cached(formula: Term) -> SmtResult {
    let mut solver = Solver::cached();
    solver.assert(formula);
    solver.check()
}

// ---------------------------------------------------------------------------
// Theory checking
// ---------------------------------------------------------------------------

/// Checks the conjunction of the given theory literals with the EUF and LIA
/// solvers.
fn theory_consistent(store: &TermStore, literals: &[(usize, TermId, bool)]) -> bool {
    let mut euf = CongruenceClosure::default();
    let mut lia = LiaProblem::default();

    for &(_, atom, value) in literals {
        match *store.node(atom) {
            Node::Eq(lhs, rhs) => {
                if value {
                    euf.assert_eq(store, lhs, rhs);
                } else {
                    euf.assert_neq(store, lhs, rhs);
                }
                if is_arithmetic(store, lhs) || is_arithmetic(store, rhs) {
                    let constraint = linear_difference(store, lhs, rhs);
                    if value {
                        lia.add_eq(constraint);
                    } else {
                        lia.add_neq(constraint);
                    }
                }
            }
            Node::Le(lhs, rhs) => {
                if value {
                    lia.add_le(linear_difference(store, lhs, rhs));
                } else {
                    // ¬(lhs ≤ rhs) ⇔ rhs + 1 ≤ lhs over the integers.
                    let mut flipped = linear_difference(store, rhs, lhs);
                    flipped.constant -= 1;
                    lia.add_le(flipped);
                }
            }
            // Pure boolean atoms impose no theory constraints.
            _ => {}
        }
    }
    euf.check(store) == TheoryResult::Consistent && lia.check() == TheoryResult::Consistent
}

/// Returns `true` if the term belongs to the arithmetic fragment.
fn is_arithmetic(store: &TermStore, term: TermId) -> bool {
    matches!(
        store.node(term),
        Node::IntConst(_) | Node::Add(_) | Node::MulConst(_, _) | Node::Var(_, SortTag::Int)
    )
}

/// Linearizes `lhs - rhs` into a [`LinearConstraint`] with constant moved to
/// the right-hand side: `lhs ≤ rhs` becomes `Σ coeff·var ≤ constant`.
/// Variables and non-arithmetic sub-terms (uninterpreted applications, value
/// variables) are opaque integer variables named by their term id.
fn linear_difference(store: &TermStore, lhs: TermId, rhs: TermId) -> LinearConstraint {
    let mut coefficients = Vec::new();
    let mut constant: i64 = 0;
    accumulate(store, lhs, 1, &mut coefficients, &mut constant);
    accumulate(store, rhs, -1, &mut coefficients, &mut constant);
    LinearConstraint::new(coefficients, -constant)
}

fn accumulate(
    store: &TermStore,
    term: TermId,
    sign: i64,
    coefficients: &mut Vec<(TermId, i64)>,
    constant: &mut i64,
) {
    match *store.node(term) {
        Node::IntConst(v) => *constant += sign * v,
        Node::Add(ref items) => {
            for &item in items.iter() {
                accumulate(store, item, sign, coefficients, constant);
            }
        }
        Node::MulConst(c, inner) => accumulate(store, inner, sign * c, coefficients, constant),
        _ => coefficients.push((term, sign)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::int_var("x")
    }
    fn y() -> Term {
        Term::int_var("y")
    }

    #[test]
    fn propositional_unsat() {
        let a = Term::bool_var("a");
        assert!(check_formula(Term::and(vec![a.clone(), Term::not(a)])).is_unsat());
    }

    #[test]
    fn euf_reasoning() {
        // a = b ∧ b = c ∧ f(a) ≠ f(c) is UNSAT.
        let a = Term::value_var("a");
        let b = Term::value_var("b");
        let c = Term::value_var("c");
        let f = |t: Term| Term::App("f".into(), vec![t]);
        let formula = Term::and(vec![
            Term::eq(a.clone(), b.clone()),
            Term::eq(b, c.clone()),
            Term::neq(f(a), f(c)),
        ]);
        assert!(check_formula(formula).is_unsat());
    }

    #[test]
    fn lia_reasoning() {
        // x ≤ 3 ∧ x ≥ 5 is UNSAT.
        let formula = Term::and(vec![Term::le(x(), Term::int(3)), Term::ge(x(), Term::int(5))]);
        assert!(check_formula(formula).is_unsat());
        // x ≤ 3 ∧ x ≥ 2 is SAT.
        let formula = Term::and(vec![Term::le(x(), Term::int(3)), Term::ge(x(), Term::int(2))]);
        assert!(check_formula(formula).is_sat());
    }

    #[test]
    fn combined_boolean_and_theory() {
        // (x = 1 ∨ x = 2) ∧ x ≠ 1 ∧ x ≠ 2 is UNSAT.
        let formula = Term::and(vec![
            Term::or(vec![Term::eq(x(), Term::int(1)), Term::eq(x(), Term::int(2))]),
            Term::neq(x(), Term::int(1)),
            Term::neq(x(), Term::int(2)),
        ]);
        assert!(check_formula(formula).is_unsat());
    }

    #[test]
    fn equality_feeds_arithmetic() {
        // x = y ∧ x ≤ 3 ∧ y ≥ 5 is UNSAT.
        let formula = Term::and(vec![
            Term::eq(x(), y()),
            Term::le(x(), Term::int(3)),
            Term::ge(y(), Term::int(5)),
        ]);
        assert!(check_formula(formula).is_unsat());
    }

    #[test]
    fn validity_of_simple_arithmetic_facts() {
        // x ≤ 3 ⇒ x ≤ 5 is valid.
        assert!(is_valid(Term::implies(Term::le(x(), Term::int(3)), Term::le(x(), Term::int(5)))));
        // x ≤ 5 ⇒ x ≤ 3 is not valid.
        assert!(!is_valid(Term::implies(Term::le(x(), Term::int(5)), Term::le(x(), Term::int(3)))));
        // x = 1 ∧ y = 1 ⇒ x = y is valid.
        assert!(is_valid(Term::implies(
            Term::and(vec![Term::eq(x(), Term::int(1)), Term::eq(y(), Term::int(1))]),
            Term::eq(x(), y())
        )));
    }

    #[test]
    fn distinct_string_constants_are_unequal() {
        let alice = Term::App("const:Alice".into(), vec![]);
        let bob = Term::App("const:Bob".into(), vec![]);
        let v = Term::value_var("v");
        let formula = Term::and(vec![Term::eq(v.clone(), alice), Term::eq(v, bob)]);
        assert!(check_formula(formula).is_unsat());
    }

    #[test]
    fn uninterpreted_functions_in_arithmetic() {
        // f(x) ≤ 3 ∧ f(x) ≥ 5 is UNSAT (f(x) treated as an opaque integer).
        let fx = Term::App("f".into(), vec![x()]);
        let formula =
            Term::and(vec![Term::le(fx.clone(), Term::int(3)), Term::ge(fx, Term::int(5))]);
        assert!(check_formula(formula).is_unsat());
    }

    #[test]
    fn distinct_terms_that_render_alike_are_distinct_lia_variables() {
        // `size(coalesce(a, 'p(), const:s:q'))` and `size(coalesce(a, 'p', 'q'))`
        // both render as `fn:size(fn:coalesce(prop:a(e0), const:s:p(), const:s:q()))`.
        let size_of = |args: Vec<Term>| {
            let a = Term::App("prop:a".into(), vec![Term::value_var("e0")]);
            let coalesce = Term::App("fn:coalesce".into(), [vec![a], args].concat());
            Term::App("fn:size".into(), vec![coalesce])
        };
        let constant = |name: &str| Term::App(name.into(), vec![]);
        let t1 = size_of(vec![constant("const:s:p(), const:s:q")]);
        let t2 = size_of(vec![constant("const:s:p"), constant("const:s:q")]);
        assert_eq!(t1.to_string(), t2.to_string(), "test premise: the renderings collide");
        let formula = Term::and(vec![Term::le(t1, Term::int(3)), Term::ge(t2, Term::int(5))]);
        assert!(check_formula(formula.clone()).is_sat());
        assert!(check_formula_cached(formula.clone()).is_sat());
        assert!(check_formula_cached(formula).is_sat());
    }

    #[test]
    fn same_named_variables_of_different_sorts_are_distinct() {
        let formula = Term::and(vec![
            Term::le(Term::int_var("v"), Term::int(3)),
            Term::ge(Term::App("f".into(), vec![Term::value_var("v")]), Term::int(5)),
            Term::ge(Term::value_var("v"), Term::int(5)),
        ]);
        assert!(check_formula(formula).is_sat());
    }

    #[test]
    fn cached_and_uncached_checks_agree() {
        let formulas = vec![
            Term::and(vec![Term::le(x(), Term::int(3)), Term::ge(x(), Term::int(5))]),
            Term::and(vec![Term::le(x(), Term::int(3)), Term::ge(x(), Term::int(2))]),
            Term::and(vec![Term::bool_var("a"), Term::not(Term::bool_var("a"))]),
            Term::implies(Term::le(x(), Term::int(3)), Term::le(x(), Term::int(5))),
        ];
        for formula in formulas {
            let uncached = check_formula(formula.clone());
            let cached_cold = check_formula_cached(formula.clone());
            let cached_warm = check_formula_cached(formula);
            assert_eq!(uncached.is_unsat(), cached_cold.is_unsat());
            assert_eq!(cached_cold.is_unsat(), cached_warm.is_unsat());
            assert_eq!(cached_cold.is_sat(), cached_warm.is_sat());
        }
    }

    #[test]
    fn formula_cache_hits_on_repeated_checks() {
        // A formula unique to this test so parallel tests cannot interfere
        // with the hit accounting through the shared counters.
        let unique = Term::and(vec![
            Term::le(Term::int_var("formula_cache_hit_test_v"), Term::int(3)),
            Term::ge(Term::int_var("formula_cache_hit_test_v"), Term::int(5)),
        ]);
        assert!(check_formula_cached(unique.clone()).is_unsat());
        let (hits_before, _) = formula_cache_stats();
        // The exact same check again — and the assertion-order-insensitive
        // variant — must both be cache hits.
        assert!(check_formula_cached(unique).is_unsat());
        let mut solver = Solver::cached();
        solver.assert(Term::ge(Term::int_var("formula_cache_hit_test_v"), Term::int(5)));
        solver.assert(Term::le(Term::int_var("formula_cache_hit_test_v"), Term::int(3)));
        // Note: a single `check_formula_cached` call conjoins into one
        // assertion, while the two-assertion form is a different key — it
        // misses once, then hits on re-check.
        let first = solver.check();
        let second = solver.check();
        assert_eq!(first, second);
        let (hits_after, _) = formula_cache_stats();
        assert!(
            hits_after >= hits_before + 2,
            "expected at least two cache hits ({hits_before} -> {hits_after})"
        );
    }

    #[test]
    fn formula_cache_can_be_cleared() {
        let marker = Term::eq(Term::int_var("formula_cache_clear_test"), Term::int(1));
        check_formula_cached(marker.clone());
        assert!(formula_cache_len() > 0);
        clear_formula_cache();
        assert_eq!(formula_cache_len(), 0);
        // Still correct after the clear.
        assert!(check_formula_cached(marker).is_sat());
    }

    #[test]
    fn exhausted_smt_budget_degrades_to_uncached_unknown() {
        use std::sync::Arc;
        // A formula unique to this test so the cache interaction is isolated.
        let formula = Term::and(vec![
            Term::le(Term::int_var("smt_budget_test_v"), Term::int(3)),
            Term::ge(Term::int_var("smt_budget_test_v"), Term::int(5)),
        ]);
        let token = Arc::new(limits::RunToken::new(None, 1, 0));
        let tripped = limits::with_token(token.clone(), || {
            // Exhaust the single-step budget so the first CDCL iteration
            // trips deterministically.
            let _ = limits::smt_step();
            check_formula_cached(formula.clone())
        });
        assert_eq!(tripped, SmtResult::Unknown);
        assert!(token.trip().is_some());
        // The degraded result was not cached: a clean re-check is exact.
        assert!(check_formula_cached(formula).is_unsat());
    }

    #[test]
    fn sum_decomposition_like_lia_star() {
        // The shape produced by LIA*: v = v1 + v2, v1 ≥ 0, v2 ≥ 0, v ≥ 1,
        // v1 = 0, v2 = 0 is UNSAT.
        let v = Term::int_var("v");
        let v1 = Term::int_var("v1");
        let v2 = Term::int_var("v2");
        let formula = Term::and(vec![
            Term::eq(v.clone(), Term::add(vec![v1.clone(), v2.clone()])),
            Term::ge(v1.clone(), Term::int(0)),
            Term::ge(v2.clone(), Term::int(0)),
            Term::ge(v, Term::int(1)),
            Term::eq(v1, Term::int(0)),
            Term::eq(v2, Term::int(0)),
        ]);
        assert!(check_formula(formula).is_unsat());
    }
}
