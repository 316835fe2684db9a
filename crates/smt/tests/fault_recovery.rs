//! A panic inside a check, through a `Solver` or a builder session, leaves
//! the thread's term store and formula cache usable.
//!
//! The injected fault is process-wide, so these tests have a binary of their
//! own, and they take turns: no other check can meet the armed panic.

use limits::faults::{self, FaultKind};
use limits::Stage;
use std::sync::Mutex;

use smt::{
    check_formula_cached, formula_cache_stats, with_term_builder, SmtResult, SortTag, Term,
    TermBuilder, TermRef,
};

/// Serializes the tests: each arms the process-wide fault.
static ARMING: Mutex<()> = Mutex::new(());

#[test]
fn a_panic_at_an_smt_step_leaves_the_store_usable() {
    let _turn = ARMING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let x = Term::int_var("x");
    let unsat =
        Term::and(vec![Term::le(x.clone(), Term::int(3)), Term::ge(x.clone(), Term::int(5))]);
    let sat = Term::and(vec![Term::le(x.clone(), Term::int(3)), Term::ge(x, Term::int(2))]);
    assert!(check_formula_cached(sat.clone()).is_sat(), "warms the store");

    faults::arm(Stage::Smt, FaultKind::Panic, 1);
    let caught = std::panic::catch_unwind(|| check_formula_cached(unsat.clone()));
    faults::disarm();
    assert!(caught.is_err(), "the armed fault fires inside the check");

    // The interrupted formula was not cached, and both formulas check as
    // before: the store was released while unwinding, not left borrowed.
    assert_eq!(check_formula_cached(unsat.clone()), SmtResult::Unsat);
    assert_eq!(check_formula_cached(unsat), SmtResult::Unsat);
    assert!(check_formula_cached(sat).is_sat());
}

/// `upper ≥ y ≥ 5`, over a variable unique to this test: the formula cache
/// is the thread's, and the interrupted check must be a miss that reaches the
/// SMT loop.
fn bounded<'s>(b: &mut TermBuilder<'s>, upper: i64) -> TermRef<'s> {
    let y = b.var(("session_fault_y", ""), SortTag::Int);
    let (bound, five) = (b.int(upper), b.int(5));
    let low = b.le(y, bound);
    let high = b.ge(y, five);
    b.and(&[low, high])
}

#[test]
fn a_panic_inside_a_builder_session_leaves_the_store_and_cache_usable() {
    let _turn = ARMING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let caught = std::panic::catch_unwind(|| {
        with_term_builder(|b| {
            let sat = bounded(b, 7);
            assert_eq!(b.check(sat), SmtResult::Sat, "the first check runs unarmed");
            faults::arm(Stage::Smt, FaultKind::Panic, 1);
            let unsat = bounded(b, 3);
            b.check(unsat)
        })
    });
    faults::disarm();
    assert!(caught.is_err(), "the armed fault fires inside the second check");

    // Later sessions answer exactly: the first answer was cached (a hit),
    // the interrupted one was not (a miss, then a hit), and the store takes
    // new terms.
    let (hits, misses) = formula_cache_stats();
    let answers = with_term_builder(|b| {
        let (sat, unsat) = (bounded(b, 7), bounded(b, 3));
        [b.check(sat), b.check(unsat), b.check(unsat)]
    });
    assert_eq!(answers, [SmtResult::Sat, SmtResult::Unsat, SmtResult::Unsat]);
    assert_eq!(formula_cache_stats(), (hits + 2, misses + 1));
    let y = Term::int_var("session_fault_y");
    let unsat = Term::and(vec![Term::le(y.clone(), Term::int(3)), Term::ge(y, Term::int(5))]);
    assert_eq!(check_formula_cached(unsat), SmtResult::Unsat);
}
