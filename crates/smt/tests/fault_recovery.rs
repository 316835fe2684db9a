//! A panic inside a check leaves the thread's term store and formula cache
//! usable.
//!
//! The injected fault is process-wide, so this test has a binary of its own:
//! no other check can meet the armed panic.

use limits::faults::{self, FaultKind};
use limits::Stage;
use smt::{check_formula_cached, SmtResult, Term};

#[test]
fn a_panic_at_an_smt_step_leaves_the_store_usable() {
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
