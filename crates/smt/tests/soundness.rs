//! Soundness of the solver against concrete interpretations.
//!
//! Seeded random formulas mix integer and value variables, `+` and `*c`,
//! uninterpreted applications (among them `const:` constants and two
//! applications that render alike but are different terms) and Boolean
//! structure with `=>` and `ite`. Each formula is evaluated under sampled
//! interpretations over the integers: small integer values, a distinct value
//! per `const:` symbol, and a random table per function. When a sample
//! satisfies the formula, the solver must not answer `Unsat`, cached or
//! uncached. Formulas over Boolean variables alone are decided exactly: the
//! answer must match the truth table.
//!
//! The short runs are tier-1; the `#[ignore]`d long run takes a larger
//! fixed count: `cargo test -q --release -p smt -- --ignored`.

use smt::{check_formula, check_formula_cached, SmtResult, SortTag, Term};

/// The deterministic generator of the SAT solver's tests.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

/// Named constants. The third, as an application, renders like the first two
/// side by side: `const:s:p(), const:s:q()`.
const CONSTANTS: [&str; 3] = ["const:s:p", "const:s:q", "const:s:p(), const:s:q"];

fn constant(index: usize) -> Term {
    Term::App(CONSTANTS[index].to_string(), vec![])
}

/// One of two distinct applications that both render as
/// `h(k(v0, const:s:p(), const:s:q()))`.
fn colliding(rng: &mut Lcg) -> Term {
    let args = if rng.below(2) == 0 {
        vec![Term::value_var("v0"), constant(2)]
    } else {
        vec![Term::value_var("v0"), constant(0), constant(1)]
    };
    Term::App("h".to_string(), vec![Term::App("k".to_string(), args)])
}

/// An integer-valued term.
fn term(rng: &mut Lcg, depth: u32) -> Term {
    match rng.below(if depth == 0 { 5 } else { 10 }) {
        0 => Term::int(rng.range(-3, 6)),
        1 => Term::int_var(format!("x{}", rng.below(3))),
        2 => Term::value_var(format!("v{}", rng.below(2))),
        3 => constant(rng.below(3) as usize),
        4 => colliding(rng),
        5 => Term::add(vec![term(rng, depth - 1), term(rng, depth - 1)]),
        6 => Term::Add(vec![term(rng, depth - 1), term(rng, depth - 1), term(rng, depth - 1)]),
        7 => Term::MulConst(rng.range(-2, 3), Box::new(term(rng, depth - 1))),
        8 => Term::App("f".to_string(), vec![term(rng, depth - 1)]),
        _ => Term::App("g".to_string(), vec![term(rng, depth - 1), term(rng, depth - 1)]),
    }
}

/// A theory atom or a Boolean variable.
fn theory_atom(rng: &mut Lcg) -> Term {
    match rng.below(6) {
        0 => Term::bool_var(format!("p{}", rng.below(3))),
        1 | 2 => Term::le(term(rng, 2), term(rng, 2)),
        3 => Term::eq(term(rng, 2), term(rng, 2)),
        4 => Term::le(colliding(rng), Term::int(rng.range(-3, 6))),
        _ => Term::ge(colliding(rng), Term::int(rng.range(-3, 6))),
    }
}

/// A Boolean variable or constant (the propositional fragment).
fn boolean_atom(rng: &mut Lcg) -> Term {
    match rng.below(8) {
        0 => Term::BoolConst(rng.below(2) == 0),
        _ => Term::bool_var(format!("p{}", rng.below(6))),
    }
}

/// Boolean structure over `atom`, through both the simplifying
/// constructors and the raw variants.
fn formula(rng: &mut Lcg, depth: u32, atom: fn(&mut Lcg) -> Term) -> Term {
    if depth == 0 {
        return atom(rng);
    }
    let sub = |rng: &mut Lcg| formula(rng, depth - 1, atom);
    match rng.below(9) {
        0 => atom(rng),
        1 => Term::not(sub(rng)),
        2 => Term::and((0..2 + rng.below(2)).map(|_| sub(rng)).collect()),
        3 => Term::And((0..rng.below(4)).map(|_| sub(rng)).collect()),
        4 => Term::or((0..2 + rng.below(2)).map(|_| sub(rng)).collect()),
        5 => Term::Or((0..rng.below(4)).map(|_| sub(rng)).collect()),
        6 => Term::implies(sub(rng), sub(rng)),
        7 => Term::Ite(Box::new(sub(rng)), Box::new(sub(rng)), Box::new(sub(rng))),
        _ => Term::Not(Box::new(sub(rng))),
    }
}

/// A concrete interpretation over the integers.
struct Interpretation {
    ints: [i64; 3],
    values: [i64; 2],
    bools: [bool; 6],
    /// Seeds the function tables.
    functions: u64,
}

impl Interpretation {
    fn sample(rng: &mut Lcg) -> Self {
        Interpretation {
            ints: [0; 3].map(|_| rng.range(-3, 6)),
            values: [0; 2].map(|_| rng.range(-3, 6)),
            bools: [false; 6].map(|_| rng.below(2) == 0),
            functions: rng.next(),
        }
    }

    /// The `index`-th of 2^6 assignments to `p0..p5`.
    fn boolean(index: u32) -> Self {
        Interpretation {
            ints: [0; 3],
            values: [0; 2],
            bools: std::array::from_fn(|bit| index >> bit & 1 == 1),
            functions: 0,
        }
    }

    fn value(&self, term: &Term) -> i64 {
        let index = |name: &str| name[1..].parse::<usize>().expect("indexed variable");
        match term {
            Term::IntConst(v) => *v,
            Term::Var(name, SortTag::Int) => self.ints[index(name)],
            Term::Var(name, SortTag::Value) => self.values[index(name)],
            Term::App(name, args) if args.is_empty() && name.starts_with("const:") => {
                // Far from every integer literal, and distinct per symbol.
                1000 + CONSTANTS.iter().position(|c| c == name).expect("known constant") as i64
            }
            Term::App(name, args) => {
                // A random table: FNV-1a of the seed, the symbol and the
                // argument values, folded into a small range.
                let mut hash = 0xcbf2_9ce4_8422_2325 ^ self.functions;
                let arguments = args.iter().map(|arg| self.value(arg) as u64);
                for word in name.bytes().map(u64::from).chain([u64::MAX]).chain(arguments) {
                    hash = (hash ^ word).wrapping_mul(0x100_0000_01b3);
                }
                (hash >> 40) as i64 % 10 - 3
            }
            Term::Add(items) => items.iter().map(|item| self.value(item)).sum(),
            Term::MulConst(c, inner) => c * self.value(inner),
            other => panic!("not an integer term: {other}"),
        }
    }

    fn holds(&self, formula: &Term) -> bool {
        match formula {
            Term::BoolConst(b) => *b,
            Term::Var(name, SortTag::Bool) => self.bools[name[1..].parse::<usize>().unwrap()],
            Term::Eq(lhs, rhs) => self.value(lhs) == self.value(rhs),
            Term::Le(lhs, rhs) => self.value(lhs) <= self.value(rhs),
            Term::Not(inner) => !self.holds(inner),
            Term::And(items) => items.iter().all(|item| self.holds(item)),
            Term::Or(items) => items.iter().any(|item| self.holds(item)),
            Term::Implies(lhs, rhs) => !self.holds(lhs) || self.holds(rhs),
            Term::Ite(c, t, e) => {
                if self.holds(c) {
                    self.holds(t)
                } else {
                    self.holds(e)
                }
            }
            other => panic!("not a formula: {other}"),
        }
    }
}

/// The answers of one formula: uncached, cached on a cold key, cached warm.
fn answers(formula: &Term) -> [SmtResult; 3] {
    [
        check_formula(formula.clone()),
        check_formula_cached(formula.clone()),
        check_formula_cached(formula.clone()),
    ]
}

/// Mixed-theory formulas: a satisfying sample forbids `Unsat`.
fn check_theory_formulas(seed: u64, count: usize) {
    let mut rng = Lcg(seed);
    for case in 0..count {
        let formula = formula(&mut rng, 3, theory_atom);
        let witness = (0..48).map(|_| Interpretation::sample(&mut rng)).any(|i| i.holds(&formula));
        if witness {
            for answer in answers(&formula) {
                assert!(!answer.is_unsat(), "case {case}: satisfiable formula refuted: {formula}");
            }
        }
    }
}

/// Propositional formulas: the answer is the truth table's.
fn check_boolean_formulas(seed: u64, count: usize) {
    let mut rng = Lcg(seed);
    for case in 0..count {
        let formula = formula(&mut rng, 4, boolean_atom);
        let satisfiable = (0..64).any(|index| Interpretation::boolean(index).holds(&formula));
        for answer in answers(&formula) {
            assert_eq!(
                answer.is_sat(),
                satisfiable,
                "case {case}: {formula} answered {answer:?}, truth table says {satisfiable}"
            );
            assert_eq!(answer.is_unsat(), !satisfiable, "case {case}: {formula}");
        }
    }
}

#[test]
fn sampled_models_forbid_unsat() {
    check_theory_formulas(0x5eed_0001, 400);
}

#[test]
fn propositional_answers_match_truth_tables() {
    check_boolean_formulas(0x5eed_0002, 400);
}

#[test]
#[ignore = "long run: cargo test -q --release -p smt -- --ignored"]
fn sampled_models_forbid_unsat_long() {
    check_theory_formulas(0x5eed_1001, 5_000);
}

#[test]
#[ignore = "long run: cargo test -q --release -p smt -- --ignored"]
fn propositional_answers_match_truth_tables_long() {
    check_boolean_formulas(0x5eed_1002, 20_000);
}
