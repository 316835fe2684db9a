//! The builder encoders mirror the tree encoders.
//!
//! Seeded random factors cover every `GExpr`, `GAtom`, `GTerm` and `GConst`
//! variant, all six comparison operators and both `IS NULL` polarities,
//! nested `Not`, `Mul`, `Add`, `Squash` and `Sum`, aggregates and floats, and
//! string constants and names containing `:`, `(`, `,` or non-ASCII
//! characters. Each factor is interned into a `GStore` and built with
//! [`liastar::build_factor`]; within one builder session its term must be the
//! one that interning the `Term` of [`liastar::encode_factor`] gives, and so
//! must the product of a few factors.
//!
//! The short run is tier-1; the `#[ignore]`d long run takes a larger fixed
//! count: `cargo test -q --release -p smt -p liastar -- --ignored`.

use std::collections::BTreeSet;

use gexpr::arena::GStore;
use gexpr::{CmpOp, GAggKind, GAtom, GConst, GExpr, GTerm, VarId};
use liastar::{build_factor, build_factors, encode_factor, encode_product};

/// The deterministic generator of the SMT soundness tests.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Strings for constants, keys, labels and names: the separators of the
/// encoded names (`:`, `(`, `,`, `|`), an encoded name itself, and non-ASCII
/// text.
const STRINGS: [&str; 10] =
    ["", "a", "age", "p:q", "f(x", "a, b", "x|y", "const:s:p", "Größe", "名前"];

const FLOATS: [f64; 7] = [0.0, -0.0, 1.5, -2.25, 1e300, f64::INFINITY, f64::NAN];

const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

const AGGREGATES: [GAggKind; 6] = [
    GAggKind::Count,
    GAggKind::Sum,
    GAggKind::Min,
    GAggKind::Max,
    GAggKind::Avg,
    GAggKind::Collect,
];

/// Draws factors and records which shapes it drew.
struct Draw {
    rng: Lcg,
    seen: BTreeSet<&'static str>,
}

impl Draw {
    fn string(&mut self) -> String {
        self.rng.pick(&STRINGS).to_string()
    }

    fn constant(&mut self) -> GConst {
        match self.rng.below(5) {
            0 => {
                self.seen.insert("const:integer");
                GConst::Integer(self.rng.below(7) as i64 - 3)
            }
            1 => {
                self.seen.insert("const:float");
                GConst::Float(*self.rng.pick(&FLOATS))
            }
            2 => {
                self.seen.insert("const:string");
                GConst::String(self.string())
            }
            3 => {
                self.seen.insert("const:boolean");
                GConst::Boolean(self.rng.below(2) == 0)
            }
            _ => {
                self.seen.insert("const:null");
                GConst::Null
            }
        }
    }

    fn term(&mut self, depth: u32) -> GTerm {
        match self.rng.below(if depth == 0 { 3 } else { 6 }) {
            0 => {
                self.seen.insert("term:var");
                GTerm::Var(VarId(self.rng.below(3) as u32))
            }
            1 => {
                self.seen.insert("term:outcol");
                GTerm::OutCol(self.rng.below(3) as usize)
            }
            2 => {
                self.seen.insert("term:const");
                GTerm::Const(self.constant())
            }
            3 => {
                self.seen.insert("term:prop");
                GTerm::Prop(Box::new(self.term(depth - 1)), self.string())
            }
            4 => {
                self.seen.insert("term:app");
                let args = (0..self.rng.below(3)).map(|_| self.term(depth - 1)).collect();
                GTerm::App(self.string(), args)
            }
            _ => {
                self.seen.insert("term:agg");
                GTerm::Agg {
                    kind: *self.rng.pick(&AGGREGATES),
                    distinct: self.rng.below(2) == 0,
                    arg: Box::new(self.term(depth - 1)),
                    group: Box::new(self.factor(depth - 1)),
                }
            }
        }
    }

    fn atom(&mut self, depth: u32) -> GAtom {
        match self.rng.below(3) {
            0 => {
                let op = *self.rng.pick(&OPS);
                self.seen.insert(match op {
                    CmpOp::Eq => "cmp:=",
                    CmpOp::Neq => "cmp:<>",
                    CmpOp::Lt => "cmp:<",
                    CmpOp::Le => "cmp:<=",
                    CmpOp::Gt => "cmp:>",
                    CmpOp::Ge => "cmp:>=",
                });
                GAtom::Cmp(op, self.term(depth), self.term(depth))
            }
            1 => {
                let negated = self.rng.below(2) == 0;
                self.seen.insert(if negated { "atom:is-not-null" } else { "atom:is-null" });
                GAtom::IsNull(self.term(depth), negated)
            }
            _ => {
                self.seen.insert("atom:pred");
                let args = (0..self.rng.below(3)).map(|_| self.term(depth)).collect();
                GAtom::Pred(self.string(), args)
            }
        }
    }

    fn factor(&mut self, depth: u32) -> GExpr {
        let sub = |draw: &mut Draw| draw.factor(depth - 1);
        match self.rng.below(if depth == 0 { 8 } else { 13 }) {
            0 => {
                self.seen.insert("expr:zero");
                GExpr::Zero
            }
            1 => {
                self.seen.insert("expr:one");
                GExpr::One
            }
            2 => {
                self.seen.insert("expr:const");
                GExpr::Const(self.rng.below(4))
            }
            3 | 4 => {
                self.seen.insert("expr:atom");
                GExpr::Atom(self.atom(depth.min(2)))
            }
            5 => {
                self.seen.insert("expr:node");
                GExpr::NodeFn(self.term(depth.min(1)))
            }
            6 => {
                self.seen.insert("expr:rel");
                GExpr::RelFn(self.term(depth.min(1)))
            }
            7 => {
                let term = self.term(depth.min(1));
                if self.rng.below(2) == 0 {
                    self.seen.insert("expr:lab");
                    GExpr::LabFn(term, self.string())
                } else {
                    self.seen.insert("expr:unbounded");
                    GExpr::Unbounded(term)
                }
            }
            8 => {
                self.seen.insert("expr:mul");
                GExpr::Mul((0..self.rng.below(4)).map(|_| sub(self)).collect())
            }
            9 => {
                self.seen.insert("expr:add");
                GExpr::Add((0..self.rng.below(4)).map(|_| sub(self)).collect())
            }
            10 => {
                self.seen.insert("expr:squash");
                GExpr::Squash(Box::new(sub(self)))
            }
            11 => {
                self.seen.insert("expr:not");
                let inner = sub(self);
                if matches!(inner, GExpr::Not(_)) {
                    self.seen.insert("expr:not-not");
                }
                GExpr::Not(Box::new(inner))
            }
            _ => {
                self.seen.insert("expr:sum");
                let vars = (0..1 + self.rng.below(2)).map(|v| VarId(v as u32)).collect();
                GExpr::Sum { vars, body: Box::new(sub(self)) }
            }
        }
    }
}

/// Every shape [`Draw`] can record.
const SHAPES: [&str; 34] = [
    "const:integer",
    "const:float",
    "const:string",
    "const:boolean",
    "const:null",
    "term:var",
    "term:outcol",
    "term:const",
    "term:prop",
    "term:app",
    "term:agg",
    "cmp:=",
    "cmp:<>",
    "cmp:<",
    "cmp:<=",
    "cmp:>",
    "cmp:>=",
    "atom:is-null",
    "atom:is-not-null",
    "atom:pred",
    "expr:zero",
    "expr:one",
    "expr:const",
    "expr:atom",
    "expr:node",
    "expr:rel",
    "expr:lab",
    "expr:unbounded",
    "expr:mul",
    "expr:add",
    "expr:squash",
    "expr:not",
    "expr:sum",
    // A `Not` directly over a `Not`.
    "expr:not-not",
];

fn check_mirror(seed: u64, count: usize) {
    let mut draw = Draw { rng: Lcg(seed), seen: BTreeSet::new() };
    let mut store = GStore::new();
    smt::with_term_builder(|b| {
        for case in 0..count {
            let factors: Vec<GExpr> = (0..1 + draw.rng.below(3)).map(|_| draw.factor(3)).collect();
            for factor in &factors {
                let id = store.intern_expr(factor);
                let built = build_factor(b, &mut store, id);
                assert_eq!(built, b.intern(&encode_factor(factor)), "case {case}: {factor}");
            }
            let ids: Vec<_> = factors.iter().map(|factor| store.intern_expr(factor)).collect();
            let built = build_factors(b, &mut store, &ids);
            let product = b.and(&built);
            assert_eq!(product, b.intern(&encode_product(&factors)), "case {case}: product");
        }
    });
    let missing: Vec<_> = SHAPES.iter().filter(|shape| !draw.seen.contains(*shape)).collect();
    assert!(missing.is_empty(), "shapes never drawn: {missing:?}");
}

#[test]
fn builder_encoders_mirror_the_tree_encoders() {
    check_mirror(0x5eed_0003, 600);
}

#[test]
#[ignore = "long run: cargo test -q --release -p smt -p liastar -- --ignored"]
fn builder_encoders_mirror_the_tree_encoders_long() {
    check_mirror(0x5eed_1003, 50_000);
}
