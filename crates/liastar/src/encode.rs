//! Encoding of G-expression atoms into SMT terms.
//!
//! The encoding is used for two purposes:
//!
//! * **zero pruning** — a summand whose atoms are jointly unsatisfiable is
//!   identically 0 and can be removed;
//! * **implication pruning** — an atom implied by the other factors of its
//!   product can be dropped (`[x > 5] × [x > 3] = [x > 5]`).
//!
//! Graph-native factors (`Node`, `Rel`, `Lab`, `UNBOUNDED`) and uninterpreted
//! predicates are abstracted as free boolean variables: this over-approximates
//! the set of interpretations, so unsatisfiability / validity results remain
//! sound for the actual U-semiring semantics.
//!
//! The encoding exists twice, once per pipeline:
//!
//! * the `encode_*` functions translate `GExpr` trees into SMT [`Term`] trees,
//!   for the paper-faithful tree pipeline, the differential oracle;
//! * [`build_factor`] reads interned ids out of a [`GStore`] and builds into an
//!   SMT builder session ([`smt::with_term_builder`]), for the arena pipeline.
//!   It builds no `Term`, and names are joined from their parts in the
//!   builder's buffer; only the names of floats, aggregates and summations
//!   are rendered. A caller encodes each factor once per session and builds
//!   every check from those terms.
//!
//! Both produce the same term: building a factor gives the id that interning
//! the `Term` of [`encode_factor`] gives, so the two pipelines share the
//! formula cache's keys.

use gexpr::arena::{AAtom, ANode, ATerm, GStore, NodeId, TermId};
use gexpr::{CmpOp, GAtom, GConst, GExpr, GTerm};
use smt::{SortTag, Term, TermBuilder, TermRef};

/// Translates a G-term into an SMT term.
pub fn encode_term(term: &GTerm) -> Term {
    match term {
        GTerm::Var(v) => Term::value_var(format!("e{}", v.0)),
        GTerm::OutCol(i) => Term::value_var(format!("t_col{i}")),
        GTerm::Const(GConst::Integer(v)) => Term::IntConst(*v),
        GTerm::Const(GConst::Float(v)) => Term::App(format!("const:f{v}"), vec![]),
        GTerm::Const(GConst::String(s)) => Term::App(format!("const:s:{s}"), vec![]),
        GTerm::Const(GConst::Boolean(b)) => Term::App(format!("const:b:{b}"), vec![]),
        GTerm::Const(GConst::Null) => Term::App("const:null".to_string(), vec![]),
        GTerm::Prop(base, key) => Term::App(format!("prop:{key}"), vec![encode_term(base)]),
        GTerm::App(name, args) => {
            Term::App(format!("fn:{name}"), args.iter().map(encode_term).collect())
        }
        GTerm::Agg { kind, distinct, arg, group } => {
            // Aggregates are opaque for satisfiability purposes; identical
            // aggregates map to the same symbol.
            let key = format!("agg:{}:{}:{}|{}", kind.name(), distinct, arg, group);
            Term::App(key, vec![])
        }
    }
}

/// Translates an atomic predicate into an SMT formula.
pub fn encode_atom(atom: &GAtom) -> Term {
    match atom {
        GAtom::Cmp(op, lhs, rhs) => {
            let l = encode_term(lhs);
            let r = encode_term(rhs);
            match op {
                CmpOp::Eq => Term::eq(l, r),
                CmpOp::Neq => Term::neq(l, r),
                CmpOp::Lt => Term::lt(l, r),
                CmpOp::Le => Term::le(l, r),
                CmpOp::Gt => Term::gt(l, r),
                CmpOp::Ge => Term::ge(l, r),
            }
        }
        GAtom::IsNull(term, negated) => {
            let encoded = Term::eq(encode_term(term), Term::App("const:null".to_string(), vec![]));
            if *negated {
                Term::not(encoded)
            } else {
                encoded
            }
        }
        GAtom::Pred(name, args) => {
            // Uninterpreted boolean predicate: a boolean-valued application is
            // modeled as equality with a distinguished `true` constant so the
            // congruence closure can reason about identical applications.
            let application =
                Term::App(format!("pred:{name}"), args.iter().map(encode_term).collect());
            Term::eq(application, Term::App("const:b:true".to_string(), vec![]))
        }
    }
}

/// Translates a 0/1-valued factor into an SMT formula expressing "the factor
/// is non-zero". Non-0/1 factors (sums, summations) are abstracted as free
/// boolean variables named by their rendering.
pub fn encode_factor(factor: &GExpr) -> Term {
    match factor {
        GExpr::Zero => Term::ff(),
        GExpr::One | GExpr::Const(_) => Term::tt(),
        GExpr::Atom(atom) => encode_atom(atom),
        GExpr::NodeFn(t) => Term::eq(
            Term::App("graph:node".to_string(), vec![encode_term(t)]),
            Term::App("const:b:true".to_string(), vec![]),
        ),
        GExpr::RelFn(t) => Term::eq(
            Term::App("graph:rel".to_string(), vec![encode_term(t)]),
            Term::App("const:b:true".to_string(), vec![]),
        ),
        GExpr::LabFn(t, label) => Term::eq(
            Term::App(format!("graph:lab:{label}"), vec![encode_term(t)]),
            Term::App("const:b:true".to_string(), vec![]),
        ),
        GExpr::Unbounded(t) => Term::eq(
            Term::App("graph:unbounded".to_string(), vec![encode_term(t)]),
            Term::App("const:b:true".to_string(), vec![]),
        ),
        GExpr::Not(inner) => Term::not(encode_factor(inner)),
        GExpr::Mul(items) => Term::and(items.iter().map(encode_factor).collect()),
        GExpr::Add(items) => Term::or(items.iter().map(encode_factor).collect()),
        GExpr::Squash(inner) => encode_factor(inner),
        GExpr::Sum { .. } => Term::bool_var(format!("sum:{factor}")),
    }
}

/// The conjunction of a whole product of factors ("is the product non-zero").
pub fn encode_product(factors: &[GExpr]) -> Term {
    Term::and(factors.iter().map(encode_factor).collect())
}

// ---------------------------------------------------------------------------
// Arena-native encoders
// ---------------------------------------------------------------------------
//
// Mirrors of the tree encoders above that read interned ids directly out of a
// [`GStore`] and build into an SMT builder session, so the id-native decision
// pipeline builds neither `GExpr` nor SMT `Term` trees. Each builds the term
// that interning its tree counterpart's `Term` gives (asserted by the
// `arena_encoders_match_tree_encoders` test below and by
// `tests/encoder_mirror.rs`), so both pipelines share the formula cache's
// keys.

/// Builds the formula "`factor` is non-zero" in a builder session: the
/// id-native mirror of [`encode_factor`].
pub fn build_factor<'s>(
    b: &mut TermBuilder<'s>,
    store: &mut GStore,
    factor: NodeId,
) -> TermRef<'s> {
    match *store.node_of(factor) {
        ANode::Zero => b.bool(false),
        ANode::One | ANode::Const(_) => b.bool(true),
        ANode::Atom(AAtom::Cmp(op, lhs, rhs)) => {
            let lhs = build_term(b, store, lhs);
            let rhs = build_term(b, store, rhs);
            match op {
                CmpOp::Eq => b.eq(lhs, rhs),
                CmpOp::Neq => b.neq(lhs, rhs),
                CmpOp::Lt => b.lt(lhs, rhs),
                CmpOp::Le => b.le(lhs, rhs),
                CmpOp::Gt => b.gt(lhs, rhs),
                CmpOp::Ge => b.ge(lhs, rhs),
            }
        }
        ANode::Atom(AAtom::IsNull(term, negated)) => {
            let term = build_term(b, store, term);
            let null = b.app("const:null", &[]);
            let encoded = b.eq(term, null);
            if negated {
                b.not(encoded)
            } else {
                encoded
            }
        }
        ANode::Atom(AAtom::Pred(name, ref args)) => {
            let args = args.clone();
            let args = build_terms(b, store, &args);
            let application = b.app(("pred:", store.str_of(name)), &args);
            is_true(b, application)
        }
        ANode::NodeFn(term) => graph_fact(b, store, "graph:node", term),
        ANode::RelFn(term) => graph_fact(b, store, "graph:rel", term),
        ANode::Lab(term, label) => {
            let term = build_term(b, store, term);
            let application = b.app(("graph:lab:", store.str_of(label)), &[term]);
            is_true(b, application)
        }
        ANode::Unbounded(term) => graph_fact(b, store, "graph:unbounded", term),
        ANode::Not(inner) => {
            let inner = build_factor(b, store, inner);
            b.not(inner)
        }
        ANode::Mul(ref items) => {
            let items = items.clone();
            let items = build_factors(b, store, &items);
            b.and(&items)
        }
        ANode::Add(ref items) => {
            let items = items.clone();
            let items = build_factors(b, store, &items);
            b.or(&items)
        }
        ANode::Squash(inner) => build_factor(b, store, inner),
        ANode::Sum(_, _) => {
            let text = store.node_string(factor);
            b.var(("sum:", text.as_str()), SortTag::Bool)
        }
    }
}

/// [`build_factor`] of each of `factors`, in order.
pub fn build_factors<'s>(
    b: &mut TermBuilder<'s>,
    store: &mut GStore,
    factors: &[NodeId],
) -> Vec<TermRef<'s>> {
    factors.iter().map(|&factor| build_factor(b, store, factor)).collect()
}

/// Builds the SMT term of a G-term: the id-native mirror of [`encode_term`].
fn build_term<'s>(b: &mut TermBuilder<'s>, store: &mut GStore, term: TermId) -> TermRef<'s> {
    match *store.term_of(term) {
        ATerm::Var(v) => b.var(("e", v.0), SortTag::Value),
        ATerm::OutCol(i) => b.var(("t_col", i), SortTag::Value),
        ATerm::Const(c) => match store.const_of(c) {
            GConst::Integer(v) => b.int(*v),
            GConst::Float(v) => b.app(("const:f", v), &[]),
            GConst::String(s) => b.app(("const:s:", s.as_str()), &[]),
            GConst::Boolean(v) => b.app(("const:b:", v), &[]),
            GConst::Null => b.app("const:null", &[]),
        },
        ATerm::Prop(base, key) => {
            let base = build_term(b, store, base);
            b.app(("prop:", store.str_of(key)), &[base])
        }
        ATerm::App(name, ref args) => {
            let args = args.clone();
            let args = build_terms(b, store, &args);
            b.app(("fn:", store.str_of(name)), &args)
        }
        ATerm::Agg { kind, distinct, arg, group } => {
            let arg = store.term_string(arg);
            let group = store.node_string(group);
            b.app(("agg:", format_args!("{}:{}:{}|{}", kind.name(), distinct, arg, group)), &[])
        }
    }
}

fn build_terms<'s>(
    b: &mut TermBuilder<'s>,
    store: &mut GStore,
    terms: &[TermId],
) -> Vec<TermRef<'s>> {
    terms.iter().map(|&term| build_term(b, store, term)).collect()
}

/// `application = const:b:true`, the encoding of a boolean-valued
/// application.
fn is_true<'s>(b: &mut TermBuilder<'s>, application: TermRef<'s>) -> TermRef<'s> {
    let tt = b.app("const:b:true", &[]);
    b.eq(application, tt)
}

/// A graph-native factor such as `Node(e)`: `symbol(e) = const:b:true`.
fn graph_fact<'s>(
    b: &mut TermBuilder<'s>,
    store: &mut GStore,
    symbol: &str,
    term: TermId,
) -> TermRef<'s> {
    let term = build_term(b, store, term);
    let application = b.app(symbol, &[term]);
    is_true(b, application)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gexpr::VarId;
    use smt::check_formula;

    fn var(i: u32) -> GTerm {
        GTerm::Var(VarId(i))
    }

    #[test]
    fn contradictory_products_are_unsat() {
        // [e0.age = 1] × [e0.age = 2]
        let factors = vec![
            GExpr::eq(GTerm::prop(var(0), "age"), GTerm::int(1)),
            GExpr::eq(GTerm::prop(var(0), "age"), GTerm::int(2)),
        ];
        assert!(check_formula(encode_product(&factors)).is_unsat());
    }

    #[test]
    fn range_contradictions_are_unsat() {
        // [e0.age < 10] × [e0.age > 20]
        let factors = vec![
            GExpr::Atom(GAtom::Cmp(CmpOp::Lt, GTerm::prop(var(0), "age"), GTerm::int(10))),
            GExpr::Atom(GAtom::Cmp(CmpOp::Gt, GTerm::prop(var(0), "age"), GTerm::int(20))),
        ];
        assert!(check_formula(encode_product(&factors)).is_unsat());
    }

    #[test]
    fn satisfiable_products_are_sat() {
        let factors = vec![
            GExpr::NodeFn(var(0)),
            GExpr::LabFn(var(0), "Person".into()),
            GExpr::eq(GTerm::prop(var(0), "age"), GTerm::int(59)),
        ];
        assert!(check_formula(encode_product(&factors)).is_sat());
    }

    #[test]
    fn distinct_string_constants_conflict() {
        let factors = vec![
            GExpr::eq(GTerm::prop(var(0), "name"), GTerm::string("Alice")),
            GExpr::eq(GTerm::prop(var(0), "name"), GTerm::string("Bob")),
        ];
        assert!(check_formula(encode_product(&factors)).is_unsat());
    }

    #[test]
    fn negated_factor_conflicts_with_factor() {
        let node = GExpr::NodeFn(var(0));
        let factors = vec![node.clone(), GExpr::Not(Box::new(node))];
        assert!(check_formula(encode_product(&factors)).is_unsat());
    }

    #[test]
    fn arena_encoders_match_tree_encoders() {
        use gexpr::{GAggKind, VarId};
        let mut store = GStore::new();
        let samples: Vec<GExpr> = vec![
            GExpr::eq(GTerm::prop(var(0), "age"), GTerm::int(1)),
            GExpr::Atom(GAtom::Cmp(CmpOp::Lt, GTerm::prop(var(0), "age"), GTerm::int(10))),
            GExpr::Atom(GAtom::IsNull(GTerm::prop(var(1), "x"), true)),
            GExpr::Atom(GAtom::Pred(
                "startsWith".into(),
                vec![GTerm::prop(var(0), "name"), GTerm::string("A")],
            )),
            GExpr::NodeFn(var(0)),
            GExpr::RelFn(var(1)),
            GExpr::LabFn(var(0), "Person".into()),
            GExpr::Unbounded(var(2)),
            GExpr::not(GExpr::NodeFn(var(0))),
            GExpr::mul(vec![GExpr::NodeFn(var(0)), GExpr::LabFn(var(0), "A".into())]),
            GExpr::add(vec![GExpr::NodeFn(var(0)), GExpr::RelFn(var(0))]),
            GExpr::squash(GExpr::add(vec![GExpr::NodeFn(var(0)), GExpr::RelFn(var(0))])),
            GExpr::sum(vec![VarId(0)], GExpr::NodeFn(var(0))),
            GExpr::eq(GTerm::OutCol(0), GTerm::prop(var(0), "name")),
            GExpr::NodeFn(GTerm::Agg {
                kind: GAggKind::Sum,
                distinct: true,
                arg: Box::new(GTerm::prop(var(0), "age")),
                group: Box::new(GExpr::sum(vec![VarId(0)], GExpr::NodeFn(var(0)))),
            }),
            GExpr::eq(GTerm::Const(GConst::Float(1.5)), GTerm::Const(GConst::Boolean(true))),
        ];
        smt::with_term_builder(|b| {
            for expr in &samples {
                let id = store.intern_expr(expr);
                let built = build_factor(b, &mut store, id);
                assert_eq!(built, b.intern(&encode_factor(expr)), "encoder mismatch for {expr}");
            }
            let ids: Vec<NodeId> = samples.iter().map(|e| store.intern_expr(e)).collect();
            let factors = build_factors(b, &mut store, &ids);
            let product = b.and(&factors);
            assert_eq!(product, b.intern(&encode_product(&samples)));
        });
    }

    #[test]
    fn implication_between_ranges() {
        // [x > 5] implies [x > 3].
        let stronger = encode_factor(&GExpr::Atom(GAtom::Cmp(
            CmpOp::Gt,
            GTerm::prop(var(0), "x"),
            GTerm::int(5),
        )));
        let weaker = encode_factor(&GExpr::Atom(GAtom::Cmp(
            CmpOp::Gt,
            GTerm::prop(var(0), "x"),
            GTerm::int(3),
        )));
        assert!(smt::is_valid(Term::implies(stronger.clone(), weaker.clone())));
        assert!(!smt::is_valid(Term::implies(weaker, stronger)));
    }
}
