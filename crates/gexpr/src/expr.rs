//! The U-semiring G-expression algebra (§IV of the paper).
//!
//! A G-expression `g(t)` denotes, for every tuple `t` and every property
//! graph, a natural number — the multiplicity of `t` in the query result.
//! The algebra is the unbounded semiring of Definition 3 extended with the
//! graph-native functions `Node(e)`, `Rel(e)`, `Lab(e, label)`,
//! `UNBOUNDED(e)` and the endpoint functions `src(e)` / `tgt(e)` (the paper's
//! `out` / `in`).

use std::fmt;

use crate::term::{GAtom, GTerm, VarId};

/// A U-semiring G-expression.
#[derive(Debug, Clone, PartialEq)]
pub enum GExpr {
    /// The additive identity 0.
    Zero,
    /// The multiplicative identity 1.
    One,
    /// A natural-number constant (used for literal multiplicities).
    Const(u64),
    /// The bracket operator `[φ]` applied to an atomic predicate.
    Atom(GAtom),
    /// `Node(e)`: 1 if the entity is a node.
    NodeFn(GTerm),
    /// `Rel(e)`: 1 if the entity is a relationship.
    RelFn(GTerm),
    /// `Lab(e, label)`: 1 if the entity carries the label.
    LabFn(GTerm, String),
    /// `UNBOUNDED(e)`: uninterpreted marker for arbitrary-length paths.
    Unbounded(GTerm),
    /// A product of sub-expressions (`×`, n-ary, commutative).
    Mul(Vec<GExpr>),
    /// A sum of sub-expressions (`+`, n-ary, commutative).
    Add(Vec<GExpr>),
    /// The squash operator `‖·‖` mapping 0 to 0 and any positive value to 1.
    Squash(Box<GExpr>),
    /// The `not(·)` operator mapping 0 to 1 and any positive value to 0.
    Not(Box<GExpr>),
    /// An unbounded summation `Σ_{vars} body` over all graph entities /
    /// values for each variable.
    Sum {
        /// The bound variables.
        vars: Vec<VarId>,
        /// The summed body.
        body: Box<GExpr>,
    },
}

impl GExpr {
    /// Builds a product, flattening nested products and dropping units.
    pub fn mul(factors: Vec<GExpr>) -> GExpr {
        let mut flat = Vec::new();
        for factor in factors {
            match factor {
                GExpr::One => {}
                GExpr::Zero => return GExpr::Zero,
                GExpr::Mul(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => GExpr::One,
            1 => flat.into_iter().next().expect("one factor"),
            _ => GExpr::Mul(flat),
        }
    }

    /// Builds a sum, flattening nested sums and dropping zeros.
    pub fn add(terms: Vec<GExpr>) -> GExpr {
        let mut flat = Vec::new();
        for term in terms {
            match term {
                GExpr::Zero => {}
                GExpr::Add(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => GExpr::Zero,
            1 => flat.into_iter().next().expect("one term"),
            _ => GExpr::Add(flat),
        }
    }

    /// Builds a squash, collapsing trivial cases.
    pub fn squash(inner: GExpr) -> GExpr {
        match inner {
            GExpr::Zero => GExpr::Zero,
            GExpr::One => GExpr::One,
            GExpr::Squash(e) => GExpr::Squash(e),
            other => GExpr::Squash(Box::new(other)),
        }
    }

    /// Builds a negation, collapsing trivial cases.
    #[allow(clippy::should_implement_trait)]
    pub fn not(inner: GExpr) -> GExpr {
        match inner {
            GExpr::Zero => GExpr::One,
            GExpr::One => GExpr::Zero,
            other => GExpr::Not(Box::new(other)),
        }
    }

    /// Builds a summation; an empty variable list is the body itself.
    pub fn sum(vars: Vec<VarId>, body: GExpr) -> GExpr {
        if vars.is_empty() {
            return body;
        }
        match body {
            GExpr::Zero => GExpr::Zero,
            GExpr::Sum { vars: inner_vars, body } => {
                let mut all = vars;
                all.extend(inner_vars);
                GExpr::Sum { vars: all, body }
            }
            other => GExpr::Sum { vars, body: Box::new(other) },
        }
    }

    /// An equality bracket `[lhs = rhs]`.
    pub fn eq(lhs: GTerm, rhs: GTerm) -> GExpr {
        GExpr::Atom(GAtom::eq(lhs, rhs))
    }

    /// Collects the free variables of the expression into `out`
    /// (variables bound by an inner `Σ` are not free).
    pub fn free_variables(&self, out: &mut Vec<VarId>) {
        match self {
            GExpr::Zero | GExpr::One | GExpr::Const(_) => {}
            GExpr::Atom(atom) => atom.variables(out),
            GExpr::NodeFn(t) | GExpr::RelFn(t) | GExpr::Unbounded(t) | GExpr::LabFn(t, _) => {
                t.variables(out)
            }
            GExpr::Mul(items) | GExpr::Add(items) => {
                for item in items {
                    item.free_variables(out);
                }
            }
            GExpr::Squash(inner) | GExpr::Not(inner) => inner.free_variables(out),
            GExpr::Sum { vars, body } => {
                let mut inner = Vec::new();
                body.free_variables(&mut inner);
                for v in inner {
                    if !vars.contains(&v) && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
    }

    /// Substitutes a (free) variable by a term throughout the expression.
    pub fn substitute(&self, var: VarId, replacement: &GTerm) -> GExpr {
        match self {
            GExpr::Zero | GExpr::One | GExpr::Const(_) => self.clone(),
            GExpr::Atom(atom) => GExpr::Atom(atom.substitute(var, replacement)),
            GExpr::NodeFn(t) => GExpr::NodeFn(t.substitute(var, replacement)),
            GExpr::RelFn(t) => GExpr::RelFn(t.substitute(var, replacement)),
            GExpr::LabFn(t, label) => GExpr::LabFn(t.substitute(var, replacement), label.clone()),
            GExpr::Unbounded(t) => GExpr::Unbounded(t.substitute(var, replacement)),
            GExpr::Mul(items) => {
                GExpr::Mul(items.iter().map(|i| i.substitute(var, replacement)).collect())
            }
            GExpr::Add(items) => {
                GExpr::Add(items.iter().map(|i| i.substitute(var, replacement)).collect())
            }
            GExpr::Squash(inner) => GExpr::Squash(Box::new(inner.substitute(var, replacement))),
            GExpr::Not(inner) => GExpr::Not(Box::new(inner.substitute(var, replacement))),
            GExpr::Sum { vars, body } => {
                if vars.contains(&var) {
                    // The variable is shadowed; nothing to substitute.
                    self.clone()
                } else {
                    GExpr::Sum {
                        vars: vars.clone(),
                        body: Box::new(body.substitute(var, replacement)),
                    }
                }
            }
        }
    }

    /// Renames every variable occurrence — bound and free — with the given
    /// function, in one pass, so swapping two variables works as expected.
    pub fn rename_all(&self, f: &impl Fn(VarId) -> VarId) -> GExpr {
        match self {
            GExpr::Zero | GExpr::One | GExpr::Const(_) => self.clone(),
            GExpr::Atom(atom) => GExpr::Atom(atom.rename_vars(f)),
            GExpr::NodeFn(t) => GExpr::NodeFn(t.rename_vars(f)),
            GExpr::RelFn(t) => GExpr::RelFn(t.rename_vars(f)),
            GExpr::LabFn(t, label) => GExpr::LabFn(t.rename_vars(f), label.clone()),
            GExpr::Unbounded(t) => GExpr::Unbounded(t.rename_vars(f)),
            GExpr::Mul(items) => GExpr::Mul(items.iter().map(|i| i.rename_all(f)).collect()),
            GExpr::Add(items) => GExpr::Add(items.iter().map(|i| i.rename_all(f)).collect()),
            GExpr::Squash(inner) => GExpr::Squash(Box::new(inner.rename_all(f))),
            GExpr::Not(inner) => GExpr::Not(Box::new(inner.rename_all(f))),
            GExpr::Sum { vars, body } => GExpr::Sum {
                vars: vars.iter().map(|v| f(*v)).collect(),
                body: Box::new(body.rename_all(f)),
            },
        }
    }

    /// The largest variable id used anywhere in the expression (free or
    /// bound), or `None` if no variable occurs.
    pub fn max_var(&self) -> Option<VarId> {
        let mut max: Option<VarId> = None;
        self.visit(&mut |e| {
            let mut vars = Vec::new();
            match e {
                GExpr::Atom(a) => a.variables(&mut vars),
                GExpr::NodeFn(t) | GExpr::RelFn(t) | GExpr::Unbounded(t) | GExpr::LabFn(t, _) => {
                    t.variables(&mut vars)
                }
                GExpr::Sum { vars: bound, .. } => vars.extend(bound.iter().copied()),
                _ => {}
            }
            for v in vars {
                max = Some(match max {
                    None => v,
                    Some(m) if v > m => v,
                    Some(m) => m,
                });
            }
        });
        max
    }

    /// Visits every sub-expression (pre-order), including aggregate groups.
    pub fn visit(&self, f: &mut impl FnMut(&GExpr)) {
        f(self);
        match self {
            GExpr::Mul(items) | GExpr::Add(items) => {
                for item in items {
                    item.visit(f);
                }
            }
            GExpr::Squash(inner) | GExpr::Not(inner) => inner.visit(f),
            GExpr::Sum { body, .. } => body.visit(f),
            _ => {}
        }
    }

    /// Returns `true` if the expression is syntactically `Zero`.
    pub fn is_zero(&self) -> bool {
        matches!(self, GExpr::Zero)
    }
}

impl fmt::Display for GExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GExpr::Zero => write!(f, "0"),
            GExpr::One => write!(f, "1"),
            GExpr::Const(v) => write!(f, "{v}"),
            GExpr::Atom(atom) => write!(f, "{atom}"),
            GExpr::NodeFn(t) => write!(f, "Node({t})"),
            GExpr::RelFn(t) => write!(f, "Rel({t})"),
            GExpr::LabFn(t, label) => write!(f, "Lab({t}, {label})"),
            GExpr::Unbounded(t) => write!(f, "UNBOUNDED({t})"),
            GExpr::Mul(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " × ")?;
                    }
                    match item {
                        GExpr::Add(_) => write!(f, "({item})")?,
                        _ => write!(f, "{item}")?,
                    }
                }
                Ok(())
            }
            GExpr::Add(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{item}")?;
                }
                Ok(())
            }
            GExpr::Squash(inner) => write!(f, "‖{inner}‖"),
            GExpr::Not(inner) => write!(f, "not({inner})"),
            GExpr::Sum { vars, body } => {
                write!(f, "Σ_{{")?;
                for (i, v) in vars.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}({body})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{CmpOp, GConst};
    use std::collections::BTreeMap;

    fn var(i: u32) -> GTerm {
        GTerm::Var(VarId(i))
    }

    #[test]
    fn smart_constructors_simplify() {
        assert_eq!(GExpr::mul(vec![GExpr::One, GExpr::NodeFn(var(0))]), GExpr::NodeFn(var(0)));
        assert_eq!(GExpr::mul(vec![GExpr::Zero, GExpr::NodeFn(var(0))]), GExpr::Zero);
        assert_eq!(GExpr::add(vec![GExpr::Zero]), GExpr::Zero);
        assert_eq!(GExpr::add(vec![GExpr::Zero, GExpr::One]), GExpr::One);
        assert_eq!(GExpr::squash(GExpr::Zero), GExpr::Zero);
        assert_eq!(GExpr::squash(GExpr::One), GExpr::One);
        assert_eq!(GExpr::not(GExpr::Zero), GExpr::One);
        assert_eq!(GExpr::not(GExpr::One), GExpr::Zero);
        // Nested products and sums are flattened.
        let nested = GExpr::mul(vec![
            GExpr::mul(vec![GExpr::NodeFn(var(0)), GExpr::RelFn(var(1))]),
            GExpr::NodeFn(var(2)),
        ]);
        match nested {
            GExpr::Mul(items) => assert_eq!(items.len(), 3),
            other => panic!("expected product, got {other}"),
        }
    }

    #[test]
    fn sum_constructor_merges_nested_sums() {
        let inner = GExpr::sum(vec![VarId(1)], GExpr::NodeFn(var(1)));
        let outer = GExpr::sum(vec![VarId(0)], inner);
        match outer {
            GExpr::Sum { vars, .. } => assert_eq!(vars, vec![VarId(0), VarId(1)]),
            other => panic!("expected sum, got {other}"),
        }
        assert_eq!(GExpr::sum(vec![], GExpr::One), GExpr::One);
        assert_eq!(GExpr::sum(vec![VarId(0)], GExpr::Zero), GExpr::Zero);
    }

    #[test]
    fn free_variables_respect_binding() {
        let body =
            GExpr::mul(vec![GExpr::NodeFn(var(0)), GExpr::eq(var(0), GTerm::prop(var(1), "x"))]);
        let expr = GExpr::sum(vec![VarId(0)], body);
        let mut free = Vec::new();
        expr.free_variables(&mut free);
        assert_eq!(free, vec![VarId(1)]);
    }

    #[test]
    fn substitution_respects_shadowing() {
        let expr = GExpr::sum(vec![VarId(0)], GExpr::NodeFn(var(0)));
        let substituted = expr.substitute(VarId(0), &GTerm::int(3));
        assert_eq!(substituted, expr);
        let open = GExpr::NodeFn(var(0));
        assert_eq!(open.substitute(VarId(0), &GTerm::int(3)), GExpr::NodeFn(GTerm::int(3)));
    }

    #[test]
    fn rename_variables_handles_swaps() {
        // Swap e0 and e1 — a naive sequential substitution would conflate them.
        let expr = GExpr::mul(vec![
            GExpr::NodeFn(var(0)),
            GExpr::RelFn(var(1)),
            GExpr::eq(var(0), GTerm::prop(var(1), "k")),
        ]);
        let mut mapping = BTreeMap::new();
        mapping.insert(VarId(0), VarId(1));
        mapping.insert(VarId(1), VarId(0));
        let renamed = expr.rename_all(&|v| mapping.get(&v).copied().unwrap_or(v));
        let expected = GExpr::mul(vec![
            GExpr::NodeFn(var(1)),
            GExpr::RelFn(var(0)),
            GExpr::eq(var(1), GTerm::prop(var(0), "k")),
        ]);
        assert_eq!(renamed, expected);
    }

    #[test]
    fn rename_variables_renames_bound_occurrences() {
        let expr = GExpr::sum(vec![VarId(0)], GExpr::NodeFn(var(0)));
        let mut mapping = BTreeMap::new();
        mapping.insert(VarId(0), VarId(5));
        let renamed = expr.rename_all(&|v| mapping.get(&v).copied().unwrap_or(v));
        assert_eq!(renamed, GExpr::sum(vec![VarId(5)], GExpr::NodeFn(var(5))));
    }

    #[test]
    fn display_is_readable() {
        let g = GExpr::sum(
            vec![VarId(0)],
            GExpr::mul(vec![
                GExpr::NodeFn(var(0)),
                GExpr::LabFn(var(0), "Person".into()),
                GExpr::Atom(GAtom::Cmp(
                    CmpOp::Eq,
                    GTerm::prop(var(0), "age"),
                    GTerm::Const(GConst::Integer(59)),
                )),
            ]),
        );
        let text = g.to_string();
        assert!(text.contains("Σ_{e0}"));
        assert!(text.contains("Node(e0)"));
        assert!(text.contains("Lab(e0, Person)"));
        assert!(text.contains("[e0.age = 59]"));
    }

    #[test]
    fn max_var_covers_bound_and_free() {
        let expr = GExpr::sum(vec![VarId(4)], GExpr::eq(var(4), GTerm::prop(var(9), "x")));
        assert_eq!(expr.max_var(), Some(VarId(9)));
        assert_eq!(GExpr::One.max_var(), None);
    }
}
