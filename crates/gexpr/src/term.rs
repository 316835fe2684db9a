//! Scalar terms and atomic predicates of G-expressions.
//!
//! Terms denote values: graph entities bound by an unbounded summation,
//! columns of the output tuple `t`, property accesses `e.key`, constants and
//! applications of (uninterpreted) functions such as `src(e)`, `tgt(e)`,
//! `id(e)` or built-ins the prover does not interpret.
//!
//! Atoms are the boolean building blocks that appear inside the semiring
//! bracket operator `[·]` (which maps `true` to 1 and `false` to 0).

use std::fmt;

/// An entity/value variable bound by an unbounded summation `Σ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A constant appearing in a G-expression term.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum GConst {
    /// An integer constant.
    Integer(i64),
    /// A floating point constant.
    Float(f64),
    /// A string constant.
    String(String),
    /// A boolean constant.
    Boolean(bool),
    /// The `NULL` constant.
    Null,
}

impl fmt::Display for GConst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GConst::Integer(v) => write!(f, "{v}"),
            GConst::Float(v) => write!(f, "{v}"),
            GConst::String(s) => write!(f, "'{s}'"),
            GConst::Boolean(b) => write!(f, "{b}"),
            GConst::Null => write!(f, "null"),
        }
    }
}

/// The aggregate kinds that can appear as aggregate terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GAggKind {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `AVG`
    Avg,
    /// `COLLECT`
    Collect,
}

impl GAggKind {
    /// The display name.
    pub fn name(&self) -> &'static str {
        match self {
            GAggKind::Count => "COUNT",
            GAggKind::Sum => "SUM",
            GAggKind::Min => "MIN",
            GAggKind::Max => "MAX",
            GAggKind::Avg => "AVG",
            GAggKind::Collect => "COLLECT",
        }
    }
}

/// A scalar term.
#[derive(Debug, Clone, PartialEq)]
pub enum GTerm {
    /// A summation-bound variable (graph entity or projected value).
    Var(VarId),
    /// Column `i` of the output tuple `t` (`t.col_i` in the paper).
    OutCol(usize),
    /// A property access `base.key`.
    Prop(Box<GTerm>, String),
    /// A constant.
    Const(GConst),
    /// An application of an (uninterpreted) function, e.g. `src(e)`, `tgt(e)`,
    /// `id(e)`, `size(x)`, a user-defined function, or the positional
    /// `order`/`limit`/`skip` markers used for sorting with truncation.
    App(String, Vec<GTerm>),
    /// An aggregate value: the aggregate of `arg` over the group described by
    /// the embedded G-expression (§IV-B "Aggregate"). The group expression and
    /// argument are compared structurally, which makes equal usage a
    /// sufficient condition for equality, exactly as in the paper.
    Agg {
        /// Which aggregate function.
        kind: GAggKind,
        /// Whether the aggregate deduplicates its input (`DISTINCT`).
        distinct: bool,
        /// The aggregated expression (a term over the group's variables).
        arg: Box<GTerm>,
        /// The group: a G-expression giving each group member's multiplicity.
        group: Box<super::expr::GExpr>,
    },
}

impl GTerm {
    /// An integer constant term.
    pub fn int(v: i64) -> GTerm {
        GTerm::Const(GConst::Integer(v))
    }

    /// A string constant term.
    pub fn string(s: impl Into<String>) -> GTerm {
        GTerm::Const(GConst::String(s.into()))
    }

    /// A property access term.
    pub fn prop(base: GTerm, key: impl Into<String>) -> GTerm {
        GTerm::Prop(Box::new(base), key.into())
    }

    /// A function application term.
    pub fn app(name: impl Into<String>, args: Vec<GTerm>) -> GTerm {
        GTerm::App(name.into(), args)
    }

    /// Collects every variable occurring in the term (including inside
    /// aggregate groups).
    pub fn variables(&self, out: &mut Vec<VarId>) {
        match self {
            GTerm::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            GTerm::OutCol(_) | GTerm::Const(_) => {}
            GTerm::Prop(base, _) => base.variables(out),
            GTerm::App(_, args) => {
                for arg in args {
                    arg.variables(out);
                }
            }
            GTerm::Agg { arg, group, .. } => {
                arg.variables(out);
                group.free_variables(out);
            }
        }
    }

    /// Returns `true` if the term mentions the given variable.
    pub fn mentions(&self, var: VarId) -> bool {
        let mut vars = Vec::new();
        self.variables(&mut vars);
        vars.contains(&var)
    }

    /// Renames every variable occurrence with the given function (one pass).
    pub fn rename_vars(&self, f: &impl Fn(VarId) -> VarId) -> GTerm {
        match self {
            GTerm::Var(v) => GTerm::Var(f(*v)),
            GTerm::OutCol(_) | GTerm::Const(_) => self.clone(),
            GTerm::Prop(base, key) => GTerm::Prop(Box::new(base.rename_vars(f)), key.clone()),
            GTerm::App(name, args) => {
                GTerm::App(name.clone(), args.iter().map(|a| a.rename_vars(f)).collect())
            }
            GTerm::Agg { kind, distinct, arg, group } => GTerm::Agg {
                kind: *kind,
                distinct: *distinct,
                arg: Box::new(arg.rename_vars(f)),
                group: Box::new(group.rename_all(f)),
            },
        }
    }

    /// Substitutes every occurrence of variable `var` by `replacement`.
    pub fn substitute(&self, var: VarId, replacement: &GTerm) -> GTerm {
        match self {
            GTerm::Var(v) if *v == var => replacement.clone(),
            GTerm::Var(_) | GTerm::OutCol(_) | GTerm::Const(_) => self.clone(),
            GTerm::Prop(base, key) => {
                GTerm::Prop(Box::new(base.substitute(var, replacement)), key.clone())
            }
            GTerm::App(name, args) => GTerm::App(
                name.clone(),
                args.iter().map(|a| a.substitute(var, replacement)).collect(),
            ),
            GTerm::Agg { kind, distinct, arg, group } => GTerm::Agg {
                kind: *kind,
                distinct: *distinct,
                arg: Box::new(arg.substitute(var, replacement)),
                group: Box::new(group.substitute(var, replacement)),
            },
        }
    }
}

impl fmt::Display for GTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GTerm::Var(v) => write!(f, "{v}"),
            GTerm::OutCol(i) => write!(f, "t.col{}", i + 1),
            GTerm::Prop(base, key) => write!(f, "{base}.{key}"),
            GTerm::Const(c) => write!(f, "{c}"),
            GTerm::App(name, args) => {
                write!(f, "{name}(")?;
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{arg}")?;
                }
                write!(f, ")")
            }
            GTerm::Agg { kind, distinct, arg, group } => {
                let d = if *distinct { "DISTINCT " } else { "" };
                write!(f, "{}({d}{arg} | {group})", kind.name())
            }
        }
    }
}

/// Comparison operators of atomic predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Neq,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// The comparison with both sides swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The classical negation of the comparison (`=` ↔ `≠`, `<` ↔ `≥`, ...).
    pub fn negated(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Neq,
            CmpOp::Neq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Display symbol.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "≠",
            CmpOp::Lt => "<",
            CmpOp::Le => "≤",
            CmpOp::Gt => ">",
            CmpOp::Ge => "≥",
        }
    }
}

/// An atomic predicate appearing inside the bracket operator `[·]`.
#[derive(Debug, Clone, PartialEq)]
pub enum GAtom {
    /// A comparison between two terms.
    Cmp(CmpOp, GTerm, GTerm),
    /// `IS NULL` (`negated == false`) or `IS NOT NULL` of a term.
    IsNull(GTerm, bool),
    /// An uninterpreted boolean predicate, e.g. `startsWith(x, 'A')`,
    /// `in(x, list)`, `unwind(row, list)`, `order(i, dir, key)`,
    /// `limit(n)`, `skip(n)`.
    Pred(String, Vec<GTerm>),
}

impl GAtom {
    /// An equality atom.
    pub fn eq(lhs: GTerm, rhs: GTerm) -> GAtom {
        GAtom::Cmp(CmpOp::Eq, lhs, rhs)
    }

    /// Collects every variable of the atom.
    pub fn variables(&self, out: &mut Vec<VarId>) {
        match self {
            GAtom::Cmp(_, lhs, rhs) => {
                lhs.variables(out);
                rhs.variables(out);
            }
            GAtom::IsNull(term, _) => term.variables(out),
            GAtom::Pred(_, args) => {
                for arg in args {
                    arg.variables(out);
                }
            }
        }
    }

    /// Renames every variable occurrence with the given function (one pass).
    pub fn rename_vars(&self, f: &impl Fn(VarId) -> VarId) -> GAtom {
        match self {
            GAtom::Cmp(op, lhs, rhs) => GAtom::Cmp(*op, lhs.rename_vars(f), rhs.rename_vars(f)),
            GAtom::IsNull(term, negated) => GAtom::IsNull(term.rename_vars(f), *negated),
            GAtom::Pred(name, args) => {
                GAtom::Pred(name.clone(), args.iter().map(|a| a.rename_vars(f)).collect())
            }
        }
    }

    /// Substitutes a variable by a term throughout the atom.
    pub fn substitute(&self, var: VarId, replacement: &GTerm) -> GAtom {
        match self {
            GAtom::Cmp(op, lhs, rhs) => {
                GAtom::Cmp(*op, lhs.substitute(var, replacement), rhs.substitute(var, replacement))
            }
            GAtom::IsNull(term, negated) => {
                GAtom::IsNull(term.substitute(var, replacement), *negated)
            }
            GAtom::Pred(name, args) => GAtom::Pred(
                name.clone(),
                args.iter().map(|a| a.substitute(var, replacement)).collect(),
            ),
        }
    }

    /// Canonicalizes the atom: comparisons are oriented so the
    /// lexicographically smaller term is on the left (flipping the operator
    /// accordingly), which makes `[a = b]` and `[b = a]` identical.
    pub fn canonical(&self) -> GAtom {
        match self {
            GAtom::Cmp(op, lhs, rhs) => {
                let key_l = format!("{lhs}");
                let key_r = format!("{rhs}");
                if key_r < key_l {
                    GAtom::Cmp(op.flipped(), rhs.clone(), lhs.clone())
                } else {
                    self.clone()
                }
            }
            _ => self.clone(),
        }
    }
}

impl fmt::Display for GAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GAtom::Cmp(op, lhs, rhs) => write!(f, "[{lhs} {} {rhs}]", op.symbol()),
            GAtom::IsNull(term, false) => write!(f, "[isNull({term})]"),
            GAtom::IsNull(term, true) => write!(f, "[isNotNull({term})]"),
            GAtom::Pred(name, args) => {
                write!(f, "[{name}(")?;
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{arg}")?;
                }
                write!(f, ")]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_variables_and_substitution() {
        let term = GTerm::prop(GTerm::Var(VarId(1)), "age");
        let mut vars = Vec::new();
        term.variables(&mut vars);
        assert_eq!(vars, vec![VarId(1)]);
        let substituted = term.substitute(VarId(1), &GTerm::Var(VarId(7)));
        assert_eq!(substituted, GTerm::prop(GTerm::Var(VarId(7)), "age"));
        assert!(substituted.mentions(VarId(7)));
        assert!(!substituted.mentions(VarId(1)));
    }

    #[test]
    fn atom_canonicalization_orients_comparisons() {
        let a = GTerm::Var(VarId(0));
        let b = GTerm::prop(GTerm::Var(VarId(1)), "x");
        let atom1 = GAtom::Cmp(CmpOp::Lt, b.clone(), a.clone()).canonical();
        let atom2 = GAtom::Cmp(CmpOp::Gt, a.clone(), b.clone()).canonical();
        assert_eq!(atom1, atom2);
        let eq1 = GAtom::eq(b.clone(), a.clone()).canonical();
        let eq2 = GAtom::eq(a, b).canonical();
        assert_eq!(eq1, eq2);
    }

    #[test]
    fn cmp_flip_is_involutive() {
        for op in [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn display_is_reasonable() {
        let atom = GAtom::eq(GTerm::prop(GTerm::Var(VarId(0)), "age"), GTerm::int(59));
        assert_eq!(atom.to_string(), "[e0.age = 59]");
        assert_eq!(GTerm::OutCol(0).to_string(), "t.col1");
    }
}
