//! # graphqe-analyzer
//!
//! Stage ⓪ of the GraphQE pipeline: a flow-sensitive static analyzer for the
//! supported Cypher fragment, run after parsing and semantic checking but
//! before normalization and proving.
//!
//! The analyzer walks the clause sequence of each query, tracking a typed
//! scope per clause (`MATCH` binds entities, `OPTIONAL MATCH` binds nullable
//! entities, `UNWIND` binds list elements, `WITH`/`RETURN` re-scope), and
//! produces
//!
//! * a [`TypeSig`] per output column — name, inferred [`Type`] lattice
//!   element, and nullability — combined into an [`Analysis`];
//! * coded, spanned [`Diagnostic`]s (shared with `cypher-parser`) for
//!   *definitely* ill-typed constructs (`UNWIND` over a non-list, `WHERE` on
//!   a non-boolean, arithmetic over entities, non-integer `LIMIT`/`SKIP`);
//! * [`signatures_discriminate`], the predicate behind the prover's
//!   signature-discrimination fast path.
//!
//! Inference is deliberately conservative: a claim is only made when it
//! holds for **every** evaluation of the query under the reference
//! evaluator's semantics (e.g. integer arithmetic is typed `Integer` but
//! *nullable*, because the evaluator degrades overflow and division by zero
//! to `NULL`). Anything uncertain is `Any`/nullable, which can never
//! discriminate — the analyzer may make verdicts faster or reject genuinely
//! ill-typed inputs, never flip one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use cypher_parser::ast::{
    Aggregate, BinaryOp, Clause, Expr, Literal, Projection, Query, SingleQuery, UnaryOp,
};
use cypher_parser::{Diagnostic, Span};

/// The type lattice of the analyzer. `Any` is the top element: it carries no
/// information and is compatible with every other type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Type {
    /// Unknown / mixed (top of the lattice).
    Any,
    /// A graph node.
    Node,
    /// A graph relationship.
    Relationship,
    /// A path (alternating node/relationship trace).
    Path,
    /// A 64-bit integer.
    Integer,
    /// A 64-bit float.
    Float,
    /// A string.
    String,
    /// A boolean.
    Boolean,
    /// A list.
    List,
    /// A map.
    Map,
}

impl Type {
    /// Least upper bound: equal types join to themselves, everything else
    /// joins to `Any`.
    pub fn join(self, other: Type) -> Type {
        if self == other {
            self
        } else {
            Type::Any
        }
    }

    /// Whether a value of type `self` can ever compare equal to a value of
    /// type `other`. `Any` is compatible with everything; `Integer` and
    /// `Float` are mutually compatible (the evaluator's value equality
    /// compares numbers across the two representations); otherwise only
    /// equal types are compatible.
    pub fn compatible(self, other: Type) -> bool {
        self == Type::Any
            || other == Type::Any
            || self == other
            || matches!((self, other), (Type::Integer, Type::Float) | (Type::Float, Type::Integer))
    }

    /// `true` for graph entities (nodes, relationships, paths).
    pub fn is_entity(self) -> bool {
        matches!(self, Type::Node | Type::Relationship | Type::Path)
    }

    /// `true` for `Integer` and `Float`.
    pub fn is_numeric(self) -> bool {
        matches!(self, Type::Integer | Type::Float)
    }
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Type::Any => "Any",
            Type::Node => "Node",
            Type::Relationship => "Relationship",
            Type::Path => "Path",
            Type::Integer => "Integer",
            Type::Float => "Float",
            Type::String => "String",
            Type::Boolean => "Boolean",
            Type::List => "List",
            Type::Map => "Map",
        };
        f.write_str(name)
    }
}

/// The inferred signature of one output column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeSig {
    /// The column name (alias or textual form of the projected expression).
    pub name: String,
    /// The inferred type lattice element.
    pub ty: Type,
    /// Whether the column can evaluate to `NULL` on some graph.
    pub nullable: bool,
}

/// The result of analyzing one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Per-column output signature, in column order. `None` when the
    /// signature is not statically determined (`RETURN *`, or `UNION` parts
    /// with differing arity — the latter is reported by the G-expression
    /// builder, not here).
    pub signature: Option<Vec<TypeSig>>,
}

/// A typed binding: the inferred type plus nullability of one variable.
type Binding = (Type, bool);

/// The typed scope visible at one point of the clause sequence.
#[derive(Debug, Clone, Default)]
struct Scope {
    bindings: BTreeMap<String, Binding>,
}

impl Scope {
    fn get(&self, name: &str) -> Binding {
        self.bindings.get(name).copied().unwrap_or((Type::Any, true))
    }

    fn set(&mut self, name: &str, binding: Binding) {
        self.bindings.insert(name.to_string(), binding);
    }
}

/// Analyzes a query: infers the output signature and reports definite type
/// errors. Diagnostics carry clause-level spans.
pub fn analyze(query: &Query) -> Result<Analysis, Diagnostic> {
    let Some((first, rest)) = query.parts.split_first() else {
        return Ok(Analysis { signature: None });
    };
    let mut signature = analyze_single(first, &Scope::default())?;
    for part in rest {
        let part_sig = analyze_single(part, &Scope::default())?;
        signature = match (signature, part_sig) {
            (Some(acc), Some(sig)) if acc.len() == sig.len() => Some(
                acc.iter()
                    .zip(sig.iter())
                    .map(|(a, b)| TypeSig {
                        name: a.name.clone(),
                        ty: a.ty.join(b.ty),
                        nullable: a.nullable || b.nullable,
                    })
                    .collect(),
            ),
            // `RETURN *` in any part, or a UNION arity mismatch (the builder
            // reports the latter as its own error): no static signature.
            _ => None,
        };
    }
    Ok(Analysis { signature })
}

fn analyze_single(query: &SingleQuery, outer: &Scope) -> Result<Option<Vec<TypeSig>>, Diagnostic> {
    let mut scope = outer.clone();
    let mut signature = None;
    for clause in &query.clauses {
        match clause {
            Clause::Match(m) => {
                // A non-optional MATCH re-binding a variable filters out the
                // NULL case; an OPTIONAL MATCH over an already non-null
                // binding joins on it and keeps it non-null.
                let bind = |scope: &mut Scope, var: &str, ty: Type| {
                    let nullable = m.optional && scope.bindings.get(var).is_none_or(|(_, n)| *n);
                    scope.set(var, (ty, nullable));
                };
                for pattern in &m.patterns {
                    if let Some(path_var) = &pattern.variable {
                        bind(&mut scope, path_var, Type::Path);
                    }
                    for node in pattern.nodes() {
                        if let Some(var) = &node.variable {
                            bind(&mut scope, var, Type::Node);
                        }
                    }
                    for rel in pattern.relationships() {
                        if let Some(var) = &rel.variable {
                            bind(&mut scope, var, Type::Relationship);
                        }
                    }
                }
                if let Some(predicate) = &m.where_clause {
                    check_predicate(predicate, &scope, m.span)?;
                }
            }
            Clause::Unwind(u) => {
                let element = unwind_element_type(&u.expr, &scope, u.span)?;
                scope.set(&u.alias, element);
            }
            Clause::With(w) => {
                check_projection_bounds(&w.projection, &scope)?;
                scope = projected_scope(&w.projection, &scope, w.span)?;
                if let Some(predicate) = &w.where_clause {
                    check_predicate(predicate, &scope, w.span)?;
                }
            }
            Clause::Return(p) => {
                check_projection_bounds(p, &scope)?;
                signature = match p.explicit_items() {
                    None => None, // RETURN *: no static signature.
                    Some(items) => {
                        let mut sig = Vec::new();
                        for item in items {
                            let (ty, nullable) = type_of(&item.expr, &scope, p.span)?;
                            sig.push(TypeSig { name: item.output_name(), ty, nullable });
                        }
                        Some(sig)
                    }
                };
            }
        }
    }
    Ok(signature)
}

/// The element type bound by `UNWIND <expr> AS x`. Rejects expressions that
/// are definitely not lists.
fn unwind_element_type(expr: &Expr, scope: &Scope, span: Span) -> Result<Binding, Diagnostic> {
    if let Expr::List(items) = expr {
        let mut ty = None;
        let mut nullable = false;
        for item in items {
            // A NULL element contributes nullability but does not destroy
            // the element type claim of the remaining elements.
            if matches!(item, Expr::Literal(Literal::Null)) {
                nullable = true;
                continue;
            }
            let (item_ty, item_nullable) = type_of(item, scope, span)?;
            nullable |= item_nullable;
            ty = Some(match ty {
                None => item_ty,
                Some(acc) => Type::join(acc, item_ty),
            });
        }
        return Ok((ty.unwrap_or(Type::Any), nullable));
    }
    let (ty, _) = type_of(expr, scope, span)?;
    match ty {
        Type::List | Type::Any => Ok((Type::Any, true)),
        other => Err(Diagnostic::new(
            "type_mismatch",
            span,
            format!("UNWIND requires a list, but the expression has type {other}"),
        )),
    }
}

/// Checks `ORDER BY` keys for type errors and `SKIP`/`LIMIT` for
/// integer-ness.
fn check_projection_bounds(projection: &Projection, scope: &Scope) -> Result<(), Diagnostic> {
    for order in &projection.order_by {
        type_of(&order.expr, scope, projection.span)?;
    }
    for (what, expr) in [("SKIP", projection.skip.as_ref()), ("LIMIT", projection.limit.as_ref())] {
        if let Some(expr) = expr {
            let (ty, _) = type_of(expr, scope, projection.span)?;
            if !matches!(ty, Type::Integer | Type::Any) {
                return Err(Diagnostic::new(
                    "type_mismatch",
                    projection.span,
                    format!("{what} requires an integer, but the expression has type {ty}"),
                ));
            }
        }
    }
    Ok(())
}

/// The scope visible after a `WITH` projection.
fn projected_scope(
    projection: &Projection,
    current: &Scope,
    span: Span,
) -> Result<Scope, Diagnostic> {
    match projection.explicit_items() {
        None => Ok(current.clone()), // WITH *
        Some(items) => {
            let mut scope = Scope::default();
            for item in items {
                let binding = type_of(&item.expr, current, span)?;
                let name = item.output_name();
                scope.set(&name, binding);
            }
            Ok(scope)
        }
    }
}

/// Checks a `WHERE` predicate: definitely non-boolean expressions are
/// rejected (three-valued `NULL` predicates are fine — they drop the row).
fn check_predicate(expr: &Expr, scope: &Scope, span: Span) -> Result<(), Diagnostic> {
    let (ty, _) = type_of(expr, scope, span)?;
    if !matches!(ty, Type::Boolean | Type::Any) {
        return Err(Diagnostic::new(
            "type_mismatch",
            span,
            format!("WHERE requires a boolean predicate, but the expression has type {ty}"),
        ));
    }
    Ok(())
}

/// Flow-insensitive expression typing under a typed scope. Returns the
/// inferred type and nullability; reports *definite* type errors.
fn type_of(expr: &Expr, scope: &Scope, span: Span) -> Result<Binding, Diagnostic> {
    Ok(match expr {
        Expr::Literal(Literal::Integer(_)) => (Type::Integer, false),
        Expr::Literal(Literal::Float(_)) => (Type::Float, false),
        Expr::Literal(Literal::String(_)) => (Type::String, false),
        Expr::Literal(Literal::Boolean(_)) => (Type::Boolean, false),
        Expr::Literal(Literal::Null) => (Type::Any, true),
        Expr::Variable(name) => scope.get(name),
        Expr::Parameter(_) => (Type::Any, true),
        // Property values are untyped (schema-less graphs) and absent
        // properties are NULL.
        Expr::Property(base, _) => {
            type_of(base, scope, span)?;
            (Type::Any, true)
        }
        Expr::Unary(op, inner) => {
            let (ty, nullable) = type_of(inner, scope, span)?;
            match op {
                UnaryOp::Pos => (ty, nullable),
                UnaryOp::Neg => {
                    reject_non_numeric("unary minus", ty, span)?;
                    match ty {
                        // Negation of i64::MIN overflows to NULL.
                        Type::Integer => (Type::Integer, true),
                        Type::Float => (Type::Float, nullable),
                        _ => (Type::Any, true),
                    }
                }
                UnaryOp::Not => {
                    if !matches!(ty, Type::Boolean | Type::Any) {
                        return Err(Diagnostic::new(
                            "type_mismatch",
                            span,
                            format!("NOT requires a boolean operand, found {ty}"),
                        ));
                    }
                    (Type::Boolean, if ty == Type::Boolean { nullable } else { true })
                }
            }
        }
        Expr::Binary(op, lhs, rhs) => {
            let left = type_of(lhs, scope, span)?;
            let right = type_of(rhs, scope, span)?;
            binary_type(*op, left, right, span)?
        }
        Expr::IsNull { expr, .. } => {
            type_of(expr, scope, span)?;
            (Type::Boolean, false)
        }
        Expr::List(items) => {
            for item in items {
                type_of(item, scope, span)?;
            }
            (Type::List, false)
        }
        Expr::Map(entries) => {
            for (_, value) in entries {
                type_of(value, scope, span)?;
            }
            (Type::Map, false)
        }
        Expr::FunctionCall { name, args } => {
            let mut arg_types = Vec::new();
            for arg in args {
                arg_types.push(type_of(arg, scope, span)?);
            }
            function_type(name, &arg_types)
        }
        Expr::AggregateCall { func, arg, .. } => {
            let arg_type = type_of(arg, scope, span)?;
            aggregate_type(*func, arg_type)
        }
        Expr::CountStar { .. } => (Type::Integer, false),
        Expr::Exists(query) => {
            for part in &query.parts {
                analyze_single(part, scope)?;
            }
            (Type::Boolean, false)
        }
        Expr::Case { branches, otherwise } => {
            let mut ty = None;
            let mut nullable = otherwise.is_none();
            for (cond, value) in branches {
                check_predicate(cond, scope, span)?;
                let (value_ty, value_nullable) = type_of(value, scope, span)?;
                nullable |= value_nullable;
                ty = Some(match ty {
                    None => value_ty,
                    Some(acc) => Type::join(acc, value_ty),
                });
            }
            if let Some(e) = otherwise {
                let (value_ty, value_nullable) = type_of(e, scope, span)?;
                nullable |= value_nullable;
                ty = Some(match ty {
                    None => value_ty,
                    Some(acc) => Type::join(acc, value_ty),
                });
            }
            (ty.unwrap_or(Type::Any), nullable)
        }
    })
}

fn reject_non_numeric(what: &str, ty: Type, span: Span) -> Result<(), Diagnostic> {
    if ty.is_entity() || matches!(ty, Type::Boolean | Type::Map) {
        return Err(Diagnostic::new(
            "type_mismatch",
            span,
            format!("{what} is not defined for values of type {ty}"),
        ));
    }
    Ok(())
}

fn binary_type(
    op: BinaryOp,
    (lt, ln): Binding,
    (rt, rn): Binding,
    span: Span,
) -> Result<Binding, Diagnostic> {
    let nullable = ln || rn;
    Ok(match op {
        BinaryOp::Add => {
            reject_non_numeric_operand("+", lt, rt, span, /*strings_and_lists_ok=*/ true)?;
            match (lt, rt) {
                // Integer addition can overflow to NULL.
                (Type::Integer, Type::Integer) => (Type::Integer, true),
                (Type::String, Type::String) => (Type::String, nullable),
                (Type::List, Type::List) => (Type::List, nullable),
                (a, b) if a.is_numeric() && b.is_numeric() => (Type::Float, nullable),
                _ => (Type::Any, true),
            }
        }
        BinaryOp::Sub | BinaryOp::Mul => {
            reject_non_numeric_operand(op_name(op), lt, rt, span, false)?;
            match (lt, rt) {
                (Type::Integer, Type::Integer) => (Type::Integer, true),
                (a, b) if a.is_numeric() && b.is_numeric() => (Type::Float, nullable),
                _ => (Type::Any, true),
            }
        }
        BinaryOp::Div | BinaryOp::Mod => {
            reject_non_numeric_operand(op_name(op), lt, rt, span, false)?;
            match (lt, rt) {
                // Integer division/modulo by zero degrade to NULL.
                (Type::Integer, Type::Integer) => (Type::Integer, true),
                (a, b) if a.is_numeric() && b.is_numeric() => (Type::Float, nullable),
                _ => (Type::Any, true),
            }
        }
        BinaryOp::Pow => {
            reject_non_numeric_operand("^", lt, rt, span, false)?;
            if lt.is_numeric() && rt.is_numeric() {
                (Type::Float, nullable)
            } else {
                (Type::Float, true)
            }
        }
        BinaryOp::And | BinaryOp::Or | BinaryOp::Xor => {
            for ty in [lt, rt] {
                if !matches!(ty, Type::Boolean | Type::Any) {
                    return Err(Diagnostic::new(
                        "type_mismatch",
                        span,
                        format!("{} requires boolean operands, found {ty}", op_name(op)),
                    ));
                }
            }
            // Three-valued logic: NULL operands can produce NULL.
            (Type::Boolean, nullable)
        }
        // Comparisons are total across types in the evaluator (values have a
        // total order), so they never raise a static error; NULL operands
        // yield NULL.
        BinaryOp::Eq
        | BinaryOp::Neq
        | BinaryOp::Lt
        | BinaryOp::Le
        | BinaryOp::Gt
        | BinaryOp::Ge => (Type::Boolean, nullable),
        BinaryOp::In | BinaryOp::StartsWith | BinaryOp::EndsWith | BinaryOp::Contains => {
            (Type::Boolean, true)
        }
    })
}

fn op_name(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Add => "+",
        BinaryOp::Sub => "-",
        BinaryOp::Mul => "*",
        BinaryOp::Div => "/",
        BinaryOp::Mod => "%",
        BinaryOp::Pow => "^",
        BinaryOp::And => "AND",
        BinaryOp::Or => "OR",
        BinaryOp::Xor => "XOR",
        _ => "comparison",
    }
}

fn reject_non_numeric_operand(
    what: &str,
    lt: Type,
    rt: Type,
    span: Span,
    strings_and_lists_ok: bool,
) -> Result<(), Diagnostic> {
    for ty in [lt, rt] {
        let bad = ty.is_entity()
            || matches!(ty, Type::Boolean | Type::Map)
            || (!strings_and_lists_ok && matches!(ty, Type::String | Type::List));
        if bad {
            return Err(Diagnostic::new(
                "type_mismatch",
                span,
                format!("operator {what} is not defined for values of type {ty}"),
            ));
        }
    }
    Ok(())
}

/// Result types of the built-in scalar functions, matching the reference
/// evaluator: a claim tighter than `Any`/nullable is only made when the
/// evaluator guarantees it for the given argument types.
fn function_type(name: &str, args: &[Binding]) -> Binding {
    use cypher_parser::BuiltinFunction as F;
    let arg = |i: usize| args.get(i).copied().unwrap_or((Type::Any, true));
    let Some(function) = F::from_name(name) else { return (Type::Any, true) };
    match function {
        F::Id => match arg(0) {
            (Type::Node | Type::Relationship, false) => (Type::Integer, false),
            _ => (Type::Any, true),
        },
        F::Labels => match arg(0) {
            (Type::Node, false) => (Type::List, false),
            _ => (Type::Any, true),
        },
        F::Type => match arg(0) {
            (Type::Relationship, false) => (Type::String, false),
            _ => (Type::Any, true),
        },
        F::Size => match arg(0) {
            (Type::List | Type::String, false) => (Type::Integer, false),
            _ => (Type::Any, true),
        },
        F::Length => match arg(0) {
            (Type::Path | Type::List | Type::String, false) => (Type::Integer, false),
            _ => (Type::Any, true),
        },
        F::Head | F::Last | F::Index => (Type::Any, true),
        F::Abs => match arg(0) {
            (Type::Integer, false) => (Type::Integer, false),
            (Type::Float, false) => (Type::Float, false),
            _ => (Type::Any, true),
        },
        F::ToUpper | F::ToLower => match arg(0) {
            (Type::String, false) => (Type::String, false),
            _ => (Type::Any, true),
        },
        F::Coalesce => {
            let mut ty = None;
            let mut nullable = true;
            for (arg_ty, arg_nullable) in args {
                ty = Some(match ty {
                    None => *arg_ty,
                    Some(acc) => Type::join(acc, *arg_ty),
                });
                if !arg_nullable {
                    nullable = false;
                    break;
                }
            }
            (ty.unwrap_or(Type::Any), nullable)
        }
        F::Exists => (Type::Boolean, false),
        F::StartNode | F::EndNode => match arg(0) {
            (Type::Relationship, false) => (Type::Node, false),
            _ => (Type::Any, true),
        },
    }
}

/// Result types of aggregates, matching the reference evaluator: `COUNT` is
/// always a non-null integer, `COLLECT` a non-null list; `SUM` over an
/// integer argument stays integer but can overflow to NULL; `MIN`/`MAX` of
/// an empty group and `AVG` of an empty group are NULL.
fn aggregate_type(func: Aggregate, (arg_ty, _): Binding) -> Binding {
    match func {
        Aggregate::Count => (Type::Integer, false),
        Aggregate::Collect => (Type::List, false),
        Aggregate::Sum => match arg_ty {
            Type::Integer => (Type::Integer, true),
            _ => (Type::Any, true),
        },
        Aggregate::Min | Aggregate::Max => match arg_ty {
            Type::Any => (Type::Any, true),
            ty => (ty, true),
        },
        Aggregate::Avg => (Type::Float, true),
    }
}

// ---------------------------------------------------------------------------
// Prover-facing helpers
// ---------------------------------------------------------------------------

/// Whether two column signatures can *never* belong to equivalent queries
/// that return at least one row: the arities differ, or no bijection between
/// the columns pairs compatible signatures (the prover admits column
/// permutations, so a positional check would be too strong).
///
/// This is a necessary condition for non-equivalence, not a sufficient one —
/// two queries that both return the empty bag on every graph are equivalent
/// regardless of their signatures. The prover therefore only uses a
/// discriminating signature to *prioritize* the counterexample search; the
/// NOT_EQUIVALENT verdict still requires a concrete witness.
pub fn signatures_discriminate(left: &[TypeSig], right: &[TypeSig]) -> bool {
    if left.len() != right.len() {
        return true;
    }
    !compatible_bijection_exists(left, right)
}

/// Whether a column of signature `a` can ever hold the same value as a
/// column of signature `b`: compatible types, or both nullable (two NULLs
/// compare equal).
pub fn columns_compatible(a: &TypeSig, b: &TypeSig) -> bool {
    a.ty.compatible(b.ty) || (a.nullable && b.nullable)
}

fn compatible_bijection_exists(left: &[TypeSig], right: &[TypeSig]) -> bool {
    fn recurse(left: &[TypeSig], right: &[TypeSig], used: &mut [bool], position: usize) -> bool {
        if position == left.len() {
            return true;
        }
        for candidate in 0..right.len() {
            if !used[candidate] && columns_compatible(&left[position], &right[candidate]) {
                used[candidate] = true;
                if recurse(left, right, used, position + 1) {
                    return true;
                }
                used[candidate] = false;
            }
        }
        false
    }
    let mut used = vec![false; right.len()];
    recurse(left, right, &mut used, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;

    fn sig(text: &str) -> Vec<TypeSig> {
        analyze(&parse_query(text).expect("syntax"))
            .expect("analysis")
            .signature
            .expect("signature")
    }

    fn err(text: &str) -> Diagnostic {
        analyze(&parse_query(text).expect("syntax")).expect_err("expected a type error")
    }

    #[test]
    fn match_binds_entities_non_null() {
        let s = sig("MATCH (a)-[r]->(b) RETURN a, r, b");
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].ty, s[0].nullable), (Type::Node, false));
        assert_eq!((s[1].ty, s[1].nullable), (Type::Relationship, false));
        assert_eq!(s[0].name, "a");
    }

    #[test]
    fn optional_match_binds_nullable_entities() {
        let s = sig("MATCH (a) OPTIONAL MATCH (a)-[r]->(b) RETURN a, b");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Node, false));
        assert_eq!((s[1].ty, s[1].nullable), (Type::Node, true));
    }

    #[test]
    fn rematch_after_optional_filters_null() {
        let s = sig("MATCH (a) OPTIONAL MATCH (a)-[r]->(b) MATCH (b) RETURN b");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Node, false));
    }

    #[test]
    fn unwind_integer_literals_are_non_null_integers() {
        let s = sig("UNWIND [1, 2, 3] AS x RETURN x");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Integer, false));
        let s = sig("UNWIND [1, null] AS x RETURN x");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Integer, true));
        let s = sig("UNWIND [1, 'a'] AS x RETURN x");
        assert_eq!(s[0].ty, Type::Any);
    }

    #[test]
    fn unwind_over_definite_scalar_is_rejected() {
        let d = err("UNWIND 1 AS x RETURN x");
        assert_eq!(d.code, "type_mismatch");
        assert!(d.message.contains("UNWIND requires a list"), "{}", d.message);
    }

    #[test]
    fn where_on_definite_non_boolean_is_rejected() {
        let d = err("MATCH (n) WHERE 1 RETURN n");
        assert_eq!(d.code, "type_mismatch");
        assert!(d.message.contains("WHERE requires a boolean"), "{}", d.message);
        // NULL-able predicates (three-valued logic) are fine.
        assert!(analyze(&parse_query("MATCH (n) WHERE n.age > 1 RETURN n").unwrap()).is_ok());
    }

    #[test]
    fn arithmetic_over_entities_is_rejected() {
        let d = err("MATCH (n) RETURN n + 1");
        assert_eq!(d.code, "type_mismatch");
        let d = err("MATCH (n)-[r]->(m) RETURN r * 2");
        assert_eq!(d.code, "type_mismatch");
    }

    #[test]
    fn non_integer_limit_is_rejected() {
        let d = err("MATCH (n) RETURN n LIMIT 'five'");
        assert_eq!(d.code, "type_mismatch");
        assert!(analyze(&parse_query("MATCH (n) RETURN n LIMIT 5").unwrap()).is_ok());
    }

    #[test]
    fn with_rescopes_types() {
        let s = sig("MATCH (n) WITH n.age AS age, 1 AS one RETURN age, one");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Any, true));
        assert_eq!((s[1].ty, s[1].nullable), (Type::Integer, false));
    }

    #[test]
    fn aggregates_are_typed() {
        let s = sig("MATCH (n) RETURN COUNT(*), COUNT(n), COLLECT(n.age), AVG(n.age)");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Integer, false));
        assert_eq!((s[1].ty, s[1].nullable), (Type::Integer, false));
        assert_eq!((s[2].ty, s[2].nullable), (Type::List, false));
        assert_eq!((s[3].ty, s[3].nullable), (Type::Float, true));
    }

    #[test]
    fn integer_arithmetic_is_nullable_by_overflow() {
        // The evaluator degrades overflow and division by zero to NULL, so
        // arithmetic results must never be claimed non-null.
        let s = sig("UNWIND [1, 2] AS x RETURN x + 1, x / 0");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Integer, true));
        assert_eq!((s[1].ty, s[1].nullable), (Type::Integer, true));
    }

    #[test]
    fn functions_are_typed_from_argument_types() {
        let s = sig("MATCH (a)-[r]->(b) RETURN id(a), type(r), labels(a), size('xy')");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Integer, false));
        assert_eq!((s[1].ty, s[1].nullable), (Type::String, false));
        assert_eq!((s[2].ty, s[2].nullable), (Type::List, false));
        assert_eq!((s[3].ty, s[3].nullable), (Type::Integer, false));
        // A nullable argument degrades the claim.
        let s = sig("MATCH (a) OPTIONAL MATCH (a)-[r]->(b) RETURN id(b)");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Any, true));
    }

    #[test]
    fn return_star_has_no_signature() {
        let analysis = analyze(&parse_query("MATCH (n) RETURN *").unwrap()).unwrap();
        assert_eq!(analysis.signature, None);
    }

    #[test]
    fn union_joins_column_signatures() {
        let s = sig("MATCH (n) RETURN n.age AS v UNION ALL UNWIND [1] AS x RETURN x AS v");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Any, true));
        let s = sig("UNWIND [1] AS x RETURN x UNION ALL UNWIND [2] AS y RETURN y");
        assert_eq!((s[0].ty, s[0].nullable), (Type::Integer, false));
    }

    #[test]
    fn union_arity_mismatch_yields_no_signature() {
        let analysis = analyze(
            &parse_query("MATCH (n) RETURN n UNION ALL MATCH (n) RETURN n, n.age").unwrap(),
        )
        .unwrap();
        assert_eq!(analysis.signature, None);
    }

    #[test]
    fn discrimination_requires_incompatible_bijection() {
        let int = |name: &str| TypeSig { name: name.into(), ty: Type::Integer, nullable: false };
        let string = |name: &str| TypeSig { name: name.into(), ty: Type::String, nullable: false };
        let any = |name: &str| TypeSig { name: name.into(), ty: Type::Any, nullable: true };

        // Arity mismatch discriminates.
        assert!(signatures_discriminate(&[int("a")], &[int("a"), int("b")]));
        // Disjoint non-null types discriminate.
        assert!(signatures_discriminate(&[int("a")], &[string("b")]));
        // Any never discriminates.
        assert!(!signatures_discriminate(&[int("a")], &[any("b")]));
        // Column order does not matter (the prover permutes columns).
        assert!(!signatures_discriminate(&[int("a"), string("b")], &[string("x"), int("y")]));
        // ... but a genuinely unmatchable column still discriminates.
        assert!(signatures_discriminate(&[int("a"), string("b")], &[string("x"), string("y")]));
        // Two nullable columns are always compatible (NULL = NULL).
        let nullable_int = TypeSig { name: "a".into(), ty: Type::Integer, nullable: true };
        let nullable_str = TypeSig { name: "b".into(), ty: Type::String, nullable: true };
        assert!(!signatures_discriminate(
            std::slice::from_ref(&nullable_int),
            std::slice::from_ref(&nullable_str)
        ));
    }

    #[test]
    fn equivalent_rewrites_never_discriminate() {
        // A conservative sanity check mirroring the corpus-wide test in the
        // core crate: syntactic rewrites that preserve semantics must never
        // produce discriminating signatures.
        let pairs = [
            ("MATCH (n) RETURN n.age", "MATCH (m) RETURN m.age"),
            ("UNWIND [1, 2] AS x RETURN x", "UNWIND [2, 1] AS y RETURN y"),
            ("MATCH (n) RETURN n.a, COUNT(*)", "MATCH (n) RETURN COUNT(*) AS c, n.a"),
        ];
        for (q1, q2) in pairs {
            let s1 = sig(q1);
            let s2 = sig(q2);
            assert!(!signatures_discriminate(&s1, &s2), "{q1} vs {q2}");
        }
    }
}
