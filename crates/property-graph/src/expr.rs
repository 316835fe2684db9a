//! Expression evaluation over binding rows.
//!
//! Expressions are evaluated under Cypher's three-valued logic: comparisons
//! involving `NULL` yield `NULL`, and `WHERE` keeps only rows whose predicate
//! evaluates to `TRUE`. They arrive lowered ([`crate::plan`]): variables are
//! [`SymId`]s, literals are built values, functions are resolved and property
//! keys are slots resolved once per evaluation, so evaluating one hashes no
//! name.

use std::collections::BTreeMap;

use cypher_parser::ast::{BinaryOp, UnaryOp};
use cypher_parser::BuiltinFunction;

use crate::eval::{evaluate_union, EvalError};
use crate::graph::{EntityId, NameId, PropertyGraph};
use crate::plan::{LExpr, QueryPlan, Slot};
use crate::value::{and3, not3, or3, xor3, Value};

/// A dense interned symbol id: the key type of the flat row representation.
/// Ids are assigned per [`SymbolTable`] in interning order, so a query's
/// variables occupy a small contiguous range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub u32);

/// A per-query symbol table interning every variable and column name to a
/// [`SymId`]. [`QueryPlan::new`] fills it while lowering the query, and
/// evaluation only reads it (the names of `RETURN *` columns). Interning
/// keeps per-row key storage at 4 bytes and makes key comparison an integer
/// compare instead of a string compare. A query names a handful of
/// variables, so interning scans the names instead of hashing them.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// `SymId.0 as usize` indexes this vector; the entry is the name.
    names: Vec<Box<str>>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns `name`, returning its (possibly pre-existing) id.
    pub(crate) fn intern(&mut self, name: &str) -> SymId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        self.names.push(name.into());
        SymId(self.names.len() as u32 - 1)
    }

    /// The id of `name`, if it was ever interned.
    pub fn lookup(&self, name: &str) -> Option<SymId> {
        self.names.iter().position(|known| **known == *name).map(|index| SymId(index as u32))
    }

    /// The name interned under `id`.
    pub fn name(&self, id: SymId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A binding row: variable → value, as a small vector of `(symbol, value)`
/// entries kept sorted by [`SymId`]. A row clone is one allocation plus the
/// value clones, and [`Row::with_sym`] (the copy-on-extend the matcher
/// performs at every binding branch) copies straight into a right-sized
/// vector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    entries: Vec<(SymId, Value)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the row has no bindings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value bound to `name` in `symbols`, if any.
    pub fn get<'r>(&'r self, symbols: &SymbolTable, name: &str) -> Option<&'r Value> {
        self.get_sym(symbols.lookup(name)?)
    }

    /// The value bound to the symbol `id`, if any.
    pub fn get_sym(&self, id: SymId) -> Option<&Value> {
        // Rows hold a handful of entries; a branch-predictable linear scan
        // beats binary search at this size.
        self.entries.iter().find(|(sym, _)| *sym == id).map(|(_, value)| value)
    }

    /// Binds `id` to `value`, replacing any existing binding.
    pub fn insert_sym(&mut self, id: SymId, value: Value) {
        match self.entries.binary_search_by_key(&id, |(sym, _)| *sym) {
            Ok(position) => self.entries[position].1 = value,
            Err(position) => self.entries.insert(position, (id, value)),
        }
    }

    /// Binds `id` to `value` only if it is not already bound (the
    /// `OPTIONAL MATCH` null-fill).
    pub fn insert_if_absent_sym(&mut self, id: SymId, value: Value) {
        if let Err(position) = self.entries.binary_search_by_key(&id, |(sym, _)| *sym) {
            self.entries.insert(position, (id, value));
        }
    }

    /// Copy-on-extend: the row plus one binding of `id`, built in a single
    /// right-sized allocation instead of clone-then-insert.
    pub fn with_sym(&self, id: SymId, value: Value) -> Row {
        let position = self.entries.partition_point(|(sym, _)| *sym < id);
        let rest = match self.entries.get(position) {
            Some((sym, _)) if *sym == id => position + 1,
            _ => position,
        };
        let mut entries = Vec::with_capacity(self.entries.len() + 1);
        entries.extend_from_slice(&self.entries[..position]);
        entries.push((id, value));
        entries.extend_from_slice(&self.entries[rest..]);
        Row { entries }
    }

    /// A copy of the row with room for `extra` more bindings, so that many
    /// [`Row::insert_sym`]s do not reallocate.
    pub fn with_room(&self, extra: usize) -> Row {
        let mut entries = Vec::with_capacity(self.entries.len() + extra);
        entries.extend_from_slice(&self.entries);
        Row { entries }
    }

    /// The bound values, in symbol order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, value)| value)
    }

    /// The bound symbols, in symbol order.
    pub fn syms(&self) -> impl Iterator<Item = SymId> + '_ {
        self.entries.iter().map(|(sym, _)| *sym)
    }
}

/// The context of one evaluation: the graph, the plan, and the plan's name
/// slots resolved against the graph's table.
#[derive(Clone, Copy)]
pub(crate) struct EvalCtx<'e> {
    pub graph: &'e PropertyGraph,
    pub plan: &'e QueryPlan,
    /// `names[slot]` is the graph's id of the plan's slot `slot`, if any.
    pub names: &'e [Option<NameId>],
}

impl EvalCtx<'_> {
    /// The graph's id of the name in `slot`; `None` when no entity of the
    /// graph can carry it.
    pub fn name(&self, slot: Slot) -> Option<NameId> {
        self.names[slot.index()]
    }
}

static NULL: Value = Value::Null;

/// Evaluates a lowered expression in the given row.
pub(crate) fn eval(ctx: EvalCtx<'_>, row: &Row, expr: &LExpr) -> Result<Value, EvalError> {
    match expr {
        LExpr::Const(value) => Ok(value.clone()),
        LExpr::Var(sym) => Ok(row.get_sym(*sym).cloned().unwrap_or(Value::Null)),
        LExpr::Param(name) => Err(EvalError::new(format!(
            "unbound query parameter `${name}` (the evaluator does not take parameters)"
        ))),
        LExpr::Property(base, key) => Ok(match &**base {
            // A variable's value is read in place, not cloned.
            LExpr::Var(sym) => read_property(ctx, row.get_sym(*sym).unwrap_or(&NULL), *key),
            base => read_property(ctx, &eval(ctx, row, base)?, *key),
        }),
        LExpr::Unary(op, inner) => Ok(apply_unary(*op, eval(ctx, row, inner)?)),
        LExpr::Binary(op, lhs, rhs) => {
            let left = eval(ctx, row, lhs)?;
            let right = eval(ctx, row, rhs)?;
            Ok(apply_binary(*op, &left, &right))
        }
        LExpr::IsNull(inner, negated) => {
            Ok(Value::Boolean(eval(ctx, row, inner)?.is_null() != *negated))
        }
        LExpr::List(items) => Ok(Value::List(eval_all(ctx, row, items)?)),
        LExpr::Map(entries) => {
            let mut map = BTreeMap::new();
            for (key, value) in entries {
                map.insert(key.clone(), eval(ctx, row, value)?);
            }
            Ok(Value::Map(map))
        }
        LExpr::Call(function, args) => {
            let values = eval_all(ctx, row, args)?;
            // An unknown / unmodelled function is NULL, mirroring the prover
            // treating it as uninterpreted. The stage-① semantic check
            // rejects such names, so only unchecked queries reach this.
            Ok(function.map_or(Value::Null, |function| call(ctx, function, values)))
        }
        LExpr::Aggregate => {
            Err(EvalError::new("aggregate expressions can only appear in WITH/RETURN projections"))
        }
        LExpr::Exists(query) => {
            Ok(Value::Boolean(!evaluate_union(ctx, query, row, false)?.rows.is_empty()))
        }
        LExpr::Case(branches, otherwise) => {
            for (cond, value) in branches {
                if eval(ctx, row, cond)?.as_bool() == Some(true) {
                    return eval(ctx, row, value);
                }
            }
            match otherwise {
                Some(e) => eval(ctx, row, e),
                None => Ok(Value::Null),
            }
        }
    }
}

fn eval_all(ctx: EvalCtx<'_>, row: &Row, exprs: &[LExpr]) -> Result<Vec<Value>, EvalError> {
    exprs.iter().map(|e| eval(ctx, row, e)).collect()
}

/// Evaluates a predicate for `WHERE`: only `TRUE` passes.
pub(crate) fn eval_predicate(ctx: EvalCtx<'_>, row: &Row, expr: &LExpr) -> Result<bool, EvalError> {
    Ok(eval(ctx, row, expr)?.as_bool() == Some(true))
}

/// Applies a unary operator to a computed value.
pub(crate) fn apply_unary(op: UnaryOp, value: Value) -> Value {
    match op {
        UnaryOp::Not => bool3_to_value(not3(value.as_bool())),
        // Direct negation, not `0 - x`: the subtraction detour turned
        // `-(0.0)` into `+0.0` (losing the IEEE sign bit, observable through
        // the total order) and hid the `-(i64::MIN)` overflow inside
        // `checked_sub`.
        UnaryOp::Neg => value.neg(),
        UnaryOp::Pos => value,
    }
}

/// Applies a binary operator to two computed values. Both operands are
/// always evaluated first; the logical connectives then combine them under
/// three-valued logic.
pub(crate) fn apply_binary(op: BinaryOp, left: &Value, right: &Value) -> Value {
    match op {
        BinaryOp::And => bool3_to_value(and3(left.as_bool(), right.as_bool())),
        BinaryOp::Or => bool3_to_value(or3(left.as_bool(), right.as_bool())),
        BinaryOp::Xor => bool3_to_value(xor3(left.as_bool(), right.as_bool())),
        BinaryOp::Eq => bool3_to_value(left.cypher_eq(right)),
        BinaryOp::Neq => bool3_to_value(not3(left.cypher_eq(right))),
        BinaryOp::Lt => bool3_to_value(left.cypher_cmp(right).map(|o| o.is_lt())),
        BinaryOp::Le => bool3_to_value(left.cypher_cmp(right).map(|o| o.is_le())),
        BinaryOp::Gt => bool3_to_value(left.cypher_cmp(right).map(|o| o.is_gt())),
        BinaryOp::Ge => bool3_to_value(left.cypher_cmp(right).map(|o| o.is_ge())),
        BinaryOp::Add => left.add(right),
        BinaryOp::Sub => left.sub(right),
        BinaryOp::Mul => left.mul(right),
        BinaryOp::Div => left.div(right),
        BinaryOp::Mod => left.rem(right),
        BinaryOp::Pow => left.pow(right),
        BinaryOp::In => eval_in(left, right),
        BinaryOp::StartsWith => eval_string_predicate(left, right, |a, b| a.starts_with(b)),
        BinaryOp::EndsWith => eval_string_predicate(left, right, |a, b| a.ends_with(b)),
        BinaryOp::Contains => eval_string_predicate(left, right, |a, b| a.contains(b)),
    }
}

fn eval_in(needle: &Value, haystack: &Value) -> Value {
    match haystack {
        Value::Null => Value::Null,
        Value::List(items) => {
            let mut saw_null = false;
            for item in items {
                match needle.cypher_eq(item) {
                    Some(true) => return Value::Boolean(true),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Value::Null
            } else {
                Value::Boolean(false)
            }
        }
        _ => Value::Null,
    }
}

fn eval_string_predicate(left: &Value, right: &Value, f: impl Fn(&str, &str) -> bool) -> Value {
    match (left, right) {
        (Value::String(a), Value::String(b)) => Value::Boolean(f(a, b)),
        _ => Value::Null,
    }
}

fn bool3_to_value(value: Option<bool>) -> Value {
    match value {
        Some(b) => Value::Boolean(b),
        None => Value::Null,
    }
}

/// Reads `base.key` where `base` may be a node, relationship or map.
fn read_property(ctx: EvalCtx<'_>, base: &Value, key: Slot) -> Value {
    let entity = match base {
        Value::Node(id) => EntityId::Node(*id),
        Value::Relationship(id) => EntityId::Relationship(*id),
        Value::Map(map) => return map.get(ctx.plan.name(key)).cloned().unwrap_or(Value::Null),
        _ => return Value::Null,
    };
    ctx.name(key)
        .and_then(|key| ctx.graph.property_by_id(entity, key))
        .cloned()
        .unwrap_or(Value::Null)
}

/// Evaluates a built-in scalar function: the set is
/// [`cypher_parser::BuiltinFunction`], the same registry the stage-①
/// semantic check admits, so the two cannot drift and the `match` below is
/// exhaustive by construction.
fn call(ctx: EvalCtx<'_>, function: BuiltinFunction, args: Vec<Value>) -> Value {
    use cypher_parser::BuiltinFunction as F;
    let arg = |i: usize| args.get(i).cloned().unwrap_or(Value::Null);
    match function {
        F::Id => match arg(0) {
            Value::Node(id) => Value::Integer(id.0 as i64),
            // Relationship ids live in a disjoint range so that `id(n) = id(r)`
            // can never hold between a node and a relationship.
            Value::Relationship(id) => Value::Integer(1_000_000_000 + id.0 as i64),
            _ => Value::Null,
        },
        F::Labels => match arg(0) {
            Value::Node(id) => Value::List(
                ctx.graph.label_names(id).map(|label| Value::String(label.to_string())).collect(),
            ),
            _ => Value::Null,
        },
        F::Type => match arg(0) {
            Value::Relationship(id) => Value::String(ctx.graph.rel_type_name(id).to_string()),
            _ => Value::Null,
        },
        F::Size => match arg(0) {
            Value::List(items) => Value::Integer(items.len() as i64),
            Value::String(s) => Value::Integer(s.chars().count() as i64),
            _ => Value::Null,
        },
        F::Length => match arg(0) {
            Value::Path(items) => Value::Integer((items.len().saturating_sub(1) / 2) as i64),
            Value::List(items) => Value::Integer(items.len() as i64),
            Value::String(s) => Value::Integer(s.chars().count() as i64),
            _ => Value::Null,
        },
        F::Head => match arg(0) {
            Value::List(items) => items.first().cloned().unwrap_or(Value::Null),
            _ => Value::Null,
        },
        F::Last => match arg(0) {
            Value::List(items) => items.last().cloned().unwrap_or(Value::Null),
            _ => Value::Null,
        },
        F::Abs => match arg(0) {
            Value::Integer(v) => Value::Integer(v.abs()),
            Value::Float(v) => Value::Float(v.abs()),
            _ => Value::Null,
        },
        F::ToUpper => match arg(0) {
            Value::String(s) => Value::String(s.to_uppercase()),
            _ => Value::Null,
        },
        F::ToLower => match arg(0) {
            Value::String(s) => Value::String(s.to_lowercase()),
            _ => Value::Null,
        },
        F::Coalesce => args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null),
        F::Exists => Value::Boolean(!arg(0).is_null()),
        F::StartNode => match arg(0) {
            Value::Relationship(id) => Value::Node(ctx.graph.relationship(id).source),
            _ => Value::Null,
        },
        F::EndNode => match arg(0) {
            Value::Relationship(id) => Value::Node(ctx.graph.relationship(id).target),
            _ => Value::Null,
        },
        F::Index => match (arg(0), arg(1)) {
            (Value::List(items), Value::Integer(i)) if i >= 0 && (i as usize) < items.len() => {
                items[i as usize].clone()
            }
            _ => Value::Null,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_query;
    use cypher_parser::parse_query;

    /// Evaluates `expr` in a row binding `n` to the paper graph's J. K.
    /// Rowling node and `x` to 5.
    fn try_eval(expr: &str) -> Result<Value, EvalError> {
        let graph = PropertyGraph::paper_example();
        let text = format!("MATCH (n) WHERE id(n) = 0 WITH n, 5 AS x RETURN {expr}");
        let result = evaluate_query(&graph, &parse_query(&text).unwrap())?;
        assert_eq!(result.rows.len(), 1, "{text}");
        Ok(result.rows[0][0].clone())
    }

    fn eval(expr: &str) -> Value {
        try_eval(expr).unwrap_or_else(|e| panic!("`{expr}`: {e}"))
    }

    #[test]
    fn evaluates_property_access_and_comparison() {
        assert_eq!(eval("n.age"), Value::Integer(59));
        assert_eq!(eval("n.age = 59"), Value::Boolean(true));
        assert_eq!(eval("n.age > 100"), Value::Boolean(false));
        assert_eq!(eval("n.missing = 1"), Value::Null);
        assert_eq!(eval("n.missing IS NULL"), Value::Boolean(true));
        assert_eq!(eval("n.age IS NOT NULL"), Value::Boolean(true));
    }

    #[test]
    fn evaluates_arithmetic_and_logic() {
        assert_eq!(eval("x + 2 * 3"), Value::Integer(11));
        assert_eq!(eval("x > 1 AND x < 10"), Value::Boolean(true));
        assert_eq!(eval("x > 1 AND n.missing = 1"), Value::Null);
        assert_eq!(eval("x < 1 AND n.missing = 1"), Value::Boolean(false));
        assert_eq!(eval("NOT x = 5"), Value::Boolean(false));
        assert_eq!(eval("x IN [1, 5, 9]"), Value::Boolean(true));
        assert_eq!(eval("x IN [1, 2]"), Value::Boolean(false));
    }

    #[test]
    fn evaluates_string_predicates_and_functions() {
        assert_eq!(eval("n.name STARTS WITH 'J.'"), Value::Boolean(true));
        assert_eq!(eval("n.name CONTAINS 'Rowling'"), Value::Boolean(true));
        assert_eq!(eval("size('abc')"), Value::Integer(3));
        assert_eq!(eval("coalesce(n.missing, 7)"), Value::Integer(7));
        assert_eq!(eval("id(n)"), Value::Integer(0));
        assert_eq!(eval("labels(n)"), Value::List(vec![Value::from("Person")]));
        assert_eq!(eval("unknown_function(n)"), Value::Null);
        assert_eq!(eval("TOUPPER('a')"), Value::from("A"), "names resolve case-insensitively");
    }

    #[test]
    fn evaluates_case_and_maps_and_lists() {
        assert_eq!(eval("CASE WHEN x > 3 THEN 'big' ELSE 'small' END"), Value::from("big"));
        assert_eq!(eval("{a: 1, b: 2}.b"), Value::Integer(2));
        assert_eq!(
            eval("{a: 1, a: x}.a"),
            Value::Integer(5),
            "a repeated key keeps its last value"
        );
        assert_eq!(eval("[1, 2, 3][1]"), Value::Integer(2));
        assert_eq!(eval("head([4, 5])"), Value::Integer(4));
    }

    #[test]
    fn operators_on_literals_evaluate() {
        assert_eq!(eval("-(0.0)"), Value::Float(-0.0));
        assert_eq!(eval("1 + 2 = 3"), Value::Boolean(true));
        assert_eq!(eval("NULL IS NULL"), Value::Boolean(true));
        assert_eq!(eval("[1, 'a'] + [2]"), eval("[1, 'a', 2]"));
        assert_eq!(eval("9223372036854775807 + 1"), Value::Null, "overflow is NULL");
    }

    #[test]
    fn unbound_variables_are_null() {
        assert_eq!(eval("missing_variable"), Value::Null);
        assert_eq!(eval("missing_variable = 1"), Value::Null);
    }

    #[test]
    fn parameters_are_rejected() {
        assert!(try_eval("$p = 1").is_err());
    }

    #[test]
    fn aggregates_outside_projections_are_rejected() {
        let graph = PropertyGraph::paper_example();
        let query = parse_query("MATCH (n) WHERE SUM(n.age) > 1 RETURN n").unwrap();
        assert!(evaluate_query(&graph, &query).is_err());
        // Not reached on a graph without nodes, so no error there.
        assert!(evaluate_query(&PropertyGraph::new(), &query).unwrap().is_empty());
    }

    #[test]
    fn symbol_table_interns_densely_and_round_trips() {
        let mut symbols = SymbolTable::new();
        let a = symbols.intern("a");
        let b = symbols.intern("b");
        assert_eq!(a, SymId(0));
        assert_eq!(b, SymId(1));
        assert_eq!(symbols.intern("a"), a, "re-interning returns the same id");
        assert_eq!(symbols.lookup("b"), Some(b));
        assert_eq!(symbols.lookup("missing"), None);
        assert_eq!(symbols.name(a), "a");
        assert_eq!(symbols.len(), 2);
    }

    #[test]
    fn plan_time_interning_covers_query_names() {
        let query = parse_query(
            "MATCH p = (a:Person)-[r:READ]->(b) WHERE a.age > 1 \
             WITH b.title AS title UNWIND [1] AS x RETURN title, x AS renamed",
        )
        .unwrap();
        let plan = QueryPlan::new(&query);
        for name in ["p", "a", "r", "b", "title", "x", "renamed"] {
            assert!(plan.symbols().lookup(name).is_some(), "{name} not interned at plan time");
        }
    }

    #[test]
    fn rows_bind_replace_extend_and_merge() {
        let mut symbols = SymbolTable::new();
        let [a, m, q, z, b] = ["a", "m", "q", "z", "b"].map(|name| symbols.intern(name));
        let mut row = Row::new();
        // Insert out of symbol order to exercise the sorted insert.
        row.insert_sym(z, Value::Integer(1));
        row.insert_sym(a, Value::Integer(2));
        row.insert_sym(m, Value::Integer(3));
        row.insert_sym(a, Value::Integer(4)); // replace
        row.insert_if_absent_sym(m, Value::Null); // no-op
        row.insert_if_absent_sym(q, Value::Integer(5));
        assert_eq!(row.len(), 4);
        assert_eq!(row.get(&symbols, "a"), Some(&Value::Integer(4)));
        assert_eq!(row.get(&symbols, "m"), Some(&Value::Integer(3)));
        assert_eq!(row.get(&symbols, "q"), Some(&Value::Integer(5)));
        assert_eq!(row.get(&symbols, "missing"), None);
        assert_eq!(row.syms().collect::<Vec<_>>(), [a, m, q, z], "entries stay in symbol order");

        // Copy-on-extend preserves the original.
        let extended = row.with_sym(b, Value::Integer(9));
        assert_eq!(row.len(), 4);
        assert_eq!(extended.len(), 5);
        assert_eq!(extended.get_sym(b), Some(&Value::Integer(9)));
        let replaced = row.with_sym(a, Value::Integer(0));
        assert_eq!(replaced.len(), 4);
        assert_eq!(replaced.get_sym(a), Some(&Value::Integer(0)));
        let mut roomy = row.with_room(2);
        assert_eq!(roomy, row);
        roomy.insert_sym(b, Value::Null);
        assert_eq!(roomy.len(), 5);
    }

    /// Every function in the shared [`cypher_parser::BuiltinFunction`]
    /// registry evaluates through a real arm of `call`: applied to
    /// representative arguments, each returns a non-NULL value, which the
    /// unknown-name fallthrough can never produce.
    #[test]
    fn every_registered_builtin_evaluates_non_null() {
        let graph = PropertyGraph::paper_example();
        let representative = |function: BuiltinFunction| match function {
            BuiltinFunction::Id => "id(n)",
            BuiltinFunction::Labels => "labels(n)",
            BuiltinFunction::Type => "type(r)",
            BuiltinFunction::Size => "size('abc')",
            BuiltinFunction::Length => "length([1, 2])",
            BuiltinFunction::Head => "head([1, 2])",
            BuiltinFunction::Last => "last([1, 2])",
            BuiltinFunction::Abs => "abs(0 - 3)",
            BuiltinFunction::ToUpper => "toUpper('a')",
            BuiltinFunction::ToLower => "toLower('A')",
            BuiltinFunction::Coalesce => "coalesce(n.missing, 7)",
            BuiltinFunction::Exists => "exists(n.name)",
            BuiltinFunction::StartNode => "startNode(r)",
            BuiltinFunction::EndNode => "endNode(r)",
            BuiltinFunction::Index => "index([4, 5], 1)",
        };
        for &function in BuiltinFunction::ALL {
            let text = format!(
                "MATCH (n)-[r]->() WHERE id(r) = 1000000000 RETURN {}",
                representative(function)
            );
            let result = evaluate_query(&graph, &parse_query(&text).unwrap()).unwrap();
            assert!(!result.rows[0][0].is_null(), "{text}: registered builtin evaluated to NULL");
        }
    }
}
