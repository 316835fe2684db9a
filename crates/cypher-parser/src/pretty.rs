//! Pretty-printing of ASTs back into Cypher text.
//!
//! The printer produces canonical text: keywords upper-cased, single spaces,
//! explicit parentheses only where needed, and names (variables, aliases,
//! labels, relationship types, property and map keys) backtick-quoted when
//! they would not re-lex as themselves. `parse(pretty(ast))` round-trips to
//! an equal AST (covered by unit and property tests). Every node writes
//! into one output `String`; no sub-node is rendered on its own.

use std::fmt::Write;

use crate::ast::*;
use crate::token::TokenKind;

/// Room for a typical corpus query, so printing one allocates once.
const TYPICAL_QUERY_BYTES: usize = 128;

/// Renders a full query.
pub fn query_to_string(query: &Query) -> String {
    let mut out = String::with_capacity(TYPICAL_QUERY_BYTES);
    write_query(&mut out, query);
    out
}

/// Renders an expression with minimal but sufficient parenthesization.
pub fn expr_to_string(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, 0);
    out
}

/// Whether `name` re-lexes as the same identifier when written bare: it
/// matches `[A-Za-z_][A-Za-z0-9_]*` and is not a keyword.
fn is_bare(name: &str) -> bool {
    let mut bytes = name.bytes();
    bytes.next().is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
        && TokenKind::keyword_from_str(name).is_none()
}

/// Writes a name as it must be written to re-lex as the same identifier:
/// bare when [`is_bare`], backtick-quoted otherwise. (A backtick-quoted
/// identifier ends at the next backtick, so no parsed name contains one.)
fn write_ident(out: &mut String, name: &str) {
    if is_bare(name) {
        out.push_str(name);
    } else {
        out.push('`');
        out.push_str(name);
        out.push('`');
    }
}

/// Writes `items` separated by `separator`.
fn write_separated<T>(
    out: &mut String,
    items: &[T],
    separator: &str,
    mut write: impl FnMut(&mut String, &T),
) {
    for (index, item) in items.iter().enumerate() {
        if index > 0 {
            out.push_str(separator);
        }
        write(out, item);
    }
}

fn write_query(out: &mut String, query: &Query) {
    for (i, part) in query.parts.iter().enumerate() {
        if i > 0 {
            match query.unions[i - 1] {
                UnionKind::All => out.push_str(" UNION ALL "),
                UnionKind::Distinct => out.push_str(" UNION "),
            }
        }
        write_separated(out, &part.clauses, " ", write_clause);
    }
}

fn write_clause(out: &mut String, clause: &Clause) {
    match clause {
        Clause::Match(m) => {
            if m.optional {
                out.push_str("OPTIONAL ");
            }
            out.push_str("MATCH ");
            write_separated(out, &m.patterns, ", ", write_path);
            write_where(out, m.where_clause.as_ref());
        }
        Clause::Unwind(u) => {
            out.push_str("UNWIND ");
            write_expr(out, &u.expr, 0);
            out.push_str(" AS ");
            write_ident(out, &u.alias);
        }
        Clause::With(w) => {
            out.push_str("WITH ");
            write_projection(out, &w.projection);
            write_where(out, w.where_clause.as_ref());
        }
        Clause::Return(p) => {
            out.push_str("RETURN ");
            write_projection(out, p);
        }
    }
}

fn write_where(out: &mut String, predicate: Option<&Expr>) {
    if let Some(predicate) = predicate {
        out.push_str(" WHERE ");
        write_expr(out, predicate, 0);
    }
}

/// Writes a projection body (shared by `WITH` and `RETURN`).
fn write_projection(out: &mut String, p: &Projection) {
    if p.distinct {
        out.push_str("DISTINCT ");
    }
    match &p.items {
        ProjectionItems::Star => out.push('*'),
        ProjectionItems::Items(items) => write_separated(out, items, ", ", |out, item| {
            write_expr(out, &item.expr, 0);
            if let Some(alias) = &item.alias {
                out.push_str(" AS ");
                write_ident(out, alias);
            }
        }),
    }
    if !p.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        write_separated(out, &p.order_by, ", ", |out, order| {
            write_expr(out, &order.expr, 0);
            if !order.ascending {
                out.push_str(" DESC");
            }
        });
    }
    if let Some(skip) = &p.skip {
        out.push_str(" SKIP ");
        write_expr(out, skip, 0);
    }
    if let Some(limit) = &p.limit {
        out.push_str(" LIMIT ");
        write_expr(out, limit, 0);
    }
}

fn write_path(out: &mut String, path: &PathPattern) {
    if let Some(v) = &path.variable {
        write_ident(out, v);
        out.push_str(" = ");
    }
    write_node(out, &path.start);
    for segment in &path.segments {
        write_relationship(out, &segment.relationship);
        write_node(out, &segment.node);
    }
}

fn write_node(out: &mut String, node: &NodePattern) {
    out.push('(');
    if let Some(v) = &node.variable {
        write_ident(out, v);
    }
    for label in &node.labels {
        out.push(':');
        write_ident(out, label);
    }
    if !node.properties.is_empty() {
        if node.variable.is_some() || !node.labels.is_empty() {
            out.push(' ');
        }
        write_map(out, &node.properties);
    }
    out.push(')');
}

/// Writes a relationship pattern including its arrow decoration; the
/// bracketed detail only when there is any.
fn write_relationship(out: &mut String, rel: &RelationshipPattern) {
    out.push_str(if rel.direction == RelDirection::Incoming { "<-" } else { "-" });
    let before_properties =
        rel.variable.is_some() || !rel.labels.is_empty() || rel.length.is_some();
    if before_properties || !rel.properties.is_empty() {
        out.push('[');
        if let Some(v) = &rel.variable {
            write_ident(out, v);
        }
        if !rel.labels.is_empty() {
            out.push(':');
            write_separated(out, &rel.labels, "|", |out, label| write_ident(out, label));
        }
        if let Some(length) = &rel.length {
            out.push('*');
            // Writing into a `String` cannot fail.
            let _ = match (length.min, length.max) {
                (Some(min), Some(max)) if min == max => write!(out, "{min}"),
                (Some(min), Some(max)) => write!(out, "{min}..{max}"),
                (Some(min), None) => write!(out, "{min}.."),
                (None, Some(max)) => write!(out, "..{max}"),
                (None, None) => Ok(()),
            };
        }
        if !rel.properties.is_empty() {
            if before_properties {
                out.push(' ');
            }
            write_map(out, &rel.properties);
        }
        out.push(']');
    }
    out.push_str(if rel.direction == RelDirection::Outgoing { "->" } else { "-" });
}

/// Writes a property map or map literal, `{key: value, ...}`.
fn write_map(out: &mut String, entries: &[(String, Expr)]) {
    out.push('{');
    write_separated(out, entries, ", ", |out, (key, value)| {
        write_ident(out, key);
        out.push_str(": ");
        write_expr(out, value, 0);
    });
    out.push('}');
}

/// Precedence levels used to decide when parentheses are required. Higher
/// binds tighter.
fn precedence(op: BinaryOp) -> u8 {
    match op {
        BinaryOp::Or => 1,
        BinaryOp::Xor => 2,
        BinaryOp::And => 3,
        BinaryOp::Eq
        | BinaryOp::Neq
        | BinaryOp::Lt
        | BinaryOp::Le
        | BinaryOp::Gt
        | BinaryOp::Ge
        | BinaryOp::In
        | BinaryOp::StartsWith
        | BinaryOp::EndsWith
        | BinaryOp::Contains => 5,
        BinaryOp::Add | BinaryOp::Sub => 6,
        BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 7,
        BinaryOp::Pow => 8,
    }
}

fn op_text(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Eq => "=",
        BinaryOp::Neq => "<>",
        BinaryOp::Lt => "<",
        BinaryOp::Le => "<=",
        BinaryOp::Gt => ">",
        BinaryOp::Ge => ">=",
        BinaryOp::And => "AND",
        BinaryOp::Or => "OR",
        BinaryOp::Xor => "XOR",
        BinaryOp::Add => "+",
        BinaryOp::Sub => "-",
        BinaryOp::Mul => "*",
        BinaryOp::Div => "/",
        BinaryOp::Mod => "%",
        BinaryOp::Pow => "^",
        BinaryOp::In => "IN",
        BinaryOp::StartsWith => "STARTS WITH",
        BinaryOp::EndsWith => "ENDS WITH",
        BinaryOp::Contains => "CONTAINS",
    }
}

/// Writes `expr`, parenthesized when it binds more loosely than its context
/// (`parent_prec`) allows.
fn write_expr(out: &mut String, expr: &Expr, parent_prec: u8) {
    match expr {
        Expr::Literal(lit) => write_literal(out, lit),
        Expr::Variable(v) => write_ident(out, v),
        Expr::Parameter(p) => {
            out.push('$');
            out.push_str(p);
        }
        Expr::Property(base, key) => {
            write_expr(out, base, 10);
            out.push('.');
            write_ident(out, key);
        }
        Expr::Unary(op, inner) => {
            // NOT binds between AND and comparisons.
            let prec = if *op == UnaryOp::Not { 4 } else { 9 };
            parenthesized(out, prec < parent_prec, |out| {
                out.push_str(match op {
                    UnaryOp::Not => "NOT ",
                    UnaryOp::Neg => "-",
                    UnaryOp::Pos => "+",
                });
                write_expr(out, inner, 9);
            });
        }
        Expr::Binary(op, lhs, rhs) => {
            let prec = precedence(*op);
            parenthesized(out, prec < parent_prec, |out| {
                write_expr(out, lhs, prec);
                out.push(' ');
                out.push_str(op_text(*op));
                out.push(' ');
                // Use prec + 1 on the right so non-associative chains
                // reproduce the original grouping when reparsed (all our
                // binary operators are parsed left-associatively except `^`).
                write_expr(out, rhs, if *op == BinaryOp::Pow { prec } else { prec + 1 });
            });
        }
        Expr::IsNull { expr, negated } => parenthesized(out, 5 < parent_prec, |out| {
            write_expr(out, expr, 6);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }),
        Expr::List(items) => {
            out.push('[');
            write_separated(out, items, ", ", |out, item| write_expr(out, item, 0));
            out.push(']');
        }
        Expr::Map(entries) => write_map(out, entries),
        Expr::FunctionCall { name, args } => {
            out.push_str(name);
            out.push('(');
            write_separated(out, args, ", ", |out, arg| write_expr(out, arg, 0));
            out.push(')');
        }
        Expr::AggregateCall { func, distinct, arg } => {
            out.push_str(func.name());
            out.push_str(if *distinct { "(DISTINCT " } else { "(" });
            write_expr(out, arg, 0);
            out.push(')');
        }
        Expr::CountStar { distinct } => {
            out.push_str(if *distinct { "COUNT(DISTINCT *)" } else { "COUNT(*)" });
        }
        Expr::Exists(query) => {
            out.push_str("EXISTS { ");
            write_query(out, query);
            out.push_str(" }");
        }
        Expr::Case { branches, otherwise } => {
            out.push_str("CASE");
            for (cond, value) in branches {
                out.push_str(" WHEN ");
                write_expr(out, cond, 0);
                out.push_str(" THEN ");
                write_expr(out, value, 0);
            }
            if let Some(e) = otherwise {
                out.push_str(" ELSE ");
                write_expr(out, e, 0);
            }
            out.push_str(" END");
        }
    }
}

fn parenthesized(out: &mut String, paren: bool, write: impl FnOnce(&mut String)) {
    if paren {
        out.push('(');
    }
    write(out);
    if paren {
        out.push(')');
    }
}

fn write_literal(out: &mut String, lit: &Literal) {
    // Writing into a `String` cannot fail.
    let _ = match lit {
        Literal::Integer(v) => write!(out, "{v}"),
        // Keep a decimal point so the value re-lexes as a float.
        Literal::Float(v) if v.fract() == 0.0 && v.is_finite() => write!(out, "{v:.1}"),
        Literal::Float(v) => write!(out, "{v}"),
        Literal::String(s) => {
            out.push('\'');
            let mut rest = s.as_str();
            while let Some(index) = rest.find(['\\', '\'']) {
                out.push_str(&rest[..index]);
                out.push('\\');
                out.push_str(&rest[index..=index]);
                rest = &rest[index + 1..];
            }
            out.push_str(rest);
            out.push('\'');
            Ok(())
        }
        Literal::Boolean(true) => out.write_str("TRUE"),
        Literal::Boolean(false) => out.write_str("FALSE"),
        Literal::Null => out.write_str("NULL"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    /// Helper: parse, print, re-parse, and require identical ASTs.
    fn round_trip(text: &str) {
        let first = parse_query(text).unwrap_or_else(|e| panic!("parse {text}: {e}"));
        let printed = query_to_string(&first);
        let second = parse_query(&printed).unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
        assert_eq!(first, second, "round trip mismatch:\n  in:  {text}\n  out: {printed}");
    }

    #[test]
    fn round_trips_core_queries() {
        round_trip("MATCH (n:Person) RETURN n.name");
        round_trip("MATCH (a)-[r:KNOWS]->(b) WHERE a.age > 10 RETURN b");
        round_trip("MATCH (a)<-[:READ]-(b), (c)-[x]-(d) RETURN a, d");
        round_trip("OPTIONAL MATCH (a)-[r *1..3]->(b) RETURN r");
        round_trip("MATCH (n) RETURN DISTINCT n ORDER BY n.age DESC SKIP 1 LIMIT 2");
        round_trip("MATCH (n) WITH n.name AS name WHERE name <> 'x' RETURN name");
        round_trip("UNWIND [1, 2, 3] AS x RETURN x");
        round_trip("MATCH (a) RETURN a UNION ALL MATCH (b) RETURN b");
        round_trip("MATCH (a) RETURN a UNION MATCH (b) RETURN b");
        round_trip("MATCH (n) RETURN COUNT(*), SUM(n.age), COLLECT(DISTINCT n.name)");
        round_trip("MATCH (n {age: 1}) WHERE EXISTS { MATCH (n)-[]->(m) RETURN m } RETURN n");
        round_trip("MATCH p = (a)-->(b) RETURN p");
        round_trip("MATCH (n) RETURN CASE WHEN n.a > 1 THEN 'x' ELSE 'y' END");
        round_trip("MATCH (n) WHERE n.x IS NOT NULL AND NOT n.y = 2 RETURN *");
        round_trip("MATCH (n:A:B {p: 'q'})-[r:X|Y {w: 2}]->(m) RETURN n, r, m");
    }

    #[test]
    fn round_trips_operator_grouping() {
        round_trip("MATCH (n) WHERE (n.a + n.b) * n.c = 1 RETURN n");
        round_trip("MATCH (n) WHERE n.a = 1 OR n.b = 2 AND n.c = 3 RETURN n");
        round_trip("MATCH (n) WHERE (n.a = 1 OR n.b = 2) AND n.c = 3 RETURN n");
        round_trip("MATCH (n) WHERE NOT (n.a = 1 OR n.b = 2) RETURN n");
        round_trip("MATCH (n) RETURN n.a - (n.b - n.c)");
        round_trip("MATCH (n) RETURN n.a - n.b - n.c");
    }

    #[test]
    fn prints_expected_text() {
        let q = parse_query("match (n:Person {age: 59}) where n.name='X' return n.name as name")
            .unwrap();
        assert_eq!(
            query_to_string(&q),
            "MATCH (n:Person {age: 59}) WHERE n.name = 'X' RETURN n.name AS name"
        );
    }

    #[test]
    fn prints_relationship_variants() {
        let q = parse_query("MATCH (a)-[*]->(b)<-[r:X|Y]-(c)--(d) RETURN a").unwrap();
        assert_eq!(query_to_string(&q), "MATCH (a)-[*]->(b)<-[r:X|Y]-(c)--(d) RETURN a");
    }

    #[test]
    fn names_that_need_quoting_round_trip() {
        round_trip("MATCH (n) WHERE n.`first name` = 'x' RETURN n.`first name` AS `the name`");
        round_trip("MATCH (n:`Big Person`)-[r:`KNOWS WELL`|X]->(m:`MATCH`) RETURN n, r, m");
        round_trip("MATCH (`1n` {`a-b`: 1}) RETURN `1n`");
        round_trip("MATCH (n:`Größe`) WITH n AS `return` RETURN `return`.`Größe`");
        round_trip("MATCH `p q` = (a)-[]->(b) UNWIND [1] AS `x y` RETURN {`k v`: `x y`}");
        round_trip("MATCH (n:``) RETURN n");
        let q = parse_query("MATCH (`n`:`Person`) RETURN `n`.`name`").unwrap();
        assert_eq!(query_to_string(&q), "MATCH (n:Person) RETURN n.name", "plain names stay bare");
    }

    #[test]
    fn idents_are_quoted_exactly_when_needed() {
        let ident = |name: &str| {
            let mut out = String::new();
            write_ident(&mut out, name);
            out
        };
        for bare in ["n", "_x", "Person", "a1_b", "MATCHES", "countx"] {
            assert_eq!(ident(bare), bare);
        }
        for quoted in ["", "1n", "first name", "a-b", "Größe", "match", "RETURN", "Count"] {
            assert_eq!(ident(quoted), format!("`{quoted}`"));
        }
    }

    #[test]
    fn prints_float_and_string_literals_relexably() {
        round_trip("MATCH (n) WHERE n.x = 2.0 AND n.y = 'it\\'s' RETURN n");
    }
}
