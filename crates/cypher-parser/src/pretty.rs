//! Pretty-printing of ASTs back into Cypher text.
//!
//! The printer produces canonical text: keywords upper-cased, single spaces,
//! explicit parentheses only where needed, and names (variables, aliases,
//! labels, relationship types, property and map keys) backtick-quoted when
//! they would not re-lex as themselves. `parse(pretty(ast))` round-trips to
//! an equal AST (covered by unit and property tests).

use std::borrow::Cow;

use crate::ast::*;
use crate::token::TokenKind;

/// A name as it must be written to re-lex as the same identifier: bare when
/// it matches `[A-Za-z_][A-Za-z0-9_]*` and is not a keyword, backtick-quoted
/// otherwise. (A backtick-quoted identifier ends at the next backtick, so no
/// parsed name contains one.)
fn ident(name: &str) -> Cow<'_, str> {
    let mut bytes = name.bytes();
    let bare = bytes.next().is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
        && TokenKind::keyword_from_str(name).is_none();
    if bare {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(format!("`{name}`"))
    }
}

/// Renders a full query.
pub fn query_to_string(query: &Query) -> String {
    let mut out = String::new();
    for (i, part) in query.parts.iter().enumerate() {
        if i > 0 {
            match query.unions[i - 1] {
                UnionKind::All => out.push_str(" UNION ALL "),
                UnionKind::Distinct => out.push_str(" UNION "),
            }
        }
        out.push_str(&single_query_to_string(part));
    }
    out
}

/// Renders a single (non-union) query.
pub fn single_query_to_string(query: &SingleQuery) -> String {
    query.clauses.iter().map(clause_to_string).collect::<Vec<_>>().join(" ")
}

/// Renders one clause.
pub fn clause_to_string(clause: &Clause) -> String {
    match clause {
        Clause::Match(m) => {
            let mut out = String::new();
            if m.optional {
                out.push_str("OPTIONAL ");
            }
            out.push_str("MATCH ");
            out.push_str(&m.patterns.iter().map(path_to_string).collect::<Vec<_>>().join(", "));
            if let Some(w) = &m.where_clause {
                out.push_str(" WHERE ");
                out.push_str(&expr_to_string(w));
            }
            out
        }
        Clause::Unwind(u) => {
            format!("UNWIND {} AS {}", expr_to_string(&u.expr), ident(&u.alias))
        }
        Clause::With(w) => {
            let mut out = format!("WITH {}", projection_to_string(&w.projection));
            if let Some(pred) = &w.where_clause {
                out.push_str(" WHERE ");
                out.push_str(&expr_to_string(pred));
            }
            out
        }
        Clause::Return(p) => format!("RETURN {}", projection_to_string(p)),
    }
}

/// Renders a projection body (shared by `WITH` and `RETURN`).
pub fn projection_to_string(p: &Projection) -> String {
    let mut out = String::new();
    if p.distinct {
        out.push_str("DISTINCT ");
    }
    match &p.items {
        ProjectionItems::Star => out.push('*'),
        ProjectionItems::Items(items) => {
            out.push_str(
                &items
                    .iter()
                    .map(|item| match &item.alias {
                        Some(alias) => {
                            format!("{} AS {}", expr_to_string(&item.expr), ident(alias))
                        }
                        None => expr_to_string(&item.expr),
                    })
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
    }
    if !p.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        out.push_str(
            &p.order_by
                .iter()
                .map(|o| {
                    if o.ascending {
                        expr_to_string(&o.expr)
                    } else {
                        format!("{} DESC", expr_to_string(&o.expr))
                    }
                })
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    if let Some(skip) = &p.skip {
        out.push_str(" SKIP ");
        out.push_str(&expr_to_string(skip));
    }
    if let Some(limit) = &p.limit {
        out.push_str(" LIMIT ");
        out.push_str(&expr_to_string(limit));
    }
    out
}

/// Renders a path pattern.
pub fn path_to_string(path: &PathPattern) -> String {
    let mut out = String::new();
    if let Some(v) = &path.variable {
        out.push_str(&ident(v));
        out.push_str(" = ");
    }
    out.push_str(&node_to_string(&path.start));
    for segment in &path.segments {
        out.push_str(&relationship_to_string(&segment.relationship));
        out.push_str(&node_to_string(&segment.node));
    }
    out
}

/// Renders a node pattern.
pub fn node_to_string(node: &NodePattern) -> String {
    let mut out = String::from("(");
    if let Some(v) = &node.variable {
        out.push_str(&ident(v));
    }
    for label in &node.labels {
        out.push(':');
        out.push_str(&ident(label));
    }
    if !node.properties.is_empty() {
        if node.variable.is_some() || !node.labels.is_empty() {
            out.push(' ');
        }
        out.push_str(&property_map_to_string(&node.properties));
    }
    out.push(')');
    out
}

/// Renders a relationship pattern including its arrow decoration.
pub fn relationship_to_string(rel: &RelationshipPattern) -> String {
    let mut detail = String::new();
    if let Some(v) = &rel.variable {
        detail.push_str(&ident(v));
    }
    if !rel.labels.is_empty() {
        detail.push(':');
        detail.push_str(&rel.labels.iter().map(|l| ident(l)).collect::<Vec<_>>().join("|"));
    }
    if let Some(length) = &rel.length {
        detail.push('*');
        match (length.min, length.max) {
            (Some(min), Some(max)) if min == max => detail.push_str(&min.to_string()),
            (Some(min), Some(max)) => detail.push_str(&format!("{min}..{max}")),
            (Some(min), None) => detail.push_str(&format!("{min}..")),
            (None, Some(max)) => detail.push_str(&format!("..{max}")),
            (None, None) => {}
        }
    }
    if !rel.properties.is_empty() {
        if !detail.is_empty() {
            detail.push(' ');
        }
        detail.push_str(&property_map_to_string(&rel.properties));
    }
    let body = if detail.is_empty() { String::new() } else { format!("[{detail}]") };
    match rel.direction {
        RelDirection::Outgoing => format!("-{body}->"),
        RelDirection::Incoming => format!("<-{body}-"),
        RelDirection::Undirected => format!("-{body}-"),
    }
}

fn property_map_to_string(properties: &[(String, Expr)]) -> String {
    let body = properties
        .iter()
        .map(|(k, v)| format!("{}: {}", ident(k), expr_to_string(v)))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// Renders an expression with minimal but sufficient parenthesization.
pub fn expr_to_string(expr: &Expr) -> String {
    render_expr(expr, 0)
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

fn render_expr(expr: &Expr, parent_prec: u8) -> String {
    match expr {
        Expr::Literal(lit) => literal_to_string(lit),
        Expr::Variable(v) => ident(v).into_owned(),
        Expr::Parameter(p) => format!("${p}"),
        Expr::Property(base, key) => format!("{}.{}", render_expr(base, 10), ident(key)),
        Expr::Unary(op, inner) => {
            let rendered = render_expr(inner, 9);
            let text = match op {
                UnaryOp::Not => format!("NOT {rendered}"),
                UnaryOp::Neg => format!("-{rendered}"),
                UnaryOp::Pos => format!("+{rendered}"),
            };
            // NOT binds between AND and comparisons.
            let prec = if *op == UnaryOp::Not { 4 } else { 9 };
            maybe_paren(text, prec, parent_prec)
        }
        Expr::Binary(op, lhs, rhs) => {
            let prec = precedence(*op);
            let lhs_text = render_expr(lhs, prec);
            // Use prec + 1 on the right so non-associative chains reproduce
            // the original grouping when reparsed (all our binary operators
            // are parsed left-associatively except `^`).
            let rhs_prec = if *op == BinaryOp::Pow { prec } else { prec + 1 };
            let rhs_text = render_expr(rhs, rhs_prec);
            maybe_paren(format!("{lhs_text} {} {rhs_text}", op_text(*op)), prec, parent_prec)
        }
        Expr::IsNull { expr, negated } => {
            let text = if *negated {
                format!("{} IS NOT NULL", render_expr(expr, 6))
            } else {
                format!("{} IS NULL", render_expr(expr, 6))
            };
            maybe_paren(text, 5, parent_prec)
        }
        Expr::List(items) => {
            format!("[{}]", items.iter().map(|e| render_expr(e, 0)).collect::<Vec<_>>().join(", "))
        }
        Expr::Map(entries) => {
            let body = entries
                .iter()
                .map(|(k, v)| format!("{}: {}", ident(k), render_expr(v, 0)))
                .collect::<Vec<_>>()
                .join(", ");
            format!("{{{body}}}")
        }
        Expr::FunctionCall { name, args } => {
            format!(
                "{name}({})",
                args.iter().map(|a| render_expr(a, 0)).collect::<Vec<_>>().join(", ")
            )
        }
        Expr::AggregateCall { func, distinct, arg } => {
            if *distinct {
                format!("{}(DISTINCT {})", func.name(), render_expr(arg, 0))
            } else {
                format!("{}({})", func.name(), render_expr(arg, 0))
            }
        }
        Expr::CountStar { distinct } => {
            if *distinct {
                "COUNT(DISTINCT *)".to_string()
            } else {
                "COUNT(*)".to_string()
            }
        }
        Expr::Exists(query) => format!("EXISTS {{ {} }}", query_to_string(query)),
        Expr::Case { branches, otherwise } => {
            let mut out = String::from("CASE");
            for (cond, value) in branches {
                out.push_str(&format!(
                    " WHEN {} THEN {}",
                    render_expr(cond, 0),
                    render_expr(value, 0)
                ));
            }
            if let Some(e) = otherwise {
                out.push_str(&format!(" ELSE {}", render_expr(e, 0)));
            }
            out.push_str(" END");
            out
        }
    }
}

fn maybe_paren(text: String, prec: u8, parent_prec: u8) -> String {
    if prec < parent_prec {
        format!("({text})")
    } else {
        text
    }
}

fn literal_to_string(lit: &Literal) -> String {
    match lit {
        Literal::Integer(v) => v.to_string(),
        Literal::Float(v) => {
            // Keep a decimal point so the value re-lexes as a float.
            if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                v.to_string()
            }
        }
        Literal::String(s) => {
            let escaped = s.replace('\\', "\\\\").replace('\'', "\\'");
            format!("'{escaped}'")
        }
        Literal::Boolean(true) => "TRUE".to_string(),
        Literal::Boolean(false) => "FALSE".to_string(),
        Literal::Null => "NULL".to_string(),
    }
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
