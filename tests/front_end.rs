//! Pins of the Cypher front end and of the two Table II implementations.
//!
//! - Printing round-trips: over every corpus text and the rewritten and
//!   mutated variants of the corpus's left queries, `parse(print(q)) == q`,
//!   and printing the re-parsed query gives the same text again.
//! - Malformed input fails the same way: each entry of a table of inputs
//!   covering every lexer and parser error path is pinned to its exact
//!   error kind, message and span (the server returns them as
//!   `invalid_query` diagnostics).
//! - The normalizer's rules and the checker's independent port of them
//!   agree step for step (rule, part, clause, after-state) and on the
//!   fixpoint. Certificates rely on that agreement; this test states it
//!   directly. It lives here because the root crate may depend on both
//!   crates and the checker must not depend on the normalizer.

use cyeqset::{cyeqset, cyneqset};
use cypher_normalizer::{normalize_query_with, DerivationStep};
use cypher_parser::pretty::query_to_string;
use cypher_parser::{parse_query, ParseErrorKind, Span, MAX_NESTING};

/// Both queries of every corpus pair: 592 texts.
fn corpus_texts() -> Vec<String> {
    cyeqset().into_iter().chain(cyneqset()).flat_map(|pair| [pair.left, pair.right]).collect()
}

/// The left query of every corpus pair.
fn corpus_left_texts() -> Vec<String> {
    cyeqset().into_iter().chain(cyneqset()).map(|pair| pair.left).collect()
}

/// Every equivalence-preserving rewrite (`cyeqset::rewrite::all_rewrites`)
/// of each text.
fn rewritten(texts: &[String]) -> Vec<String> {
    let rewrites = |text: &String| cyeqset::rewrite::all_rewrites(text).into_iter();
    texts.iter().flat_map(rewrites).map(|(_, rewrite)| rewrite).collect()
}

/// Every mutation (`cyeqset::mutate::mutate`, rotation starts 0 to 4) of
/// each text.
fn mutated(texts: &[String]) -> Vec<String> {
    let mutation = |text: &String, index| cyeqset::mutate::mutate(text, index).expect(text).1;
    texts.iter().flat_map(|text| (0..5).map(move |index| mutation(text, index))).collect()
}

/// The tier-1 query set: the corpus texts, the rewrites and the mutations
/// of the corpus's left queries.
fn tier_one_texts() -> Vec<String> {
    let left = corpus_left_texts();
    let (corpus, rewrites, mutations) = (corpus_texts(), rewritten(&left), mutated(&left));
    assert_eq!((corpus.len(), rewrites.len(), mutations.len()), (592, 560, 1_480));
    corpus.into_iter().chain(rewrites).chain(mutations).collect()
}

/// The long-run query set: every mutation of every rewrite of the corpus's
/// left queries.
fn long_run_texts() -> Vec<String> {
    let texts = mutated(&rewritten(&corpus_left_texts()));
    assert_eq!(texts.len(), 2_800);
    texts
}

// ---------------------------------------------------------------------------
// Printing round-trips
// ---------------------------------------------------------------------------

fn assert_round_trips(texts: &[String]) {
    for text in texts {
        let query = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let printed = query_to_string(&query);
        let reparsed = parse_query(&printed).unwrap_or_else(|e| panic!("`{printed}`: {e}"));
        assert_eq!(reparsed, query, "parse(print(q)) != q for {text}\n  printed: {printed}");
        assert_eq!(query_to_string(&reparsed), printed, "printing is not idempotent for {text}");
    }
}

#[test]
fn printing_round_trips_over_the_corpus_and_its_variants() {
    assert_round_trips(&tier_one_texts());
}

/// The long run of [`printing_round_trips_over_the_corpus_and_its_variants`].
/// CI runs it with `--ignored`.
#[test]
#[ignore = "long run: cargo test --release --test front_end -- --ignored"]
fn printing_round_trips_over_the_mutated_rewrites() {
    assert_round_trips(&long_run_texts());
}

// ---------------------------------------------------------------------------
// Error table
// ---------------------------------------------------------------------------

/// `(input, message, span)` of every lexical error path. A lexical error is
/// reported even after an earlier syntax error: the whole input is
/// tokenized first.
const LEXICAL_ERRORS: &[(&str, &str, (usize, usize))] = &[
    ("MATCH (n) WHERE n.name = 'Alice RETURN n", "unterminated string literal", (25, 40)),
    ("MATCH (n) WHERE n.name = 'Alice\\", "unterminated string literal", (25, 32)),
    ("MATCH (n RETURN 'open", "unterminated string literal", (16, 21)),
    ("MATCH (n) /* never closed RETURN n", "unterminated block comment", (10, 34)),
    ("MATCH (`Person RETURN n", "unterminated backtick-quoted identifier", (7, 23)),
    ("MATCH (n) WHERE n.name = 'a\\qb' RETURN n", "unknown escape sequence `\\q`", (27, 29)),
    ("MATCH (n) WHERE n.a ! 1 RETURN n", "unexpected character `!` (did you mean `!=`?)", (20, 21)),
    ("MATCH (n) WHERE n.a = $ RETURN n", "expected parameter name after `$`", (22, 23)),
    (
        "MATCH (n) WHERE n.a = 9223372036854775808 RETURN n",
        "integer literal `9223372036854775808` out of range",
        (22, 41),
    ),
    ("MATCH (n) RETURN n @", "unexpected character `@`", (19, 20)),
];

/// `(input, message, span)` of every syntax error path but the nesting
/// bound, including a message describing each kind of token.
const SYNTAX_ERRORS: &[(&str, &str, (usize, usize))] = &[
    (
        "MATCH (a)-[*4294967296]->(b) RETURN a",
        "invalid variable-length hop count 4294967296",
        (22, 23),
    ),
    (
        "MATCH (a)-[*1..4294967296]->(b) RETURN a",
        "invalid variable-length hop count 4294967296",
        (25, 26),
    ),
    (
        "MATCH (a)<-[r]->(b) RETURN a",
        "a relationship pattern cannot point in both directions",
        (16, 17),
    ),
    ("MATCH (n) RETURN n extra", "unexpected identifier `extra` after query", (19, 24)),
    ("MATCH (n) RETURN n; RETURN 1", "unexpected `RETURN` after query", (20, 26)),
    ("MATCH (n RETURN n", "expected `)`, found `RETURN`", (9, 15)),
    ("MATCH (n:) RETURN n", "expected node label, found `)`", (9, 10)),
    ("MATCH (n) WHERE RETURN n", "expected an expression, found `RETURN`", (16, 22)),
    (
        "",
        "expected a clause (MATCH, OPTIONAL MATCH, UNWIND, WITH or RETURN), found end of input",
        (0, 0),
    ),
    (
        "WHERE n.a = 1",
        "expected a clause (MATCH, OPTIONAL MATCH, UNWIND, WITH or RETURN), found `WHERE`",
        (0, 5),
    ),
    ("MATCH (n) RETURN SUM(n.a, n.b)", "aggregate SUM takes exactly one argument, got 2", (30, 30)),
    (
        "MATCH (n) RETURN foo(DISTINCT n.a)",
        "DISTINCT is only allowed in aggregate calls, not `foo`",
        (34, 34),
    ),
    ("MATCH (n) WHERE EXISTS n.a RETURN n", "expected `{` or `(` after EXISTS", (23, 24)),
    (
        "MATCH (n) RETURN CASE n.a WHEN 1 THEN 2 END",
        "simple CASE (`CASE x WHEN v THEN r ... END`) is not supported; rewrite it in the \
         searched form `CASE WHEN x = v THEN r ... END`",
        (22, 23),
    ),
    ("MATCH (n) RETURN n.'na\\'me'", "expected property key, found string \"na'me\"", (19, 27)),
    ("MATCH (n) RETURN n AS 1.5", "expected alias after AS, found float `1.5`", (22, 25)),
    ("UNWIND [1] AS $x RETURN 1", "expected alias after AS, found parameter `$x`", (14, 16)),
    ("MATCH (n) RETURN n.a IS 1", "expected `NULL`, found integer `1`", (24, 25)),
];

fn assert_fails_with(input: &str, kind: ParseErrorKind, message: &str, span: (usize, usize)) {
    let error = parse_query(input).expect_err(input);
    let expected = (kind, message, Span::new(span.0, span.1));
    assert_eq!((error.kind, error.message.as_str(), error.span), expected, "{input}");
}

#[test]
fn each_malformed_input_fails_with_its_pinned_error() {
    for &(input, message, span) in LEXICAL_ERRORS {
        assert_fails_with(input, ParseErrorKind::Lexical, message, span);
    }
    for &(input, message, span) in SYNTAX_ERRORS {
        assert_fails_with(input, ParseErrorKind::Syntax, message, span);
    }
}

/// A query of `n` nested parentheses around one literal.
fn nested_parentheses(n: usize) -> String {
    format!("MATCH (n) RETURN {}1{}", "(".repeat(n), ")".repeat(n))
}

/// `1 + 1 + ...`: `n` operators, so the sum nests `n + 1` levels deep.
fn operator_chain(n: usize) -> String {
    format!("RETURN 1{}", " + 1".repeat(n))
}

#[test]
fn nesting_beyond_the_bound_fails_with_its_pinned_error() {
    // The RETURN item is one bracket level, each parenthesis another.
    assert_eq!(MAX_NESTING, 64);
    assert!(parse_query(&nested_parentheses(63)).is_ok());
    assert!(parse_query(&operator_chain(63)).is_ok());
    let too_deep = "query nests deeper than 64 levels";
    assert_fails_with(&nested_parentheses(65), ParseErrorKind::Syntax, too_deep, (81, 82));
    assert_fails_with(&operator_chain(64), ParseErrorKind::Syntax, too_deep, (264, 264));
}

// ---------------------------------------------------------------------------
// The two Table II implementations agree
// ---------------------------------------------------------------------------

/// Normalizes `text` with both implementations and requires the same
/// derivation and the same fixpoint. Returns the rules that fired.
fn assert_rules_agree(text: &str) -> Vec<&'static str> {
    let query = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let mut steps: Vec<DerivationStep> = Vec::new();
    let normalized = normalize_query_with(&query, &mut steps);
    let trace = graphqe_checker::rules::normalize_with_trace(&query);
    let replayed = trace.last().map_or(&query, |step| &step.after);
    assert_eq!(steps.len(), trace.len(), "step counts differ for {text}");
    for (index, (step, replay)) in steps.iter().zip(&trace).enumerate() {
        assert_eq!(
            (step.rule, step.part, step.clause),
            (replay.rule, replay.part, replay.clause),
            "step {index} differs for {text}"
        );
        assert_eq!(step.after, replay.after, "step {index}'s after-state differs for {text}");
    }
    assert_eq!(&normalized, replayed, "fixpoints differ for {text}");
    steps.iter().map(|step| step.rule).collect()
}

#[test]
fn the_rule_implementations_agree_over_the_corpus_and_its_variants() {
    for text in tier_one_texts() {
        assert_rules_agree(&text);
    }
}

/// The long run of
/// [`the_rule_implementations_agree_over_the_corpus_and_its_variants`]. CI
/// runs it with `--ignored`.
#[test]
#[ignore = "long run: cargo test --release --test front_end -- --ignored"]
fn the_rule_implementations_agree_over_the_mutated_rewrites() {
    for text in long_run_texts() {
        assert_rules_agree(&text);
    }
}

#[test]
fn the_rule_implementations_agree_where_each_rule_fires() {
    let cases: [(&str, &[&str]); 9] = [
        // ①, also inside a UNION ALL.
        (
            "MATCH (a)-[:R]-(b) RETURN a UNION ALL MATCH (c) RETURN c",
            &["undirected", "standardize"],
        ),
        // ② expands each length into its own part.
        ("MATCH (a)-[:R*1..3]->(b) RETURN b", &["var_length", "standardize"]),
        // ③ on `WITH *`, whose expansion ④ then inlines.
        (
            "MATCH (a)-[r]->(b) WITH * RETURN b.name",
            &["return_star", "redundant_with", "standardize"],
        ),
        // ③ on a `WITH *` that stays (it filters).
        ("MATCH (x)-[e]->(y) WITH * WHERE y.a = 1 RETURN x", &["return_star", "standardize"]),
        // ④ with aliases, one of them used in a later MATCH's property map.
        (
            "MATCH (x)-[e]->(y) WITH x.name AS name, y AS z MATCH (z)-->(w {k: name}) \
             RETURN name, z.age ORDER BY name SKIP 1 LIMIT 2",
            &["redundant_with", "standardize"],
        ),
        // ⑥ among other conjuncts, with the dropped variable used later.
        (
            "MATCH (a), (b)-[r]->(c) WHERE a.x = 1 AND id(a) = id(b) AND c.y > 2 \
             RETURN b, c",
            &["id_equality", "standardize"],
        ),
        // ⑥ leaves an EXISTS body alone, as rules ④ to ⑥ all do.
        (
            "MATCH (a), (b) WHERE id(b) = id(a) AND EXISTS { MATCH (b)-->(m) RETURN m } \
             RETURN a",
            &["id_equality", "standardize"],
        ),
        // ⑤ on names that are already standard records no step.
        ("MATCH (n1)-[r1]->(n2), p1 = (n2)-->(n3) RETURN n1, r1, p1", &[]),
        // No rule fires across a deduplicating UNION.
        ("MATCH (n1)-[]-(n2) RETURN n1 UNION MATCH (n1) RETURN n1", &[]),
    ];
    for (text, expected) in cases {
        assert_eq!(assert_rules_agree(text), expected, "{text}");
    }
}
