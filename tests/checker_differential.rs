//! The evaluator's oracle: `property_graph::evaluate_query` against the
//! certificate checker's independent evaluator
//! (`graphqe_checker::eval::evaluate_query`), which shares no code with it —
//! not the matcher, not the row representation, not `Value` or its
//! arithmetic and ordering.
//!
//! Every NOT_EQUIVALENT verdict is a graph on which the evaluator returns
//! different bags, so the two evaluators must agree exactly: the same
//! columns, the same rows **in the same order** (`LIMIT` without `ORDER BY`
//! observes production order), and an error exactly when the other errors.
//! Graphs and values cross into the checker's types through the same bridge
//! certificates use (`graph_cert_of` + `GraphCert::build`, `value_of`).
//!
//! The pools: seeded random graphs from both counterexample-pool
//! configurations against a query mix covering every candidate-enumeration
//! shape and the evaluator's projection paths (with a long `--ignored` run
//! of thousands of graphs); every dataset pair on graphs drawn from its
//! own vocabulary; rewritten and mutated query pairs; the evaluator's unit-test
//! queries (erroring ones included); and hand-built edge shapes (NaN and
//! `-0.0` ordering, integer overflow, undirected self-loops, var-length
//! paths). The property harness is hand-rolled: a deterministic PRNG drives
//! case generation and every failure message carries the inputs needed to
//! reproduce it.

use cypher_parser::ast::Query;
use cypher_parser::{parse_and_check, parse_query};
use graphqe::certificate::{graph_cert_of, value_of};
use property_graph::rng::DetRng;
use property_graph::{evaluate_query, GeneratorConfig, GraphGenerator, PropertyGraph, Value};

/// How many evaluations agreed, by outcome.
#[derive(Default)]
struct Tally {
    rows: usize,
    errors: usize,
}

impl Tally {
    /// Evaluates `query` on `graph` with both evaluators and asserts they
    /// agree. Rows are compared through their `Debug` form, which tells
    /// `-0.0` from `0.0`, `1` from `1.0`, and prints every NaN alike.
    fn check(&mut self, graph: &PropertyGraph, query: &Query, text: &str, context: &str) {
        let checker_graph = graph_cert_of(graph).build().expect("a well-formed graph rebuilds");
        let ours = evaluate_query(graph, query);
        let theirs = graphqe_checker::eval::evaluate_query(&checker_graph, query);
        match (ours, theirs) {
            (Ok(ours), Ok(theirs)) => {
                assert_eq!(
                    ours.columns, theirs.columns,
                    "columns diverged ({context}) on `{text}` over graph:\n{graph}"
                );
                let ours_rows: Vec<Vec<_>> =
                    ours.rows.iter().map(|row| row.iter().map(value_of).collect()).collect();
                assert_eq!(
                    format!("{ours_rows:?}"),
                    format!("{:?}", theirs.rows),
                    "rows diverged ({context}) on `{text}` over graph:\n{graph}"
                );
                self.rows += 1;
            }
            (Err(_), Err(_)) => self.errors += 1,
            (ours, theirs) => panic!(
                "one evaluator errored ({context}) on `{text}` over graph:\n{graph}\n\
                 evaluator: {ours:?}\nchecker: {theirs:?}"
            ),
        }
    }

    /// [`Tally::check`] for a query given as text; texts the semantic check
    /// rejects are skipped, as the prover never evaluates them.
    fn check_text(&mut self, graph: &PropertyGraph, text: &str, context: &str) {
        if let Ok(query) = parse_and_check(text) {
            self.check(graph, &query, text, context);
        }
    }
}

/// The random-graph query mix: every candidate-enumeration shape (labels,
/// directions, undirected hops over self-loops, type alternatives, property
/// constraints, variable-length paths, injectivity), the row operations
/// around matching (ordering, grouping, the `OPTIONAL MATCH` null-fill,
/// `*` projections, unions, `EXISTS`), and aggregate arithmetic, grouped and
/// global (which over zero rows still returns one row).
const RANDOM_GRAPH_QUERIES: &[&str] = &[
    "MATCH (n) RETURN n",
    "MATCH (n:Person) RETURN n",
    "MATCH (n:Person:Book) RETURN n",
    "MATCH (n {p1: 1}) RETURN n",
    "MATCH (n:Person {name: 'Alice'}) RETURN n.name",
    "MATCH (a)-[r]->(b) RETURN a, b",
    "MATCH (a)<-[r:READ]-(b) RETURN a",
    "MATCH (a)-[r:READ]-(b) RETURN r",
    "MATCH (a)-[r:READ|WRITE]->(b) RETURN b",
    "MATCH (a)-[r {date: 1}]->(b) RETURN a",
    "MATCH (a)-[r:READ|KNOWS {date: 1}]-(b) RETURN a, r, b",
    "MATCH (a)-[r:READ|KNOWS]-(a) RETURN a, r",
    "MATCH (p1)-[x]->(b)<-[y]-(p2) RETURN p1, p2",
    "MATCH (a:Person)-[:READ]->(b), (a)-[:KNOWS]->(c) RETURN a, b, c",
    "MATCH (x)-[*1..3]->(y) RETURN y",
    "MATCH (x)-[:KNOWS *1..2]-(y) RETURN x",
    "MATCH p = (a)-[:READ]->(b) RETURN p",
    "MATCH (a)-[r]->(b) WHERE a.age > 2 RETURN a.name, b.p1",
    "MATCH (n) RETURN n.p1 LIMIT 3",
    "MATCH (n) RETURN DISTINCT n.p1",
    "MATCH (a)-[r]->(a) RETURN a",
    "MATCH (a)-[r]->(b) WHERE a.age > 2 RETURN a.name, b.p1 ORDER BY a.name",
    "UNWIND [1, 2, 2] AS x RETURN x, COUNT(*)",
    "MATCH (n) OPTIONAL MATCH (n)-[r:READ]->(m) RETURN n, r",
    "MATCH (n) WHERE EXISTS { MATCH (n)-[:READ]->() } RETURN n",
    "MATCH (n) WHERE NOT EXISTS { MATCH (n)-[:READ]->(m) RETURN m } RETURN n.name",
    "MATCH (n) RETURN SUM(n.p1) / COUNT(n), MAX(n.p1) - MIN(n.p1), -MIN(n.age), \
     NOT (COUNT(*) > 1)",
    "MATCH (n) RETURN n.name, SUM(n.p1) / COUNT(n), MAX(n.p1) - MIN(n.p1), -MIN(n.age), \
     NOT (COUNT(*) > 1)",
    "MATCH (n:NoSuchLabel) RETURN SUM(n.p1) / COUNT(n), MAX(n.p1) - MIN(n.p1), -MIN(n.age), \
     NOT (COUNT(*) > 1)",
    "MATCH (n:NoSuchLabel) RETURN n.name, SUM(n.p1) / COUNT(n), -MIN(n.age)",
    "MATCH (n) WITH n.name AS name, COUNT(*) AS c WHERE c > 1 RETURN name, c ORDER BY name",
    "MATCH (a)-[r:READ]->(b) RETURN *",
    "MATCH (n) OPTIONAL MATCH (n)-[r:KNOWS]->(m) RETURN *",
    "MATCH (a)-[r]->(b) WITH * RETURN a, b",
    "MATCH (n:Person) RETURN n.p1 UNION MATCH (n:Book) RETURN n.p1",
    "MATCH (a)-[:READ]->(b) RETURN a UNION ALL MATCH (a)<-[:KNOWS]-(b) RETURN a",
];

/// Checks every query of the random-graph mix on `graphs` generated graphs
/// (drawn from `seed`) and on the empty and paper graphs. The graphs
/// alternate between the counterexample pools' two configurations — at most
/// 6 nodes and 10 relationships, and at most 9 nodes and 16 — over the
/// mix's own vocabulary, so its labels, keys and constants occur. Returns
/// how many evaluations agreed.
fn check_random_graphs(graphs: usize, seed: u64) -> usize {
    let queries: Vec<Query> = RANDOM_GRAPH_QUERIES
        .iter()
        .map(|text| parse_and_check(text).unwrap_or_else(|e| panic!("`{text}`: {e}")))
        .collect();
    let small = GeneratorConfig::from_queries(&queries.iter().collect::<Vec<_>>());
    let large = GeneratorConfig { max_nodes: 9, max_relationships: 16, ..small.clone() };
    let mut tally = Tally::default();
    let mut check_all = |graph: &PropertyGraph, context: &str| {
        for (query, text) in queries.iter().zip(RANDOM_GRAPH_QUERIES) {
            tally.check(graph, query, text, context);
        }
    };
    let mut rng = DetRng::seed_from_u64(seed);
    for round in 0..graphs {
        let graph_seed = rng.next_u64();
        let (config, name) = if round % 2 == 0 { (&small, "small") } else { (&large, "large") };
        let graph = GraphGenerator::with_config(graph_seed, config.clone()).generate();
        check_all(&graph, &format!("{name} graph, seed {graph_seed}"));
    }
    check_all(&PropertyGraph::new(), "empty graph");
    check_all(&PropertyGraph::paper_example(), "paper example");
    tally.rows + tally.errors
}

#[test]
fn evaluators_agree_on_random_graphs() {
    let agreed = check_random_graphs(60, 0x0D15_EA5E);
    assert_eq!(agreed, 62 * RANDOM_GRAPH_QUERIES.len(), "a query failed the check");
}

/// The long run of [`evaluators_agree_on_random_graphs`]: thousands of
/// graphs from a fixed seed. CI runs it with `--ignored`.
#[test]
#[ignore = "long run: cargo test --release --test checker_differential -- --ignored"]
fn evaluators_agree_on_random_graphs_long_run() {
    let agreed = check_random_graphs(10_000, 0x5EED_D1FF);
    assert_eq!(agreed, 10_002 * RANDOM_GRAPH_QUERIES.len(), "a query failed the check");
}

/// Every pair of both datasets: both queries on the empty and paper graphs
/// and six graphs drawn from the pair's own vocabulary (the distribution the
/// counterexample search explores).
#[test]
fn evaluators_agree_on_every_dataset_pair() {
    let pairs: Vec<_> = cyeqset::cyeqset().into_iter().chain(cyeqset::cyneqset()).collect();
    assert!(pairs.len() > 250, "datasets unexpectedly small: {}", pairs.len());
    let mut tally = Tally::default();
    for pair in &pairs {
        let (Ok(q1), Ok(q2)) = (parse_and_check(&pair.left), parse_and_check(&pair.right)) else {
            continue;
        };
        let vocabulary = GeneratorConfig::from_queries(&[&q1, &q2]);
        let mut graphs = vec![PropertyGraph::new(), PropertyGraph::paper_example()];
        graphs.extend(GraphGenerator::with_config(0xFEED, vocabulary.clone()).generate_many(4));
        graphs.extend(
            GraphGenerator::with_config(
                0xFEED + 1,
                GeneratorConfig { max_nodes: 9, max_relationships: 16, ..vocabulary },
            )
            .generate_many(2),
        );
        for graph in &graphs {
            tally.check(graph, &q1, &pair.left, "dataset pair, left");
            tally.check(graph, &q2, &pair.right, "dataset pair, right");
        }
    }
    assert!(tally.rows > 4000, "the dataset sweep barely ran: {} agreeing results", tally.rows);
}

/// Rewritten (equivalence-preserving) and mutated (equivalence-breaking)
/// variants of dataset-shaped bases: both sides of every pair on graphs
/// drawn from the pair's own vocabulary.
#[test]
fn evaluators_agree_on_rewritten_and_mutated_pairs() {
    const BASES: &[&str] = &[
        "MATCH (a:Person)-[r:READ]->(b:Book) RETURN a.name, b.title",
        "MATCH (a:Person)-[r1:READ]->(b)<-[r2:WRITE]-(c) WHERE r1 <> r2 RETURN c.name",
        "MATCH (a)-[r]->(b) WHERE a.age > 2 AND b.age < 5 RETURN a, b",
        "MATCH (u:User)-[f:FOLLOWS]->(v:User) WHERE v.age > 1 RETURN u.name",
        "MATCH (a:Tag)<-[x:IN]-(b) RETURN b.p1",
        "MATCH (p:Person)-[:READ]->(b) RETURN DISTINCT b.title",
        "MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 2",
        "MATCH (n) OPTIONAL MATCH (n)-[r]->(m) RETURN n, r",
        "MATCH (p:Person)-[:READ]->(b) RETURN b.title, COUNT(*) ORDER BY b.title",
    ];
    let mut tally = Tally::default();
    let mut rng = DetRng::seed_from_u64(0xF1A7_0B5E);
    let mut cases = 0;
    while cases < 36 {
        let base = BASES[rng.range_usize(0, BASES.len())];
        let variant = if rng.range_usize(0, 2) == 0 {
            let rewrites = cyeqset::rewrite::all_rewrites(base);
            if rewrites.is_empty() {
                continue;
            }
            rewrites[rng.range_usize(0, rewrites.len())].1.clone()
        } else {
            match cyeqset::mutate::mutate(base, rng.range_usize(0, 5)) {
                Some((_, mutated)) => mutated,
                None => continue,
            }
        };
        cases += 1;
        let seed = rng.next_u64();
        let (Ok(q1), Ok(q2)) = (parse_and_check(base), parse_and_check(&variant)) else {
            continue;
        };
        let vocabulary = GeneratorConfig::from_queries(&[&q1, &q2]);
        let mut graphs = vec![PropertyGraph::paper_example()];
        graphs.extend(GraphGenerator::with_config(seed, vocabulary).generate_many(3));
        for graph in &graphs {
            let context = format!("graph seed {seed}");
            tally.check(graph, &q1, base, &context);
            tally.check(graph, &q2, &variant, &context);
        }
    }
    assert!(tally.rows > 200, "the rewrite sweep barely ran: {} agreeing results", tally.rows);
}

/// The evaluator's unit-test queries, on the empty and paper graphs. They
/// parse without the semantic check, so the erroring ones (`LIMIT -1`, a
/// `UNION` arity mismatch, an unbound `$param`) must error in both.
#[test]
fn evaluators_agree_on_the_unit_test_queries() {
    const QUERIES: &[&str] = &[
        "MATCH (reader:Person)-[:READ]->(book:Book)<-[:WRITE]-(writer) \
         WHERE reader.name = 'Alice' RETURN writer.name",
        "MATCH (p:Person) RETURN p.name AS name ORDER BY p.age DESC",
        "MATCH (p:Person) RETURN p.name ORDER BY p.name SKIP 1 LIMIT 1",
        "MATCH (p:Person)-[:READ]->(b) RETURN b.title",
        "MATCH (p:Person)-[:READ]->(b) RETURN DISTINCT b.title",
        "MATCH (p:Person) RETURN p.name UNION ALL MATCH (p:Person) RETURN p.name",
        "MATCH (p:Person) RETURN p.name UNION MATCH (p:Person) RETURN p.name",
        "MATCH (p:Person) WITH p.name AS name WHERE name <> 'Jack' RETURN name ORDER BY name",
        "MATCH (n) OPTIONAL MATCH (n)-[r]->(m) RETURN n, r",
        "MATCH (n) MATCH (n)-[r]->(m) RETURN n, r",
        "MATCH (n:Person) OPTIONAL MATCH (n)-[r:READ]->(b) WHERE b.language = 'French' \
         RETURN n.name, r",
        "MATCH (p:Person) RETURN COUNT(*), SUM(p.age), MIN(p.age), MAX(p.age)",
        "MATCH (p:Person)-[:READ]->(b:Book) RETURN b.title, COUNT(*) ORDER BY b.title",
        "MATCH (n:Missing) RETURN COUNT(n)",
        "MATCH (n:Missing) RETURN n.name, COUNT(n)",
        "MATCH (p:Person)-[:READ]->(b) RETURN COLLECT(b.title)",
        "MATCH (p:Person)-[:READ]->(b) RETURN COUNT(DISTINCT b.title)",
        "UNWIND [1, 2, 3] AS x RETURN x",
        "WITH [{c1: 0, c2: 1}, {c1: 2, c2: 3}] AS tmp UNWIND tmp AS row RETURN row.c1",
        "MATCH (n:Person) WHERE EXISTS { MATCH (n)-[:WRITE]->(b) RETURN b } RETURN n.name",
        "MATCH (a:Person)-[r:WRITE]->(b) RETURN *",
        "MATCH (a:Person), (b:Book) RETURN a, b",
        "MATCH (a:Person) MATCH (b:Person) RETURN a, b",
        "MATCH (p:Person) RETURN p.name ORDER BY p.name",
        "MATCH (p:Person) RETURN p.name ORDER BY p.name DESC",
        "MATCH (p:Person) RETURN p.name LIMIT 2",
        "MATCH (a:Person)-[r]->(b) WITH * RETURN a, r, b",
        "UNWIND [3, 1, 3, 2, 1] AS x RETURN DISTINCT x",
        "UNWIND [3, 1, 3, 2, 1] AS x RETURN COLLECT(DISTINCT x)",
        "UNWIND [2, 1] AS x RETURN x UNION UNWIND [1, 3] AS x RETURN x",
        "UNWIND [1, 1, 2, 2, 2] AS x RETURN COUNT(DISTINCT x)",
        "UNWIND [9007199254740993, 9007199254740992.0] AS x RETURN DISTINCT x",
        "MATCH (n1) WITH n1 ORDER BY n1.name LIMIT 1 MATCH (n1)-[]->(n2) RETURN n2",
        "MATCH (n1) WITH n1 ORDER BY n1.name LIMIT 1 MATCH (n2)<-[]-(n1) RETURN n2",
        "MATCH (n) RETURN n LIMIT -1",
        "MATCH (n) RETURN n UNION ALL MATCH (n) RETURN n, n.name",
        "MATCH (n) WHERE n.age = $age RETURN n",
    ];
    let mut tally = Tally::default();
    for (graph, name) in
        [(PropertyGraph::new(), "empty graph"), (PropertyGraph::paper_example(), "paper example")]
    {
        for text in QUERIES {
            let query = parse_query(text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
            tally.check(&graph, &query, text, name);
        }
    }
    // LIMIT -1 and the UNION arity mismatch error on both graphs; `$age`
    // errors only where a row reaches it (the paper graph).
    assert_eq!(tally.errors, 5, "the erroring queries must error in both evaluators");
}

/// Hand-built edge shapes the random pools reach rarely: NaN, `-0.0` and
/// `0.0` under `ORDER BY`, `DISTINCT`, `MIN`/`MAX`; integer overflow; an
/// undirected self-loop (matched once, not once per direction); and
/// var-length paths through a cycle.
#[test]
fn evaluators_agree_on_edge_shapes() {
    let mut graph = PropertyGraph::new();
    let a = graph.add_node(["N"], [("f", Value::Float(f64::NAN)), ("i", Value::Integer(i64::MAX))]);
    let b = graph.add_node(["N"], [("f", Value::Float(-0.0)), ("i", Value::Integer(i64::MIN))]);
    let c = graph.add_node(["N", "M"], [("f", Value::Float(0.0)), ("i", Value::Integer(1))]);
    let no_properties = Vec::<(String, Value)>::new;
    graph.add_relationship("E", a, a, no_properties());
    graph.add_relationship("E", a, b, no_properties());
    graph.add_relationship("F", b, c, no_properties());
    graph.add_relationship("E", c, a, no_properties());
    graph.add_relationship("F", c, c, no_properties());
    const QUERIES: &[&str] = &[
        "MATCH (n) RETURN n.f ORDER BY n.f",
        "MATCH (n) RETURN n.f ORDER BY n.f DESC",
        "MATCH (n) RETURN DISTINCT n.f",
        "MATCH (n) RETURN MIN(n.f), MAX(n.f), COLLECT(n.f)",
        "MATCH (n) RETURN n.i + 1, n.i - 1, n.i * 2, -n.i",
        "MATCH (n) RETURN SUM(n.i)",
        "MATCH (n) RETURN n.f = n.f, n.f < 1.0, n.f + 1",
        "MATCH (a)-[r]-(b) RETURN a, r, b",
        "MATCH (a)-[r]-(a) RETURN a, r",
        "MATCH (a)-[r:F]-(b) RETURN a, r, b",
        "MATCH (a)-[r]->(b), (b)-[s]-(c) RETURN r, s",
        "MATCH (a)-[*1..4]-(b) RETURN a, b",
        "MATCH p = (a)-[*0..3]->(b) RETURN p",
        "MATCH (a)-[rs *]->(b) RETURN rs",
        "MATCH (a)-[rs *2..]-(b:M) RETURN a, rs LIMIT 7",
    ];
    let mut tally = Tally::default();
    for text in QUERIES {
        tally.check_text(&graph, text, "edge shapes");
    }
    assert_eq!(tally.rows, QUERIES.len(), "every edge-shape query evaluates");
}
