//! Micro-benchmarks of the substrates: parser, evaluator, SMT solver,
//! G-expression construction, and the two normalizers (tree vs. arena).

use cypher_parser::parse_query;
use graphqe_bench::microbench::bench;
use property_graph::{evaluate_query, PropertyGraph};
use smt::{Solver, Term};

fn main() {
    println!("substrates");
    let text = "MATCH (reader:Person)-[:READ]->(book:Book)<-[:WRITE]-(writer) \
                WHERE reader.name = 'Alice' RETURN writer.name";
    bench("parser/listing1", 20, || {
        std::hint::black_box(parse_query(text).unwrap());
    });

    let graph = PropertyGraph::paper_example();
    let query = parse_query(text).unwrap();
    bench("evaluator/listing1", 20, || {
        std::hint::black_box(evaluate_query(&graph, &query).unwrap());
    });

    let parsed = parse_query(text).unwrap();
    let mut store = gexpr::GStore::new();
    bench("gexpr/build_listing1", 20, || {
        std::hint::black_box(gexpr::build_into(&mut store, &parsed).unwrap());
    });

    let built = gexpr::build_query(&parsed).unwrap();
    bench("gexpr/normalize_tree_listing1", 20, || {
        std::hint::black_box(gexpr::normalize_tree(&built.expr));
    });
    bench("gexpr/normalize_arena_listing1", 20, || {
        std::hint::black_box(gexpr::normalize(&built.expr));
    });

    bench("smt/lia_unsat", 20, || {
        let mut solver = Solver::new();
        let x = Term::int_var("x");
        solver.assert(Term::le(x.clone(), Term::int(3)));
        solver.assert(Term::ge(x, Term::int(5)));
        assert!(solver.check().is_unsat());
    });
}
