//! # property-graph
//!
//! The property graph substrate of GraphQE-rs: the graph model of
//! Definition 1 of *"Proving Cypher Query Equivalence"* (ICDE 2025),
//! isomorphism-based graph pattern matching with relationship-injective
//! semantics (Definition 2), and a bag-semantics reference evaluator for the
//! Cypher fragment the prover supports.
//!
//! The evaluator serves as the **oracle** of the reproduction: property tests
//! check that queries proven equivalent return identical bags on random
//! graphs, and the prover's counterexample search uses it to certify
//! non-equivalence with a concrete differing graph. There is one evaluation
//! path: a query lowers once, eagerly, into a [`QueryPlan`] ([`plan`]) that
//! resolves nothing by name at run time, the matcher ([`matching`]) scans
//! each graph's flat node and relationship vectors in id order, and rows are
//! flat vectors keyed by interned symbols ([`expr::Row`]). Its reference is
//! the certificate checker's independent evaluator, which
//! `tests/checker_differential.rs` compares it against row for row.
//!
//! A plan is reusable across graphs (and threads): the counterexample search
//! builds one per query and evaluates every pool graph through it with
//! [`evaluate_planned`].
//!
//! ```
//! use property_graph::{evaluate_query, PropertyGraph};
//! use cypher_parser::parse_query;
//!
//! let graph = PropertyGraph::paper_example();
//! let query = parse_query(
//!     "MATCH (reader:Person)-[:READ]->(b:Book)<-[:WRITE]-(writer) \
//!      WHERE reader.name = 'Alice' RETURN writer.name",
//! )
//! .unwrap();
//! let result = evaluate_query(&graph, &query).unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod expr;
pub mod fxhash;
pub mod generator;
pub mod graph;
pub mod index;
pub mod matching;
pub mod plan;
pub mod rng;
pub mod value;

pub use eval::{evaluate_planned, evaluate_query, evaluate_rows, EvalError, QueryResult, Rows};
pub use expr::{Row, SymId, SymbolTable};
pub use generator::{GeneratorConfig, GraphGenerator};
pub use graph::{EntityId, NameId, NameTable, NodeId, PropertyGraph, RelData, RelId};
pub use plan::QueryPlan;
pub use value::Value;
