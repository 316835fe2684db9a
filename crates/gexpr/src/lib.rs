//! # gexpr
//!
//! The U-semiring based **G-expression** algebraic representation of Cypher
//! queries — the central contribution of *"Proving Cypher Query
//! Equivalence"* (ICDE 2025).
//!
//! A G-expression `g(t)` models a Cypher query as a natural-number semiring
//! expression that returns the multiplicity of an arbitrary tuple `t` in the
//! query result over an *unspecified* property graph. The crate provides:
//!
//! * the algebra itself ([`GExpr`], [`GTerm`], [`GAtom`]) with the
//!   graph-native functions `Node`, `Rel`, `Lab`, `src`/`tgt` and
//!   `UNBOUNDED`;
//! * construction from parsed Cypher ASTs straight into the hash-consed
//!   [`GStore`] arena ([`build_into`]; [`build_query`] externalizes the tree)
//!   covering the features of Fig. 4 and Table I of the paper;
//! * algebraic [`normalize()`]-ation into a sum-of-summations-of-products form
//!   on which the `liastar` crate decides equivalence.
//!
//! ```
//! use cypher_parser::parse_query;
//! use gexpr::build_query;
//!
//! let query = parse_query("MATCH (n1)-[r]->(n2) WHERE n1.age = 59 RETURN n1").unwrap();
//! let output = build_query(&query).unwrap();
//! assert_eq!(output.columns, 1);
//! println!("{}", output.expr); // Σ_{e0,e1,e2}(Node(e0) × Rel(e1) × ... × [e0.age = 59])
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod builder;
pub mod expr;
pub mod normalize;
pub mod term;

pub use arena::{
    peak_node_count, reset_peak_node_count, thread_store_epoch, thread_store_node_count,
    with_thread_store, GStore, NodeId, Sym, TermId,
};
pub use builder::{
    build_into, build_query, BuildError, BuildOutput, ColumnKind, UnsupportedFeature,
};
pub use expr::GExpr;
pub use normalize::{is_zero_one, normalize, normalize_tree};
pub use term::{CmpOp, GAggKind, GAtom, GConst, GTerm, VarId};
