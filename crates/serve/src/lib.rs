//! Prover-as-a-service: a long-running batch equivalence server.
//!
//! GraphQE's warm-path economics — sub-millisecond parses, single-digit
//! millisecond end-to-end proofs once the parse/plan/memo/SMT/summand caches
//! are populated — only pay off inside a process that lives longer than one
//! batch. This crate is that process: a hand-rolled HTTP/1.1 server over
//! `std::net` (the workspace builds offline, so no hyper/tokio/serde) that
//! accepts query-pair batches, proves them through
//! [`graphqe::GraphQE::prove_batch`], and keeps every cache layer
//! warm across requests and tenants.
//!
//! The pieces, bottom-up:
//!
//! - [`json`] — a minimal ordered-object JSON value, parser and serializer.
//! - [`http`] — the HTTP/1.1 subset: keep-alive, `Content-Length` framing,
//!   `Expect: 100-continue`, bounded request heads.
//! - [`protocol`] — the wire format, including the 1:1 mapping from
//!   [`graphqe::FailureCategory`] onto stable `error.code` strings.
//! - [`server`] — acceptor + bounded admission queue + worker pool, the
//!   endpoints, and the generation-guarded cache-epoch hygiene.
//!
//! SERVING.md at the repository root is the operator-facing spec and
//! runbook; the loopback integration tests in `tests/server.rs` are the
//! executable version of its examples.
//!
//! # Quickstart
//!
//! ```no_run
//! use graphqe_serve::{ServeConfig, Server};
//!
//! let server = Server::spawn(ServeConfig::default()).expect("bind");
//! println!("listening on {}", server.local_addr());
//! // ... POST {"pairs":[["MATCH (n) RETURN n","MATCH (m) RETURN m"]]}
//! //     to /v1/prove ...
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod protocol;
pub mod server;

pub use server::{ServeConfig, Server};
