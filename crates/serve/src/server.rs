//! The server: acceptor, bounded admission queue, worker pool, routing.
//!
//! ## Request lifecycle
//!
//! 1. The **acceptor** thread `accept()`s connections and `try_send`s each
//!    into a bounded [`std::sync::mpsc::sync_channel`]. A full queue is
//!    answered inline with `503 overloaded` and the connection is closed —
//!    admission control happens before any request bytes are read, so an
//!    overloaded server's backlog is bounded by `queue_capacity`, never by
//!    client behavior.
//! 2. A **worker** thread takes the connection and serves its keep-alive
//!    session: read request → route → respond, until the client closes,
//!    errs, or asks for `Connection: close`. Workers call
//!    [`graphqe::GraphQE::prove_batch`] with `threads = 1`, so each
//!    worker's thread-local caches (SMT formula, summand, arena) stay warm
//!    across every request it ever serves — the entire point of running the
//!    prover as a service. The big artifacts — parsed queries, normalized
//!    forms and their G-expression builds, counterexample pools and search
//!    outcomes — live in process-wide shared caches, so one worker's work
//!    warms every other worker too and adding workers does not multiply
//!    cache memory or cold misses. A request's counterexample search runs
//!    on the worker serving it.
//! 3. Request handling is wrapped in `catch_unwind` (on top of the per-pair
//!    isolation inside the batch loop): a handler panic degrades to `500
//!    internal` on that connection and the worker lives on.
//!
//! ## Cache-epoch hygiene
//!
//! All cache clears go through the generation-guarded
//! [`graphqe::counterexample::clear_pool_cache_if_unchanged`]: a worker whose
//! arena budget trips, or an admin `clear-caches` request that names the
//! generation it observed, clears only if nobody else has cleared since.
//! Concurrent tenants therefore collapse racing clears into one, and a
//! stale admin request cannot wipe the warm state other requests are using
//! — it gets `409` and the current generation to retry with.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphqe::verdict::Verdict;
use graphqe::GraphQE;

use crate::http::{read_request, write_response, ReadError, Request};
use crate::json::{self, Json};
use crate::protocol::{error_body, outcome_json, ProveRequest};

/// Server configuration. `Default` is tuned for a loopback deployment on a
/// small box; SERVING.md's runbook section explains how to size each knob.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port `0` picks a free port (tests); the bound address
    /// is reported by [`Server::local_addr`].
    pub addr: String,
    /// Worker threads (`0` = all available cores). Workers share the
    /// process-wide parse, normalize, pool and search-memo caches and keep
    /// only the small SMT and summand memos thread-local, so scaling workers
    /// adds concurrency without multiplying cache memory. Each worker proves
    /// its requests, counterexample searches included, on its own thread.
    pub workers: usize,
    /// Bound on connections accepted but not yet picked up by a worker.
    /// Connections beyond it are rejected with `503 overloaded`.
    pub queue_capacity: usize,
    /// Per-pair deadline applied when the client does not send one (`None` =
    /// no default deadline).
    pub default_deadline: Option<Duration>,
    /// Ceiling on client-supplied deadlines (`None` = unclamped).
    pub max_deadline: Option<Duration>,
    /// Maximum pairs per `/v1/prove` request.
    pub max_pairs: usize,
    /// Maximum request-body size in bytes (declared `Content-Length` above
    /// this is rejected with `413` before the body is read).
    pub max_body_bytes: usize,
    /// Socket read timeout: an idle keep-alive connection is reaped after
    /// this long, freeing its worker.
    pub read_timeout: Duration,
    /// The prover configuration every request starts from. Per-request
    /// limits (deadline, budgets) are overlaid on `prover.limits`.
    pub prover: GraphQE,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            default_deadline: Some(Duration::from_secs(30)),
            max_deadline: Some(Duration::from_secs(120)),
            max_pairs: 256,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(30),
            prover: GraphQE::new(),
        }
    }
}

/// Monotonic counters exposed by `/v1/stats`, all relaxed: they are
/// observability, not synchronization.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    pairs: AtomicU64,
    equivalent: AtomicU64,
    not_equivalent: AtomicU64,
    unknown: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_bad_request: AtomicU64,
    panics_recovered: AtomicU64,
    epoch_resets: AtomicU64,
}

struct Shared {
    config: ServeConfig,
    counters: Counters,
    queue_depth: AtomicUsize,
    shutdown: AtomicBool,
    started: Instant,
}

/// A running server. Dropping it without calling [`Server::shutdown`] leaks
/// the listener threads until process exit (fine for a `main` that never
/// returns; tests shut down explicitly).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and spawns the acceptor and worker threads.
    pub fn spawn(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let worker_count = match config.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        let shared = Arc::new(Shared {
            config,
            counters: Counters::default(),
            queue_depth: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });

        let (sender, receiver) = sync_channel::<TcpStream>(shared.config.queue_capacity);
        let receiver = Arc::new(Mutex::new(receiver));
        let mut workers = Vec::with_capacity(worker_count);
        for index in 0..worker_count {
            let receiver = Arc::clone(&receiver);
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("graphqe-serve-worker-{index}"))
                    .spawn(move || worker_loop(&shared, &receiver))?,
            );
        }

        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("graphqe-serve-acceptor".to_string())
            .spawn(move || acceptor_loop(&acceptor_shared, &listener, sender))?;

        Ok(Server { shared, local_addr, acceptor: Some(acceptor), workers })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains queued connections, and joins every thread.
    /// In-flight requests finish; idle keep-alive connections are dropped at
    /// their next read timeout.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock `accept()` with a throwaway connection; harmless if the
        // acceptor already exited.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The acceptor owned the only sender; once it is joined, workers see
        // the channel disconnect after draining what was queued.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn acceptor_loop(
    shared: &Shared,
    listener: &TcpListener,
    sender: std::sync::mpsc::SyncSender<TcpStream>,
) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else { continue };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wakeup connection (or a late client) during shutdown.
            return;
        }
        match sender.try_send(stream) {
            Ok(()) => {
                shared.queue_depth.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(mut stream)) => {
                // Structured overload response, written inline from the
                // acceptor so a saturated worker pool cannot delay the
                // rejection.
                shared.counters.rejected_overload.fetch_add(1, Ordering::Relaxed);
                let body = error_body(
                    "overloaded",
                    "admission queue is full; retry with backoff",
                    vec![("retry_after_ms", json::num(100.0))],
                );
                let _ = write_response(&mut stream, 503, &body, false);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

fn worker_loop(shared: &Shared, receiver: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let guard = receiver.lock().unwrap_or_else(|poison| poison.into_inner());
            guard.recv()
        };
        let Ok(stream) = stream else { return }; // acceptor gone, queue drained
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        serve_connection(shared, stream);
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(request) => request,
            Err(ReadError::Closed) => return,
            Err(ReadError::BadRequest(message)) => {
                shared.counters.rejected_bad_request.fetch_add(1, Ordering::Relaxed);
                let body = error_body("bad_request", &message, vec![]);
                let _ = write_response(&mut write_half, 400, &body, false);
                return;
            }
            Err(ReadError::LengthRequired) => {
                shared.counters.rejected_bad_request.fetch_add(1, Ordering::Relaxed);
                let body = error_body(
                    "bad_request",
                    "a request body requires Content-Length (chunked encoding is unsupported)",
                    vec![],
                );
                let _ = write_response(&mut write_half, 411, &body, false);
                return;
            }
            Err(ReadError::PayloadTooLarge { declared, limit }) => {
                shared.counters.rejected_bad_request.fetch_add(1, Ordering::Relaxed);
                let body = error_body(
                    "bad_request",
                    &format!("request body of {declared} bytes exceeds the limit"),
                    vec![("limit", json::num(limit as f64))],
                );
                let _ = write_response(&mut write_half, 413, &body, false);
                return;
            }
        };
        let close_after = request.close;
        // Second layer of panic isolation: `prove_batch` already
        // degrades a panicking *pair*; this guards the envelope (routing,
        // JSON building) so one poisoned connection cannot kill a worker.
        let handled = catch_unwind(AssertUnwindSafe(|| route(shared, &request)));
        let (status, body) = handled.unwrap_or_else(|_| {
            shared.counters.panics_recovered.fetch_add(1, Ordering::Relaxed);
            (500, error_body("internal", "the request handler panicked; see server logs", vec![]))
        });
        let keep_alive = !close_after && status < 500;
        if write_response(&mut write_half, status, &body, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

fn route(shared: &Shared, request: &Request) -> (u16, String) {
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/prove") => handle_prove(shared, &request.body),
        ("GET", "/v1/health") => handle_health(shared),
        ("GET", "/v1/stats") => handle_stats(shared),
        ("POST", "/v1/admin/clear-caches") => handle_clear_caches(&request.body),
        (_, "/v1/prove") | (_, "/v1/health") | (_, "/v1/stats") | (_, "/v1/admin/clear-caches") => {
            (405, error_body("method_not_allowed", "wrong method for this path", vec![]))
        }
        _ => (404, error_body("not_found", "unknown path", vec![])),
    }
}

fn handle_prove(shared: &Shared, body: &[u8]) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(body) else {
        shared.counters.rejected_bad_request.fetch_add(1, Ordering::Relaxed);
        return (400, error_body("bad_request", "request body is not UTF-8", vec![]));
    };
    let parsed = match ProveRequest::parse(text, shared.config.max_pairs) {
        Ok(parsed) => parsed,
        Err(message) => {
            shared.counters.rejected_bad_request.fetch_add(1, Ordering::Relaxed);
            return (400, error_body("bad_request", &message, vec![]));
        }
    };

    // Overlay the request's limits on the server's base prover. The clone is
    // shallow config (no caches live in `GraphQE` itself), so per-request
    // provers share every warm cache layer.
    let mut prover = shared.config.prover.clone();
    prover.limits.deadline =
        parsed.effective_deadline(shared.config.default_deadline, shared.config.max_deadline);
    if let Some(budget) = parsed.smt_step_budget {
        prover.limits.smt_step_budget = budget;
    }
    if let Some(budget) = parsed.search_graph_budget {
        prover.limits.search_graph_budget = budget;
    }

    let wall = Instant::now();
    // `threads = 1`: this worker thread runs all pairs itself, keeping its
    // thread-local caches warm; concurrency comes from the worker pool.
    let (mut outcomes, epoch_resets) = prover.prove_batch(&parsed.pairs, 1);

    // Certificates are emitted (and checked) after the batch, so the prove
    // loop itself is identical with and without them. A definite verdict
    // whose certificate cannot be emitted or fails the independent checker
    // is downgraded here, before the tallies below — the response never
    // claims a definite verdict it cannot back with a valid artifact.
    let mut certificates: Vec<Option<String>> = vec![None; outcomes.len()];
    if parsed.certificates {
        for (index, outcome) in outcomes.iter_mut().enumerate() {
            let (left, right) = &parsed.pairs[index];
            let (verdict, certificate) =
                prover.certify_verdict(left, right, outcome.verdict.clone(), true);
            outcome.verdict = verdict;
            certificates[index] = certificate.map(|cert| cert.to_json());
        }
    }
    let wall = wall.elapsed();

    let mut equivalent = 0u64;
    let mut not_equivalent = 0u64;
    let mut unknown = 0u64;
    for outcome in &outcomes {
        match &outcome.verdict {
            Verdict::Equivalent(_) => equivalent += 1,
            Verdict::NotEquivalent(_) => not_equivalent += 1,
            Verdict::Unknown { .. } => unknown += 1,
        }
    }
    let counters = &shared.counters;
    counters.pairs.fetch_add(outcomes.len() as u64, Ordering::Relaxed);
    counters.equivalent.fetch_add(equivalent, Ordering::Relaxed);
    counters.not_equivalent.fetch_add(not_equivalent, Ordering::Relaxed);
    counters.unknown.fetch_add(unknown, Ordering::Relaxed);
    counters.epoch_resets.fetch_add(epoch_resets, Ordering::Relaxed);

    let results = outcomes
        .iter()
        .zip(&certificates)
        .zip(&parsed.pairs)
        .map(|((outcome, certificate), (left, right))| {
            outcome_json(outcome, (left, right), certificate.as_deref())
        })
        .collect();
    let body = json::obj(vec![
        ("results", Json::Arr(results)),
        ("equivalent", json::num(equivalent as f64)),
        ("not_equivalent", json::num(not_equivalent as f64)),
        ("unknown", json::num(unknown as f64)),
        ("wall_us", json::num(wall.as_micros() as f64)),
        ("epoch_resets", json::num(epoch_resets as f64)),
    ]);
    (200, body.to_string())
}

fn handle_health(shared: &Shared) -> (u16, String) {
    let body = json::obj(vec![
        ("status", json::str("ok")),
        ("uptime_ms", json::num(shared.started.elapsed().as_millis() as f64)),
    ]);
    (200, body.to_string())
}

fn handle_stats(shared: &Shared) -> (u16, String) {
    let counters = &shared.counters;
    let load = |counter: &AtomicU64| json::num(counter.load(Ordering::Relaxed) as f64);
    let (parse_hits, parse_misses) = graphqe::parse_cache_stats();
    let (normalize_hits, normalize_misses) = graphqe::normalize_cache_stats();
    let (memo_hits, memo_misses) = graphqe::counterexample::search_memo_stats();
    let (smt_hits, smt_misses) = smt::formula_cache_stats();
    let (cert_emitted, cert_check_failures) = graphqe::certificate_counters();
    let liastar = liastar::cache_counters();
    let rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        json::num(if total == 0 { 0.0 } else { hits as f64 / total as f64 })
    };
    let body = json::obj(vec![
        ("requests", load(&counters.requests)),
        ("pairs", load(&counters.pairs)),
        ("equivalent", load(&counters.equivalent)),
        ("not_equivalent", load(&counters.not_equivalent)),
        ("unknown", load(&counters.unknown)),
        ("rejected_overload", load(&counters.rejected_overload)),
        ("rejected_bad_request", load(&counters.rejected_bad_request)),
        ("panics_recovered", load(&counters.panics_recovered)),
        ("epoch_resets", load(&counters.epoch_resets)),
        ("cert_emitted", json::num(cert_emitted as f64)),
        ("cert_check_failures", json::num(cert_check_failures as f64)),
        ("queue_depth", json::num(shared.queue_depth.load(Ordering::Relaxed) as f64)),
        ("queue_capacity", json::num(shared.config.queue_capacity as f64)),
        (
            "pool_cache_generation",
            json::num(graphqe::counterexample::pool_cache_generation() as f64),
        ),
        (
            "caches",
            json::obj(vec![
                ("parse_hit_rate", rate(parse_hits, parse_misses)),
                ("normalize_hit_rate", rate(normalize_hits, normalize_misses)),
                ("search_memo_hit_rate", rate(memo_hits, memo_misses)),
                ("smt_formula_hit_rate", rate(smt_hits, smt_misses)),
                ("summand_hit_rate", rate(liastar.summand_hits, liastar.summand_misses)),
                ("disjoint_hit_rate", rate(liastar.disjoint_hits, liastar.disjoint_misses)),
            ]),
        ),
    ]);
    (200, body.to_string())
}

/// `POST /v1/admin/clear-caches`: clears the process-wide pool and
/// search-memo caches (and the parse cache with its normalized forms). With
/// `{"expected_generation":N}` the clear is
/// generation-guarded: it happens only if no clear has landed since the
/// caller observed generation `N` (from `/v1/stats`), otherwise `409` — the
/// compare-and-clear that keeps one tenant's reset from wiping another's
/// freshly rebuilt state.
fn handle_clear_caches(body: &[u8]) -> (u16, String) {
    let expected = match std::str::from_utf8(body).ok().filter(|text| !text.trim().is_empty()) {
        None => None,
        Some(text) => match Json::parse(text) {
            Ok(doc) => match doc.get("expected_generation") {
                None | Some(Json::Null) => None,
                Some(value) => match value.as_u64() {
                    Some(generation) => Some(generation),
                    None => {
                        return (
                            400,
                            error_body(
                                "bad_request",
                                "\"expected_generation\" must be an integer from 0 to 2^53 - 1",
                                vec![],
                            ),
                        )
                    }
                },
            },
            Err(e) => {
                return (400, error_body("bad_request", &format!("invalid JSON: {e}"), vec![]))
            }
        },
    };
    let cleared = match expected {
        Some(generation) => graphqe::counterexample::clear_pool_cache_if_unchanged(generation),
        None => {
            graphqe::counterexample::clear_pool_cache();
            true
        }
    };
    if cleared {
        graphqe::clear_parse_cache();
    }
    let body = json::obj(vec![
        ("cleared", Json::Bool(cleared)),
        ("generation", json::num(graphqe::counterexample::pool_cache_generation() as f64)),
    ]);
    (if cleared { 200 } else { 409 }, body.to_string())
}
