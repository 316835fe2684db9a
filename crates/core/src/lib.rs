//! # graphqe
//!
//! **GraphQE** — an automated prover for Cypher query equivalence, the Rust
//! reproduction of *"Proving Cypher Query Equivalence"* (ICDE 2025).
//!
//! The prover follows the four-stage workflow of Fig. 3 in the paper:
//!
//! 1. **Syntax & semantic check** — [`cypher_parser::parse_and_check`];
//! 2. **Rule-based normalization** — [`cypher_normalizer::normalize_query`]
//!    (Table II rules);
//! 3. **G-expression construction** — [`gexpr::build_into`] (U-semiring
//!    based graph-native algebraic representation, built straight into the
//!    thread's hash-consed arena);
//! 4. **Decision** — [`liastar::check_equivalence`] (isomorphism matching +
//!    LIA\*-style SMT reasoning on the from-scratch [`smt`] solver).
//!
//! On top of the paper's pipeline the prover adds a **counterexample
//! search**: when equivalence cannot be proven, the reference evaluator is
//! run on a pool of small graphs, and a differing graph certifies
//! non-equivalence (this is how all CyNeqSet pairs are rejected).
//!
//! ```
//! use graphqe::GraphQE;
//!
//! let prover = GraphQE::new();
//! let verdict = prover.prove(
//!     "MATCH (a)-[r:READ]->(b) RETURN a.name",
//!     "MATCH (b)<-[r:READ]-(a) RETURN a.name",
//! );
//! assert!(verdict.is_equivalent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod certificate;
pub mod counterexample;
pub mod divide;
pub mod verdict;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

thread_local! {
    /// The last [`counterexample::pool_cache_generation`] this worker thread
    /// observed (`None` until its first budget trip); used to deduplicate
    /// process-global cache clears when several batch workers cross their
    /// arena budgets together.
    static POOL_CLEAR_SEEN: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

use cypher_parser::ast::{Clause, ProjectionItems, Query};
use cypher_parser::{parse_and_check, CheckError};
use gexpr::arena::ANode;
use gexpr::{build_into, with_thread_store, BuildError, BuildOutput, ColumnKind, GStore};
use graphqe_checker::cert::QueryCert;
use liastar::witness::{ProofRecord, SegmentRecord};
use liastar::{DecideOptions, Decision};

pub use certificate::certificate_counters;
use certificate::EvidenceLog;
pub use counterexample::SearchConfig;
pub use graphqe_checker::Certificate;
pub use verdict::{Counterexample, FailureCategory, ProofStats, StageTimings, Verdict};

// ---------------------------------------------------------------------------
// The parse cache: stages ① to ③ of one query text
// ---------------------------------------------------------------------------

/// Default capacity of the parse cache: one entry per distinct query text
/// (a parsed AST and its normalized form are a few KB), bounded like the
/// search memo.
const DEFAULT_PARSE_CACHE_CAPACITY: usize = 4096;

/// Text-keyed cache of the per-query stages, shared process-wide. Each entry
/// is the one record of its query text: the stage-① outcome
/// (`parse_and_check`) and, for a query that passes, a [`CheckedQuery`]
/// whose stage-②/③ record fills on first use. Semantic failures are cached
/// too — the checker is deterministic, and invalid queries resubmitted by a
/// service would otherwise re-parse every time.
static PARSE_CACHE: OnceLock<Mutex<ParseCache>> = OnceLock::new();

/// One memoized stage-① outcome per query text (failures included).
type ParseCache = cache::LruMap<String, Result<Arc<CheckedQuery>, CheckError>>;

fn parse_cache() -> MutexGuard<'static, ParseCache> {
    PARSE_CACHE
        .get_or_init(|| Mutex::new(cache::LruMap::new(DEFAULT_PARSE_CACHE_CAPACITY)))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

static PARSE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static PARSE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static PARSE_CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static NORMALIZE_HITS: AtomicU64 = AtomicU64::new(0);
static NORMALIZE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide hit/miss counters of the parse cache.
pub fn parse_cache_stats() -> (u64, u64) {
    (PARSE_CACHE_HITS.load(Ordering::Relaxed), PARSE_CACHE_MISSES.load(Ordering::Relaxed))
}

/// Process-wide count of parse-cache entries dropped by the capacity bound.
pub fn parse_cache_evictions() -> u64 {
    PARSE_CACHE_EVICTIONS.load(Ordering::Relaxed)
}

/// Current entry count of the parse cache.
pub fn parse_cache_len() -> usize {
    parse_cache().len()
}

/// Reconfigures the parse cache's capacity (clamped to at least 1),
/// evicting down immediately. Returns the previous capacity.
pub fn set_parse_cache_capacity(capacity: usize) -> usize {
    let mut cache = parse_cache();
    let previous = cache.capacity();
    let evicted = cache.set_capacity(capacity);
    PARSE_CACHE_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    previous
}

/// Drops every parse-cache entry, and with them every normalized form (pure
/// memo — eviction only costs re-parsing and re-normalizing). Benchmarks use
/// this to measure the cold stages.
pub fn clear_parse_cache() {
    parse_cache().clear();
}

/// Process-wide hit/miss counters of the entries' stage-② memo
/// ([`CheckedQuery::stages`]): a hit replays a memoized normalized form, a
/// miss normalizes.
pub fn normalize_cache_stats() -> (u64, u64) {
    (NORMALIZE_HITS.load(Ordering::Relaxed), NORMALIZE_MISSES.load(Ordering::Relaxed))
}

/// Process-wide count of normalized forms dropped by the capacity bound.
/// They live in parse-cache entries, so this is [`parse_cache_evictions`].
pub fn normalize_cache_evictions() -> u64 {
    parse_cache_evictions()
}

/// Drops every normalized form (with its build and certificate memos) and
/// keeps the parsed queries: the next prove of each text re-normalizes it.
pub fn clear_normalize_cache() {
    for entry in parse_cache().values_mut().flatten() {
        *entry = CheckedQuery::new(Arc::clone(&entry.query));
    }
}

/// Stage ① through the cache: the entry for `text`, or a fresh parse
/// (outside the lock — racing workers may both parse, benignly) cached as
/// its entry. This is what [`GraphQE::prove`] calls; it is public so
/// benchmarks and service frontends can measure or pre-warm the stage
/// directly.
pub fn parse_check_cached(text: &str) -> Result<Arc<CheckedQuery>, CheckError> {
    if let Some(hit) = parse_cache().get(text) {
        PARSE_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return hit;
    }
    PARSE_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let outcome = parse_and_check(text).map(|query| CheckedQuery::new(Arc::new(query)));
    let evicted = parse_cache().insert(text.to_string(), outcome.clone());
    PARSE_CACHE_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    outcome
}

/// One query text's record in the parse cache: the query that passed stage
/// ①, plus its stage-②/③ record once an untripped normalization has filled
/// it. Obtained through [`parse_check_cached`].
#[derive(Debug)]
pub struct CheckedQuery {
    query: Arc<Query>,
    /// The stage-② memo, shared by every prove and certificate of the text.
    stages: OnceLock<Arc<NormalizedStages>>,
}

impl CheckedQuery {
    fn new(query: Arc<Query>) -> Arc<CheckedQuery> {
        Arc::new(CheckedQuery { query, stages: OnceLock::new() })
    }

    /// The checked query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Stage ② through this entry: the memoized stages, or a normalization
    /// under the ambient run token that becomes the memo unless the run has
    /// tripped — a trip reflects this call's deadline, not a property of the
    /// query. Racing workers may both normalize; the first memo wins.
    pub fn stages(&self) -> Result<Arc<NormalizedStages>, limits::Trip> {
        if let Some(stages) = self.stages.get() {
            NORMALIZE_HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(stages));
        }
        NORMALIZE_MISSES.fetch_add(1, Ordering::Relaxed);
        let stages = Arc::new(NormalizedStages::new(Arc::clone(&self.query))?);
        if limits::trip().is_some() {
            return Ok(stages);
        }
        Ok(Arc::clone(self.stages.get_or_init(|| stages)))
    }

    /// The memoized stages, if an untripped normalization has filled them.
    pub fn memoized_stages(&self) -> Option<&Arc<NormalizedStages>> {
        self.stages.get()
    }
}

/// Stages ② and ③ of one query: its Table II normalized form plus the
/// G-expression build of that form and the query's certificate attestation,
/// both memoized. Shared across threads (`Send + Sync` is compile-enforced
/// below) through its parse-cache entry ([`CheckedQuery::stages`]); a warm
/// re-certification skips both `rule_normalize` and `gexpr_build` entirely.
pub struct NormalizedStages {
    /// The query as it passed stage ①.
    source: Arc<Query>,
    /// The stage-② form of `source`: its Table II normalization, or `source`
    /// itself for a prover with [`GraphQE::normalize`] off.
    normalized: Query,
    /// Stage ③ memo: the root id of the build of `normalized` in the last
    /// arena that built it, or the build error. Errors are memoized for
    /// good — `gexpr` is limits-free, so its outcome is a deterministic
    /// property of the query.
    build: Mutex<Option<BuildMemo>>,
    /// Certificate memo: the query's attestation (source text, Table II
    /// derivation, fixpoint), filled by the first certificate request, so
    /// proving never pays for it.
    cert: OnceLock<QueryCert>,
}

// The point of the shared cache: entries cross threads. A field that
// introduces `Rc`/`RefCell` fails compilation here, not in a consumer.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CheckedQuery>();
    assert_send_sync::<NormalizedStages>();
};

/// What a [`NormalizedStages`] entry remembers of stage ③.
enum BuildMemo {
    /// The build, whose ids are valid in the arena carrying `stamp`
    /// ([`GStore::stamp`]).
    Built { stamp: u64, output: Arc<BuildOutput> },
    /// The build failed, as it does in every arena.
    Failed(BuildError),
}

impl NormalizedStages {
    /// Stage ② of `source` under the ambient run token, with empty memos.
    fn new(source: Arc<Query>) -> Result<NormalizedStages, limits::Trip> {
        let normalized = cypher_normalizer::try_normalize_query_with(&source, &mut ())?;
        Ok(NormalizedStages::of(source, normalized))
    }

    /// `source` with `normalized` as its stage-② form, with empty memos.
    fn of(source: Arc<Query>, normalized: Query) -> NormalizedStages {
        NormalizedStages { source, normalized, build: Mutex::new(None), cert: OnceLock::new() }
    }

    /// The normalized (Table II) form of the source query.
    pub fn normalized(&self) -> &Query {
        &self.normalized
    }

    /// The query's certificate attestation, memoized like the build: the
    /// first caller records the derivation, every later one reads it.
    pub(crate) fn query_cert(&self) -> &QueryCert {
        self.cert.get_or_init(|| certificate::query_cert(&self.source))
    }

    /// Stage ③ on the normalized form into `store`, memoized per arena: a
    /// caller whose store still carries the stamp of the last build gets
    /// that build back (no build, clone or intern); any other caller — a
    /// thread with its own arena, or one whose arena was epoch-reset since —
    /// builds into its store, and its build becomes the memo.
    pub fn build(&self, store: &mut GStore) -> Result<Arc<BuildOutput>, BuildError> {
        let stamp = store.stamp();
        match &*self.build.lock().unwrap_or_else(PoisonError::into_inner) {
            Some(BuildMemo::Built { stamp: built_in, output }) if *built_in == stamp => {
                return Ok(Arc::clone(output))
            }
            Some(BuildMemo::Failed(error)) => return Err(error.clone()),
            _ => {}
        }
        let (built, memo) = match build_into(store, &self.normalized) {
            Ok(output) => {
                let output = Arc::new(output);
                (Ok(Arc::clone(&output)), BuildMemo::Built { stamp, output })
            }
            Err(error) => (Err(error.clone()), BuildMemo::Failed(error)),
        };
        *self.build.lock().unwrap_or_else(PoisonError::into_inner) = Some(memo);
        built
    }

    /// [`NormalizedStages::build`] into the calling thread's arena, its
    /// wall-clock (a memo probe on warm hits) added to `timings.build`.
    fn build_timed(&self, timings: &mut StageTimings) -> Result<Arc<BuildOutput>, BuildError> {
        let build_start = Instant::now();
        let built = with_thread_store(|store| self.build(store));
        timings.build += build_start.elapsed();
        built
    }
}

impl std::fmt::Debug for NormalizedStages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NormalizedStages").finish_non_exhaustive()
    }
}

/// Resource budgets and deadline of one proof run. Everything defaults to
/// **off**: with the default limits the prover's behavior (and its verdicts)
/// is bit-identical to a build without the limits layer — no token is
/// installed and every cooperative checkpoint is a no-op probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProveLimits {
    /// Wall-clock deadline per [`GraphQE::prove`] call (`None` = no
    /// deadline). On expiry the current stage unwinds and the verdict is
    /// `Unknown` with [`FailureCategory::Timeout`].
    pub deadline: Option<std::time::Duration>,
    /// Maximum SMT CDCL(T) refinement iterations per prove call, summed over
    /// all solver invocations (`0` = unlimited). Exhaustion degrades SMT
    /// answers to `Unknown` and the verdict to
    /// [`FailureCategory::BudgetExhausted`].
    pub smt_step_budget: u64,
    /// Maximum candidate graphs the counterexample search may evaluate per
    /// prove call (`0` = unlimited).
    pub search_graph_budget: u64,
    /// Budget on the per-worker hash-consed arena during batch proving: once
    /// a worker's thread-local `GStore` holds more nodes than this after
    /// finishing a pair, the worker evicts every thread-local cache
    /// (`liastar::reset_thread_caches`). Keeps long batch runs in bounded
    /// memory; `0` disables the budget. Unlike the fields above this is a
    /// between-pairs janitor, not a mid-proof trip — it never changes a
    /// verdict.
    pub arena_node_budget: usize,
}

impl Default for ProveLimits {
    fn default() -> Self {
        ProveLimits {
            deadline: None,
            smt_step_budget: 0,
            search_graph_budget: 0,
            // Roughly a few hundred MB of arena + memo tables in the worst
            // case; the full CyEqSet+CyNeqSet run stays well under it, so
            // the default only kicks in for service-scale streams.
            arena_node_budget: 1 << 20,
        }
    }
}

/// The machine's available parallelism, probed once per process.
///
/// `std::thread::available_parallelism` re-reads the cgroup CPU quota on
/// every call — tens of microseconds inside a container. The quota is fixed
/// for the life of the process, so one probe serves all.
pub fn machine_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl ProveLimits {
    /// `true` when any mid-proof limit (deadline or step budget) is set —
    /// i.e. when proving installs a [`limits::RunToken`]. The arena budget
    /// does not count: it acts between pairs, with no token.
    pub fn is_active(&self) -> bool {
        self.deadline.is_some() || self.smt_step_budget > 0 || self.search_graph_budget > 0
    }

    /// A fresh run token for one prove call, or `None` when no mid-proof
    /// limit is set (the limits-off path installs nothing, keeping it
    /// bit-identical to a build without the limits layer).
    fn token(&self) -> Option<Arc<limits::RunToken>> {
        if !self.is_active() {
            return None;
        }
        Some(Arc::new(limits::RunToken::new(
            self.deadline.map(|deadline| Instant::now() + deadline),
            self.smt_step_budget,
            self.search_graph_budget,
        )))
    }
}

/// One result of [`GraphQE::prove_batch`]: the verdict plus the
/// wall-clock latency of the whole pipeline for that pair.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The verdict for the pair.
    pub verdict: Verdict,
    /// End-to-end latency of proving the pair (as observed by the worker).
    pub latency: std::time::Duration,
}

/// The GraphQE prover with its configuration.
#[derive(Debug, Clone)]
pub struct GraphQE {
    /// Run the stage-⓪ static analyzer ([`graphqe_analyzer`]) on both
    /// queries before proving: flow-sensitive type inference produces an
    /// output-column signature per query, a definite type error short-cuts
    /// to `Unknown(TypeError)`, and discriminating signatures prioritize the
    /// counterexample search. Disabled only by ablation benchmarks;
    /// verdict-neutral (a NOT_EQUIVALENT still always carries a concrete
    /// witness).
    pub analyze: bool,
    /// Apply the Table II normalization rules (stage ②). Disabled only by the
    /// ablation benchmarks.
    pub normalize: bool,
    /// Search for a counterexample when equivalence cannot be proven.
    pub search_counterexamples: bool,
    /// Configuration of the counterexample search.
    pub search_config: SearchConfig,
    /// Decide with the reference tree normalizer instead of the memoizing
    /// hash-consed arena. Verdicts are identical either way; this exists so
    /// benchmarks can measure the arena speedup against the paper-faithful
    /// baseline.
    pub use_tree_normalizer: bool,
    /// Resource budgets and deadline per prove call (plus the batch-time
    /// arena budget). All mid-proof limits default to off; see
    /// [`ProveLimits`].
    pub limits: ProveLimits,
    /// Has no effect: the counterexample search
    /// ([`counterexample::find_counterexample`]) always runs on the calling
    /// thread. Kept only because the benchmark sets `search_threads: 1`; it
    /// goes when a benchmark change drops that setting and retires the
    /// `cache.plan.*` rows.
    pub search_threads: usize,
    /// Consult (and populate) the process-wide parse cache, which holds
    /// stages ① to ③ of each query text, in [`GraphQE::prove`]. Off, every
    /// prove parses and normalizes its queries afresh. Disabled by benchmark
    /// baselines that must pay the real parse cost every run; outcomes are
    /// identical either way.
    pub use_parse_cache: bool,
    /// Take stage ② (and the stage-③ build) from the parse-cache entry's
    /// memo ([`CheckedQuery::stages`]; only effective with
    /// [`GraphQE::normalize`] and [`GraphQE::use_parse_cache`] on). Off,
    /// every prove normalizes its queries afresh. Disabled by benchmark
    /// baselines that must pay the real normalization cost every run;
    /// outcomes are identical either way.
    pub use_normalize_cache: bool,
}

impl Default for GraphQE {
    fn default() -> Self {
        GraphQE {
            analyze: true,
            normalize: true,
            search_counterexamples: true,
            search_config: SearchConfig::default(),
            use_tree_normalizer: false,
            limits: ProveLimits::default(),
            search_threads: 0,
            use_parse_cache: true,
            use_normalize_cache: true,
        }
    }
}

impl GraphQE {
    /// Creates a prover with the default configuration.
    pub fn new() -> Self {
        GraphQE::default()
    }

    /// Stage ① for one query text, through the process-wide parse cache
    /// (unless [`GraphQE::use_parse_cache`] is off).
    fn parse_checked(&self, text: &str) -> Result<Arc<CheckedQuery>, CheckError> {
        if self.use_parse_cache {
            parse_check_cached(text)
        } else {
            parse_and_check(text).map(|query| CheckedQuery::new(Arc::new(query)))
        }
    }

    /// Stage ② of one checked query: the entry's memo with both caches on, a
    /// one-shot normalization with either off, and the query itself as its
    /// own stage-② form without `normalize`. Certificates pass `normalize:
    /// true` whatever [`GraphQE::normalize`] says.
    fn stages_of(
        &self,
        entry: &CheckedQuery,
        normalize: bool,
    ) -> Result<Arc<NormalizedStages>, limits::Trip> {
        let source = &entry.query;
        if !normalize {
            Ok(Arc::new(NormalizedStages::of(Arc::clone(source), Query::clone(source))))
        } else if self.use_parse_cache && self.use_normalize_cache {
            entry.stages()
        } else {
            NormalizedStages::new(Arc::clone(source)).map(Arc::new)
        }
    }

    /// Proves the (non-)equivalence of two Cypher query texts.
    ///
    /// With active [`GraphQE::limits`] a fresh run token governs this call:
    /// on a deadline or budget trip the pipeline unwinds cooperatively and
    /// the verdict is `Unknown` with the trip's [`FailureCategory`] — never
    /// a wrong definite verdict (a proof or witness completed before the
    /// trip was observed is still reported).
    pub fn prove(&self, q1: &str, q2: &str) -> Verdict {
        self.prove_with_stats(q1, q2).0
    }

    /// [`GraphQE::prove`] returning the proof statistics alongside the
    /// verdict. Unlike the stats embedded in `Verdict::Equivalent`, these
    /// are recorded on **every** exit path — stage-① rejections, cache-hit
    /// fast paths, counterexamples, trips — with the per-stage wall-clock
    /// breakdown in [`StageTimings`].
    pub fn prove_with_stats(&self, q1: &str, q2: &str) -> (Verdict, ProofStats) {
        match self.limits.token() {
            Some(token) => limits::with_token(token, || self.prove_with_stats_inner(q1, q2)),
            None => self.prove_with_stats_inner(q1, q2),
        }
    }

    fn prove_with_stats_inner(&self, q1: &str, q2: &str) -> (Verdict, ProofStats) {
        let start = Instant::now();
        let mut stats = ProofStats::default();
        // Stage ①: syntax & semantic check — memoized per query text, so a
        // warm re-certification skips parsing entirely (the timing then
        // records the cache probe, so even fast paths are accounted for).
        let stage_start = Instant::now();
        let parsed =
            self.parse_checked(q1).and_then(|parsed1| Ok((parsed1, self.parse_checked(q2)?)));
        stats.stages.parse = stage_start.elapsed();
        let (parsed1, parsed2) = match parsed {
            Ok(pair) => pair,
            Err(error) => {
                stats.latency = start.elapsed();
                return (invalid(error), stats);
            }
        };
        // Stage ⓪: flow-sensitive type inference over both ASTs. A definite
        // type error (a query that can only ever raise at runtime) makes the
        // pair unprovable; otherwise the inferred output signatures steer the
        // rest of the pipeline without ever deciding a verdict on their own.
        let stage_start = Instant::now();
        let discriminating = if self.analyze {
            match discriminating_signatures(parsed1.query(), parsed2.query()) {
                Ok(discriminating) => discriminating,
                Err(verdict) => {
                    stats.stages.analyze = stage_start.elapsed();
                    stats.latency = start.elapsed();
                    return (*verdict, stats);
                }
            }
        } else {
            false
        };
        stats.stages.analyze = stage_start.elapsed();
        // Signature-discrimination fast path: when no type-compatible
        // bijection between the output columns exists, equivalence is only
        // possible if both queries always return the empty bag — so a
        // witness is overwhelmingly likely and the (cheap, deterministic)
        // counterexample search runs *before* the expensive proof attempt.
        // Discrimination alone never decides: NOT_EQUIVALENT still requires
        // a concrete witness graph, and an empty-handed search falls through
        // to the full pipeline — without the search, which would find
        // nothing again and double the cost.
        let mut search = self.search_counterexamples;
        if search && discriminating {
            let stage_start = Instant::now();
            let witness = counterexample::find_counterexample(
                parsed1.query(),
                parsed2.query(),
                &self.search_config,
            );
            stats.stages.search = stage_start.elapsed();
            if let Some(example) = witness {
                stats.latency = start.elapsed();
                return (Verdict::NotEquivalent(Box::new(example)), stats);
            }
            search = false;
        }
        // Stage ②: rule-based normalization (fallible under a deadline) —
        // a warm hit reduces it to a probe of the parse-cache entry.
        let stage_start = Instant::now();
        let stages = self
            .stages_of(&parsed1, self.normalize)
            .and_then(|n1| Ok((n1, self.stages_of(&parsed2, self.normalize)?)));
        stats.stages.normalize = stage_start.elapsed();
        let (n1, n2) = match stages {
            Ok(pair) => pair,
            Err(trip) => {
                stats.latency = start.elapsed();
                return (trip_verdict(trip), stats);
            }
        };
        let mut verdict = self.prove_prepared(&n1, &n2, search, &mut stats);
        stats.latency = start.elapsed();
        if let Verdict::Equivalent(embedded) = &mut verdict {
            embedded.latency = stats.latency;
            embedded.stages = stats.stages;
        }
        (verdict, stats)
    }

    /// Proves many pairs in one call on up to `threads` pair workers (`1`
    /// proves them in order on the calling thread). Returns the per-pair
    /// outcomes in input order — each verdict exactly what
    /// [`GraphQE::prove`] would return for that pair — plus the number of
    /// arena-budget epoch resets this batch performed (peer clears this
    /// batch adopted instead of repeating are not counted; see
    /// `counterexample::clear_pool_cache_if_unchanged`).
    ///
    /// Workers share the read-only prover configuration and pull pairs from a
    /// single atomic cursor (dynamic load balancing — pair latencies vary by
    /// orders of magnitude, so static chunking would straggle). Each pair,
    /// its counterexample search included, runs on the worker that drew it.
    /// A panic degrades its pair to `Unknown(Panicked)` instead of killing
    /// the batch.
    /// Each worker thread accumulates normalization results in its own
    /// thread-local hash-consed arena, so structurally overlapping pairs are
    /// normalized once per worker; once the arena outgrows
    /// [`ProveLimits::arena_node_budget`] the worker evicts its caches (the
    /// epoch-based eviction story).
    ///
    /// Safe to call from any number of threads concurrently: the batch takes
    /// no snapshot of the process-global cache counters, which stay readable
    /// through each cache's own stats function ([`parse_cache_stats`],
    /// [`normalize_cache_stats`], [`counterexample::search_memo_stats`], …).
    /// Thread-local caches (SMT formula, summand, arena) stay warm on
    /// whichever thread runs the pairs, which is why a server pins
    /// `threads = 1` and calls this from its own worker threads.
    pub fn prove_batch<L, R>(&self, pairs: &[(L, R)], threads: usize) -> (Vec<BatchOutcome>, u64)
    where
        L: AsRef<str> + Sync,
        R: AsRef<str> + Sync,
    {
        let epoch_resets = AtomicUsize::new(0);
        let batch_start_pool_gen = counterexample::pool_cache_generation();

        let threads = threads.clamp(1, pairs.len().max(1));
        let prove_timed = |left: &str, right: &str| {
            let start = Instant::now();
            // Panic isolation: one pair's panic degrades to
            // `Unknown(Panicked)` instead of killing the whole batch. The
            // worker's thread-local caches may hold partial state from the
            // unwound proof, so they are evicted wholesale before the next
            // pair (process-wide caches are already guarded at insertion,
            // and the ambient-token guard restores itself on unwind).
            let proved =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.prove(left, right)));
            let verdict = proved.unwrap_or_else(|_| {
                liastar::reset_thread_caches();
                Verdict::Unknown {
                    category: FailureCategory::Panicked,
                    reason: "the prover panicked while proving this pair".to_string(),
                }
            });
            let outcome = BatchOutcome { verdict, latency: start.elapsed() };
            let arena_nodes = gexpr::arena::thread_store_node_count();
            gexpr::arena::note_node_peak(arena_nodes);
            let arena_node_budget = self.limits.arena_node_budget;
            if arena_node_budget > 0 && arena_nodes > arena_node_budget {
                liastar::reset_thread_caches();
                // The pool/memo cache is process-global: when several workers
                // cross their (thread-local) arena budgets around the same
                // time, one clear suffices — a worker whose last-seen
                // generation is stale adopts the clear a peer already
                // performed instead of wiping the state everyone just started
                // rebuilding. The compare-and-clear is atomic (one lock), so
                // two workers racing on the same stale generation cannot both
                // wipe. A thread's first trip compares against the generation
                // at batch start, so fresh scoped workers still evict when
                // nobody else has.
                POOL_CLEAR_SEEN.with(|seen| {
                    let reference = seen.get().unwrap_or(batch_start_pool_gen);
                    if counterexample::clear_pool_cache_if_unchanged(reference) {
                        epoch_resets.fetch_add(1, Ordering::Relaxed);
                    }
                    seen.set(Some(counterexample::pool_cache_generation()));
                });
            }
            outcome
        };
        let outcomes = if threads == 1 {
            pairs.iter().map(|(l, r)| prove_timed(l.as_ref(), r.as_ref())).collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let mut indexed: Vec<(usize, BatchOutcome)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let index = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some((left, right)) = pairs.get(index) else { break };
                                local.push((index, prove_timed(left.as_ref(), right.as_ref())));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|handle| handle.join().expect("prover worker panicked"))
                    .collect()
            });
            indexed.sort_by_key(|(index, _)| *index);
            indexed.into_iter().map(|(_, outcome)| outcome).collect()
        };
        (outcomes, epoch_resets.load(Ordering::Relaxed) as u64)
    }

    /// Stages ③/④ plus, with `search`, the counterexample search, recording
    /// stage timings into `stats` on every exit path. The search evaluates
    /// the **original** queries. Verdict policy under an ambient run token: a
    /// completed proof stays `Equivalent` and a found witness stays
    /// `NotEquivalent` even if a trip raced with them (both certificates are
    /// sound); otherwise the first recorded trip wins over the paper's
    /// failure categories, and a tripped decision skips the search entirely.
    fn prove_prepared(
        &self,
        n1: &NormalizedStages,
        n2: &NormalizedStages,
        search: bool,
        stats: &mut ProofStats,
    ) -> Verdict {
        let Err(unproved) = self.prove_normalized(n1, n2, stats, None) else {
            return Verdict::Equivalent(stats.clone());
        };
        // A trip during the decision means "not proved" only because the run
        // was cut short — searching for a witness on top of it would blow the
        // deadline further; report the trip.
        if let Some(trip) = limits::trip() {
            return trip_verdict(trip);
        }
        // Not proven: try to certify non-equivalence with a concrete
        // counterexample graph.
        let stage_start = Instant::now();
        let witness = if search {
            counterexample::find_counterexample(&n1.source, &n2.source, &self.search_config)
        } else {
            None
        };
        // Accumulates: the stage-⓪ fast path may already have charged an
        // (empty-handed) search to this stage.
        stats.stages.search += stage_start.elapsed();
        if let Some(example) = witness {
            // Sound even when a trip aborted the rest of the search: the
            // witness graph concretely separates the queries.
            return Verdict::NotEquivalent(Box::new(example));
        }
        // An aborted search proves nothing — exhaustion-style `Unknown` must
        // carry the trip, not the paper category.
        if let Some(trip) = limits::trip() {
            return trip_verdict(trip);
        }
        let (category, reason) = unproved.categorized(n1.normalized(), n2.normalized());
        Verdict::Unknown { category, reason }
    }

    /// The equivalence-proving part of the pipeline (stages ③ and ④),
    /// including divide-and-conquer and return-element mapping. On success
    /// the proof's statistics are merged into `stats`. With `evidence` the
    /// proof runs in evidence mode: every segment is decided by the arena
    /// pipeline, which records its witness into the log.
    fn prove_normalized(
        &self,
        n1: &NormalizedStages,
        n2: &NormalizedStages,
        stats: &mut ProofStats,
        mut evidence: Option<&mut EvidenceLog>,
    ) -> Result<(), Unproved> {
        let (q1, q2) = (n1.normalized(), n2.normalized());
        // Divide-and-conquer for ORDER BY ... LIMIT/SKIP inside subqueries.
        // Segments are sliced-up query fragments, so their builds cannot come
        // from the whole-query memo; they are built fresh per segment.
        if divide::needs_divide_and_conquer(q1) || divide::needs_divide_and_conquer(q2) {
            let segments1 = divide::split_into_segments(q1).ok_or(Unproved::Failed(
                FailureCategory::SortingTruncation,
                "cannot split the first query into provable segments".to_string(),
            ))?;
            let segments2 = divide::split_into_segments(q2).ok_or(Unproved::Failed(
                FailureCategory::SortingTruncation,
                "cannot split the second query into provable segments".to_string(),
            ))?;
            if segments1.len() != segments2.len() {
                return Err(Unproved::Failed(
                    FailureCategory::SortingTruncation,
                    format!(
                        "the queries contain {} and {} ORDER BY ... LIMIT fragments",
                        segments1.len() - 1,
                        segments2.len() - 1
                    ),
                ));
            }
            stats.used_divide_and_conquer = true;
            for (a, b) in segments1.iter().zip(segments2.iter()) {
                let segment =
                    self.prove_segment(a, b, &mut stats.stages, evidence.as_deref_mut())?;
                stats.decision.pruned_zero += segment.decision.pruned_zero;
                stats.decision.pruned_implied += segment.decision.pruned_implied;
                stats.column_permutation = stats.column_permutation.max(segment.column_permutation);
            }
            // Each segment's permutation is folded into its right
            // G-expression (built from the permuted fragment), which the
            // checker takes as a stage-③ input; the whole query's alignment
            // is therefore the identity on the final RETURN arity.
            if let Some(log) = evidence {
                log.permutation = (0..log.permutation.len()).collect();
                log.permuted_right = None;
            }
            return Ok(());
        }
        // Stage ③: G-expression construction — through the per-entry memo, so
        // a warm re-certification skips the build.
        let built1 = n1.build_timed(&mut stats.stages).map_err(categorize_build_error)?;
        let built2 = n2.build_timed(&mut stats.stages).map_err(categorize_build_error)?;
        let segment = self.prove_segment_with(q2, &built1, &built2, &mut stats.stages, evidence)?;
        stats.column_permutation = segment.column_permutation;
        stats.decision = segment.decision;
        Ok(())
    }

    /// Proves one pair of (sub)queries by G-expression construction and the
    /// LIA* decision. Used by the divide-and-conquer path, whose segment
    /// fragments have no memoized builds; an undecided segment is
    /// categorized on the spot, from the segment's own queries.
    fn prove_segment(
        &self,
        q1: &Query,
        q2: &Query,
        timings: &mut StageTimings,
        evidence: Option<&mut EvidenceLog>,
    ) -> Result<ProofStats, Unproved> {
        // Stage ③: G-expression construction.
        let build_start = Instant::now();
        let built = with_thread_store(|store| (build_into(store, q1), build_into(store, q2)));
        timings.build += build_start.elapsed();
        let built1 = built.0.map_err(categorize_build_error)?;
        let built2 = built.1.map_err(categorize_build_error)?;
        self.prove_segment_with(q2, &built1, &built2, timings, evidence).map_err(|unproved| {
            let (category, reason) = unproved.categorized(q1, q2);
            Unproved::Failed(category, reason)
        })
    }

    /// The decision half of [`GraphQE::prove_segment`], starting from
    /// G-expressions built into the calling thread's arena: return-element
    /// mapping and the LIA* decision. `q2` is the right query, whose
    /// permutations are rebuilt into the same arena. Build (permutation
    /// rebuilds) and decide wall-clock is accumulated into `timings` on every
    /// exit path. With `evidence`, the proving decision's witness and column
    /// alignment are appended to the log.
    fn prove_segment_with(
        &self,
        q2: &Query,
        built1: &BuildOutput,
        built2: &BuildOutput,
        timings: &mut StageTimings,
        evidence: Option<&mut EvidenceLog>,
    ) -> Result<ProofStats, Unproved> {
        if built1.columns != built2.columns {
            // The paper: queries with different return arity can only be
            // equivalent if both always return the empty result.
            let decide_start = Instant::now();
            let empty = both_always_empty(built1, built2, self.use_tree_normalizer);
            timings.decide += decide_start.elapsed();
            if empty {
                if let Some(log) = evidence {
                    let both_zero = SegmentRecord {
                        left: gexpr::GExpr::Zero,
                        right: gexpr::GExpr::Zero,
                        proof: ProofRecord::Identical,
                    };
                    log.push(both_zero, (0..built1.columns).collect(), None);
                }
                return Ok(ProofStats::default());
            }
            return Err(Unproved::Failed(
                FailureCategory::Other,
                format!("the queries return {} and {} columns", built1.columns, built2.columns),
            ));
        }

        // Return-element mapping (§IV-C): try the identity first, then the
        // other kind-compatible permutations of the second query's RETURN
        // items, up to `MAX_COLUMN_PERMUTATIONS` in all.
        for (index, permutation) in
            column_permutations(&built1.column_kinds, &built2.column_kinds).into_iter().enumerate()
        {
            let build_start = Instant::now();
            let permuted = (!is_identity(&permutation)).then(|| permute_returns(q2, &permutation));
            let candidate = match &permuted {
                None => Ok(built2.expr),
                Some(query) => with_thread_store(|store| build_into(store, query)).map(|b| b.expr),
            };
            timings.build += build_start.elapsed();
            let Ok(candidate) = candidate else { continue };
            // Stage ④: the LIA★ decision (fallible under limits — a trip
            // surfaces here instead of being silently degraded to NotProved).
            let decide_start = Instant::now();
            let outcome = if evidence.is_some() {
                liastar::try_check_equivalence_recording(built1.expr, candidate)
            } else {
                liastar::try_check_equivalence_with_opts(
                    built1.expr,
                    candidate,
                    DecideOptions { tree_normalizer: self.use_tree_normalizer },
                )
                .map(|(decision, stats)| (decision, stats, None))
            };
            timings.decide += decide_start.elapsed();
            let (decision, stats, witness) = match outcome {
                Ok(result) => result,
                Err(trip) => return Err(Unproved::Failed(trip.into(), trip.to_string())),
            };
            if decision == Decision::Proved {
                if let (Some(log), Some(witness)) = (evidence, witness) {
                    log.push(witness, permutation, permuted);
                }
                return Ok(ProofStats {
                    column_permutation: index,
                    decision: stats,
                    ..Default::default()
                });
            }
        }
        Err(Unproved::Undecided)
    }
}

/// Why stages ③/④ did not prove a pair.
enum Unproved {
    /// A failure with its category and reason.
    Failed(FailureCategory, String),
    /// Every column alignment was decided and none proved. The category
    /// ([`categorize_unproved`]) is worked out only for a verdict that needs
    /// it: a counterexample found afterwards makes it moot.
    Undecided,
}

impl Unproved {
    /// The reason an `Undecided` pair reports.
    const UNDECIDED: &'static str = "the G-expressions could not be proven equal";

    /// The failure's reason text.
    fn reason(&self) -> &str {
        match self {
            Unproved::Failed(_, reason) => reason,
            Unproved::Undecided => Unproved::UNDECIDED,
        }
    }

    /// The failure's category and reason for the normalized pair `(q1, q2)`.
    fn categorized(self, q1: &Query, q2: &Query) -> (FailureCategory, String) {
        match self {
            Unproved::Failed(category, reason) => (category, reason),
            Unproved::Undecided => (categorize_unproved(q1, q2), Unproved::UNDECIDED.to_string()),
        }
    }
}

/// The `Unknown` verdict of a tripped run: the first recorded trip wins and
/// is carried verbatim into the failure taxonomy.
fn trip_verdict(trip: limits::Trip) -> Verdict {
    Verdict::Unknown { category: trip.into(), reason: trip.to_string() }
}

fn invalid(error: CheckError) -> Verdict {
    Verdict::Unknown { category: FailureCategory::InvalidQuery, reason: error.to_string() }
}

/// Stage ⓪ for a parsed pair: whether type inference produced an output
/// signature for each side (none for, e.g., `RETURN *`) and the two
/// discriminate ([`graphqe_analyzer::signatures_discriminate`]), or the
/// `Unknown(TypeError)` verdict when either query has a definite type error.
fn discriminating_signatures(q1: &Query, q2: &Query) -> Result<bool, Box<Verdict>> {
    let left = graphqe_analyzer::analyze(q1).map_err(|d| type_error("first", d))?;
    let right = graphqe_analyzer::analyze(q2).map_err(|d| type_error("second", d))?;
    Ok(left
        .signature
        .zip(right.signature)
        .is_some_and(|(left, right)| graphqe_analyzer::signatures_discriminate(&left, &right)))
}

fn type_error(side: &str, diagnostic: cypher_parser::Diagnostic) -> Verdict {
    Verdict::Unknown {
        category: FailureCategory::TypeError,
        reason: format!("{side} query: {diagnostic}"),
    }
}

fn categorize_build_error(error: BuildError) -> Unproved {
    // Exhaustive over the typed feature enum: adding a feature class to the
    // builder without deciding its failure category fails compilation here.
    let category = match error.feature {
        Some(gexpr::UnsupportedFeature::SortingTruncation) => FailureCategory::SortingTruncation,
        Some(gexpr::UnsupportedFeature::NestedAggregate) => FailureCategory::NestedAggregate,
        None => FailureCategory::Other,
    };
    Unproved::Failed(category, error.to_string())
}

/// When the decision procedure fails, classify the failure the way the
/// paper's evaluation does (§VII-B).
fn categorize_unproved(q1: &Query, q2: &Query) -> FailureCategory {
    let text = format!(
        "{} {}",
        cypher_parser::pretty::query_to_string(q1),
        cypher_parser::pretty::query_to_string(q2)
    )
    .to_ascii_uppercase();
    // Scalar function calls (size, head, coalesce, ...), COLLECT and
    // arbitrary-length paths are all modeled with uninterpreted symbols.
    let mut uses_functions = false;
    for query in [q1, q2] {
        for part in &query.parts {
            for clause in &part.clauses {
                let mut check = |expr: &cypher_parser::ast::Expr| {
                    expr.walk(&mut |e| {
                        if matches!(e, cypher_parser::ast::Expr::FunctionCall { .. }) {
                            uses_functions = true;
                        }
                    })
                };
                match clause {
                    Clause::Match(m) => {
                        if let Some(w) = &m.where_clause {
                            check(w);
                        }
                    }
                    Clause::Return(p) => {
                        if let Some(items) = p.explicit_items() {
                            for item in items {
                                check(&item.expr);
                            }
                        }
                    }
                    Clause::With(w) => {
                        if let Some(items) = w.projection.explicit_items() {
                            for item in items {
                                check(&item.expr);
                            }
                        }
                    }
                    Clause::Unwind(u) => check(&u.expr),
                }
            }
        }
    }
    if uses_functions || text.contains("COLLECT(") || text.contains("*]") || text.contains("*..") {
        FailureCategory::UninterpretedFunction
    } else if text.contains("LIMIT") || text.contains("SKIP") || text.contains("ORDER BY") {
        FailureCategory::SortingTruncation
    } else {
        FailureCategory::Other
    }
}

/// Both queries are provably empty (their normalized G-expressions are 0).
fn both_always_empty(b1: &BuildOutput, b2: &BuildOutput, tree_normalizer: bool) -> bool {
    with_thread_store(|store| {
        [b1.expr, b2.expr].into_iter().all(|root| {
            if tree_normalizer {
                gexpr::normalize_tree(&store.extern_expr(root)).is_zero()
            } else {
                let normal = store.normalize_id(root);
                matches!(store.node_of(normal), ANode::Zero)
            }
        })
    })
}

/// Maximum number of return-element permutations tried when mapping the
/// returned columns of the two queries (§IV-C).
const MAX_COLUMN_PERMUTATIONS: usize = 24;

/// The first [`MAX_COLUMN_PERMUTATIONS`] permutations of the second query's
/// columns whose kinds match the first query's kinds position by position,
/// in lexicographic order, so the identity (if compatible) comes first. The
/// search stops at the cap: `n` columns of one kind have `n!` permutations.
/// If the two kind lists differ as multisets, no permutation matches, and the
/// identity is returned alone so that at least the direct comparison is
/// attempted (e.g. when kinds were inferred differently).
fn column_permutations(kinds1: &[ColumnKind], kinds2: &[ColumnKind]) -> Vec<Vec<usize>> {
    fn extend(
        kinds1: &[ColumnKind],
        kinds2: &[ColumnKind],
        used: &mut [bool],
        current: &mut Vec<usize>,
        result: &mut Vec<Vec<usize>>,
    ) {
        let position = current.len();
        if position == kinds1.len() {
            result.push(current.clone());
            return;
        }
        for candidate in 0..kinds2.len() {
            if result.len() == MAX_COLUMN_PERMUTATIONS {
                return;
            }
            if !used[candidate] && kinds2[candidate] == kinds1[position] {
                used[candidate] = true;
                current.push(candidate);
                extend(kinds1, kinds2, used, current, result);
                current.pop();
                used[candidate] = false;
            }
        }
    }
    let n = kinds1.len();
    // Checked before the search, which would otherwise explore every partial
    // assignment of a late mismatch; with equal multisets every branch
    // completes, so the search visits at most the cap's leaves.
    let count = |kinds: &[ColumnKind], kind| kinds.iter().filter(|k| *k == kind).count();
    if kinds2.len() != n || kinds1.iter().any(|kind| count(kinds1, kind) != count(kinds2, kind)) {
        return vec![(0..n).collect()];
    }
    let mut result = Vec::new();
    extend(kinds1, kinds2, &mut vec![false; n], &mut Vec::with_capacity(n), &mut result);
    result
}

fn is_identity(permutation: &[usize]) -> bool {
    permutation.iter().enumerate().all(|(i, p)| i == *p)
}

/// Reorders the items of every `RETURN` clause of the query according to
/// `permutation` (output position `i` takes the item previously at
/// `permutation[i]`).
fn permute_returns(query: &Query, permutation: &[usize]) -> Query {
    let mut result = query.clone();
    for part in &mut result.parts {
        if let Some(Clause::Return(projection)) = part.clauses.last_mut() {
            if let ProjectionItems::Items(items) = &mut projection.items {
                if items.len() == permutation.len() {
                    let original = items.clone();
                    for (position, &source) in permutation.iter().enumerate() {
                        items[position] = original[source].clone();
                    }
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_deep_queries_are_invalid_and_the_deepest_accepted_prove() {
        use cypher_parser::MAX_NESTING;
        // A test thread's (and a server worker's) 2 MiB stack, in whatever
        // build the tests run.
        let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            let prover = GraphQE::new();
            let nots =
                |n: usize, c: u8| format!("MATCH (n) WHERE {}n.a = {c} RETURN n", "NOT ".repeat(n));
            let and = |n: usize, c: u8| {
                let terms = vec![format!("n.a = {c}"); n];
                format!("MATCH (n) WHERE {} RETURN n", terms.join(" AND "))
            };
            // The reproducers: 10,000 NOTs, and a 10,000-term conjunction
            // (built by a loop, so it used to parse and abort later).
            for query in [nots(10_000, 1), and(10_000, 1)] {
                let verdict = prover.prove(&query, "MATCH (n) RETURN n");
                let Verdict::Unknown { category, reason } = verdict else { panic!("{verdict}") };
                assert_eq!(category, FailureCategory::InvalidQuery, "{reason}");
            }
            // The deepest accepted forms prove both ways, and the refutation
            // certifies: the checker re-parses their printed text.
            for (q1, q2) in [
                (nots(MAX_NESTING - 3, 1), nots(MAX_NESTING - 3, 2)),
                (and(MAX_NESTING - 2, 1), and(MAX_NESTING - 2, 2)),
            ] {
                assert!(prover.prove(&q1, &q1).is_equivalent());
                let verdict = prover.prove(&q1, &q2);
                assert!(verdict.is_not_equivalent(), "{verdict}");
                let certificate = prover.certificate_for(&q1, &q2, &verdict).unwrap();
                assert!(graphqe_checker::check_certificate(&certificate).is_ok());
            }
        });
        thread.unwrap().join().unwrap();
    }

    #[test]
    fn integer_extremes_in_the_pool_vocabulary_prove() {
        // The pool vocabulary seeds `v - 1, v, v + 1` for every integer
        // literal; at `i64::MAX` the upper neighbour does not exist (a debug
        // build used to panic on the overflow here).
        let verdict = GraphQE::new().prove(
            "MATCH (n:Person) WHERE n.age = 9223372036854775807 RETURN n",
            "MATCH (n:Book) WHERE n.age = 9223372036854775807 RETURN n",
        );
        assert!(verdict.is_not_equivalent(), "{verdict}");
    }

    fn prover() -> GraphQE {
        GraphQE::new()
    }

    #[test]
    fn proves_the_paper_rewrites() {
        let prover = prover();
        // Renaming variables.
        assert!(prover
            .prove(
                "MATCH (person)-[x:READ]->(book:Book) RETURN person.name",
                "MATCH (n1)-[r1:READ]->(n2:Book) RETURN n1.name"
            )
            .is_equivalent());
        // Reversing path direction.
        assert!(prover
            .prove(
                "MATCH (a:Person)-[r:READ]->(b:Book) RETURN a, b",
                "MATCH (b:Book)<-[r:READ]-(a:Person) RETURN a, b"
            )
            .is_equivalent());
        // Splitting a graph pattern across MATCH clauses (with explicit
        // injectivity).
        assert!(prover
            .prove(
                "MATCH (a)-[r1]->(b)-[r2]->(c) WHERE r1 <> r2 RETURN a, c",
                "MATCH (a)-[r1]->(b) MATCH (b)-[r2]->(c) WHERE r1 <> r2 RETURN a, c"
            )
            .is_equivalent());
    }

    #[test]
    fn proves_normalization_dependent_pairs() {
        let prover = prover();
        // Undirected vs. explicit union of directions (rule ①).
        assert!(prover
            .prove(
                "MATCH (n1)-[]-(n2) RETURN n1.name",
                "MATCH (n1)-[]->(n2) RETURN n1.name UNION ALL MATCH (n1)<-[]-(n2) RETURN n1.name"
            )
            .is_equivalent());
        // Bounded variable-length path vs. union of lengths (rule ②).
        assert!(prover
            .prove(
                "MATCH (n1)-[*1..2]->(n2) RETURN n1",
                "MATCH (n1)-[]->(n2) RETURN n1 UNION ALL MATCH (n1)-[]->()-[]->(n2) RETURN n1"
            )
            .is_equivalent());
        // RETURN * expansion (rule ③).
        assert!(prover
            .prove("MATCH (x)-[z:R]->(y) RETURN *", "MATCH (x)-[z:R]->(y) RETURN x, y, z")
            .is_equivalent());
        // Redundant WITH elimination (rule ④).
        assert!(prover
            .prove("MATCH (x) WITH x.name AS name RETURN name", "MATCH (x) RETURN x.name")
            .is_equivalent());
        // id() equality simplification (rule ⑥).
        assert!(prover
            .prove("MATCH (n1), (n2) WHERE id(n1) = id(n2) RETURN n2", "MATCH (n1) RETURN n1")
            .is_equivalent());
    }

    #[test]
    fn proves_listing_2_with_divide_and_conquer() {
        let prover = prover();
        let verdict = prover.prove(
            "MATCH (n1) WITH n1 ORDER BY n1.p1 LIMIT 1 MATCH (n1)-[]->(n2) RETURN n2",
            "MATCH (n1) WITH n1 ORDER BY n1.p1 LIMIT 1 MATCH (n2)<-[]-(n1) RETURN n2",
        );
        match &verdict {
            Verdict::Equivalent(stats) => assert!(stats.used_divide_and_conquer),
            other => panic!("expected equivalence, got {other}"),
        }
    }

    #[test]
    fn maps_returned_elements_across_queries() {
        // §IV-C example: the returned node variables appear in a different
        // order but denote the same nodes.
        let prover = prover();
        assert!(prover
            .prove(
                "MATCH (n1)-[r:READ]->(n2) RETURN n1, n2",
                "MATCH (n1)<-[r:READ]-(n2) RETURN n1, n2"
            )
            .is_equivalent());
    }

    #[test]
    fn rejects_mutated_pairs_with_counterexamples() {
        let prover = prover();
        assert!(prover
            .prove(
                "MATCH (a:Person)-[r:READ]->(b) RETURN a.name",
                "MATCH (a:Person)<-[r:READ]-(b) RETURN a.name"
            )
            .is_not_equivalent());
        assert!(prover
            .prove(
                "MATCH (n:Person) WHERE n.age = 59 RETURN n.name",
                "MATCH (n:Person) WHERE n.age = 60 RETURN n.name"
            )
            .is_not_equivalent());
        assert!(prover
            .prove(
                "MATCH (a:Person) RETURN a UNION ALL MATCH (a:Person) RETURN a",
                "MATCH (a:Person) RETURN a UNION MATCH (a:Person) RETURN a"
            )
            .is_not_equivalent());
        assert!(prover
            .prove(
                "MATCH (n:Person)-[:READ]->(b) RETURN b.title",
                "MATCH (n:Person)-[:READ]->(b) RETURN DISTINCT b.title"
            )
            .is_not_equivalent());
    }

    #[test]
    fn reports_the_papers_failure_categories() {
        let prover = GraphQE { search_counterexamples: false, ..GraphQE::new() };
        // Nested aggregate computation.
        let verdict = prover
            .prove("MATCH (n) RETURN SUM(n.a) / COUNT(n)", "MATCH (n) RETURN SUM(n.a) / COUNT(n)");
        match verdict {
            Verdict::Unknown { category, .. } => {
                assert_eq!(category, FailureCategory::NestedAggregate)
            }
            other => panic!("expected unknown, got {other}"),
        }
        // Inconsistent number of ORDER BY ... LIMIT fragments.
        let verdict = prover.prove(
            "MATCH (n1) WITH n1 ORDER BY n1.p1 LIMIT 1 MATCH (n1)-[]->(n2) RETURN n2",
            "MATCH (n1)-[]->(n2) RETURN n2",
        );
        match verdict {
            Verdict::Unknown { category, .. } => {
                assert_eq!(category, FailureCategory::SortingTruncation)
            }
            other => panic!("expected unknown, got {other}"),
        }
    }

    #[test]
    fn invalid_queries_are_rejected_in_stage_1() {
        let prover = GraphQE { search_counterexamples: false, ..GraphQE::new() };
        let verdict = prover.prove("MATCH (n RETURN n", "MATCH (n) RETURN n");
        match verdict {
            Verdict::Unknown { category, .. } => {
                assert_eq!(category, FailureCategory::InvalidQuery)
            }
            other => panic!("expected invalid-query verdict, got {other}"),
        }
        let verdict = prover.prove("MATCH (n) WHERE m.x = 1 RETURN n", "MATCH (n) RETURN n");
        assert!(matches!(
            verdict,
            Verdict::Unknown { category: FailureCategory::InvalidQuery, .. }
        ));
    }

    #[test]
    fn ablation_without_normalization_loses_pairs() {
        let with = GraphQE::new();
        let without = GraphQE { normalize: false, search_counterexamples: false, ..GraphQE::new() };
        let q1 = "MATCH (n1), (n2) WHERE id(n1) = id(n2) RETURN n2";
        let q2 = "MATCH (n1) RETURN n1";
        assert!(with.prove(q1, q2).is_equivalent());
        assert!(!without.prove(q1, q2).is_equivalent());
    }

    #[test]
    fn batch_proving_matches_sequential_verdicts_in_order() {
        let _serial = BATCH_LOCK.lock().unwrap();
        let prover = prover();
        let pairs = vec![
            ("MATCH (a)-[r]->(b) RETURN a", "MATCH (b)<-[r]-(a) RETURN a"),
            ("MATCH (n:Person) RETURN n", "MATCH (n:Book) RETURN n"),
            (
                "MATCH (n) WHERE n.a = 1 AND n.b = 2 RETURN n",
                "MATCH (n) WHERE n.b = 2 AND n.a = 1 RETURN n",
            ),
            ("MATCH (n) RETURN DISTINCT n.name", "MATCH (n) RETURN n.name"),
        ];
        for threads in [1, 3] {
            let (batch, _) = prover.prove_batch(&pairs, threads);
            assert_eq!(batch.len(), pairs.len());
            for ((left, right), outcome) in pairs.iter().zip(&batch) {
                let solo = prover.prove(left, right);
                let verdict = &outcome.verdict;
                assert_eq!(
                    (solo.is_equivalent(), solo.is_not_equivalent()),
                    (verdict.is_equivalent(), verdict.is_not_equivalent()),
                    "batch verdict diverges for {left} vs {right} with {threads} threads"
                );
            }
        }
    }

    /// Batch tests serialize here: the epoch-reset count of a batch depends
    /// on the process-global pool-cache generation, which a concurrent
    /// batch's arena-budget janitor could advance.
    static BATCH_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn batch_report_exposes_cache_behavior() {
        let _serial = BATCH_LOCK.lock().unwrap();
        let prover = prover();
        // A pair whose decision needs SMT summand simplification, twice: the
        // second run must hit the summand cache. The counters are
        // process-global and only grow, so concurrent tests can add to them
        // but never hide this batch's misses and hits.
        let pair = (
            "MATCH (n) WHERE n.age > 5 AND n.age > 3 RETURN n",
            "MATCH (n) WHERE n.age > 5 RETURN n",
        );
        let before = liastar::cache_counters();
        let (outcomes, epoch_resets) = prover.prove_batch(&[pair, pair], 1);
        let after = liastar::cache_counters();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.verdict.is_equivalent()));
        assert!(after.summand_misses > before.summand_misses, "first pair must miss");
        assert!(after.summand_hits > before.summand_hits, "second pair must hit");
        assert!(gexpr::arena::peak_node_count() > 0);
        assert_eq!(epoch_resets, 0, "default budget must not trigger here");
    }

    #[test]
    fn tiny_arena_budget_triggers_epoch_resets_without_changing_verdicts() {
        let _serial = BATCH_LOCK.lock().unwrap();
        let budgeted = GraphQE {
            limits: ProveLimits { arena_node_budget: 1, ..ProveLimits::default() },
            ..GraphQE::new()
        };
        let pairs = vec![
            ("MATCH (a)-[r]->(b) RETURN a", "MATCH (b)<-[r]-(a) RETURN a"),
            ("MATCH (n:Person) RETURN n", "MATCH (n:Book) RETURN n"),
            (
                "MATCH (n) WHERE n.a = 1 AND n.b = 2 RETURN n",
                "MATCH (n) WHERE n.b = 2 AND n.a = 1 RETURN n",
            ),
        ];
        let (outcomes, epoch_resets) = budgeted.prove_batch(&pairs, 1);
        assert_eq!(epoch_resets, pairs.len() as u64);
        let reference = prover();
        for ((left, right), outcome) in pairs.iter().zip(&outcomes) {
            let solo = reference.prove(left, right);
            assert_eq!(
                (solo.is_equivalent(), solo.is_not_equivalent()),
                (outcome.verdict.is_equivalent(), outcome.verdict.is_not_equivalent()),
                "epoch resets changed the verdict of {left} vs {right}"
            );
        }
    }

    /// Tests that read the parse cache's counters, reconfigure its (global)
    /// capacity or inspect its entries serialize here so they cannot evict
    /// each other's entries mid-assertion.
    static PARSE_CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn parse_cache_replays_both_successes_and_failures() {
        let _serial = PARSE_CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prover = prover();
        // Unique texts so this test controls its own cache entries.
        let valid = "MATCH (pc_hit_test:ParseCache) RETURN pc_hit_test";
        let invalid = "MATCH (pc_err_test RETURN pc_err_test";
        let (hits_before, misses_before) = parse_cache_stats();
        assert!(prover.prove(valid, valid).is_equivalent());
        let (_, misses_after_first) = parse_cache_stats();
        assert!(misses_after_first > misses_before, "first sight of a text must miss");
        // Second certification of the same pair: both texts replay.
        assert!(prover.prove(valid, valid).is_equivalent());
        let (hits_after, _) = parse_cache_stats();
        assert!(hits_after >= hits_before + 2, "warm re-certification must hit per text");
        // Parse failures are memoized too and replay the same verdict.
        for _ in 0..2 {
            let verdict = prover.prove(invalid, valid);
            assert!(matches!(
                verdict,
                Verdict::Unknown { category: FailureCategory::InvalidQuery, .. }
            ));
        }
        // An opted-out prover bypasses the cache entirely: a text only this
        // check proves leaves no entry. (Sibling tests prove concurrently, so
        // the process-global counters cannot show a bypass.)
        let uncached = GraphQE { use_parse_cache: false, ..GraphQE::new() };
        let bypass = "MATCH (pc_bypass_test:ParseCache) RETURN pc_bypass_test";
        assert!(uncached.prove(bypass, bypass).is_equivalent());
        assert!(
            parse_cache().get(bypass).is_none(),
            "use_parse_cache: false must not add an entry"
        );
    }

    #[test]
    fn parse_cache_capacity_bound_holds_and_counts_evictions() {
        let _serial = PARSE_CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let previous = set_parse_cache_capacity(4);
        let evictions_before = parse_cache_evictions();
        let prover = GraphQE { search_counterexamples: false, ..GraphQE::new() };
        for i in 0..12 {
            let text = format!("MATCH (pc_bound_{i}:L{i}) RETURN pc_bound_{i}");
            let _ = prover.prove(&text, &text);
            assert!(parse_cache_len() <= 4, "bound exceeded: {} entries", parse_cache_len());
        }
        assert!(parse_cache_evictions() > evictions_before, "saturation must evict");
        // Shrinking evicts down immediately; capacity clamps to 1.
        set_parse_cache_capacity(1);
        assert!(parse_cache_len() <= 1);
        assert_eq!(set_parse_cache_capacity(previous), 1);
    }

    #[test]
    fn normalize_cache_replays_warm_certifications() {
        let _serial = PARSE_CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prover = prover();
        // A unique text whose normalization does real work (undirected
        // relationship → union of directions).
        let text = "MATCH (nc_hit_test)-[r]-(m) RETURN nc_hit_test";
        let (_, misses_before) = normalize_cache_stats();
        assert!(prover.prove(text, text).is_equivalent());
        let (hits_mid, misses_mid) = normalize_cache_stats();
        assert!(misses_mid > misses_before, "first sight of a query must miss");
        // Warm re-certification: both sides replay from the entry.
        assert!(prover.prove(text, text).is_equivalent());
        let (hits_after, _) = normalize_cache_stats();
        assert!(hits_after >= hits_mid + 2, "warm re-certification must hit per side");
        // An opted-out prover still parses through the cache but leaves its
        // text's entry without stages. (Sibling tests prove concurrently, so
        // the process-global counters cannot show a bypass.)
        let uncached = GraphQE { use_normalize_cache: false, ..GraphQE::new() };
        let bypass = "MATCH (nc_bypass_test)-[r]-(m) RETURN nc_bypass_test";
        assert!(uncached.prove(bypass, bypass).is_equivalent());
        let entry = parse_cache().get(bypass).expect("the text has an entry");
        assert!(
            entry.expect("the text parses").memoized_stages().is_none(),
            "use_normalize_cache: false must not fill the entry's stages"
        );
    }

    #[test]
    fn one_bound_evicts_both_stages_of_a_text() {
        let _serial = PARSE_CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let previous = set_parse_cache_capacity(64);
        let prover = GraphQE { search_counterexamples: false, ..GraphQE::new() };
        let text = "MATCH (pc_evicted)-[r]-(m) RETURN pc_evicted";
        assert!(prover.prove(text, text).is_equivalent());
        let first = parse_check_cached(text).unwrap();
        let first_stages =
            Arc::clone(first.memoized_stages().expect("the prove filled the stages"));
        // A text still cached replays both stages: both hit counters grow.
        let (parse, normalize) = (parse_cache_stats(), normalize_cache_stats());
        assert!(prover.prove(text, text).is_equivalent());
        assert!(parse_cache_stats().0 >= parse.0 + 2, "a cached text must replay its parse");
        assert!(normalize_cache_stats().0 >= normalize.0 + 2, "and its normalization");
        // Sixty-four newer texts fill the bound, and the least recently used
        // entry goes with both of its stages.
        for i in 0..64 {
            let other = format!("MATCH (pc_evicts_{i}:L{i}) RETURN pc_evicts_{i}");
            assert!(prover.prove(&other, &other).is_equivalent());
        }
        assert!(parse_cache().get(text).is_none(), "the oldest text must be evicted");
        // An evicted text is re-parsed and re-normalized: both miss counters
        // grow, and its new entry holds new stages.
        let (parse, normalize) = (parse_cache_stats(), normalize_cache_stats());
        assert!(prover.prove(text, text).is_equivalent());
        assert!(parse_cache_stats().1 > parse.1, "an evicted text must be re-parsed");
        assert!(normalize_cache_stats().1 > normalize.1, "and re-normalized");
        let second = parse_check_cached(text).unwrap();
        assert!(!Arc::ptr_eq(&first, &second), "the re-parse is a new entry");
        let second_stages = second.memoized_stages().expect("the prove filled the stages");
        assert!(!Arc::ptr_eq(&first_stages, second_stages), "with new stages");
        assert_eq!(set_parse_cache_capacity(previous), 64);
    }

    /// The stamp of the arena an entry's build memo holds ids of.
    fn memo_stamp(stages: &NormalizedStages) -> Option<u64> {
        match &*stages.build.lock().unwrap() {
            Some(BuildMemo::Built { stamp, .. }) => Some(*stamp),
            _ => None,
        }
    }

    #[test]
    fn normalized_stages_memoize_builds_across_threads() {
        // The prove below must reach this test's cache entry, which the
        // capacity tests would otherwise be free to evict.
        let _serial = PARSE_CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let text = "MATCH (nc_build_memo)-[r:R]->(m) RETURN nc_build_memo";
        let entry = parse_check_cached(text).unwrap();
        let stages = entry.stages().expect("normalization must succeed");
        let expected = gexpr::build_query(stages.normalized()).expect("build must succeed");
        let externalized = |stages: &NormalizedStages| {
            with_thread_store(|store| {
                let built = stages.build(store).expect("build must succeed");
                (built.columns, built.column_kinds.clone(), store.extern_expr(built.expr))
            })
        };
        let expected = (expected.columns, expected.column_kinds, expected.expr);
        // A second build in the same arena epoch is the memo itself.
        let first = with_thread_store(|store| stages.build(store)).unwrap();
        let again = with_thread_store(|store| stages.build(store)).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "a hit in the same arena must not rebuild");
        assert_eq!(externalized(&stages), expected);
        // Threads whose arenas do not hold the memo's ids build into their
        // own, and get an equal build.
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let stages = Arc::clone(&stages);
                let expected = expected.clone();
                std::thread::spawn(move || assert_eq!(externalized(&stages), expected))
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        // After an epoch reset the memo's ids are stale: the next prove
        // rebuilds into the fresh arena.
        liastar::reset_thread_caches();
        assert!(prover().prove(text, text).is_equivalent());
        let stamp = with_thread_store(|store| store.stamp());
        assert_eq!(memo_stamp(&stages), Some(stamp), "the prove must rebuild after a reset");
        assert_eq!(externalized(&stages), expected);
    }

    #[test]
    fn batch_report_surfaces_parse_and_normalize_cache_counters() {
        let _serial = BATCH_LOCK.lock().unwrap();
        let _parse_serial = PARSE_CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A non-equivalent pair (decided, then searched), proved twice in one
        // batch on one thread: the second pass must hit the parse and
        // normalize caches. Each counter is process-global and only grows, so
        // it is compared with its value before the batch.
        let pair = (
            "MATCH (cache_stats_n:Person) RETURN cache_stats_n",
            "MATCH (cache_stats_n:Book) RETURN cache_stats_n",
        );
        let prover = GraphQE { search_config: SearchConfig { use_memo: false }, ..GraphQE::new() };
        let parse = parse_cache_stats();
        let normalize = normalize_cache_stats();
        let (outcomes, _) = prover.prove_batch(&[pair, pair], 1);
        assert!(outcomes.iter().all(|o| o.verdict.is_not_equivalent()));
        let (parse_hits, parse_misses) = parse_cache_stats();
        assert!(parse_misses > parse.1, "first pass must miss the parse cache");
        assert!(parse_hits > parse.0, "second pass must hit the parse cache");
        let (normalize_hits, normalize_misses) = normalize_cache_stats();
        assert!(normalize_misses > normalize.1, "first pass must normalize");
        assert!(normalize_hits > normalize.0, "second pass must hit the normalize cache");
    }

    #[test]
    fn column_permutation_helpers() {
        let kinds = vec![ColumnKind::Node, ColumnKind::Relationship, ColumnKind::Node];
        let permutations = column_permutations(&kinds, &kinds);
        assert!(permutations.contains(&vec![0, 1, 2]));
        assert!(permutations.contains(&vec![2, 1, 0]));
        assert_eq!(permutations.len(), 2);
        assert!(is_identity(&permutations[0]));
    }

    #[test]
    fn column_permutations_stop_at_the_cap() {
        // 12! = 479,001,600 permutations exist; the search builds 24.
        let kinds = vec![ColumnKind::Value; 12];
        let permutations = column_permutations(&kinds, &kinds);
        assert_eq!(permutations.len(), MAX_COLUMN_PERMUTATIONS);
        assert!(is_identity(&permutations[0]));
        assert_eq!(permutations[1], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10]);
        // A mismatch in the last column leaves no compatible permutation; the
        // search alone would walk about 12! partial assignments to find that,
        // while the multiset check answers with the identity at once.
        let mut mismatched = vec![ColumnKind::Value; 11];
        mismatched.push(ColumnKind::Property("a".into()));
        let start = Instant::now();
        assert_eq!(column_permutations(&mismatched, &kinds), [(0..12).collect::<Vec<_>>()]);
        assert_eq!(column_permutations(&kinds, &mismatched), [(0..12).collect::<Vec<_>>()]);
        assert!(start.elapsed() < std::time::Duration::from_secs(1), "took {:?}", start.elapsed());
    }

    /// Every kind-compatible permutation, in lexicographic order.
    fn all_column_permutations(kinds1: &[ColumnKind], kinds2: &[ColumnKind]) -> Vec<Vec<usize>> {
        let mut all: Vec<Vec<usize>> = vec![Vec::new()];
        for kind in kinds1 {
            let mut longer = Vec::new();
            for prefix in &all {
                for (column, other) in kinds2.iter().enumerate() {
                    if other == kind && !prefix.contains(&column) {
                        longer.push([prefix.as_slice(), &[column]].concat());
                    }
                }
            }
            all = longer;
        }
        all
    }

    #[test]
    fn capped_column_permutations_are_the_first_of_all() {
        let palette = [ColumnKind::Node, ColumnKind::Value, ColumnKind::Property("p".into())];
        for n in 0..=5 {
            // Every assignment of the three kinds to n columns, against itself
            // and against its reversal.
            for code in 0..3usize.pow(n) {
                let kinds: Vec<ColumnKind> =
                    (0..n).map(|i| palette[code / 3usize.pow(i) % 3].clone()).collect();
                let reversed: Vec<ColumnKind> = kinds.iter().rev().cloned().collect();
                for other in [&kinds, &reversed] {
                    let all = all_column_permutations(&kinds, other);
                    let mut expected: Vec<_> =
                        all.into_iter().take(MAX_COLUMN_PERMUTATIONS).collect();
                    if expected.is_empty() {
                        expected.push((0..n as usize).collect());
                    }
                    assert_eq!(column_permutations(&kinds, other), expected, "{kinds:?}");
                }
            }
        }
    }

    #[test]
    fn wide_returns_prove_on_the_identity() {
        let returns =
            |v: &str| (0..=10).map(|i| format!("{v}.p + {i}")).collect::<Vec<_>>().join(", ");
        // Eleven columns of one kind; then twelve whose last column is a
        // property on one side and a plain value on the other, so no
        // kind-compatible permutation exists.
        let pairs = [
            (
                format!("MATCH (n) RETURN {}", returns("n")),
                format!("MATCH (m) RETURN {}", returns("m")),
            ),
            (
                format!("MATCH (n) RETURN {}, n.a", returns("n")),
                format!("MATCH (n) UNWIND [n.a] AS x RETURN {}, x", returns("n")),
            ),
        ];
        for (q1, q2) in pairs {
            let verdict = prover().prove(&q1, &q2);
            assert!(verdict.is_equivalent(), "{q2}: {verdict:?}");
        }
    }

    #[test]
    fn ill_typed_queries_fail_with_a_type_error_verdict() {
        let prover = prover();
        let verdict = prover.prove("UNWIND 1 AS x RETURN x", "UNWIND [1] AS x RETURN x");
        let Verdict::Unknown { category, reason } = verdict else {
            panic!("ill-typed query must not produce a definite verdict")
        };
        assert_eq!(category, FailureCategory::TypeError);
        assert!(reason.starts_with("first query:"), "reason names the side: {reason}");
        assert!(reason.contains("UNWIND requires a list"), "reason carries the message: {reason}");
        // The same pair with the analyzer disabled reaches the pipeline.
        let unanalyzed = GraphQE { analyze: false, ..prover };
        let verdict = unanalyzed.prove("UNWIND 1 AS x RETURN x", "UNWIND [1] AS x RETURN x");
        assert!(
            !matches!(&verdict, Verdict::Unknown { category: FailureCategory::TypeError, .. }),
            "with analyze off there is no stage ⓪ to raise TypeError: {verdict:?}"
        );
    }

    #[test]
    fn discriminating_signatures_still_require_a_witness() {
        // The signatures discriminate (Node vs. non-null Integer), so the
        // fast path fires — but the verdict must rest on a concrete
        // counterexample, recorded in the stats as searched graphs.
        let prover = prover();
        let (left, right) = ("MATCH (n) RETURN n", "MATCH (n) RETURN count(*)");
        let verdict = prover.prove(left, right);
        assert!(
            matches!(&verdict, Verdict::NotEquivalent(_)),
            "expected a counterexample verdict, got {verdict:?}"
        );
        // The emitted certificate carries the discriminating signatures
        // alongside the witness, and the independent checker accepts it.
        let certificate = prover
            .certificate_for(left, right, &verdict)
            .expect("a definite verdict emits a certificate");
        assert!(
            matches!(
                &certificate.evidence,
                graphqe_checker::cert::Evidence::SignatureMismatch { .. }
            ),
            "discriminating signatures must be recorded as evidence"
        );
        graphqe_checker::check_certificate(&certificate)
            .expect("the checker validates signature-mismatch evidence");
    }

    #[test]
    fn stage_zero_is_verdict_neutral_on_representative_pairs() {
        let pairs = [
            ("MATCH (n:Person) RETURN n.name", "MATCH (m:Person) RETURN m.name"),
            ("MATCH (n) RETURN n", "MATCH (n) RETURN count(*)"),
            ("MATCH (a)-[r:X]->(b) RETURN a", "MATCH (a)-[r:Y]->(b) RETURN a"),
            ("RETURN 1 AS x", "RETURN 2 AS x"),
            // Always empty on both sides, with different arities: no graph
            // separates them, so neither prover may refute them.
            ("MATCH (n) WHERE false RETURN n.a", "MATCH (n) WHERE false RETURN n.a, n.b"),
            (
                "MATCH (n) WHERE n.a = 1 AND n.a = 2 RETURN n.a",
                "MATCH (n) WHERE n.a = 1 AND n.a = 2 RETURN n.a, n.a",
            ),
            (
                "MATCH (n:A) WHERE n.a > 3 AND n.a < 2 RETURN n",
                "MATCH (m:B) WHERE m.b > 3 AND m.b < 2 RETURN m, m.b",
            ),
        ];
        let on = prover();
        let off = GraphQE { analyze: false, ..prover() };
        for (left, right) in pairs {
            let with = on.prove(left, right);
            let without = off.prove(left, right);
            assert_eq!(
                with.is_equivalent(),
                without.is_equivalent(),
                "{left} vs {right}: EQ drifted"
            );
            assert_eq!(
                with.is_not_equivalent(),
                without.is_not_equivalent(),
                "{left} vs {right}: NEQ drifted"
            );
        }
    }
}
