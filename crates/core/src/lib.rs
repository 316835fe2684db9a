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
//! 3. **G-expression construction** — [`gexpr::build_query`] (U-semiring
//!    based graph-native algebraic representation);
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
use std::sync::{Arc, Mutex, OnceLock};
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
use gexpr::{build_query, BuildError, BuildOutput, ColumnKind};
use graphqe_analyzer::TypeSig;
use graphqe_checker::cert::QueryCert;
use liastar::witness::{ProofRecord, SegmentRecord};
use liastar::{DecideOptions, Decision};

pub use certificate::certificate_counters;
use certificate::EvidenceLog;
pub use counterexample::SearchConfig;
pub use graphqe_checker::Certificate;
pub use verdict::{Counterexample, FailureCategory, ProofStats, StageTimings, Verdict};

// ---------------------------------------------------------------------------
// The stage-① parse cache
// ---------------------------------------------------------------------------

/// Default capacity of the parse cache: one entry per distinct query text
/// (a parsed AST is a few KB), bounded like the search memo.
const DEFAULT_PARSE_CACHE_CAPACITY: usize = 4096;

/// Text-keyed cache of stage-① outcomes (`parse_and_check`), shared
/// process-wide. Since PR 4 `stage parse_check` was the single largest
/// stage of the warm optimized pipeline; with this cache a warm
/// re-certification skips parsing entirely. Semantic failures are cached
/// too — the checker is deterministic, and invalid queries resubmitted by a
/// service would otherwise re-parse every time.
static PARSE_CACHE: OnceLock<Mutex<ParseCache>> = OnceLock::new();

/// One memoized stage-① outcome per query text (failures included).
type ParseCache = cache::LruMap<String, Result<Arc<Query>, CheckError>>;

fn parse_cache() -> &'static Mutex<ParseCache> {
    PARSE_CACHE.get_or_init(|| Mutex::new(cache::LruMap::new(DEFAULT_PARSE_CACHE_CAPACITY)))
}

static PARSE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static PARSE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static PARSE_CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

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
    parse_cache().lock().unwrap_or_else(|poison| poison.into_inner()).len()
}

/// Reconfigures the parse cache's capacity (clamped to at least 1),
/// evicting down immediately. Returns the previous capacity.
pub fn set_parse_cache_capacity(capacity: usize) -> usize {
    let mut cache = parse_cache().lock().unwrap_or_else(|poison| poison.into_inner());
    let previous = cache.capacity();
    let evicted = cache.set_capacity(capacity);
    PARSE_CACHE_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    previous
}

/// Drops every parse-cache entry (pure memo — eviction only costs
/// re-parsing). Benchmarks use this to measure the cold parse stage.
pub fn clear_parse_cache() {
    parse_cache().lock().unwrap_or_else(|poison| poison.into_inner()).clear();
}

/// Stage ① through the cache: returns the memoized outcome for `text`, or
/// parses (outside the lock — racing workers may both parse, benignly) and
/// caches it. This is what [`GraphQE::prove`] calls; it is public so
/// benchmarks and service frontends can measure or pre-warm the stage
/// directly.
pub fn parse_check_cached(text: &str) -> Result<Arc<Query>, CheckError> {
    if let Some(hit) = parse_cache().lock().unwrap_or_else(|poison| poison.into_inner()).get(text) {
        PARSE_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return hit;
    }
    PARSE_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let outcome = parse_and_check(text).map(Arc::new);
    let evicted = parse_cache()
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
        .insert(text.to_string(), outcome.clone());
    PARSE_CACHE_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    outcome
}

// ---------------------------------------------------------------------------
// The stage-②/③ normalize/build cache
// ---------------------------------------------------------------------------

/// Default capacity of the normalize cache, matched to the parse cache: the
/// entries are keyed on parse-cache identities, so there is no point holding
/// more normalized forms than there are parsed queries.
const DEFAULT_NORMALIZE_CACHE_CAPACITY: usize = 4096;

/// The memoized stage-② (and lazily stage-③) outcome of one parsed query:
/// its Table II normalized form plus the G-expression build of that form,
/// computed once process-wide and shared across threads (`Arc<Query>` and
/// [`BuildOutput`] are plain trees — `Send + Sync` is compile-enforced
/// below). Obtained through [`normalized_stages`]; a warm re-certification
/// skips both `rule_normalize` and `gexpr_build` entirely.
pub struct NormalizedStages {
    /// The parse-cache entry this was derived from. Holding it pins the
    /// allocation, so the address key below can never be reused by a
    /// different query while this entry lives.
    source: Arc<Query>,
    /// The Table II normalized form of `source`.
    normalized: Query,
    /// Stage ③ memo: the build of `normalized`, filled by the first prover
    /// that needs it. Build errors are memoized too — `gexpr` is limits-free,
    /// so its outcome is a deterministic property of the query.
    build: Mutex<Option<Result<BuildOutput, BuildError>>>,
    /// Certificate memo: the query's attestation (source text, Table II
    /// derivation, fixpoint), filled by the first certificate request, so
    /// proving never pays for it.
    cert: OnceLock<QueryCert>,
}

// The point of the shared cache: entries cross threads. A field that
// introduces `Rc`/`RefCell` fails compilation here, not in a consumer.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NormalizedStages>();
};

impl NormalizedStages {
    /// Stage ② of `source` under the ambient run token, with empty memos.
    fn new(source: Arc<Query>) -> Result<NormalizedStages, limits::Trip> {
        let normalized = try_normalize(&source)?;
        Ok(NormalizedStages { source, normalized, build: Mutex::new(None), cert: OnceLock::new() })
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

    /// Stage ③ on the normalized form, memoized: the first caller builds,
    /// every later caller — on any thread — clones the stored outcome.
    pub fn build(&self) -> Result<BuildOutput, BuildError> {
        let mut slot = self.build.lock().unwrap_or_else(|poison| poison.into_inner());
        if let Some(built) = slot.as_ref() {
            return built.clone();
        }
        let built = build_query(&self.normalized);
        *slot = Some(built.clone());
        built
    }
}

impl std::fmt::Debug for NormalizedStages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NormalizedStages").finish_non_exhaustive()
    }
}

/// Identity-keyed cache of stage-②/③ outcomes, shared process-wide. The key
/// is the address of the parse cache's `Arc<Query>`, so probing costs a
/// pointer hash instead of re-hashing the query text; the `Arc::ptr_eq`
/// guard on hits makes address reuse (after a parse-cache eviction drops the
/// only other owner) a miss instead of a wrong answer.
static NORMALIZE_CACHE: OnceLock<Mutex<NormalizeCache>> = OnceLock::new();

type NormalizeCache = cache::LruMap<usize, Arc<NormalizedStages>>;

fn normalize_cache() -> &'static Mutex<NormalizeCache> {
    NORMALIZE_CACHE.get_or_init(|| Mutex::new(cache::LruMap::new(DEFAULT_NORMALIZE_CACHE_CAPACITY)))
}

static NORMALIZE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static NORMALIZE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static NORMALIZE_CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide hit/miss counters of the normalize cache.
pub fn normalize_cache_stats() -> (u64, u64) {
    (NORMALIZE_CACHE_HITS.load(Ordering::Relaxed), NORMALIZE_CACHE_MISSES.load(Ordering::Relaxed))
}

/// Process-wide count of normalize-cache entries dropped by the capacity
/// bound.
pub fn normalize_cache_evictions() -> u64 {
    NORMALIZE_CACHE_EVICTIONS.load(Ordering::Relaxed)
}

/// Current entry count of the normalize cache.
pub fn normalize_cache_len() -> usize {
    normalize_cache().lock().unwrap_or_else(|poison| poison.into_inner()).len()
}

/// Reconfigures the normalize cache's capacity (clamped to at least 1),
/// evicting down immediately. Returns the previous capacity.
pub fn set_normalize_cache_capacity(capacity: usize) -> usize {
    let mut cache = normalize_cache().lock().unwrap_or_else(|poison| poison.into_inner());
    let previous = cache.capacity();
    let evicted = cache.set_capacity(capacity);
    NORMALIZE_CACHE_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    previous
}

/// Drops every normalize-cache entry (pure memo — eviction only costs
/// re-normalizing). Benchmarks use this to measure the cold stages.
pub fn clear_normalize_cache() {
    normalize_cache().lock().unwrap_or_else(|poison| poison.into_inner()).clear();
}

/// Stage ② through the cache: the memoized normalized form (with its lazily
/// memoized build) of `query`, or a fresh normalization inserted on miss
/// (computed outside the lock — racing workers may both normalize,
/// benignly). Only successful normalizations are cached, and never on a
/// tripped run: a trip reflects this call's deadline, not a property of the
/// query.
pub fn normalized_stages(query: &Arc<Query>) -> Result<Arc<NormalizedStages>, limits::Trip> {
    let key = Arc::as_ptr(query) as usize;
    let cached = normalize_cache().lock().unwrap_or_else(|poison| poison.into_inner()).get(&key);
    if let Some(entry) = cached {
        if Arc::ptr_eq(&entry.source, query) {
            NORMALIZE_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(entry);
        }
        // Address reuse: the parse cache evicted the query that owned this
        // address and a later allocation landed on it. Fall through to a
        // miss; the insert below overwrites the stale entry.
    }
    NORMALIZE_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let entry = Arc::new(NormalizedStages::new(Arc::clone(query))?);
    if limits::trip().is_none() {
        let evicted = normalize_cache()
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .insert(key, Arc::clone(&entry));
        NORMALIZE_CACHE_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    }
    Ok(entry)
}

/// A query after stage ②, on its way into stages ③/④: either a stage-②
/// entry whose build is memoized (shared from the normalize cache, or
/// one-shot for certificate emission by an opted-out prover) or a one-shot
/// owned normalization (the [`GraphQE::prove_queries`] path, and every
/// opted-out prover).
enum Normalized {
    /// A stage-② entry with its build memo.
    Stages(Arc<NormalizedStages>),
    /// Uncached normalized form owned by this call.
    Owned(Query),
}

impl Normalized {
    fn query(&self) -> &Query {
        match self {
            Normalized::Stages(stages) => stages.normalized(),
            Normalized::Owned(query) => query,
        }
    }

    /// Stage ③ for this query: the memoized build for stage-② entries, a
    /// fresh build otherwise. Wall-clock (a memo probe on warm hits) goes
    /// into `timings.build` either way.
    fn build_timed(&self, timings: &mut StageTimings) -> Result<BuildOutput, BuildError> {
        let build_start = Instant::now();
        let built = match self {
            Normalized::Stages(stages) => stages.build(),
            Normalized::Owned(query) => build_query(query),
        };
        timings.build += build_start.elapsed();
        built
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
    /// Why the pair is `Unknown` (`None` for the two definite verdicts) —
    /// the per-pair surface of the failure taxonomy, so batch frontends
    /// report reason counts without pattern-matching verdicts.
    pub failure_reason: Option<FailureCategory>,
}

/// The GraphQE prover with its configuration.
#[derive(Debug, Clone)]
pub struct GraphQE {
    /// Run the stage-⓪ static analyzer ([`graphqe_analyzer`]) on both
    /// queries before proving: flow-sensitive type inference produces an
    /// output-column signature per query, a definite type error short-cuts
    /// to `Unknown(TypeError)`, discriminating signatures prioritize the
    /// counterexample search, and inferred integer columns feed a
    /// last-resort typed decision retry. Disabled only by ablation
    /// benchmarks; verdict-neutral apart from the retry upgrade (a
    /// NOT_EQUIVALENT still always carries a concrete witness).
    pub analyze: bool,
    /// Apply the Table II normalization rules (stage ②). Disabled only by the
    /// ablation benchmarks.
    pub normalize: bool,
    /// Search for a counterexample when equivalence cannot be proven.
    pub search_counterexamples: bool,
    /// Configuration of the counterexample search.
    pub search_config: SearchConfig,
    /// Maximum number of return-element permutations tried when mapping the
    /// returned columns of the two queries (§IV-C).
    pub max_column_permutations: usize,
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
    /// Consult (and populate) the process-wide stage-① parse cache in
    /// [`GraphQE::prove`]. Disabled by benchmark baselines that must pay
    /// the real parse cost every run; outcomes are identical either way.
    pub use_parse_cache: bool,
    /// Consult (and populate) the process-wide stage-②/③ normalize/build
    /// cache in [`GraphQE::prove`] (only effective with
    /// [`GraphQE::normalize`] on). Disabled by benchmark baselines that must
    /// pay the real normalization cost every run; outcomes are identical
    /// either way.
    pub use_normalize_cache: bool,
}

impl Default for GraphQE {
    fn default() -> Self {
        GraphQE {
            analyze: true,
            normalize: true,
            search_counterexamples: true,
            search_config: SearchConfig::default(),
            max_column_permutations: 24,
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
    fn parse_checked(&self, text: &str) -> Result<Arc<Query>, CheckError> {
        if self.use_parse_cache {
            parse_check_cached(text)
        } else {
            parse_and_check(text).map(Arc::new)
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
        let signatures = if self.analyze {
            match analyzed_signatures(&parsed1, &parsed2) {
                Ok(signatures) => signatures,
                Err(verdict) => {
                    stats.stages.analyze = stage_start.elapsed();
                    stats.latency = start.elapsed();
                    return (*verdict, stats);
                }
            }
        } else {
            None
        };
        stats.stages.analyze = stage_start.elapsed();
        // Signature-discrimination fast path: when no type-compatible
        // bijection between the output columns exists, equivalence is only
        // possible if both queries always return the empty bag — so a
        // witness is overwhelmingly likely and the (cheap, deterministic)
        // counterexample search runs *before* the expensive proof attempt.
        // Discrimination alone never decides: NOT_EQUIVALENT still requires
        // a concrete witness graph, and an empty-handed search falls through
        // to the full pipeline (which then skips the redundant re-search).
        let mut searched_early = false;
        if let Some((left, right)) = &signatures {
            if self.search_counterexamples && graphqe_analyzer::signatures_discriminate(left, right)
            {
                let stage_start = Instant::now();
                let witness =
                    counterexample::find_counterexample(&parsed1, &parsed2, &self.search_config);
                stats.stages.search = stage_start.elapsed();
                if let Some(example) = witness {
                    stats.latency = start.elapsed();
                    return (Verdict::NotEquivalent(Box::new(example)), stats);
                }
                searched_early = true;
            }
        }
        let mut verdict = if searched_early {
            // The deterministic search already came up empty; re-running it
            // after the decision would find nothing and double the cost.
            let no_re_search = GraphQE { search_counterexamples: false, ..self.clone() };
            no_re_search.prove_parsed_with_stats(&parsed1, &parsed2, &mut stats)
        } else {
            self.prove_parsed_with_stats(&parsed1, &parsed2, &mut stats)
        };
        // Typed decision retry: when the pipeline could not decide and the
        // analyzer inferred matching non-null Integer columns on both sides,
        // rebuild both G-expressions with integer-sorted output terms and
        // decide once more (identity column alignment only). Integer sorts
        // let equality chains participate in the SMT solver's linear
        // reasoning, which can prune summands the untyped encoding cannot.
        if let Verdict::Unknown {
            category: FailureCategory::UninterpretedFunction | FailureCategory::Other,
            ..
        } = &verdict
        {
            if let Some((left, right)) = &signatures {
                let hints = graphqe_analyzer::int_hint_columns(left, right);
                if !hints.is_empty()
                    && self.prove_with_int_hints(&parsed1, &parsed2, &hints, &mut stats)
                {
                    stats.used_type_hints = true;
                    verdict = Verdict::Equivalent(stats.clone());
                }
            }
        }
        stats.latency = start.elapsed();
        if let Verdict::Equivalent(embedded) = &mut verdict {
            embedded.latency = stats.latency;
            embedded.stages = stats.stages;
        }
        (verdict, stats)
    }

    /// The stage-⓪ typed retry: normalize, build with integer-sorted output
    /// columns ([`gexpr::build_query_typed`]), decide on the identity column
    /// alignment. Returns whether the typed decision proved the pair. Strictly
    /// best-effort — every failure (trip, unsupported feature, segment split)
    /// leaves the original verdict standing.
    fn prove_with_int_hints(
        &self,
        q1: &Query,
        q2: &Query,
        hints: &[usize],
        stats: &mut ProofStats,
    ) -> bool {
        let normalized = if self.normalize {
            match (try_normalize(q1), try_normalize(q2)) {
                (Ok(n1), Ok(n2)) => (n1, n2),
                _ => return false,
            }
        } else {
            (q1.clone(), q2.clone())
        };
        let (n1, n2) = &normalized;
        if divide::needs_divide_and_conquer(n1) || divide::needs_divide_and_conquer(n2) {
            return false;
        }
        let build_start = Instant::now();
        let built = (gexpr::build_query_typed(n1, hints), gexpr::build_query_typed(n2, hints));
        stats.stages.build += build_start.elapsed();
        let (Ok(built1), Ok(built2)) = built else {
            return false;
        };
        if built1.columns != built2.columns {
            return false;
        }
        let decide_start = Instant::now();
        let outcome = liastar::try_check_equivalence_with_opts(
            &built1.expr,
            &built2.expr,
            DecideOptions { tree_normalizer: self.use_tree_normalizer },
        );
        stats.stages.decide += decide_start.elapsed();
        match outcome {
            Ok((Decision::Proved, decision)) => {
                stats.column_permutation = 0;
                stats.decision = decision;
                true
            }
            _ => false,
        }
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
            let outcome = BatchOutcome {
                failure_reason: verdict.failure_category(),
                verdict,
                latency: start.elapsed(),
            };
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

    /// Proves the (non-)equivalence of two parsed queries (installing a run
    /// token for active [`GraphQE::limits`], like [`GraphQE::prove`]).
    pub fn prove_queries(&self, q1: &Query, q2: &Query) -> Verdict {
        let run = || {
            let mut stats = ProofStats::default();
            self.prove_queries_with_stats(q1, q2, &mut stats)
        };
        match self.limits.token() {
            Some(token) => limits::with_token(token, run),
            None => run(),
        }
    }

    /// Stages ② through ④ for parsed, `Arc`-shared queries: stage ② resolves
    /// through the process-wide normalize/build cache when enabled, then the
    /// pair goes down the common decision path of
    /// [`GraphQE::prove_queries_with_stats`].
    fn prove_parsed_with_stats(
        &self,
        q1: &Arc<Query>,
        q2: &Arc<Query>,
        stats: &mut ProofStats,
    ) -> Verdict {
        if !(self.normalize && self.use_normalize_cache) {
            return self.prove_queries_with_stats(q1, q2, stats);
        }
        let start = Instant::now();
        // Stage ②: rule-based normalization through the shared cache (a
        // warm hit reduces the stage to a pointer-keyed probe).
        let stage_start = Instant::now();
        let normalized = normalized_stages(q1).and_then(|n1| Ok((n1, normalized_stages(q2)?)));
        stats.stages.normalize = stage_start.elapsed();
        match normalized {
            Ok((n1, n2)) => self.prove_prepared(
                q1,
                q2,
                &Normalized::Stages(n1),
                &Normalized::Stages(n2),
                start,
                stats,
            ),
            Err(trip) => trip_verdict(trip),
        }
    }

    /// Stages ② through ④ plus the counterexample search, recording stage
    /// timings into `stats` on every exit path. Verdict policy under an
    /// ambient run token: a completed proof stays `Equivalent` and a found
    /// witness stays `NotEquivalent` even if a trip raced with them (both
    /// certificates are sound); otherwise the first recorded trip wins over
    /// the paper's failure categories, and a tripped decision skips the
    /// search entirely.
    fn prove_queries_with_stats(&self, q1: &Query, q2: &Query, stats: &mut ProofStats) -> Verdict {
        let start = Instant::now();
        // Stage ②: rule-based normalization (fallible under a deadline).
        let stage_start = Instant::now();
        let normalized = if self.normalize {
            try_normalize(q1).and_then(|n1| Ok((n1, try_normalize(q2)?)))
        } else {
            Ok((q1.clone(), q2.clone()))
        };
        stats.stages.normalize = stage_start.elapsed();
        match normalized {
            Ok((n1, n2)) => self.prove_prepared(
                q1,
                q2,
                &Normalized::Owned(n1),
                &Normalized::Owned(n2),
                start,
                stats,
            ),
            Err(trip) => trip_verdict(trip),
        }
    }

    /// Stages ③/④ plus the counterexample search, common to the cached and
    /// owned normalization paths. `q1`/`q2` are the **original** queries (the
    /// search evaluates those); `start` is when stage ② began, so the
    /// embedded latency of an `Equivalent` verdict covers normalization too.
    fn prove_prepared(
        &self,
        q1: &Query,
        q2: &Query,
        n1: &Normalized,
        n2: &Normalized,
        start: Instant,
        stats: &mut ProofStats,
    ) -> Verdict {
        let outcome = self.prove_normalized(n1, n2, stats, None);
        match outcome {
            Ok(()) => {
                let mut embedded = stats.clone();
                embedded.latency = start.elapsed();
                Verdict::Equivalent(embedded)
            }
            Err((category, reason)) => {
                // A trip during the decision means "not proved" only because
                // the run was cut short — searching for a witness on top of
                // it would blow the deadline further; report the trip.
                if let Some(trip) = limits::trip() {
                    return trip_verdict(trip);
                }
                // Not proven: try to certify non-equivalence with a concrete
                // counterexample graph.
                let stage_start = Instant::now();
                let witness = if self.search_counterexamples {
                    counterexample::find_counterexample(q1, q2, &self.search_config)
                } else {
                    None
                };
                // Accumulates: the stage-⓪ fast path may already have
                // charged an (empty-handed) search to this stage.
                stats.stages.search += stage_start.elapsed();
                if let Some(example) = witness {
                    // Sound even when a trip aborted the rest of the search:
                    // the witness graph concretely separates the queries.
                    return Verdict::NotEquivalent(Box::new(example));
                }
                // An aborted search proves nothing — exhaustion-style
                // `Unknown` must carry the trip, not the paper category.
                if let Some(trip) = limits::trip() {
                    return trip_verdict(trip);
                }
                Verdict::Unknown { category, reason }
            }
        }
    }

    /// The equivalence-proving part of the pipeline (stages ③ and ④),
    /// including divide-and-conquer and return-element mapping. On success
    /// the proof's statistics are merged into `stats`. With `evidence` the
    /// proof runs in evidence mode: every segment is decided by the arena
    /// pipeline, which records its witness into the log.
    fn prove_normalized(
        &self,
        n1: &Normalized,
        n2: &Normalized,
        stats: &mut ProofStats,
        mut evidence: Option<&mut EvidenceLog>,
    ) -> Result<(), (FailureCategory, String)> {
        let q1 = n1.query();
        let q2 = n2.query();
        // Divide-and-conquer for ORDER BY ... LIMIT/SKIP inside subqueries.
        // Segments are sliced-up query fragments, so their builds cannot come
        // from the whole-query memo; they are built fresh per segment.
        if divide::needs_divide_and_conquer(q1) || divide::needs_divide_and_conquer(q2) {
            let segments1 = divide::split_into_segments(q1).ok_or((
                FailureCategory::SortingTruncation,
                "cannot split the first query into provable segments".to_string(),
            ))?;
            let segments2 = divide::split_into_segments(q2).ok_or((
                FailureCategory::SortingTruncation,
                "cannot split the second query into provable segments".to_string(),
            ))?;
            if segments1.len() != segments2.len() {
                return Err((
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
        // Stage ③: G-expression construction — through the per-entry memo on
        // the cached path, so a warm re-certification skips the build.
        let built1 = n1.build_timed(&mut stats.stages).map_err(categorize_build_error)?;
        let built2 = n2.build_timed(&mut stats.stages).map_err(categorize_build_error)?;
        let segment =
            self.prove_segment_with(q1, q2, &built1, &built2, &mut stats.stages, evidence)?;
        stats.column_permutation = segment.column_permutation;
        stats.decision = segment.decision;
        Ok(())
    }

    /// Proves one pair of (sub)queries by G-expression construction and the
    /// LIA* decision. Used by the divide-and-conquer path, whose segment
    /// fragments have no memoized builds.
    fn prove_segment(
        &self,
        q1: &Query,
        q2: &Query,
        timings: &mut StageTimings,
        evidence: Option<&mut EvidenceLog>,
    ) -> Result<ProofStats, (FailureCategory, String)> {
        // Stage ③: G-expression construction.
        let build_start = Instant::now();
        let built = (build_query(q1), build_query(q2));
        timings.build += build_start.elapsed();
        let built1 = built.0.map_err(categorize_build_error)?;
        let built2 = built.1.map_err(categorize_build_error)?;
        self.prove_segment_with(q1, q2, &built1, &built2, timings, evidence)
    }

    /// The decision half of [`GraphQE::prove_segment`], starting from built
    /// G-expressions: return-element mapping and the LIA* decision. Build
    /// (permutation rebuilds) and decide wall-clock is accumulated into
    /// `timings` on every exit path. With `evidence`, the proving decision's
    /// witness and column alignment are appended to the log.
    fn prove_segment_with(
        &self,
        q1: &Query,
        q2: &Query,
        built1: &BuildOutput,
        built2: &BuildOutput,
        timings: &mut StageTimings,
        evidence: Option<&mut EvidenceLog>,
    ) -> Result<ProofStats, (FailureCategory, String)> {
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
            return Err((
                FailureCategory::Other,
                format!("the queries return {} and {} columns", built1.columns, built2.columns),
            ));
        }

        // Return-element mapping (§IV-C): try the identity first, then every
        // kind-compatible permutation of the second query's RETURN items.
        for (index, permutation) in column_permutations(&built1.column_kinds, &built2.column_kinds)
            .into_iter()
            .take(self.max_column_permutations)
            .enumerate()
        {
            let build_start = Instant::now();
            let permuted = (!is_identity(&permutation)).then(|| permute_returns(q2, &permutation));
            let rebuilt;
            let candidate = match &permuted {
                None => built2,
                Some(query) => match build_query(query) {
                    Ok(output) => {
                        rebuilt = output;
                        &rebuilt
                    }
                    Err(_) => {
                        timings.build += build_start.elapsed();
                        continue;
                    }
                },
            };
            timings.build += build_start.elapsed();
            // Stage ④: the LIA★ decision (fallible under limits — a trip
            // surfaces here instead of being silently degraded to NotProved).
            let decide_start = Instant::now();
            let outcome = if evidence.is_some() {
                liastar::try_check_equivalence_recording(&built1.expr, &candidate.expr)
            } else {
                liastar::try_check_equivalence_with_opts(
                    &built1.expr,
                    &candidate.expr,
                    DecideOptions { tree_normalizer: self.use_tree_normalizer },
                )
                .map(|(decision, stats)| (decision, stats, None))
            };
            timings.decide += decide_start.elapsed();
            let (decision, stats, witness) = match outcome {
                Ok(result) => result,
                Err(trip) => return Err((trip.into(), trip.to_string())),
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
        Err((
            categorize_unproved(q1, q2),
            "the G-expressions could not be proven equal".to_string(),
        ))
    }
}

/// Stage ② without the cache, under the ambient run token.
fn try_normalize(query: &Query) -> Result<Query, limits::Trip> {
    cypher_normalizer::try_normalize_query_with(query, &mut ())
}

/// The `Unknown` verdict of a tripped run: the first recorded trip wins and
/// is carried verbatim into the failure taxonomy.
fn trip_verdict(trip: limits::Trip) -> Verdict {
    Verdict::Unknown { category: trip.into(), reason: trip.to_string() }
}

fn invalid(error: CheckError) -> Verdict {
    Verdict::Unknown { category: FailureCategory::InvalidQuery, reason: error.to_string() }
}

/// Stage ⓪ for a parsed pair: the two output signatures when type inference
/// produced one for each side (`None` when either signature is unknown, e.g.
/// `RETURN *`), or the `Unknown(TypeError)` verdict when either query has a
/// definite type error.
fn analyzed_signatures(q1: &Query, q2: &Query) -> Result<Option<SignaturePair>, Box<Verdict>> {
    let left = graphqe_analyzer::analyze(q1).map_err(|d| type_error("first", d))?;
    let right = graphqe_analyzer::analyze(q2).map_err(|d| type_error("second", d))?;
    Ok(left.signature.zip(right.signature))
}

/// Both sides' inferred output signatures, left then right.
type SignaturePair = (Vec<TypeSig>, Vec<TypeSig>);

fn type_error(side: &str, diagnostic: cypher_parser::Diagnostic) -> Verdict {
    Verdict::Unknown {
        category: FailureCategory::TypeError,
        reason: format!("{side} query: {diagnostic}"),
    }
}

fn categorize_build_error(error: BuildError) -> (FailureCategory, String) {
    // Exhaustive over the typed feature enum: adding a feature class to the
    // builder without deciding its failure category fails compilation here.
    let category = match error.feature {
        Some(gexpr::UnsupportedFeature::SortingTruncation) => FailureCategory::SortingTruncation,
        Some(gexpr::UnsupportedFeature::NestedAggregate) => FailureCategory::NestedAggregate,
        None => FailureCategory::Other,
    };
    (category, error.to_string())
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
    let norm: fn(&gexpr::GExpr) -> gexpr::GExpr =
        if tree_normalizer { gexpr::normalize_tree } else { gexpr::normalize };
    norm(&b1.expr).is_zero() && norm(&b2.expr).is_zero()
}

/// All permutations of the second query's columns whose kinds match the first
/// query's kinds position by position. The identity (if compatible) comes
/// first.
fn column_permutations(kinds1: &[ColumnKind], kinds2: &[ColumnKind]) -> Vec<Vec<usize>> {
    let n = kinds1.len();
    let mut result = Vec::new();
    let mut current = Vec::new();
    let mut used = vec![false; n];
    fn recurse(
        kinds1: &[ColumnKind],
        kinds2: &[ColumnKind],
        used: &mut Vec<bool>,
        current: &mut Vec<usize>,
        result: &mut Vec<Vec<usize>>,
    ) {
        let position = current.len();
        if position == kinds1.len() {
            result.push(current.clone());
            return;
        }
        for candidate in 0..kinds2.len() {
            if !used[candidate] && kinds2[candidate] == kinds1[position] {
                used[candidate] = true;
                current.push(candidate);
                recurse(kinds1, kinds2, used, current, result);
                current.pop();
                used[candidate] = false;
            }
        }
    }
    recurse(kinds1, kinds2, &mut used, &mut current, &mut result);
    // If no kind-compatible permutation exists (e.g. kinds were inferred
    // differently), fall back to the identity so at least the direct
    // comparison is attempted.
    if result.is_empty() && n > 0 {
        result.push((0..n).collect());
    }
    if n == 0 {
        result.push(Vec::new());
    }
    // Put the identity first.
    result.sort_by_key(|p| if is_identity(p) { 0 } else { 1 });
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

    /// Tests that read parse-cache counters or reconfigure its (global)
    /// capacity serialize here so they cannot evict each other's entries
    /// mid-assertion.
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
        let entry = parse_cache().lock().unwrap_or_else(|poison| poison.into_inner()).get(bypass);
        assert!(entry.is_none(), "use_parse_cache: false must not touch the cache");
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

    /// Tests that read normalize-cache counters or reconfigure its (global)
    /// capacity serialize here, like the parse-cache tests above.
    static NORMALIZE_CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn normalize_cache_replays_warm_certifications() {
        let _serial = NORMALIZE_CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prover = prover();
        // A unique text whose normalization does real work (undirected
        // relationship → union of directions).
        let text = "MATCH (nc_hit_test)-[r]-(m) RETURN nc_hit_test";
        let (_, misses_before) = normalize_cache_stats();
        assert!(prover.prove(text, text).is_equivalent());
        let (hits_mid, misses_mid) = normalize_cache_stats();
        assert!(misses_mid > misses_before, "first sight of a query must miss");
        // Warm re-certification: both sides replay from the cache.
        assert!(prover.prove(text, text).is_equivalent());
        let (hits_after, _) = normalize_cache_stats();
        assert!(hits_after >= hits_mid + 2, "warm re-certification must hit per side");
        // An opted-out prover bypasses the cache entirely: a text only this
        // check proves leaves no entry for its parsed query. (Sibling tests
        // prove concurrently, so the process-global counters cannot show a
        // bypass.)
        let uncached = GraphQE { use_normalize_cache: false, ..GraphQE::new() };
        let bypass = "MATCH (nc_bypass_test)-[r]-(m) RETURN nc_bypass_test";
        assert!(uncached.prove(bypass, bypass).is_equivalent());
        let query = parse_check_cached(bypass).expect("the text parses");
        let key = Arc::as_ptr(&query) as usize;
        let entry = normalize_cache().lock().unwrap_or_else(|poison| poison.into_inner()).get(&key);
        assert!(
            !matches!(entry, Some(entry) if Arc::ptr_eq(&entry.source, &query)),
            "use_normalize_cache: false must not touch the cache"
        );
    }

    #[test]
    fn normalize_cache_capacity_bound_holds_and_counts_evictions() {
        let _serial = NORMALIZE_CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let previous = set_normalize_cache_capacity(4);
        let evictions_before = normalize_cache_evictions();
        let prover = GraphQE { search_counterexamples: false, ..GraphQE::new() };
        for i in 0..12 {
            let text = format!("MATCH (nc_bound_{i}:L{i}) RETURN nc_bound_{i}");
            let _ = prover.prove(&text, &text);
            assert!(normalize_cache_len() <= 4, "bound exceeded: {}", normalize_cache_len());
        }
        assert!(normalize_cache_evictions() > evictions_before, "saturation must evict");
        set_normalize_cache_capacity(1);
        assert!(normalize_cache_len() <= 1);
        assert_eq!(set_normalize_cache_capacity(previous), 1);
    }

    #[test]
    fn normalized_stages_memoize_builds_across_threads() {
        let query =
            parse_check_cached("MATCH (nc_build_memo)-[r:R]->(m) RETURN nc_build_memo").unwrap();
        let stages = normalized_stages(&query).expect("normalization must succeed");
        let baseline = stages.build().expect("build must succeed");
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let stages = Arc::clone(&stages);
                let expected = baseline.clone();
                std::thread::spawn(move || {
                    assert_eq!(stages.build().expect("build must succeed"), expected);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        // The memoized build equals a fresh build of the normalized form.
        assert_eq!(build_query(stages.normalized()).unwrap(), baseline);
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
        let prover = GraphQE {
            search_config: SearchConfig { use_memo: false, ..SearchConfig::default() },
            ..GraphQE::new()
        };
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
