//! Counterexample search: certifying non-equivalence with a concrete graph.
//!
//! The paper reports that GraphQE rejects every pair of CyNeqSet by finding
//! `∃t. g1(t) ≠ g2(t)` satisfiable. Because our decision procedure abstracts
//! some features, a SAT answer alone is not a proof of non-equivalence;
//! instead the prover searches for a concrete property graph on which the
//! two queries return different bags — a strictly stronger certificate.
//!
//! ## Ownership and sharing
//!
//! Candidate pools are deterministic functions of `(search config,
//! query-derived vocabulary)`, so they are shared **process-wide**: each
//! pool is an `Arc<Mutex<LazyPool>>` in a sharded `RwLock` map keyed by the
//! interned vocabulary. A pool materializes its graphs *incrementally*: a
//! search pulls graph `i`, and the pool generates graphs up to `i` on
//! demand, keeping everything it generates. Early-exit searches therefore
//! stay lazy (random graphs past the first witness are never generated) and
//! still leave their prefix behind for the next search over the same
//! vocabulary — including the lazily built per-graph adjacency indexes,
//! which get built once per pooled graph for the whole process, not once
//! per search. Graphs are handed out as `Arc<PropertyGraph>` clones, so
//! evaluation runs outside the pool lock.
//!
//! Query plans are shared process-wide too (since PR 8): the plan cache
//! stores immutable `Send + Sync` [`FrozenPlan`] artifacts keyed by query
//! text, and each search thaws a thread-private working view in
//! microseconds — see the cache section below.
//!
//! ## Cancellation protocol of the parallel search
//!
//! [`find_counterexample_parallel`] first probes the deterministic seed
//! graphs sequentially (most non-equivalent pairs separate there — no
//! reason to spawn threads), then lets workers pull the remaining graph
//! indices from a single atomic cursor (dynamic load balancing —
//! evaluation cost varies wildly between the empty seed graph and a dense
//! 9-node random graph); the pool materializes the drawn index on demand
//! under its mutex. The first worker to find a witness stores it under a
//! mutex and raises a relaxed `AtomicBool`; other workers observe the flag
//! between graphs and stop pulling. Workers that are mid-evaluation finish
//! their graph; concurrently discovered witnesses resolve towards the
//! smaller pool index. The **verdict** (witness vs exhausted) is always
//! identical to the sequential search's — a witness at any index is found
//! by whichever worker draws that index, and exhaustion means every index
//! was drawn and cleared. The **identity** of the witness may vary with
//! scheduling: a fast worker can cancel the search before a lower-index
//! witness is drawn. Every reported witness is a valid certificate, and the
//! memo freezes whichever one a process reports first, so repeat
//! certifications within a process are stable.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use cypher_parser::ast::Query;
use property_graph::{
    Evaluator, FrozenPlan, GeneratorConfig, GraphGenerator, PropertyGraph, QueryPlan,
};

use crate::cache::LruMap;
use crate::verdict::Counterexample;

/// Configuration of the counterexample search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Number of random graphs to try (in addition to the deterministic
    /// seed graphs).
    pub random_graphs: usize,
    /// Seed of the random graph generator.
    pub seed: u64,
    /// Consult (and populate) the process-wide search-result memo. Disabled
    /// by benchmark baselines and tests that need the search machinery to
    /// actually run; the outcome is identical either way.
    pub use_memo: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { random_graphs: 120, seed: 0xC0FFEE, use_memo: true }
    }
}

// ---------------------------------------------------------------------------
// Vocabulary interning and the shared pool cache
// ---------------------------------------------------------------------------

/// Hash-consed generator vocabularies. `GeneratorConfig` carries label, key
/// and constant pools (vectors of strings); interning means a repeated search
/// over the same vocabulary hashes one pointer instead of re-hashing (and
/// [`PoolKey`] construction re-cloning) every vector.
static VOCABULARIES: OnceLock<Mutex<HashSet<Arc<GeneratorConfig>>>> = OnceLock::new();

fn intern_vocabulary(config: GeneratorConfig) -> Arc<GeneratorConfig> {
    let mut interner = VOCABULARIES
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    if let Some(existing) = interner.get(&config) {
        return Arc::clone(existing);
    }
    let interned = Arc::new(config);
    interner.insert(Arc::clone(&interned));
    interned
}

/// The full identity of a candidate pool: search parameters plus the interned
/// query-derived generator vocabulary. Interning makes vocabulary equality a
/// pointer comparison and its hash a pointer hash; distinct configurations
/// can never collide because the interner keys on the full config value.
#[derive(Clone)]
struct PoolKey {
    random_graphs: usize,
    seed: u64,
    vocabulary: Arc<GeneratorConfig>,
}

impl PartialEq for PoolKey {
    fn eq(&self, other: &Self) -> bool {
        self.random_graphs == other.random_graphs
            && self.seed == other.seed
            && Arc::ptr_eq(&self.vocabulary, &other.vocabulary)
    }
}

impl Eq for PoolKey {}

impl Hash for PoolKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.random_graphs.hash(state);
        self.seed.hash(state);
        Arc::as_ptr(&self.vocabulary).hash(state);
    }
}

/// A candidate pool that materializes its deterministic graph sequence on
/// demand and keeps everything it generates. `source: None` means the
/// sequence is exhausted and `graphs` is the complete pool.
struct LazyPool {
    graphs: Vec<Arc<PropertyGraph>>,
    source: Option<Box<dyn Iterator<Item = PropertyGraph> + Send>>,
}

impl LazyPool {
    fn new(config: &SearchConfig, vocabulary: GeneratorConfig) -> LazyPool {
        LazyPool {
            graphs: Vec::new(),
            source: Some(Box::new(candidate_graphs(config, vocabulary))),
        }
    }

    /// The graph at `index`, materializing up to it; `None` once the
    /// sequence is exhausted before `index`.
    fn graph(&mut self, index: usize) -> Option<Arc<PropertyGraph>> {
        while self.graphs.len() <= index {
            match self.source.as_mut()?.next() {
                Some(graph) => self.graphs.push(Arc::new(graph)),
                None => {
                    self.source = None;
                    return None;
                }
            }
        }
        self.graphs.get(index).cloned()
    }
}

/// One shared pool: graphs are pulled under the mutex (cheap — an `Arc`
/// clone, or one graph generation on a cache miss) and evaluated outside it.
type SharedPool = Arc<Mutex<LazyPool>>;

/// Shard count of the pool cache: a small power of two — contention is per
/// vocabulary and the outer map is read-mostly, sharding just keeps
/// unrelated vocabularies from serializing on one lock.
const POOL_SHARDS: usize = 8;

type PoolShard = RwLock<HashMap<PoolKey, SharedPool>>;

/// The candidate pools of the process, shared by every thread. Generation is
/// deterministic, so two searches with the same key explore the exact same
/// graphs; pools cached here carry their materialized prefix *and* the
/// lazily built adjacency indexes of those graphs, so repeated searches skip
/// regeneration and re-indexing alike.
static POOL_CACHE: OnceLock<[PoolShard; POOL_SHARDS]> = OnceLock::new();

fn pool_shard(key: &PoolKey) -> &'static PoolShard {
    let shards = POOL_CACHE.get_or_init(|| std::array::from_fn(|_| RwLock::new(HashMap::new())));
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    &shards[(hasher.finish() as usize) % POOL_SHARDS]
}

/// The shared pool for `key`, creating an empty lazy pool on first use.
fn shared_pool(key: &PoolKey, config: &SearchConfig) -> SharedPool {
    let shard = pool_shard(key);
    if let Some(pool) = shard.read().unwrap_or_else(|poison| poison.into_inner()).get(key) {
        return Arc::clone(pool);
    }
    let mut shard = shard.write().unwrap_or_else(|poison| poison.into_inner());
    Arc::clone(
        shard.entry(key.clone()).or_insert_with(|| {
            Arc::new(Mutex::new(LazyPool::new(config, (*key.vocabulary).clone())))
        }),
    )
}

/// The graph at `index` of the shared pool (see [`LazyPool::graph`]).
fn pool_graph(pool: &SharedPool, index: usize) -> Option<Arc<PropertyGraph>> {
    pool.lock().unwrap_or_else(|poison| poison.into_inner()).graph(index)
}

/// The shared pool for a query pair: derives and interns the vocabulary,
/// then resolves the pool through the sharded cache. Returns the interned
/// vocabulary alongside so callers can store it in the search memo.
fn pool_for(q1: &Query, q2: &Query, config: &SearchConfig) -> (SharedPool, Arc<GeneratorConfig>) {
    let vocabulary = intern_vocabulary(GeneratorConfig::from_queries(&[q1, q2]));
    let key = PoolKey {
        random_graphs: config.random_graphs,
        seed: config.seed,
        vocabulary: Arc::clone(&vocabulary),
    };
    (shared_pool(&key, config), vocabulary)
}

// ---------------------------------------------------------------------------
// The search-result memo
// ---------------------------------------------------------------------------

/// Identity of one completed search: the pretty-printed queries plus the
/// search parameters (the vocabulary is derived from the queries, so it is
/// implied by the key).
type SearchMemoKey = (String, String, usize, u64);

/// Everything needed to reconstruct a witness certificate from the
/// deterministic pool without re-running the queries: the pool index and
/// the differing row counts observed when the witness was found.
#[derive(Clone, Copy)]
struct WitnessSummary {
    pool_index: usize,
    left_rows: usize,
    right_rows: usize,
}

/// The memoized outcome of one search: the witness summary (`None` = pool
/// exhausted without one) plus the interned vocabulary, so a replay
/// resolves its pool without re-deriving the vocabulary from the ASTs.
type SearchMemoValue = (Option<WitnessSummary>, Arc<GeneratorConfig>);

/// Default capacity of the search-result memo: at a few hundred bytes per
/// entry (two pretty-printed queries plus a summary) the bound keeps the
/// memo in the low megabytes while comfortably covering both benchmark
/// datasets many times over.
///
/// The stamp-based LRU machinery itself lives in [`crate::cache::LruMap`]
/// since PR 5 — shared with the stage-① parse cache and the per-thread
/// query-plan cache.
const DEFAULT_SEARCH_MEMO_CAPACITY: usize = 4096;

/// The capacity-bounded LRU memo of completed searches. Without the bound
/// the memo grows one entry per distinct query pair and is only evicted by
/// the wholesale arena-budget reset — fine for the benchmark datasets,
/// unbounded for a service proving a diverse query stream.
type SearchMemo = LruMap<SearchMemoKey, SearchMemoValue>;

/// Completed searches, process-wide. This is the oracle-layer analog of the
/// decide stage's SMT formula cache: a service re-certifying the same pair
/// replays the verdict from the memo instead of re-evaluating hundreds of
/// graphs. Replay is sound because every ingredient is deterministic: the
/// pool regenerates the same graph at the same index, and the recorded row
/// counts are what evaluation would produce again (debug builds do re-run
/// [`check`] and assert it). Eviction is two-tier: the LRU capacity bound
/// (see [`SearchMemo`]) plus the wholesale reset riding the pool cache
/// ([`clear_pool_cache`]).
static SEARCH_MEMO: OnceLock<Mutex<SearchMemo>> = OnceLock::new();

fn search_memo() -> &'static Mutex<SearchMemo> {
    SEARCH_MEMO.get_or_init(|| Mutex::new(LruMap::new(DEFAULT_SEARCH_MEMO_CAPACITY)))
}

/// Hit counter of the search-result memo.
static SEARCH_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
/// Miss counter of the search-result memo.
static SEARCH_MEMO_MISSES: AtomicU64 = AtomicU64::new(0);
/// LRU eviction counter of the search-result memo (entries dropped by the
/// capacity bound; wholesale [`clear_pool_cache`] resets are not counted).
static SEARCH_MEMO_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide hit/miss counters of the search-result memo.
pub fn search_memo_stats() -> (u64, u64) {
    (SEARCH_MEMO_HITS.load(Ordering::Relaxed), SEARCH_MEMO_MISSES.load(Ordering::Relaxed))
}

/// Process-wide count of entries evicted by the memo's LRU capacity bound.
pub fn search_memo_evictions() -> u64 {
    SEARCH_MEMO_EVICTIONS.load(Ordering::Relaxed)
}

/// Current entry count of the search-result memo.
pub fn search_memo_len() -> usize {
    search_memo().lock().unwrap_or_else(|poison| poison.into_inner()).len()
}

/// Reconfigures the memo's capacity (clamped to at least 1), evicting down
/// to the new bound immediately. Returns the previous capacity so tests and
/// service configuration hooks can restore it.
pub fn set_search_memo_capacity(capacity: usize) -> usize {
    let mut memo = search_memo().lock().unwrap_or_else(|poison| poison.into_inner());
    let previous = memo.capacity();
    let evicted = memo.set_capacity(capacity);
    SEARCH_MEMO_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    previous
}

fn search_memo_key(q1: &Query, q2: &Query, config: &SearchConfig) -> SearchMemoKey {
    (
        cypher_parser::pretty::query_to_string(q1),
        cypher_parser::pretty::query_to_string(q2),
        config.random_graphs,
        config.seed,
    )
}

/// Replays a memoized search outcome, if any. `Some(verdict)` is the final
/// answer; `None` means the memo has no entry and the search must run.
///
/// A memoized exhaustion replays without touching the pool — or even
/// deriving the generator vocabulary — so re-certified
/// equivalent-but-unprovable pairs cost two pretty-prints and a hash probe.
/// A memoized witness fetches its graph from the deterministic pool and
/// reconstructs the certificate from the recorded summary; debug builds
/// additionally re-run the evaluation and assert it still witnesses.
fn replay_memoized_search(
    key: &SearchMemoKey,
    #[allow(unused_variables)] q1: &Query,
    #[allow(unused_variables)] q2: &Query,
    config: &SearchConfig,
) -> Option<Option<Counterexample>> {
    if !config.use_memo {
        return None;
    }
    let (outcome, vocabulary) =
        search_memo().lock().unwrap_or_else(|poison| poison.into_inner()).get(key)?;
    SEARCH_MEMO_HITS.fetch_add(1, Ordering::Relaxed);
    match outcome {
        None => Some(None),
        Some(summary) => {
            // The stored interned vocabulary resolves the pool directly.
            let pool_key =
                PoolKey { random_graphs: config.random_graphs, seed: config.seed, vocabulary };
            let graph = pool_graph(&shared_pool(&pool_key, config), summary.pool_index)?;
            debug_assert!(
                check_queries(q1, q2, &graph, summary.pool_index).is_some_and(|fresh| {
                    (fresh.left_rows, fresh.right_rows) == (summary.left_rows, summary.right_rows)
                }),
                "memoized witness no longer witnesses — determinism violated"
            );
            Some(Some(Counterexample {
                graph,
                left_rows: summary.left_rows,
                right_rows: summary.right_rows,
                pool_index: summary.pool_index,
            }))
        }
    }
}

fn memoize_search(
    key: SearchMemoKey,
    outcome: Option<&Counterexample>,
    vocabulary: Arc<GeneratorConfig>,
    config: &SearchConfig,
) {
    if !config.use_memo {
        return;
    }
    // Cache hygiene: a search cut short by a deadline/budget trip saw only a
    // prefix of the pool — memoizing its outcome (even a genuine witness,
    // whose index could differ from the untripped search's) would leak the
    // degraded run into later unlimited re-certifications.
    if limits::cancelled() {
        return;
    }
    SEARCH_MEMO_MISSES.fetch_add(1, Ordering::Relaxed);
    let summary = outcome.map(|example| WitnessSummary {
        pool_index: example.pool_index,
        left_rows: example.left_rows,
        right_rows: example.right_rows,
    });
    let evicted = search_memo()
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
        .insert(key, (summary, vocabulary));
    SEARCH_MEMO_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
}

/// Drops every cached candidate pool and interned vocabulary, process-wide.
/// Part of the epoch-based eviction story: the pools (fully generated graph
/// vectors plus their adjacency indexes, typically the largest allocations
/// of the prover) would otherwise accumulate one entry per distinct query
/// vocabulary forever. Pure memo — the generator is deterministic, so
/// eviction only costs regeneration.
pub fn clear_pool_cache() {
    let _serial = CLEAR_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    clear_pool_cache_locked();
}

/// [`clear_pool_cache`] guarded by the generation counter: clears only when
/// no other clear has happened since the caller last observed
/// `seen_generation` (and returns whether it cleared). This is the
/// epoch-hygiene primitive of multi-tenant serving: several workers or
/// tenants crossing their (thread-local) arena budgets around the same time
/// collapse into **one** wipe — a caller whose generation is stale adopts
/// the clear its peer just performed instead of also wiping the pools,
/// vocabularies and memo entries everyone else has started rebuilding. The
/// check and the clear happen under one lock, so two racing callers with the
/// same stale generation can never both clear.
pub fn clear_pool_cache_if_unchanged(seen_generation: u64) -> bool {
    let _serial = CLEAR_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    if CLEAR_GENERATION.load(Ordering::Relaxed) != seen_generation {
        return false;
    }
    clear_pool_cache_locked();
    true
}

/// The clear body; the caller must hold [`CLEAR_LOCK`].
fn clear_pool_cache_locked() {
    if let Some(shards) = POOL_CACHE.get() {
        for shard in shards {
            shard.write().unwrap_or_else(|poison| poison.into_inner()).clear();
        }
    }
    if let Some(interner) = VOCABULARIES.get() {
        interner.lock().unwrap_or_else(|poison| poison.into_inner()).clear();
    }
    if let Some(memo) = SEARCH_MEMO.get() {
        memo.lock().unwrap_or_else(|poison| poison.into_inner()).clear();
    }
    if let Some(plans) = PLAN_CACHE.get() {
        plans.lock().unwrap_or_else(|poison| poison.into_inner()).clear();
    }
    CLEAR_GENERATION.fetch_add(1, Ordering::Relaxed);
}

/// Monotonic count of [`clear_pool_cache`] calls in this process. Callers
/// that evict on their own (per-thread) triggers can compare generations to
/// avoid redundantly wiping shared state another thread just cleared — see
/// [`clear_pool_cache_if_unchanged`] and `GraphQE::prove_batch`.
pub fn pool_cache_generation() -> u64 {
    CLEAR_GENERATION.load(Ordering::Relaxed)
}

/// Generation counter of [`clear_pool_cache`], written only under
/// [`CLEAR_LOCK`] (reads are lock-free).
static CLEAR_GENERATION: AtomicU64 = AtomicU64::new(0);

/// Serializes the check-and-clear of [`clear_pool_cache_if_unchanged`] (and
/// every unconditional clear) so concurrent epoch trips cannot double-wipe.
static CLEAR_LOCK: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------------
// The process-wide frozen-plan cache
// ---------------------------------------------------------------------------

/// A thread-local working view of a shared [`FrozenPlan`]: the frozen
/// artifact (held alive by `Arc`) plus its thawed [`QueryPlan`] — the
/// `Rc`/`RefCell` working state the evaluator's hot loop needs. Thawing is
/// a per-search, microsecond-scale operation (name re-interning plus `Arc`
/// seeding); the expensive lowering happened exactly once, process-wide,
/// when the frozen plan was built. Evaluation must go through
/// [`CachedPlan::evaluate`]: the plans key on the frozen artifact's own
/// query instance.
pub(crate) struct CachedPlan {
    frozen: Arc<FrozenPlan>,
    plan: QueryPlan,
}

impl CachedPlan {
    fn thaw(frozen: Arc<FrozenPlan>) -> CachedPlan {
        let plan = frozen.thaw();
        CachedPlan { frozen, plan }
    }

    fn evaluate(
        &self,
        graph: &PropertyGraph,
    ) -> Result<property_graph::QueryResult, property_graph::EvalError> {
        Evaluator::new().evaluate_planned(graph, self.frozen.query(), &self.plan)
    }
}

/// Default capacity of the shared plan cache. An entry is a cloned AST plus
/// its name snapshot and lowered patterns — a few KB — so the bound keeps
/// the cache in the low megabytes while covering both benchmark datasets.
const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1024;

/// Hit/miss/eviction counters of the shared plan cache.
static PLAN_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static PLAN_CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// The frozen-plan cache, keyed by pretty-printed query text and shared by
/// every thread.
///
/// `PreparedQuery` (PR 4) amortizes planning *within* one search; this cache
/// amortizes it *across* searches — and, since PR 8, across **threads**: the
/// cached artifact is an immutable `Send + Sync` [`FrozenPlan`], so parallel
/// search workers and serve workers share one lowering instead of each
/// keeping a thread-local duplicate (a warm serve replay measured a plan hit
/// rate of only 0.26 because of that duplication). Each consumer thaws the
/// shared artifact into its own thread-private working view; the evaluator's
/// hot loop still runs on uncontended `Rc`/`RefCell` state.
static PLAN_CACHE: OnceLock<Mutex<LruMap<String, Arc<FrozenPlan>>>> = OnceLock::new();

fn plan_cache() -> &'static Mutex<LruMap<String, Arc<FrozenPlan>>> {
    PLAN_CACHE.get_or_init(|| Mutex::new(LruMap::new(DEFAULT_PLAN_CACHE_CAPACITY)))
}

/// The shared frozen plan for `query`, keyed by its pretty-printed `text`
/// (which the search memo key already computes). On a miss the freeze runs
/// **outside** the lock — like the parse cache, a racing duplicate freeze is
/// benign (both artifacts are equivalent; last insert wins).
fn frozen_plan(text: &str, query: &Query) -> Arc<FrozenPlan> {
    if let Some(hit) = plan_cache().lock().unwrap_or_else(|poison| poison.into_inner()).get(text) {
        PLAN_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return hit;
    }
    PLAN_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let frozen = Arc::new(FrozenPlan::new(query));
    let evicted = plan_cache()
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
        .insert(text.to_string(), Arc::clone(&frozen));
    PLAN_CACHE_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    frozen
}

/// A thawed working view of the shared plan for `query` (see
/// [`frozen_plan`] and [`CachedPlan`]).
fn cached_plan(text: &str, query: &Query) -> CachedPlan {
    CachedPlan::thaw(frozen_plan(text, query))
}

/// Hit/miss counters of the shared plan cache.
pub fn plan_cache_stats() -> (u64, u64) {
    (PLAN_CACHE_HITS.load(Ordering::Relaxed), PLAN_CACHE_MISSES.load(Ordering::Relaxed))
}

/// Count of plan-cache entries dropped by the capacity bound.
pub fn plan_cache_evictions() -> u64 {
    PLAN_CACHE_EVICTIONS.load(Ordering::Relaxed)
}

/// Entry count of the shared plan cache.
pub fn plan_cache_len() -> usize {
    plan_cache().lock().unwrap_or_else(|poison| poison.into_inner()).len()
}

/// Reconfigures the shared plan-cache capacity (clamped to at least 1),
/// evicting down to the new bound immediately. Returns the previous setting.
pub fn set_plan_cache_capacity(capacity: usize) -> usize {
    let mut cache = plan_cache().lock().unwrap_or_else(|poison| poison.into_inner());
    let previous = cache.capacity();
    let evicted = cache.set_capacity(capacity);
    PLAN_CACHE_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    previous
}

/// Drops every entry of the shared plan cache. Also rides
/// [`clear_pool_cache`], so the epoch-based wholesale reset reaches plans
/// the same way it reaches pools, vocabularies and the search memo.
pub fn clear_plan_cache() {
    plan_cache().lock().unwrap_or_else(|poison| poison.into_inner()).clear();
}

// ---------------------------------------------------------------------------
// The search
// ---------------------------------------------------------------------------

/// Evaluates both planned queries on one graph; `Some` when they disagree.
/// The certificate shares the pool's graph (`Arc` clone) instead of deep
/// copying it.
fn check(
    left: &CachedPlan,
    right: &CachedPlan,
    graph: &Arc<PropertyGraph>,
    pool_index: usize,
) -> Option<Counterexample> {
    let left_result = left.evaluate(graph).ok()?;
    let right_result = right.evaluate(graph).ok()?;
    if !left_result.bag_equal(&right_result) {
        return Some(Counterexample {
            graph: Arc::clone(graph),
            left_rows: left_result.len(),
            right_rows: right_result.len(),
            pool_index,
        });
    }
    None
}

/// [`check`] for callers holding plain queries: plans both sides ad hoc
/// (only the debug-build memo-replay validation takes this path).
fn check_queries(
    q1: &Query,
    q2: &Query,
    graph: &Arc<PropertyGraph>,
    pool_index: usize,
) -> Option<Counterexample> {
    let left = CachedPlan::thaw(Arc::new(FrozenPlan::new(q1)));
    let right = CachedPlan::thaw(Arc::new(FrozenPlan::new(q2)));
    check(&left, &right, graph, pool_index)
}

/// Searches for a property graph on which the two queries disagree,
/// sequentially and lazily: random graphs past the first witness are never
/// generated, let alone evaluated — but everything that *is* generated stays
/// in the shared pool for the next search over the same vocabulary.
pub fn find_counterexample(
    q1: &Query,
    q2: &Query,
    config: &SearchConfig,
) -> Option<Counterexample> {
    let memo_key = search_memo_key(q1, q2, config);
    if let Some(outcome) = replay_memoized_search(&memo_key, q1, q2, config) {
        return outcome;
    }
    let (pool, vocabulary) = pool_for(q1, q2, config);
    // Plans come from the per-thread cache (keyed by the memo key's
    // pretty-printed texts), so repeat searches skip planning entirely and
    // a fresh search still plans only once for the whole pool.
    let (left, right) = (cached_plan(&memo_key.0, q1), cached_plan(&memo_key.1, q2));
    let mut index = 0;
    loop {
        // Each candidate graph charges the ambient token *before* it is
        // generated: a tripped search aborts to `None` with the trip recorded
        // on the token — distinguishable from genuine exhaustion, which only
        // occurs with the token untripped (and is the only `None` memoized).
        if limits::search_step().is_err() {
            return None;
        }
        let Some(graph) = pool_graph(&pool, index) else { break };
        if let Some(example) = check(&left, &right, &graph, index) {
            memoize_search(memo_key, Some(&example), vocabulary, config);
            return Some(example);
        }
        index += 1;
    }
    memoize_search(memo_key, None, vocabulary, config);
    None
}

/// How many pool graphs the parallel search probes sequentially before
/// spawning workers: the deterministic seed graphs separate most
/// non-equivalent pairs, and probing them first avoids paying `threads`
/// speculative evaluations (and thread spawns) for a witness at index 0.
const PARALLEL_SEQUENTIAL_PREFIX: usize = 3;

/// Parallel counterexample search: probes the seed graphs sequentially,
/// then partitions the rest of the shared candidate pool across `threads`
/// scoped workers via an atomic cursor (the pool materializes drawn indices
/// on demand) and cancels the remaining workers once a witness is found.
/// See the module documentation for the cancellation protocol.
///
/// The **verdict** is deterministic and identical to
/// [`find_counterexample`]'s; the reported witness's pool index may differ
/// (scheduling decides which witness wins, never whether one exists). With
/// `threads <= 1` — including any request clamped down to 1 by the
/// machine's actual parallelism — this *is* the sequential search: on a
/// one-core box the parallel driver's spawn/partition overhead more than
/// doubles search latency (15.0 ms parallel vs 6.5 ms
/// sequential) and can never pay for itself.
pub fn find_counterexample_parallel(
    q1: &Query,
    q2: &Query,
    config: &SearchConfig,
    threads: usize,
) -> Option<Counterexample> {
    let threads = threads.min(crate::machine_parallelism());
    if threads <= 1 {
        return find_counterexample(q1, q2, config);
    }
    let memo_key = search_memo_key(q1, q2, config);
    if let Some(outcome) = replay_memoized_search(&memo_key, q1, q2, config) {
        return outcome;
    }
    let (pool, vocabulary) = pool_for(q1, q2, config);

    // Sequential prefix over the seed graphs (plans thawed from the shared
    // frozen-plan cache, populated by any earlier search of the same texts).
    let (left, right) = (cached_plan(&memo_key.0, q1), cached_plan(&memo_key.1, q2));
    for index in 0..PARALLEL_SEQUENTIAL_PREFIX {
        if limits::search_step().is_err() {
            return None;
        }
        let Some(graph) = pool_graph(&pool, index) else {
            memoize_search(memo_key, None, vocabulary, config);
            return None;
        };
        if let Some(example) = check(&left, &right, &graph, index) {
            memoize_search(memo_key, Some(&example), vocabulary, config);
            return Some(example);
        }
    }

    // Workers share the spawning thread's run token (deadline and budget
    // counters): tripping piggybacks on the first-witness-wins cancellation
    // flag, so one worker's trip stops the others from pulling new graphs.
    let token = limits::current_token();
    let cursor = AtomicUsize::new(PARALLEL_SEQUENTIAL_PREFIX);
    let found = AtomicBool::new(false);
    let best: Mutex<Option<Counterexample>> = Mutex::new(None);
    std::thread::scope(|scope| {
        // No point spawning more workers than random graphs remain.
        for _ in 0..threads.min(config.random_graphs.max(1)) {
            scope.spawn(|| {
                let work = || {
                    // Each worker thaws its own working view of the shared
                    // frozen plans (a cache hit plus a microsecond-scale
                    // re-intern): the lowering was done once process-wide,
                    // and the hot loop still runs on the worker's private,
                    // uncontended `Rc`/`RefCell` state.
                    let (left, right) =
                        (cached_plan(&memo_key.0, q1), cached_plan(&memo_key.1, q2));
                    loop {
                        if found.load(Ordering::Relaxed) {
                            break;
                        }
                        // The shared token's counters make the budget global
                        // across workers; a trip cancels the token, which the
                        // other workers observe on their own next tick.
                        if limits::search_step().is_err() {
                            break;
                        }
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(graph) = pool_graph(&pool, index) else { break };
                        if let Some(example) = check(&left, &right, &graph, index) {
                            let mut best = best.lock().unwrap_or_else(|poison| poison.into_inner());
                            // First witness wins the race; ties across
                            // workers are broken towards the smaller pool
                            // index so the reported witness is deterministic.
                            if best.as_ref().is_none_or(|b| example.pool_index < b.pool_index) {
                                *best = Some(example);
                            }
                            found.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                };
                match token.clone() {
                    Some(token) => limits::with_token(token, work),
                    None => work(),
                }
            });
        }
    });
    let outcome = best.into_inner().unwrap_or_else(|poison| poison.into_inner());
    memoize_search(memo_key, outcome.as_ref(), vocabulary, config);
    outcome
}

/// The graphs explored by the search: the paper's Fig. 1 graph, a couple of
/// tiny deterministic graphs, then random graphs of increasing size whose
/// labels, property keys and constants are drawn from the queries themselves
/// (so that their predicates actually select rows).
///
/// The candidates are produced **lazily**: random graphs past the first
/// witnessing counterexample are never generated, let alone evaluated. On
/// CyNeqSet most pairs are separated by one of the deterministic seed graphs
/// or the first few random ones, so the bulk of the (previously eager) pool
/// is skipped entirely.
fn candidate_graphs(
    config: &SearchConfig,
    vocabulary: GeneratorConfig,
) -> impl Iterator<Item = PropertyGraph> {
    // A small dense graph with self-loops and parallel edges: good at
    // separating direction / multiplicity differences.
    let mut dense = PropertyGraph::new();
    let a = dense.add_node(["Person"], [("name", "a".into()), ("age", 1.into()), ("p1", 1.into())]);
    let b = dense.add_node(["Person", "Book"], [("name", "b".into()), ("p1", 2.into())]);
    let c = dense.add_node(Vec::<String>::new(), [("p1", 3.into()), ("age", 3.into())]);
    dense.add_relationship("READ", a, b, [("date", 1.into())]);
    dense.add_relationship("READ", b, a, [("date", 2.into())]);
    dense.add_relationship("KNOWS", a, a, Vec::<(String, property_graph::Value)>::new());
    dense.add_relationship("KNOWS", a, c, Vec::<(String, property_graph::Value)>::new());
    dense.add_relationship("KNOWS", c, b, Vec::<(String, property_graph::Value)>::new());
    let seeds = vec![PropertyGraph::new(), PropertyGraph::paper_example(), dense];

    let small_count = config.random_graphs / 2;
    let large_count = config.random_graphs - small_count;
    let mut small = GraphGenerator::with_config(config.seed, vocabulary.clone());
    // A second pool with larger graphs.
    let mut large = GraphGenerator::with_config(
        config.seed.wrapping_add(1),
        GeneratorConfig { max_nodes: 9, max_relationships: 16, ..vocabulary },
    );
    seeds
        .into_iter()
        .chain((0..small_count).map(move |_| small.generate()))
        .chain((0..large_count).map(move |_| large.generate()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;
    use property_graph::evaluate_query;

    fn search(q1: &str, q2: &str) -> Option<Counterexample> {
        find_counterexample(
            &parse_query(q1).unwrap(),
            &parse_query(q2).unwrap(),
            &SearchConfig::default(),
        )
    }

    #[test]
    fn finds_direction_flips() {
        let example = search(
            "MATCH (a:Person)-[r:READ]->(b) RETURN a.name",
            "MATCH (a:Person)<-[r:READ]-(b) RETURN a.name",
        );
        assert!(example.is_some());
    }

    #[test]
    fn finds_label_changes() {
        assert!(search("MATCH (n:Person) RETURN n", "MATCH (n:Book) RETURN n").is_some());
    }

    #[test]
    fn finds_distinct_differences() {
        assert!(search(
            "MATCH (n:Person)-[:READ]->(b) RETURN b.title",
            "MATCH (n:Person)-[:READ]->(b) RETURN DISTINCT b.title"
        )
        .is_some());
    }

    #[test]
    fn finds_union_vs_union_all() {
        assert!(search(
            "MATCH (n:Person) RETURN n UNION ALL MATCH (n:Person) RETURN n",
            "MATCH (n:Person) RETURN n UNION MATCH (n:Person) RETURN n"
        )
        .is_some());
    }

    #[test]
    fn equivalent_queries_have_no_counterexample() {
        assert!(search("MATCH (a)-[r]->(b) RETURN a", "MATCH (b)<-[r]-(a) RETURN a").is_none());
    }

    #[test]
    fn repeated_searches_reuse_the_exhausted_pool_and_agree() {
        // An equivalent pair exhausts the pool (no witness) and caches it;
        // the second search over the same vocabulary must reach the same
        // conclusion through the cached pool.
        let q1 = "MATCH (a)-[r]->(b) RETURN a";
        let q2 = "MATCH (b)<-[r]-(a) RETURN a";
        assert!(search(q1, q2).is_none());
        assert!(search(q1, q2).is_none());
        // A non-equivalent pair with the same (default) vocabulary is still
        // separated when scanning the now-cached pool.
        assert!(search("MATCH (a)-[r]->(b) RETURN a", "MATCH (a)-[r]->(b) RETURN b").is_some());
    }

    #[test]
    fn finds_limit_differences() {
        assert!(search(
            "MATCH (n:Person) RETURN n.name ORDER BY n.name LIMIT 1",
            "MATCH (n:Person) RETURN n.name ORDER BY n.name LIMIT 2"
        )
        .is_some());
    }

    #[test]
    fn vocabulary_interning_is_pointer_stable() {
        let q1 = parse_query("MATCH (n:Zebra) RETURN n").unwrap();
        let q2 = parse_query("MATCH (n:Yak) RETURN n").unwrap();
        let a = intern_vocabulary(GeneratorConfig::from_queries(&[&q1, &q2]));
        let b = intern_vocabulary(GeneratorConfig::from_queries(&[&q1, &q2]));
        assert!(Arc::ptr_eq(&a, &b), "same vocabulary must intern to the same Arc");
        let c = intern_vocabulary(GeneratorConfig::from_queries(&[&q1, &q1]));
        assert!(!Arc::ptr_eq(&a, &c), "different vocabularies must not share an Arc");
    }

    #[test]
    fn parallel_search_agrees_with_sequential() {
        let cases = [
            // Non-equivalent: both must find a witness.
            (
                "MATCH (a:Person)-[r:READ]->(b) RETURN a.name",
                "MATCH (a:Person)<-[r:READ]-(b) RETURN a.name",
            ),
            ("MATCH (n:Person) RETURN n", "MATCH (n:Book) RETURN n"),
            // Equivalent: both must exhaust the pool.
            ("MATCH (a)-[r]->(b) RETURN a", "MATCH (b)<-[r]-(a) RETURN a"),
        ];
        // The memo is bypassed so the worker/cancellation machinery actually
        // runs — a memo replay would trivially agree with the sequential
        // search without exercising it.
        let config = SearchConfig { use_memo: false, ..SearchConfig::default() };
        for (left, right) in cases {
            let q1 = parse_query(left).unwrap();
            let q2 = parse_query(right).unwrap();
            let sequential = find_counterexample(&q1, &q2, &config);
            for threads in [2, 4] {
                let parallel = find_counterexample_parallel(&q1, &q2, &config, threads);
                assert_eq!(
                    sequential.is_some(),
                    parallel.is_some(),
                    "parallel verdict diverged on {left} vs {right} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_witness_actually_witnesses() {
        let q1 = parse_query("MATCH (n:Person) RETURN n").unwrap();
        let q2 = parse_query("MATCH (n:Book) RETURN n").unwrap();
        // Bypass the memo so the parallel workers really search.
        let config = SearchConfig { use_memo: false, ..SearchConfig::default() };
        let example = find_counterexample_parallel(&q1, &q2, &config, 3).expect("witness expected");
        // The reported graph must really separate the queries (the scheduling
        // decides *which* witness wins, never *whether* one is a witness).
        let left = evaluate_query(&example.graph, &q1).unwrap();
        let right = evaluate_query(&example.graph, &q2).unwrap();
        assert!(!left.bag_equal(&right));
        assert_eq!((left.len(), right.len()), (example.left_rows, example.right_rows));
        // And its pool index points at that same graph in the shared pool.
        let sequential = find_counterexample(&q1, &q2, &config).expect("witness expected");
        assert!(example.pool_index >= sequential.pool_index);
    }

    #[test]
    fn memoized_searches_replay_identical_outcomes() {
        let q1 = parse_query("MATCH (n:Person {p2: 4}) RETURN n").unwrap();
        let q2 = parse_query("MATCH (n:Book {p2: 4}) RETURN n").unwrap();
        let config = SearchConfig::default();
        let first = find_counterexample(&q1, &q2, &config).expect("witness expected");
        // A concurrently running eviction test can clear the memo between
        // searches; retry a few times — a hit must be observable eventually.
        let mut replayed = None;
        for _ in 0..5 {
            let (hits_before, _) = search_memo_stats();
            let outcome = find_counterexample(&q1, &q2, &config).expect("witness expected");
            if search_memo_stats().0 > hits_before {
                replayed = Some(outcome);
                break;
            }
        }
        let replayed = replayed.expect("no search hit the memo in five attempts");
        // The replayed certificate is recomputed, not copied: same witness
        // graph, same row counts.
        assert_eq!(first.pool_index, replayed.pool_index);
        assert_eq!(first.graph, replayed.graph);
        assert_eq!((first.left_rows, first.right_rows), (replayed.left_rows, replayed.right_rows));
    }

    /// Tests that reconfigure the (process-global) memo capacity serialize
    /// here so their bound assertions cannot observe each other's settings.
    static MEMO_CAPACITY_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn search_memo_capacity_bound_evicts_lru() {
        let _serial = MEMO_CAPACITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let q1 = parse_query("MATCH (n:Person) RETURN n").unwrap();
        let q2 = parse_query("MATCH (n:Book) RETURN n").unwrap();
        let previous_capacity = set_search_memo_capacity(3);
        let evictions_before = search_memo_evictions();
        // Six distinct memo keys (the key includes the seed) through a
        // 3-entry memo: the bound must hold and evictions must happen. The
        // pair is separated by the deterministic paper graph, so each search
        // is cheap.
        for seed in 0..6 {
            let config = SearchConfig { random_graphs: 2, seed, use_memo: true };
            assert!(find_counterexample(&q1, &q2, &config).is_some());
        }
        assert!(
            search_memo_len() <= 3,
            "memo exceeded its capacity bound: {} entries",
            search_memo_len()
        );
        assert!(
            search_memo_evictions() > evictions_before,
            "saturating the memo must evict LRU entries"
        );
        // The most recently inserted key survives eviction and replays from
        // the memo. (A concurrently running eviction/clear test can drop the
        // entry between searches; retry like the replay test does — each
        // miss re-inserts, so a hit must become observable.)
        let config = SearchConfig { random_graphs: 2, seed: 5, use_memo: true };
        let mut hit = false;
        for _ in 0..5 {
            let (hits_before, _) = search_memo_stats();
            assert!(find_counterexample(&q1, &q2, &config).is_some());
            if search_memo_stats().0 > hits_before {
                hit = true;
                break;
            }
        }
        assert!(hit, "no search hit the memo in five attempts");
        set_search_memo_capacity(previous_capacity);
    }

    #[test]
    fn shrinking_the_memo_capacity_evicts_down_immediately() {
        let _serial = MEMO_CAPACITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let q1 = parse_query("MATCH (n:Cat) RETURN n").unwrap();
        let q2 = parse_query("MATCH (n:Dog) RETURN n").unwrap();
        let previous_capacity = set_search_memo_capacity(8);
        for seed in 100..104 {
            let config = SearchConfig { random_graphs: 2, seed, use_memo: true };
            let _ = find_counterexample(&q1, &q2, &config);
        }
        set_search_memo_capacity(1);
        assert!(search_memo_len() <= 1);
        // Capacity is clamped to at least one entry.
        set_search_memo_capacity(0);
        let restored = set_search_memo_capacity(previous_capacity);
        assert_eq!(restored, 1);
    }

    #[test]
    fn plan_cache_bound_holds_and_repeats_hit() {
        // The cache is process-wide and the capacity is enforced on every
        // insert, so the bound holds even with other tests inserting
        // concurrently — their inserts also evict down to the bound.
        let previous = set_plan_cache_capacity(3);
        let evictions_before = plan_cache_evictions();
        let queries: Vec<Query> = (0..8)
            .map(|i| parse_query(&format!("MATCH (pc{i}:PlanCacheT{i}) RETURN pc{i}")).unwrap())
            .collect();
        for query in &queries {
            let text = cypher_parser::pretty::query_to_string(query);
            let _ = cached_plan(&text, query);
            assert!(
                plan_cache_len() <= 3,
                "plan cache exceeded its bound: {} entries",
                plan_cache_len()
            );
        }
        assert!(plan_cache_evictions() > evictions_before, "saturation must evict");
        // The most recently planned text replays from the shared cache. (A
        // concurrently running test can evict it between probes; retry — a
        // miss re-inserts, so a hit must become observable.)
        let text = cypher_parser::pretty::query_to_string(&queries[7]);
        let mut replayed = None;
        for _ in 0..5 {
            let (hits_before, _) = plan_cache_stats();
            let plan = cached_plan(&text, &queries[7]);
            if plan_cache_stats().0 > hits_before {
                replayed = Some(plan);
                break;
            }
        }
        let replayed = replayed.expect("no probe hit the plan cache in five attempts");
        // And the thawed plan still evaluates correctly.
        let graph = Arc::new(PropertyGraph::paper_example());
        assert!(replayed.evaluate(&graph).is_ok());
        set_plan_cache_capacity(previous);
    }

    #[test]
    fn frozen_plans_are_shared_across_threads() {
        let query = parse_query("MATCH (ct:CrossThread)-[r]->(b) RETURN ct, b").unwrap();
        let text = cypher_parser::pretty::query_to_string(&query);
        let first = frozen_plan(&text, &query);
        let expected = {
            let graph = PropertyGraph::paper_example();
            CachedPlan::thaw(Arc::clone(&first)).evaluate(&graph).unwrap()
        };
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let query = query.clone();
                let text = text.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    // Every thread resolves the same shared artifact (or a
                    // benign racing duplicate) and evaluates identically.
                    let plan = cached_plan(&text, &query);
                    let graph = PropertyGraph::paper_example();
                    let got = plan.evaluate(&graph).unwrap();
                    assert!(got.ordered_equal(&expected));
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn cached_plans_evaluate_identically_to_fresh_plans() {
        let q = parse_query("MATCH (a:Person)-[r:READ]->(b) RETURN a.name, b.title").unwrap();
        let text = cypher_parser::pretty::query_to_string(&q);
        let cached = cached_plan(&text, &q);
        let graph = PropertyGraph::paper_example();
        let through_cache = cached.evaluate(&graph).unwrap();
        let fresh = evaluate_query(&graph, &q).unwrap();
        assert!(through_cache.ordered_equal(&fresh), "cached plan diverged from fresh plan");
    }

    #[test]
    fn clearing_the_pool_cache_only_costs_regeneration() {
        let q1 = parse_query("MATCH (a)-[r]->(b) RETURN a").unwrap();
        let q2 = parse_query("MATCH (b)<-[r]-(a) RETURN a").unwrap();
        let config = SearchConfig { random_graphs: 6, ..SearchConfig::default() };
        assert!(find_counterexample(&q1, &q2, &config).is_none());
        clear_pool_cache();
        assert!(find_counterexample(&q1, &q2, &config).is_none());
    }
}
