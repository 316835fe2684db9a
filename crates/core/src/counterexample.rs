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
//! Candidate pools are deterministic functions of the query-derived
//! vocabulary, so they are shared **process-wide**: each pool is an
//! `Arc<Mutex<LazyPool>>` in one `Mutex<HashMap>` keyed by the vocabulary's
//! value, and a memoized witness holds the pool it was found in. A pool
//! materializes its graphs *incrementally*: a search pulls graph `i`, and
//! the pool generates graphs up to `i` on demand, keeping everything it
//! generates. Early-exit searches therefore stay lazy (random graphs past
//! the first witness are never generated) and still leave their prefix
//! behind for the next search over the same vocabulary. A pool graph is its data and nothing more: the
//! matcher scans its flat vectors, so no per-graph index is built. Graphs
//! are handed out as `Arc<PropertyGraph>` clones, so evaluation runs outside
//! the pool lock.
//!
//! Every pool starts with the same three seed graphs (empty, the paper's
//! Fig. 1 graph, a small dense graph). They do not depend on the
//! vocabulary, so they are built once per process, every pool holds `Arc`
//! clones of them, and they survive [`clear_pool_cache`]. The random graphs
//! after them come from two [`GraphGenerator`]s per pool, small and large,
//! which read the pool's vocabulary without copying it and share one name
//! table between them and with every graph they generate: generating a
//! graph draws label, type and key ids, not names.
//!
//! Each search runs on the calling thread. It lowers both queries once with
//! [`QueryPlan::new`] and evaluates every graph it tries through those
//! plans, so a pool graph costs the search only the work its two queries do
//! on it. The search walks the pool in index order, so its witness is the
//! lowest-index graph that separates the queries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock, PoisonError};

use cypher_parser::ast::Query;
use property_graph::{evaluate_rows, GeneratorConfig, GraphGenerator, PropertyGraph, QueryPlan};

use crate::cache::LruMap;
use crate::verdict::Counterexample;

/// Configuration of the counterexample search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Consult (and populate) the process-wide search-result memo. Disabled
    /// by benchmark baselines and tests that need the search machinery to
    /// actually run; the outcome is identical either way.
    pub use_memo: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { use_memo: true }
    }
}

/// Number of random graphs in every pool, after the three seed graphs.
const RANDOM_GRAPHS: usize = 120;

/// Seed of every pool's small-graph generator (its large-graph sibling takes
/// the next seed).
const POOL_SEED: u64 = 0xC0FFEE;

// ---------------------------------------------------------------------------
// The shared pool cache
// ---------------------------------------------------------------------------

/// A candidate pool that materializes its deterministic graph sequence on
/// demand and keeps everything it generates. It starts with the three shared
/// seed graphs; `source: None` means the sequence is exhausted and `graphs`
/// is the complete pool.
struct LazyPool {
    graphs: Vec<Arc<PropertyGraph>>,
    source: Option<Box<dyn Iterator<Item = PropertyGraph> + Send>>,
}

impl LazyPool {
    fn new(vocabulary: &Arc<GeneratorConfig>) -> LazyPool {
        LazyPool {
            graphs: seed_graphs().to_vec(),
            source: Some(Box::new(random_graphs(vocabulary))),
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

/// The candidate pools of the process, one per generator vocabulary (compared
/// and hashed by value), shared by every thread. Generation is
/// deterministic, so two searches over the same vocabulary explore the exact
/// same graphs; pools cached here carry their materialized prefix, so
/// repeated searches skip regeneration.
static POOLS: LazyLock<Mutex<HashMap<Arc<GeneratorConfig>, SharedPool>>> =
    LazyLock::new(Mutex::default);

/// The graph at `index` of the shared pool (see [`LazyPool::graph`]).
fn pool_graph(pool: &SharedPool, index: usize) -> Option<Arc<PropertyGraph>> {
    pool.lock().unwrap_or_else(PoisonError::into_inner).graph(index)
}

/// The shared pool for a query pair: derives the vocabulary and resolves
/// the pool through the cache, creating an empty lazy pool on first use.
fn pool_for(q1: &Query, q2: &Query) -> SharedPool {
    let vocabulary = Arc::new(GeneratorConfig::from_queries(&[q1, q2]));
    let mut pools = POOLS.lock().unwrap_or_else(PoisonError::into_inner);
    let pool = pools
        .entry(vocabulary)
        .or_insert_with_key(|vocabulary| Arc::new(Mutex::new(LazyPool::new(vocabulary))));
    Arc::clone(pool)
}

// ---------------------------------------------------------------------------
// The search-result memo
// ---------------------------------------------------------------------------

/// Identity of one completed search: the pretty-printed queries (the pool's
/// vocabulary is derived from the queries, so it is implied by the key).
type SearchMemoKey = (String, String);

/// Everything needed to reconstruct a witness certificate without re-running
/// the queries: the pool the search walked, the witness's index there and
/// the differing row counts observed when it was found.
#[derive(Clone)]
struct WitnessSummary {
    pool: SharedPool,
    pool_index: usize,
    left_rows: usize,
    right_rows: usize,
}

/// Default capacity of the search-result memo: at a few hundred bytes per
/// entry (two pretty-printed queries plus a summary) the bound keeps the
/// memo in the low megabytes while comfortably covering both benchmark
/// datasets many times over.
///
/// The stamp-based LRU machinery itself lives in [`crate::cache::LruMap`],
/// shared with the parse cache.
const DEFAULT_SEARCH_MEMO_CAPACITY: usize = 4096;

/// The capacity-bounded LRU memo of completed searches, each with its witness
/// (`None` = pool exhausted without one). Without the bound the memo grows
/// one entry per distinct query pair and is only evicted by the wholesale
/// arena-budget reset — fine for the benchmark datasets, unbounded for a
/// service proving a diverse query stream.
type SearchMemo = LruMap<SearchMemoKey, Option<WitnessSummary>>;

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

fn search_memo_key(q1: &Query, q2: &Query) -> SearchMemoKey {
    (cypher_parser::pretty::query_to_string(q1), cypher_parser::pretty::query_to_string(q2))
}

/// Replays a memoized search outcome, if any. `Some(verdict)` is the final
/// answer; `None` means the memo has no entry and the search must run.
///
/// A memoized exhaustion replays without touching the pool — or even
/// deriving the generator vocabulary — so re-certified
/// equivalent-but-unprovable pairs cost two pretty-prints and a hash probe.
/// A memoized witness fetches its graph from the pool it holds and
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
    let outcome = search_memo().lock().unwrap_or_else(|poison| poison.into_inner()).get(key)?;
    SEARCH_MEMO_HITS.fetch_add(1, Ordering::Relaxed);
    match outcome {
        None => Some(None),
        Some(summary) => {
            let graph = pool_graph(&summary.pool, summary.pool_index)?;
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
    pool: &SharedPool,
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
        pool: Arc::clone(pool),
        pool_index: example.pool_index,
        left_rows: example.left_rows,
        right_rows: example.right_rows,
    });
    let evicted =
        search_memo().lock().unwrap_or_else(|poison| poison.into_inner()).insert(key, summary);
    SEARCH_MEMO_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
}

/// Drops every cached candidate pool and memoized search, process-wide.
/// Part of the epoch-based eviction story: the pools (fully generated graph
/// vectors, typically the largest allocations of the prover) would
/// otherwise accumulate one entry per distinct query vocabulary forever.
/// Pure memo — the generator is deterministic, so eviction only costs
/// regeneration.
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
/// the clear its peer just performed instead of also wiping the pools and
/// memo entries everyone else has started rebuilding. The
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
    POOLS.lock().unwrap_or_else(PoisonError::into_inner).clear();
    if let Some(memo) = SEARCH_MEMO.get() {
        memo.lock().unwrap_or_else(|poison| poison.into_inner()).clear();
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
// The retired plan-cache API
// ---------------------------------------------------------------------------

/// Always `(0, 0)`: searches plan their queries afresh, so there is no plan
/// cache to hit or miss. Kept only because the benchmark reads it for its
/// `cache.plan.*` rows; it goes when a benchmark change retires those rows
/// and the benchmark's `search_threads: 1`.
pub fn plan_cache_stats() -> (u64, u64) {
    (0, 0)
}

/// Always 0: there is no plan cache to evict from. Kept only because the
/// benchmark reads it for its `cache.plan.*` rows; it goes when a benchmark
/// change retires those rows and the benchmark's `search_threads: 1`.
pub fn plan_cache_evictions() -> u64 {
    0
}

/// Does nothing and returns 0: there is no plan cache to resize. Kept only
/// because the benchmark's `plan-cache-off` ablation calls it; it goes when a
/// benchmark change retires the `cache.plan.*` rows and the benchmark's
/// `search_threads: 1`.
pub fn set_plan_cache_capacity(_capacity: usize) -> usize {
    0
}

/// Does nothing: there is no plan cache to clear. Kept only because the
/// benchmark's cold-pass clear calls it; it goes when a benchmark change
/// retires the `cache.plan.*` rows and the benchmark's `search_threads: 1`.
pub fn clear_plan_cache() {}

// ---------------------------------------------------------------------------
// The search
// ---------------------------------------------------------------------------

/// Evaluates both planned queries on one graph; `Some` when they disagree.
/// The certificate shares the pool's graph (`Arc` clone) instead of deep
/// copying it.
fn check(
    left: &QueryPlan,
    right: &QueryPlan,
    graph: &Arc<PropertyGraph>,
    pool_index: usize,
) -> Option<Counterexample> {
    let left_result = evaluate_rows(graph, left).ok()?;
    let right_result = evaluate_rows(graph, right).ok()?;
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

/// [`check`] with both sides planned ad hoc (only the debug-build
/// memo-replay validation takes this path).
fn check_queries(
    q1: &Query,
    q2: &Query,
    graph: &Arc<PropertyGraph>,
    pool_index: usize,
) -> Option<Counterexample> {
    check(&QueryPlan::new(q1), &QueryPlan::new(q2), graph, pool_index)
}

/// Searches for a property graph on which the two queries disagree, on the
/// calling thread and lazily: random graphs past the first witness are never
/// generated, let alone evaluated — but everything that *is* generated stays
/// in the shared pool for the next search over the same vocabulary. The
/// witness is the lowest pool index that separates the queries.
pub fn find_counterexample(
    q1: &Query,
    q2: &Query,
    config: &SearchConfig,
) -> Option<Counterexample> {
    let memo_key = search_memo_key(q1, q2);
    if let Some(outcome) = replay_memoized_search(&memo_key, q1, q2, config) {
        return outcome;
    }
    let pool = pool_for(q1, q2);
    // One plan per query for the whole search, lowered once and reused on
    // every graph.
    let (left, right) = (QueryPlan::new(q1), QueryPlan::new(q2));
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
            memoize_search(memo_key, Some(&example), &pool, config);
            return Some(example);
        }
        index += 1;
    }
    memoize_search(memo_key, None, &pool, config);
    None
}

/// The deterministic seed graphs every pool starts with: the empty graph, the
/// paper's Fig. 1 graph, and a small dense graph with self-loops and parallel
/// edges (good at separating direction / multiplicity differences). They do
/// not depend on the vocabulary, so they are built once per process and
/// shared by every pool.
fn seed_graphs() -> &'static [Arc<PropertyGraph>; 3] {
    static SEEDS: OnceLock<[Arc<PropertyGraph>; 3]> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let no_properties = Vec::<(&str, property_graph::Value)>::new;
        let mut dense = PropertyGraph::new();
        let a =
            dense.add_node(["Person"], [("name", "a".into()), ("age", 1.into()), ("p1", 1.into())]);
        let b = dense.add_node(["Person", "Book"], [("name", "b".into()), ("p1", 2.into())]);
        let c = dense.add_node(Vec::<&str>::new(), [("p1", 3.into()), ("age", 3.into())]);
        dense.add_relationship("READ", a, b, [("date", 1.into())]);
        dense.add_relationship("READ", b, a, [("date", 2.into())]);
        dense.add_relationship("KNOWS", a, a, no_properties());
        dense.add_relationship("KNOWS", a, c, no_properties());
        dense.add_relationship("KNOWS", c, b, no_properties());
        [PropertyGraph::new(), PropertyGraph::paper_example(), dense].map(Arc::new)
    })
}

/// The random graphs explored after the seeds: small graphs, then larger
/// ones, whose labels, property keys and constants are drawn from the
/// queries themselves (so that their predicates actually select rows).
///
/// The candidates are produced **lazily**: random graphs past the first
/// witnessing counterexample are never generated, let alone evaluated. On
/// CyNeqSet most pairs are separated by one of the deterministic seed graphs
/// or the first few random ones, so the bulk of the pool is skipped entirely.
fn random_graphs(vocabulary: &Arc<GeneratorConfig>) -> impl Iterator<Item = PropertyGraph> {
    let small_count = RANDOM_GRAPHS / 2;
    let large_count = RANDOM_GRAPHS - small_count;
    let mut small = GraphGenerator::shared(POOL_SEED, Arc::clone(vocabulary));
    // A second pool with larger graphs, over the same vocabulary.
    let mut large = small.sibling(POOL_SEED + 1, 9, 16);
    (0..small_count)
        .map(move |_| small.generate())
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
    fn equal_vocabularies_share_one_pool() {
        let q1 = parse_query("MATCH (n:Zebra) RETURN n").unwrap();
        let q2 = parse_query("MATCH (n:Yak) RETURN n").unwrap();
        // Separately parsed queries derive equal vocabularies: one pool. So
        // do different queries over the same names. (A concurrent
        // epoch-reset test can clear the cache between two lookups; retry
        // like the memo tests do.)
        let again = parse_query("MATCH (n:Zebra) RETURN n").unwrap();
        let projected = parse_query("MATCH (m:Yak) RETURN m, m").unwrap();
        assert!((0..5).any(|_| Arc::ptr_eq(&pool_for(&q1, &q2), &pool_for(&again, &q2))));
        assert!((0..5).any(|_| Arc::ptr_eq(&pool_for(&q1, &q2), &pool_for(&q1, &projected))));
        // A different vocabulary is a different pool.
        assert!(!Arc::ptr_eq(&pool_for(&q1, &q2), &pool_for(&q1, &q1)));
        let keyed = parse_query("MATCH (n:Yak {p: 7}) RETURN n").unwrap();
        assert!(!Arc::ptr_eq(&pool_for(&q1, &q2), &pool_for(&q1, &keyed)));
    }

    #[test]
    fn the_witness_is_the_first_separating_pool_graph() {
        let q1 = parse_query("MATCH (n:Person)-[:READ]->(b) RETURN b").unwrap();
        let q2 = parse_query("MATCH (n:Person)-[:READ]->(b) RETURN DISTINCT b").unwrap();
        let config = SearchConfig { use_memo: false };
        let example = find_counterexample(&q1, &q2, &config).expect("witness expected");
        // Evaluated afresh, the witness separates the queries with the
        // reported row counts, and no earlier pool graph separates them.
        let separates = |graph: &PropertyGraph| {
            let left = evaluate_query(graph, &q1).unwrap();
            let right = evaluate_query(graph, &q2).unwrap();
            (!left.bag_equal(&right)).then(|| (left.len(), right.len()))
        };
        assert_eq!(separates(&example.graph), Some((example.left_rows, example.right_rows)));
        let pool = pool_for(&q1, &q2);
        for index in 0..example.pool_index {
            let graph = pool_graph(&pool, index).expect("pool graph");
            assert_eq!(separates(&graph), None, "pool graph {index} separates too");
        }
        assert_eq!(*pool_graph(&pool, example.pool_index).unwrap(), *example.graph);
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

    /// The `tag`-th of a family of pairs with distinct memo keys, each
    /// separated by the deterministic paper graph, so each search is cheap.
    fn tagged_pair(tag: usize) -> (Query, Query) {
        let query = |label: &str| parse_query(&format!("MATCH (n:{label}) RETURN n, {tag}"));
        (query("Person").unwrap(), query("Book").unwrap())
    }

    #[test]
    fn search_memo_capacity_bound_evicts_lru() {
        let _serial = MEMO_CAPACITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let config = SearchConfig::default();
        let previous_capacity = set_search_memo_capacity(3);
        let evictions_before = search_memo_evictions();
        // Six distinct memo keys through a 3-entry memo: the bound must hold
        // and evictions must happen.
        for tag in 0..6 {
            let (q1, q2) = tagged_pair(tag);
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
        let (q1, q2) = tagged_pair(5);
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
        let previous_capacity = set_search_memo_capacity(8);
        for tag in 100..104 {
            let (q1, q2) = tagged_pair(tag);
            let _ = find_counterexample(&q1, &q2, &SearchConfig::default());
        }
        set_search_memo_capacity(1);
        assert!(search_memo_len() <= 1);
        // Capacity is clamped to at least one entry.
        set_search_memo_capacity(0);
        let restored = set_search_memo_capacity(previous_capacity);
        assert_eq!(restored, 1);
    }

    /// FNV-1a over `bytes`, continuing from `hash`.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(hash, |hash, byte| (hash ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3))
    }

    /// A digest of the `3 + RANDOM_GRAPHS` graphs of the pool over
    /// `vocabulary`: each graph's nodes and relationships in id order, with
    /// labels, type, endpoints and properties by name.
    fn pool_digest(vocabulary: GeneratorConfig) -> u64 {
        let mut pool = LazyPool::new(&Arc::new(vocabulary));
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for index in 0..3 + RANDOM_GRAPHS {
            let graph = crate::certificate::graph_cert_of(&pool.graph(index).expect("pool graph"));
            let mut text = format!("graph {index}\n");
            for (id, node) in graph.nodes.iter().enumerate() {
                text += &format!("n{id} {:?} {:?}\n", node.labels, node.properties);
            }
            for (id, rel) in graph.relationships.iter().enumerate() {
                let (source, target) = (rel.source.0, rel.target.0);
                text += &format!("r{id} {} {source}->{target} {:?}\n", rel.label, rel.properties);
            }
            hash = fnv1a(hash, text.as_bytes());
        }
        hash
    }

    /// Pins the generated pools across versions: a changed draw sequence,
    /// seed graph or name order would move every witness's pool index and
    /// every counterexample certificate.
    #[test]
    fn pool_graphs_are_pinned() {
        assert_eq!(pool_digest(GeneratorConfig::default()), POOL_DIGEST_DEFAULT);
        let q1 = parse_query("MATCH (n:Person {age: 30}) WHERE n.name = 'Alice' RETURN n").unwrap();
        let q2 = parse_query("MATCH (a:Book)-[:WROTE]->(b) WHERE b.year > -2 RETURN b.title, 'x'")
            .unwrap();
        let vocabulary = GeneratorConfig::from_queries(&[&q1, &q2]);
        assert!(!vocabulary.int_pool.is_empty() && !vocabulary.string_pool.is_empty());
        assert_eq!(pool_digest(vocabulary), POOL_DIGEST_QUERIES);
    }

    const POOL_DIGEST_DEFAULT: u64 = 12367224733951715430;
    const POOL_DIGEST_QUERIES: u64 = 15834445599376803683;

    #[test]
    fn clearing_the_pool_cache_only_costs_regeneration() {
        let q1 = parse_query("MATCH (a)-[r]->(b) RETURN a").unwrap();
        let q2 = parse_query("MATCH (b)<-[r]-(a) RETURN a").unwrap();
        let config = SearchConfig::default();
        assert!(find_counterexample(&q1, &q2, &config).is_none());
        clear_pool_cache();
        assert!(find_counterexample(&q1, &q2, &config).is_none());
    }
}
