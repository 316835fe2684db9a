//! Read-only views of the program's layers from outside: the public cache
//! counters before and after a measured window, the cache clears a cold pass
//! starts from, and the process's peak memory.

/// `(hits, misses, evictions)` of one cache.
pub type HitMissEvict = (u64, u64, u64);

/// A snapshot of every public cache and index counter. The counters are
/// process-wide and monotonic, so the difference of two snapshots covers
/// exactly the work in between (the benchmark runs one prover at a time).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub parse: HitMissEvict,
    pub normalize: HitMissEvict,
    pub plan: HitMissEvict,
    pub search_memo: HitMissEvict,
    pub smt_formula: HitMissEvict,
    pub summand: HitMissEvict,
    pub disjoint: HitMissEvict,
    /// `(index builds, nanoseconds building)` of `property_graph::index`.
    pub index_builds: (u64, u64),
}

impl Counters {
    pub fn read() -> Counters {
        let with = |(hits, misses): (u64, u64), evictions: u64| (hits, misses, evictions);
        let liastar = liastar::cache_counters();
        let (builds, build_time) = property_graph::index::build_stats();
        Counters {
            parse: with(graphqe::parse_cache_stats(), graphqe::parse_cache_evictions()),
            normalize: with(graphqe::normalize_cache_stats(), graphqe::normalize_cache_evictions()),
            plan: with(
                graphqe::counterexample::plan_cache_stats(),
                graphqe::counterexample::plan_cache_evictions(),
            ),
            search_memo: with(
                graphqe::counterexample::search_memo_stats(),
                graphqe::counterexample::search_memo_evictions(),
            ),
            smt_formula: with(smt::formula_cache_stats(), 0),
            summand: (liastar.summand_hits, liastar.summand_misses, 0),
            disjoint: (liastar.disjoint_hits, liastar.disjoint_misses, 0),
            index_builds: (builds, build_time.as_nanos() as u64),
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        let sub = |a: HitMissEvict, b: HitMissEvict| {
            (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1), a.2.saturating_sub(b.2))
        };
        Counters {
            parse: sub(self.parse, before.parse),
            normalize: sub(self.normalize, before.normalize),
            plan: sub(self.plan, before.plan),
            search_memo: sub(self.search_memo, before.search_memo),
            smt_formula: sub(self.smt_formula, before.smt_formula),
            summand: sub(self.summand, before.summand),
            disjoint: sub(self.disjoint, before.disjoint),
            index_builds: (
                self.index_builds.0.saturating_sub(before.index_builds.0),
                self.index_builds.1.saturating_sub(before.index_builds.1),
            ),
        }
    }

    /// The named caches, in report order.
    pub fn caches(&self) -> [(&'static str, HitMissEvict); 7] {
        [
            ("parse", self.parse),
            ("normalize", self.normalize),
            ("plan", self.plan),
            ("search_memo", self.search_memo),
            ("smt_formula", self.smt_formula),
            ("summand", self.summand),
            ("disjoint", self.disjoint),
        ]
    }
}

/// Hit ratio in `[0, 1]`; 0 for a cache that was not probed.
pub fn hit_ratio((hits, misses, _): HitMissEvict) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Empties every process cache through its public clear, so the next pass
/// starts cold. `liastar::reset_thread_caches` covers the calling thread's
/// arena, summand, disjointness and SMT formula caches.
pub fn clear_all() {
    graphqe::clear_parse_cache();
    graphqe::clear_normalize_cache();
    graphqe::counterexample::clear_pool_cache();
    graphqe::counterexample::clear_plan_cache();
    smt::clear_formula_cache();
    liastar::reset_thread_caches();
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
