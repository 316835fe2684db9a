//! # liastar
//!
//! The LIA\*-based decision procedure for G-expression equivalence
//! (stage ④ of the GraphQE workflow, §IV-C of the paper).
//!
//! The paper eliminates unbounded summations with the LIA\* construction of
//! Ding et al. and hands the resulting linear-arithmetic formula to Z3. This
//! crate reproduces the same pipeline on top of the from-scratch [`smt`]
//! solver:
//!
//! 1. both G-expressions are [`gexpr::normalize()`]d into sums of summations of
//!    products;
//! 2. each summand is **simplified with SMT reasoning** — summands whose
//!    factors are jointly unsatisfiable are identically zero and dropped, and
//!    atoms implied by the remaining factors of their product are removed
//!    (`[x > 5] × [x > 3] = [x > 5]`);
//! 3. each summation is abstracted by a non-negative integer variable; two
//!    summations receive the same variable exactly when their bodies are
//!    isomorphic (found by the backtracking matcher in [`iso`]);
//! 4. the equality of the two abstracted linear expressions is discharged by
//!    the SMT solver: `∃t. g1(t) ≠ g2(t)` is unsatisfiable iff every abstract
//!    variable occurs with the same multiplicity on both sides.
//!
//! All steps are sound: a `Proved` verdict implies the G-expressions agree on
//! every property graph and tuple.
//!
//! ## Two implementations of the decision procedure
//!
//! The default pipeline is **arena-native**: both inputs are ids of the
//! calling thread's hash-consed [`gexpr::arena::GStore`] (the prover builds
//! them there with [`gexpr::build_into`]; the tree-input
//! [`check_equivalence`] family interns its trees once), and every stage —
//! disjoint-squash splitting, normalization, summand splitting and SMT
//! simplification, isomorphism matching, class counting — operates directly
//! on interned `NodeId`s. No `GExpr` tree is materialized between
//! stages, the caches key on ids natively, and the iso matcher short-circuits
//! in O(1) when both sides are the same interned node.
//!
//! The paper-faithful **tree pipeline** (reference normalizer, cloning
//! matcher, no caches) is kept behind [`DecideOptions::tree_normalizer`] as
//! the benchmark baseline and the differential-testing oracle: both pipelines
//! return identical verdicts on every input (asserted by the property tests
//! and by `tests/arena_equivalence.rs` over both datasets).
//!
//! The arena pipeline also has an **evidence mode**
//! ([`try_check_equivalence_recording`]): the same decision, which in
//! addition reads the certificate witness ([`witness::SegmentRecord`]) off
//! the intermediate results it already holds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod iso;
pub mod witness;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use gexpr::arena::{ANode, GStore, NodeId as ArenaNodeId};
use gexpr::{normalize_tree, GExpr, VarId};
use smt::{SmtResult, SortTag};
use witness::{MatchingRecord, ProofRecord, SegmentRecord, SummandsRecord};

pub use encode::{
    build_factor, build_factors, encode_atom, encode_factor, encode_product, encode_term,
};
pub use iso::{Checkpoint, VarMapping};

/// The outcome of the equivalence decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The two G-expressions were proven equivalent.
    Proved,
    /// Equivalence could not be established (this does **not** mean the
    /// queries are inequivalent).
    NotProved,
}

impl Decision {
    /// Returns `true` for [`Decision::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, Decision::Proved)
    }
}

/// Statistics of one equivalence decision, reported for benchmarking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionStats {
    /// Number of summands on each side after normalization.
    pub summands: (usize, usize),
    /// Number of summands pruned because they were identically zero.
    pub pruned_zero: usize,
    /// Number of atoms removed by implication pruning.
    pub pruned_implied: usize,
    /// Whether the final step needed the SMT arithmetic check.
    pub used_smt_arithmetic: bool,
}

/// Options of the decision procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecideOptions {
    /// Use the paper-faithful tree pipeline (reference tree normalizer,
    /// cloning iso matcher, no caches) instead of the id-native arena
    /// pipeline. Results are identical; this exists so benchmarks can
    /// measure the arena speedup against the paper-faithful baseline and so
    /// tests can differentially compare the two implementations.
    pub tree_normalizer: bool,
}

/// Decides whether two G-expressions are equivalent on every property graph.
pub fn check_equivalence(g1: &GExpr, g2: &GExpr) -> Decision {
    check_equivalence_with_stats(g1, g2).0
}

/// [`check_equivalence`] with decision statistics.
pub fn check_equivalence_with_stats(g1: &GExpr, g2: &GExpr) -> (Decision, DecisionStats) {
    check_equivalence_with_opts(g1, g2, DecideOptions::default())
}

/// [`check_equivalence_with_stats`] with explicit [`DecideOptions`]: the
/// tree-input form of [`try_check_equivalence_with_opts`], which interns
/// both trees into the calling thread's arena first (the tree pipeline
/// takes them as they are).
pub fn check_equivalence_with_opts(
    g1: &GExpr,
    g2: &GExpr,
    opts: DecideOptions,
) -> (Decision, DecisionStats) {
    if opts.tree_normalizer {
        return tree::check_equivalence(g1, g2);
    }
    let (left, right) = gexpr::arena::with_thread_store(|store| {
        let left = store.intern_expr(g1);
        (left, store.intern_expr(g2))
    });
    // A trip can only occur under an ambient `limits::RunToken`; degrading to
    // `NotProved` is sound — `NotProved` asserts nothing. Deadline-aware
    // callers use [`try_check_equivalence_with_opts`] to see the trip itself.
    try_check_equivalence_with_opts(left, right, opts)
        .unwrap_or_else(|_| (Decision::NotProved, DecisionStats::default()))
}

/// Decides two G-expressions given as ids of the calling thread's arena
/// ([`gexpr::arena::with_thread_store`], where the prover builds them with
/// [`gexpr::build_into`]), with cooperative limit checkpoints surfaced:
/// under an ambient [`limits::RunToken`] that trips (deadline, budget,
/// cancellation), the decision unwinds with the [`limits::Trip`] instead of
/// a degraded verdict. Checkpoints sit at every `decide` recursion, per
/// summand simplified, and per summand classified in the LIA class
/// counting; the SMT layer additionally charges the token's step budget per
/// CDCL iteration.
pub fn try_check_equivalence_with_opts(
    left: ArenaNodeId,
    right: ArenaNodeId,
    opts: DecideOptions,
) -> Result<(Decision, DecisionStats), limits::Trip> {
    if opts.tree_normalizer {
        // The paper-faithful baseline pipeline carries no checkpoints of its
        // own (its SMT calls still observe the step budget, degrading each
        // check to `Unknown`, which only weakens simplification — soundly).
        let (g1, g2) = gexpr::arena::with_thread_store(|store| {
            (store.extern_expr(left), store.extern_expr(right))
        });
        return Ok(tree::check_equivalence(&g1, &g2));
    }
    let (decision, stats, _) = decide_arena(left, right, false)?;
    Ok((decision, stats))
}

/// The arena decision of [`try_check_equivalence_with_opts`] in evidence
/// mode: a `Proved` decision also returns its witness, read off the
/// intermediate results the decision already holds (split and normalized
/// sides, zero-pruned and simplified summands, the isomorphism assignment
/// or the class counts). Decision and statistics are identical to the
/// unrecorded call, and so is every cache access.
pub fn try_check_equivalence_recording(
    left: ArenaNodeId,
    right: ArenaNodeId,
) -> Result<(Decision, DecisionStats, Option<SegmentRecord>), limits::Trip> {
    decide_arena(left, right, true)
}

/// The id-native pipeline: split disjoint squashes, normalize, then
/// [`decide`]. With `record`, a proof's witness is returned alongside.
fn decide_arena(
    left: ArenaNodeId,
    right: ArenaNodeId,
    record: bool,
) -> Result<(Decision, DecisionStats, Option<SegmentRecord>), limits::Trip> {
    let mut stats = DecisionStats::default();
    gexpr::arena::with_thread_store(|store| {
        sync_caches_to_epoch(store.epoch());
        limits::checkpoint(limits::Stage::Decide)?;
        let left = split_disjoint_squashes(store, left);
        let right = split_disjoint_squashes(store, right);
        let left = store.normalize_id(left);
        let right = store.normalize_id(right);
        // Quick path: hash-consing makes post-normalization syntactic
        // equality a single id comparison.
        let (decision, proof) = if left == right {
            (Decision::Proved, record.then_some(ProofRecord::Identical))
        } else {
            decide(store, left, right, &mut stats, record)?
        };
        let witness = proof.filter(|_| decision.is_proved()).map(|proof| SegmentRecord {
            left: store.extern_expr(left),
            right: store.extern_expr(right),
            proof,
        });
        Ok((decision, stats, witness))
    })
}

// ---------------------------------------------------------------------------
// Caches (id-keyed, thread-local, epoch-synced) and their counters
// ---------------------------------------------------------------------------

thread_local! {
    /// Cache of pairwise disjointness checks, keyed by arena node ids.
    static DISJOINT_CACHE: RefCell<HashMap<(ArenaNodeId, ArenaNodeId), bool>> =
        RefCell::new(HashMap::new());
    /// Cache of [`simplify_summand`] results, keyed by the summand's arena
    /// node id: the simplified summand (`None` = pruned as identically zero),
    /// the number of implied atoms removed (replayed into the stats), and a
    /// recency stamp driving the cross-epoch carry-over (see
    /// [`reset_thread_caches`]).
    static SUMMAND_CACHE: RefCell<HashMap<ArenaNodeId, SummandEntry>> =
        RefCell::new(HashMap::new());
    /// Monotonic access counter stamping [`SUMMAND_CACHE`] entries.
    static SUMMAND_STAMP: Cell<u64> = const { Cell::new(0) };
    /// The arena epoch the id-keyed caches above belong to.
    static CACHE_EPOCH: Cell<u64> = const { Cell::new(0) };
}

/// One memoized summand simplification: the result id (`None` = pruned as
/// identically zero), the implied-atom count, and the last-access stamp.
#[derive(Clone, Copy)]
struct SummandEntry {
    result: Option<ArenaNodeId>,
    implied: usize,
    stamp: u64,
}

/// How many of the most recently used summand-simplification entries survive
/// an epoch reset (externalized before the arena is dropped, re-interned
/// after). Small on purpose: the carry-over exists to absorb the latency
/// spike right after a reset — the first pairs decided in the new epoch are
/// usually structurally close to the last pairs of the old one — not to
/// defeat the eviction.
const SUMMAND_CARRY_OVER: usize = 32;

fn next_summand_stamp() -> u64 {
    SUMMAND_STAMP.with(|stamp| {
        let next = stamp.get() + 1;
        stamp.set(next);
        next
    })
}

/// Lifetime counters of the liastar-level caches, summed over all threads.
static SUMMAND_HITS: AtomicU64 = AtomicU64::new(0);
/// Miss counter of the summand-simplification cache.
static SUMMAND_MISSES: AtomicU64 = AtomicU64::new(0);
/// Hit counter of the disjointness cache.
static DISJOINT_HITS: AtomicU64 = AtomicU64::new(0);
/// Miss counter of the disjointness cache.
static DISJOINT_MISSES: AtomicU64 = AtomicU64::new(0);

/// Hit/miss counters of the two liastar-level SMT-result caches, accumulated
/// across every thread since process start. They only grow: readers take
/// differences of two snapshots or report lifetime rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Hits of the summand-simplification cache.
    pub summand_hits: u64,
    /// Misses of the summand-simplification cache.
    pub summand_misses: u64,
    /// Hits of the pairwise-disjointness cache.
    pub disjoint_hits: u64,
    /// Misses of the pairwise-disjointness cache.
    pub disjoint_misses: u64,
}

/// Snapshot of the global cache counters.
pub fn cache_counters() -> CacheCounters {
    CacheCounters {
        summand_hits: SUMMAND_HITS.load(Ordering::Relaxed),
        summand_misses: SUMMAND_MISSES.load(Ordering::Relaxed),
        disjoint_hits: DISJOINT_HITS.load(Ordering::Relaxed),
        disjoint_misses: DISJOINT_MISSES.load(Ordering::Relaxed),
    }
}

/// Drops the thread's id-keyed caches when the arena epoch moved under them
/// (defense in depth — [`reset_thread_caches`] already clears both in sync).
fn sync_caches_to_epoch(store_epoch: u64) {
    CACHE_EPOCH.with(|epoch| {
        if epoch.get() != store_epoch {
            DISJOINT_CACHE.with(|cache| cache.borrow_mut().clear());
            SUMMAND_CACHE.with(|cache| cache.borrow_mut().clear());
            epoch.set(store_epoch);
        }
    });
}

/// Epoch-based eviction for everything the calling thread accumulates at
/// the decision layer: the hash-consed arena (via [`GStore::reset_epoch`]),
/// the id-keyed summand and disjointness caches, and the SMT formula cache.
/// (The prover's counterexample pool cache lives a layer up, in `graphqe`,
/// and is evicted alongside this by the batch workers' budget check.)
///
/// Long-running batch workers call this between pairs once the arena
/// outgrows its budget, so a service proving an unbounded stream of pairs
/// runs in bounded memory. Correctness is unaffected: every cache is a pure
/// memo, so the only cost of a reset is re-computing entries.
///
/// **Cross-epoch carry-over**: instead of dropping the summand-simplification
/// cache wholesale, the `SUMMAND_CARRY_OVER` most recently used entries are
/// externalized to `GExpr` trees *before* the arena resets and re-interned
/// (with fresh ids) into the new epoch. Hot summands — which tend to recur in
/// the very next pairs — therefore stay memoized across the reset, smoothing
/// the post-reset latency spike at the cost of interning a few dozen small
/// trees.
pub fn reset_thread_caches() {
    gexpr::arena::with_thread_store(|store| {
        // Select the hottest entries by recency stamp and externalize them
        // while their ids are still valid in the old epoch. If the arena
        // epoch moved underneath the caches (a caller reset the store
        // directly without going through this function), the cached ids are
        // stale and must not be externalized — carry nothing over.
        let cache_in_sync = CACHE_EPOCH.with(|epoch| epoch.get()) == store.epoch();
        let mut hottest: Vec<(ArenaNodeId, SummandEntry)> = if cache_in_sync {
            SUMMAND_CACHE.with(|cache| cache.borrow().iter().map(|(k, v)| (*k, *v)).collect())
        } else {
            Vec::new()
        };
        hottest.sort_by_key(|(_, entry)| std::cmp::Reverse(entry.stamp));
        hottest.truncate(SUMMAND_CARRY_OVER);
        let externalized: Vec<(GExpr, Option<GExpr>, usize)> = hottest
            .iter()
            .map(|(key, entry)| {
                (
                    store.extern_expr(*key),
                    entry.result.map(|id| store.extern_expr(id)),
                    entry.implied,
                )
            })
            .collect();

        store.reset_epoch();

        // Re-seed the fresh caches under the new epoch's ids.
        DISJOINT_CACHE.with(|cache| cache.borrow_mut().clear());
        SUMMAND_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            cache.clear();
            // `externalized` is ordered most-recent-first; re-insert in
            // reverse so fresh stamps preserve the relative recency (the
            // hottest entry gets the newest stamp, not the oldest).
            for (key, result, implied) in externalized.into_iter().rev() {
                let key = store.intern_expr(&key);
                let result = result.map(|expr| store.intern_expr(&expr));
                cache.insert(key, SummandEntry { result, implied, stamp: next_summand_stamp() });
            }
        });
    });
    CACHE_EPOCH.with(|epoch| epoch.set(gexpr::arena::thread_store_epoch()));
    smt::clear_formula_cache();
}

// ---------------------------------------------------------------------------
// The id-native decision pipeline
// ---------------------------------------------------------------------------

/// Recursive decision on interned ids: squashes are peeled in lock-step, then
/// the summand lists are compared. With `record`, a proof also returns its
/// [`ProofRecord`].
fn decide(
    store: &mut GStore,
    left: ArenaNodeId,
    right: ArenaNodeId,
    stats: &mut DecisionStats,
    record: bool,
) -> Result<(Decision, Option<ProofRecord>), limits::Trip> {
    limits::checkpoint(limits::Stage::Decide)?;
    if let (ANode::Squash(a), ANode::Squash(b)) = (store.node_of(left), store.node_of(right)) {
        // ‖A‖ = ‖B‖ is implied by A = B (sufficient condition).
        let (a, b) = (*a, *b);
        let (decision, inner) = if a == b {
            (Decision::Proved, record.then_some(ProofRecord::Identical))
        } else {
            decide(store, a, b, stats, record)?
        };
        return Ok((decision, inner.map(|inner| ProofRecord::Peel(Box::new(inner)))));
    }

    let left_all = to_summands(store, left);
    let right_all = to_summands(store, right);
    let (mut left_pruned, mut right_pruned) = (Vec::new(), Vec::new());
    let left_summands =
        simplify_summands(store, &left_all, stats, record.then_some(&mut left_pruned))?;
    let right_summands =
        simplify_summands(store, &right_all, stats, record.then_some(&mut right_pruned))?;
    stats.summands = (left_summands.len(), right_summands.len());
    let summands_record = |store: &GStore, matching| {
        ProofRecord::Summands(Box::new(SummandsRecord {
            left: witness::side_record(store, &left_all, left_pruned, &left_summands),
            right: witness::side_record(store, &right_all, right_pruned, &right_summands),
            matching,
        }))
    };

    // Structural bijection between the summand multisets, on ids with the
    // undo-trail matcher (same-node summand pairs match in O(1)).
    let mut assignment = Vec::new();
    if iso::ids::unify_multiset(
        store,
        &left_summands,
        &right_summands,
        &mut VarMapping::new(),
        record.then_some(&mut assignment),
    ) {
        let proof = record.then(|| {
            summands_record(
                store,
                MatchingRecord::Bijection(assignment.into_iter().enumerate().collect()),
            )
        });
        return Ok((Decision::Proved, proof));
    }

    // LIA* arithmetic check: abstract each isomorphism class of summands by a
    // non-negative integer variable and ask the SMT solver whether the two
    // sides can differ. (With per-class counts this is decidable directly;
    // the SMT formulation mirrors the paper's pipeline and exercises the LIA
    // solver.)
    stats.used_smt_arithmetic = true;
    let mut classes: Vec<ArenaNodeId> = Vec::new();
    let left_assign = class_assignment(store, &mut classes, &left_summands)?;
    let right_assign = class_assignment(store, &mut classes, &right_summands)?;
    let counts = |assign: &[usize]| {
        let mut counts = vec![0usize; classes.len()];
        for &class in assign {
            counts[class] += 1;
        }
        counts
    };
    let (left_counts, right_counts) = (counts(&left_assign), counts(&right_assign));

    // g1 = Σ count_l[i]·v_i, g2 = Σ count_r[i]·v_i with v_i ≥ 1 (a summand's
    // value is unknown but identical across sides). The queries can differ
    // only if some class count differs, so `g1 ≠ g2` must be unsatisfiable.
    // The check memoizes through the formula cache, so the identical class
    // structure produced by permutation retries is a hash lookup.
    let counts_differ = smt::with_term_builder(|b| {
        let mut assertions = Vec::with_capacity(classes.len() + 1);
        let mut left_sum = Vec::with_capacity(classes.len());
        let mut right_sum = Vec::with_capacity(classes.len());
        let one = b.int(1);
        for index in 0..classes.len() {
            let v = b.var(("class", index), SortTag::Int);
            assertions.push(b.ge(v, one));
            left_sum.push(b.mul_const(left_counts[index] as i64, v));
            right_sum.push(b.mul_const(right_counts[index] as i64, v));
        }
        let lhs = if left_sum.is_empty() { b.int(0) } else { b.add(&left_sum) };
        let rhs = if right_sum.is_empty() { b.int(0) } else { b.add(&right_sum) };
        assertions.push(b.neq(lhs, rhs));
        let formula = b.and(&assertions);
        b.check(formula)
    });
    if counts_differ != SmtResult::Unsat {
        return Ok((Decision::NotProved, None));
    }
    let proof = record.then(|| {
        let representatives = classes.iter().map(|class| store.extern_expr(*class)).collect();
        summands_record(
            store,
            MatchingRecord::Classes {
                representatives,
                left_assign,
                right_assign,
                left_counts,
                right_counts,
            },
        )
    });
    Ok((Decision::Proved, proof))
}

/// The isomorphism class of each summand among `classes`, appending a new
/// class when none matches. Same-node comparisons short-circuit in the
/// matcher.
fn class_assignment(
    store: &mut GStore,
    classes: &mut Vec<ArenaNodeId>,
    summands: &[ArenaNodeId],
) -> Result<Vec<usize>, limits::Trip> {
    let mut assign = Vec::with_capacity(summands.len());
    for &summand in summands {
        // The iso matching is the potentially expensive step of the counting
        // loop; checkpoint once per summand.
        limits::checkpoint(limits::Stage::Decide)?;
        let existing = classes
            .iter()
            .position(|representative| iso::ids::isomorphic(store, *representative, summand));
        assign.push(existing.unwrap_or_else(|| {
            classes.push(summand);
            classes.len() - 1
        }));
    }
    Ok(assign)
}

/// `true` iff the product `a × b` is unsatisfiable, memoized under the pair
/// of hash-consed ids: the quadratic sweep of [`split_disjoint_squashes`]
/// re-pays the SMT call only for pairs of alternatives never seen before on
/// this thread.
fn disjoint(store: &mut GStore, a: ArenaNodeId, b: ArenaNodeId) -> bool {
    if let Some(hit) = DISJOINT_CACHE.with(|cache| cache.borrow().get(&(a, b)).copied()) {
        DISJOINT_HITS.fetch_add(1, Ordering::Relaxed);
        return hit;
    }
    DISJOINT_MISSES.fetch_add(1, Ordering::Relaxed);
    let verdict = smt::with_term_builder(|builder| {
        let factors = build_factors(builder, store, &[a, b]);
        let product = builder.and(&factors);
        builder.check(product)
    });
    let result = verdict.is_unsat();
    // Disjointness is symmetric; memoize both orientations so alternatives
    // that normalize in a different order on the other side still hit.
    // Cache hygiene: an `Unknown` verdict (budget trip, cancellation, or an
    // injected fault) conservatively reads as "not disjoint" for this call,
    // but memoizing it would poison later, un-tripped proofs.
    if !matches!(verdict, SmtResult::Unknown) && !limits::cancelled() {
        DISJOINT_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            cache.insert((a, b), result);
            cache.insert((b, a), result);
        });
    }
    result
}

/// Rewrites `‖a + b + ...‖` into `a + b + ...` when every alternative is
/// 0/1-valued and the alternatives are pairwise disjoint (their pairwise
/// products are unsatisfiable). This is the LIA\*-style reasoning that makes
/// `WHERE p OR q` over disjoint ranges equal to the `UNION ALL` of the two
/// branches (the worked example of §IV-C).
fn split_disjoint_squashes(store: &mut GStore, expr: ArenaNodeId) -> ArenaNodeId {
    match store.node_of(expr).clone() {
        ANode::Squash(inner) => {
            let inner = split_disjoint_squashes(store, inner);
            if let ANode::Add(items) = store.node_of(inner).clone() {
                let all_unit = items.iter().all(|i| store.is_zero_one(*i));
                let pairwise_disjoint = all_unit
                    && items
                        .iter()
                        .enumerate()
                        .all(|(i, a)| items.iter().skip(i + 1).all(|b| disjoint(store, *a, *b)));
                if pairwise_disjoint {
                    return inner;
                }
            }
            store.mk_squash(inner)
        }
        ANode::Mul(items) => {
            let items = items.iter().map(|i| split_disjoint_squashes(store, *i)).collect();
            store.mk_mul(items)
        }
        ANode::Add(items) => {
            let items = items.iter().map(|i| split_disjoint_squashes(store, *i)).collect();
            store.mk_add(items)
        }
        ANode::Not(inner) => {
            let inner = split_disjoint_squashes(store, inner);
            store.mk_not(inner)
        }
        ANode::Sum(vars, body) => {
            let body = split_disjoint_squashes(store, body);
            store.mk_sum(vars.to_vec(), body)
        }
        _ => expr,
    }
}

/// Splits a normalized expression into its top-level summand ids.
fn to_summands(store: &GStore, expr: ArenaNodeId) -> Vec<ArenaNodeId> {
    match store.node_of(expr) {
        ANode::Add(items) => items.to_vec(),
        ANode::Zero => Vec::new(),
        _ => vec![expr],
    }
}

/// SMT-backed simplification of summands: zero pruning and implied-atom
/// elimination, entirely on interned ids, with a cooperative limit
/// checkpoint per summand. Returns the kept simplifications in order; the
/// indices of zero-pruned summands go to `pruned` when given.
fn simplify_summands(
    store: &mut GStore,
    summands: &[ArenaNodeId],
    stats: &mut DecisionStats,
    mut pruned: Option<&mut Vec<usize>>,
) -> Result<Vec<ArenaNodeId>, limits::Trip> {
    let mut result = Vec::new();
    for (index, &summand) in summands.iter().enumerate() {
        limits::checkpoint(limits::Stage::Decide)?;
        match simplify_summand(store, summand, stats) {
            Some(simplified) => result.push(simplified),
            None => {
                stats.pruned_zero += 1;
                if let Some(pruned) = pruned.as_deref_mut() {
                    pruned.push(index);
                }
            }
        }
    }
    Ok(result)
}

/// A summand `Σ_vars Π factors` split into its variables and factors (both
/// layers optional).
fn decompose_summand(store: &GStore, summand: ArenaNodeId) -> (Vec<VarId>, Vec<ArenaNodeId>) {
    let (vars, body) = match store.node_of(summand) {
        ANode::Sum(vars, body) => (vars.to_vec(), *body),
        _ => (Vec::new(), summand),
    };
    let factors = match store.node_of(body) {
        ANode::Mul(items) => items.to_vec(),
        _ => vec![body],
    };
    (vars, factors)
}

/// Memoized summand simplification: the result is cached under the summand's
/// hash-consed id — with **no extern/intern round trip** — so the SMT solver
/// runs once per distinct summand per thread: across permutation retries of
/// the same pair and across structurally overlapping pairs of a batch. This
/// is the single hottest SMT call site of the prover.
fn simplify_summand(
    store: &mut GStore,
    summand: ArenaNodeId,
    stats: &mut DecisionStats,
) -> Option<ArenaNodeId> {
    let hit = SUMMAND_CACHE.with(|cache| {
        cache.borrow_mut().get_mut(&summand).map(|entry| {
            entry.stamp = next_summand_stamp();
            (entry.result, entry.implied)
        })
    });
    if let Some((result, implied)) = hit {
        SUMMAND_HITS.fetch_add(1, Ordering::Relaxed);
        stats.pruned_implied += implied;
        return result;
    }
    SUMMAND_MISSES.fetch_add(1, Ordering::Relaxed);
    let (vars, mut factors) = decompose_summand(store, summand);

    // Cache hygiene: an `Unknown` SMT verdict on this path (budget trip,
    // cancellation, injected fault) degrades pruning conservatively — keep
    // the factor, keep the summand — which is sound but must not be
    // memoized, or later un-tripped proofs would inherit the weaker result.
    let mut degraded = false;

    // One session encodes each factor once; the zero check and every
    // implication check are built from those terms. It yields `None` for a
    // summand that is identically zero, else the number of implied atoms
    // dropped.
    let implied = smt::with_term_builder(|b| {
        let mut encoded = build_factors(b, store, &factors);

        // Zero pruning: unsatisfiable products contribute nothing.
        let product = b.and(&encoded);
        let zero_check = b.check(product);
        degraded |= zero_check == SmtResult::Unknown;
        if zero_check.is_unsat() {
            return None;
        }

        // Implied-atom pruning: drop an atomic factor when the remaining
        // factors already force it to 1.
        let mut implied = 0;
        let mut index = 0;
        let mut others = Vec::with_capacity(encoded.len());
        while index < factors.len() {
            if matches!(store.node_of(factors[index]), ANode::Atom(_)) && factors.len() > 1 {
                others.clear();
                others.extend_from_slice(&encoded[..index]);
                others.extend_from_slice(&encoded[index + 1..]);
                let premise = b.and(&others);
                let implication = b.implies(premise, encoded[index]);
                let refutation = b.not(implication);
                let validity = b.check(refutation);
                degraded |= validity == SmtResult::Unknown;
                if validity.is_unsat() {
                    factors.remove(index);
                    encoded.remove(index);
                    implied += 1;
                    continue;
                }
            }
            index += 1;
        }
        Some(implied)
    });
    let Some(implied) = implied else {
        if !limits::cancelled() {
            SUMMAND_CACHE.with(|cache| {
                cache.borrow_mut().insert(
                    summand,
                    SummandEntry { result: None, implied: 0, stamp: next_summand_stamp() },
                )
            });
        }
        return None;
    };
    stats.pruned_implied += implied;

    let body = store.mk_mul(factors);
    let result = store.mk_sum(vars, body);
    if !degraded && !limits::cancelled() {
        SUMMAND_CACHE.with(|cache| {
            cache.borrow_mut().insert(
                summand,
                SummandEntry { result: Some(result), implied, stamp: next_summand_stamp() },
            )
        });
    }
    Some(result)
}

// ---------------------------------------------------------------------------
// The paper-faithful tree pipeline (benchmark baseline + differential oracle)
// ---------------------------------------------------------------------------

/// The pre-refactor reference implementation of the decision procedure,
/// operating on `GExpr` trees with the reference normalizer and the cloning
/// iso matcher, and **no caches** (every SMT query is re-solved). Kept
/// verbatim as the benchmark baseline and the differential-testing oracle for
/// the id-native pipeline.
mod tree {
    use super::*;
    use smt::{Solver, Term};

    pub fn check_equivalence(g1: &GExpr, g2: &GExpr) -> (Decision, DecisionStats) {
        let mut stats = DecisionStats::default();
        let left = normalize_tree(&split_disjoint_squashes(g1));
        let right = normalize_tree(&split_disjoint_squashes(g2));
        if left == right {
            return (Decision::Proved, stats);
        }
        decide(&left, &right, &mut stats)
    }

    fn decide(left: &GExpr, right: &GExpr, stats: &mut DecisionStats) -> (Decision, DecisionStats) {
        if let (GExpr::Squash(a), GExpr::Squash(b)) = (left, right) {
            return decide(a, b, stats);
        }

        let left_summands = simplify_summands(to_summands(left), stats);
        let right_summands = simplify_summands(to_summands(right), stats);
        stats.summands = (left_summands.len(), right_summands.len());

        let bijective =
            iso::cloning::unify_multiset(&left_summands, &right_summands, &VarMapping::new())
                .is_some();
        if bijective {
            return (Decision::Proved, stats.clone());
        }

        stats.used_smt_arithmetic = true;
        let mut classes: Vec<GExpr> = Vec::new();
        let mut left_counts: Vec<i64> = Vec::new();
        let mut right_counts: Vec<i64> = Vec::new();
        for summand in &left_summands {
            let class = class_index(&mut classes, &mut left_counts, &mut right_counts, summand);
            left_counts[class] += 1;
        }
        for summand in &right_summands {
            let class = class_index(&mut classes, &mut left_counts, &mut right_counts, summand);
            right_counts[class] += 1;
        }

        let mut solver = Solver::new();
        let mut left_sum = Vec::new();
        let mut right_sum = Vec::new();
        for (index, _) in classes.iter().enumerate() {
            let v = Term::int_var(format!("class{index}"));
            solver.assert(Term::ge(v.clone(), Term::int(1)));
            left_sum.push(Term::MulConst(left_counts[index], Box::new(v.clone())));
            right_sum.push(Term::MulConst(right_counts[index], Box::new(v)));
        }
        let lhs = if left_sum.is_empty() { Term::int(0) } else { Term::add(left_sum) };
        let rhs = if right_sum.is_empty() { Term::int(0) } else { Term::add(right_sum) };
        solver.assert(Term::neq(lhs, rhs));
        match solver.check() {
            SmtResult::Unsat => (Decision::Proved, stats.clone()),
            _ => (Decision::NotProved, stats.clone()),
        }
    }

    fn class_index(
        classes: &mut Vec<GExpr>,
        left_counts: &mut Vec<i64>,
        right_counts: &mut Vec<i64>,
        summand: &GExpr,
    ) -> usize {
        for (index, representative) in classes.iter().enumerate() {
            if iso::cloning::unify_expr(representative, summand, &VarMapping::new()).is_some() {
                return index;
            }
        }
        classes.push(summand.clone());
        left_counts.push(0);
        right_counts.push(0);
        classes.len() - 1
    }

    fn disjoint(a: &GExpr, b: &GExpr) -> bool {
        let product = Term::and(vec![encode_factor(a), encode_factor(b)]);
        smt::check_formula(product).is_unsat()
    }

    fn split_disjoint_squashes(expr: &GExpr) -> GExpr {
        match expr {
            GExpr::Squash(inner) => {
                let inner = split_disjoint_squashes(inner);
                if let GExpr::Add(items) = &inner {
                    let all_unit = items.iter().all(gexpr::is_zero_one);
                    let pairwise_disjoint = all_unit
                        && items
                            .iter()
                            .enumerate()
                            .all(|(i, a)| items.iter().skip(i + 1).all(|b| disjoint(a, b)));
                    if pairwise_disjoint {
                        return inner;
                    }
                }
                GExpr::squash(inner)
            }
            GExpr::Mul(items) => GExpr::mul(items.iter().map(split_disjoint_squashes).collect()),
            GExpr::Add(items) => GExpr::add(items.iter().map(split_disjoint_squashes).collect()),
            GExpr::Not(inner) => GExpr::not(split_disjoint_squashes(inner)),
            GExpr::Sum { vars, body } => GExpr::sum(vars.clone(), split_disjoint_squashes(body)),
            other => other.clone(),
        }
    }

    fn to_summands(expr: &GExpr) -> Vec<GExpr> {
        match expr {
            GExpr::Add(items) => items.clone(),
            GExpr::Zero => Vec::new(),
            other => vec![other.clone()],
        }
    }

    fn simplify_summands(summands: Vec<GExpr>, stats: &mut DecisionStats) -> Vec<GExpr> {
        let mut result = Vec::new();
        for summand in summands {
            match simplify_summand(&summand, stats) {
                Some(simplified) => result.push(simplified),
                None => stats.pruned_zero += 1,
            }
        }
        result
    }

    fn simplify_summand(summand: &GExpr, stats: &mut DecisionStats) -> Option<GExpr> {
        let (vars, body) = match summand {
            GExpr::Sum { vars, body } => (vars.clone(), (**body).clone()),
            other => (Vec::new(), other.clone()),
        };
        let mut factors = match body {
            GExpr::Mul(items) => items,
            other => vec![other],
        };

        if smt::check_formula(encode_product(&factors)).is_unsat() {
            return None;
        }

        let mut index = 0;
        while index < factors.len() {
            if matches!(factors[index], GExpr::Atom(_)) && factors.len() > 1 {
                let mut others = factors.clone();
                let candidate = others.remove(index);
                let implication = Term::implies(encode_product(&others), encode_factor(&candidate));
                if smt::is_valid(implication) {
                    factors.remove(index);
                    stats.pruned_implied += 1;
                    continue;
                }
            }
            index += 1;
        }

        Some(GExpr::sum(vars, GExpr::mul(factors)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;
    use gexpr::build_query;

    fn gexpr_of(query: &str) -> GExpr {
        build_query(&parse_query(query).unwrap()).unwrap().expr
    }

    fn equivalent(q1: &str, q2: &str) -> bool {
        let by_id = check_equivalence(&gexpr_of(q1), &gexpr_of(q2)).is_proved();
        // Every test case doubles as a differential check against the
        // paper-faithful tree oracle.
        let by_tree = check_equivalence_with_opts(
            &gexpr_of(q1),
            &gexpr_of(q2),
            DecideOptions { tree_normalizer: true },
        )
        .0
        .is_proved();
        assert_eq!(by_id, by_tree, "pipelines disagree on {q1} vs {q2}");
        by_id
    }

    #[test]
    fn identical_queries_are_equivalent() {
        assert!(equivalent(
            "MATCH (n:Person) WHERE n.age = 59 RETURN n.name",
            "MATCH (n:Person) WHERE n.age = 59 RETURN n.name"
        ));
    }

    #[test]
    fn renamed_variables_are_equivalent() {
        assert!(equivalent(
            "MATCH (person)-[r:READ]->(book) RETURN person.name",
            "MATCH (x)-[y:READ]->(z) RETURN x.name"
        ));
    }

    #[test]
    fn reversed_direction_is_equivalent() {
        assert!(equivalent("MATCH (a)-[r]->(b) RETURN a", "MATCH (b)<-[r]-(a) RETURN a"));
    }

    #[test]
    fn commuted_predicates_are_equivalent() {
        assert!(equivalent(
            "MATCH (n) WHERE n.a = 1 AND n.b = 2 RETURN n",
            "MATCH (n) WHERE n.b = 2 AND n.a = 1 RETURN n"
        ));
    }

    #[test]
    fn the_papers_or_distribution_example() {
        // §IV-C: a single pattern with (p ∨ q) over disjoint ranges equals the
        // UNION ALL of the two branches.
        assert!(equivalent(
            "MATCH (n) WHERE n.age < 10 OR n.age > 20 RETURN n.name",
            "MATCH (n) WHERE n.age < 10 RETURN n.name \
             UNION ALL MATCH (n) WHERE n.age > 20 RETURN n.name"
        ));
    }

    #[test]
    fn split_pattern_is_equivalent() {
        assert!(equivalent(
            "MATCH (a)-[r1]->(b)-[r2]->(c) WHERE r1 <> r2 RETURN a",
            "MATCH (a)-[r1]->(b) MATCH (b)-[r2]->(c) WHERE r1 <> r2 RETURN a"
        ));
    }

    #[test]
    fn different_labels_are_not_proved() {
        assert!(!equivalent("MATCH (n:Person) RETURN n", "MATCH (n:Book) RETURN n"));
    }

    #[test]
    fn different_directions_with_asymmetric_returns_are_not_proved() {
        assert!(!equivalent("MATCH (a)-[r]->(b) RETURN b", "MATCH (a)-[r]->(b) RETURN a"));
    }

    #[test]
    fn union_all_vs_union_is_not_proved() {
        assert!(!equivalent(
            "MATCH (a) RETURN a UNION ALL MATCH (b) RETURN b",
            "MATCH (a) RETURN a UNION MATCH (b) RETURN b"
        ));
    }

    #[test]
    fn contradictory_predicates_make_queries_empty_and_equivalent() {
        // Both queries always return the empty bag.
        assert!(equivalent(
            "MATCH (n) WHERE n.age = 1 AND n.age = 2 RETURN n",
            "MATCH (m:Person) WHERE m.x < 1 AND m.x > 1 RETURN m"
        ));
    }

    #[test]
    fn implied_predicates_are_pruned() {
        assert!(equivalent(
            "MATCH (n) WHERE n.age > 5 AND n.age > 3 RETURN n",
            "MATCH (n) WHERE n.age > 5 RETURN n"
        ));
    }

    #[test]
    fn distinct_vs_plain_is_not_proved() {
        assert!(!equivalent("MATCH (n) RETURN DISTINCT n.name", "MATCH (n) RETURN n.name"));
    }

    #[test]
    fn limit_values_must_agree() {
        assert!(equivalent(
            "MATCH (n) RETURN n ORDER BY n.age LIMIT 5",
            "MATCH (m) RETURN m ORDER BY m.age LIMIT 5"
        ));
        assert!(!equivalent(
            "MATCH (n) RETURN n ORDER BY n.age LIMIT 5",
            "MATCH (n) RETURN n ORDER BY n.age LIMIT 6"
        ));
    }

    #[test]
    fn aggregates_with_same_usage_are_equivalent() {
        assert!(equivalent(
            "MATCH (n:Person) RETURN SUM(n.age)",
            "MATCH (m:Person) RETURN SUM(m.age)"
        ));
        assert!(!equivalent(
            "MATCH (n:Person) RETURN SUM(n.age)",
            "MATCH (n:Person) RETURN SUM(n.salary)"
        ));
    }

    #[test]
    fn with_renaming_is_equivalent_to_direct_projection() {
        assert!(equivalent("MATCH (x) WITH x.name AS name RETURN name", "MATCH (x) RETURN x.name"));
    }

    #[test]
    fn stats_report_pruning() {
        let g1 = gexpr_of("MATCH (n) WHERE n.age > 5 AND n.age > 3 RETURN n");
        let g2 = gexpr_of("MATCH (n) WHERE n.age > 5 RETURN n");
        let (decision, stats) = check_equivalence_with_stats(&g1, &g2);
        assert!(decision.is_proved());
        assert!(stats.pruned_implied >= 1);
    }

    #[test]
    fn decide_survives_a_thread_cache_reset() {
        let g1 = gexpr_of("MATCH (a)-[r]->(b) RETURN a");
        let g2 = gexpr_of("MATCH (b)<-[r]-(a) RETURN a");
        assert!(check_equivalence(&g1, &g2).is_proved());
        let epoch_before = gexpr::arena::thread_store_epoch();
        let nodes_before = gexpr::arena::thread_store_node_count();
        reset_thread_caches();
        assert_eq!(gexpr::arena::thread_store_epoch(), epoch_before + 1);
        // The arena shrinks to just the re-interned carry-over entries
        // (bounded by the constant, far below a working arena).
        assert!(
            gexpr::arena::thread_store_node_count() < nodes_before,
            "reset must shrink the arena"
        );
        // Same decision after the reset: the caches are pure memos.
        assert!(check_equivalence(&g1, &g2).is_proved());
        let g3 = gexpr_of("MATCH (n:Person) RETURN n");
        let g4 = gexpr_of("MATCH (n:Book) RETURN n");
        assert!(!check_equivalence(&g3, &g4).is_proved());
    }

    #[test]
    fn summand_cache_replays_implied_counts_across_epochs() {
        reset_thread_caches();
        let g1 = gexpr_of("MATCH (n) WHERE n.age > 5 AND n.age > 3 RETURN n");
        let g2 = gexpr_of("MATCH (n) WHERE n.age > 5 RETURN n");
        let (_, cold) = check_equivalence_with_stats(&g1, &g2);
        // Second run hits the summand cache; the implied-atom count must be
        // replayed identically.
        let (_, warm) = check_equivalence_with_stats(&g1, &g2);
        assert_eq!(cold.pruned_implied, warm.pruned_implied);
        assert_eq!(cold.pruned_zero, warm.pruned_zero);
    }

    #[test]
    fn epoch_reset_carries_hot_summand_entries() {
        let g1 = gexpr_of("MATCH (n) WHERE n.age > 5 AND n.age > 3 RETURN n");
        let g2 = gexpr_of("MATCH (n) WHERE n.age > 5 RETURN n");
        let (decision, cold) = check_equivalence_with_stats(&g1, &g2);
        assert!(decision.is_proved());
        reset_thread_caches();
        // The pair's summands were the most recently used entries, so they
        // survived the reset (as re-interned ids of the new epoch).
        let carried = SUMMAND_CACHE.with(|cache| cache.borrow().len());
        assert!(carried > 0, "reset must carry hot entries over");
        // Re-deciding probes only carried entries: a summand miss would
        // insert a new cache entry, so an unchanged entry count proves every
        // lookup hit. (Thread-local observation — the global hit/miss
        // counters are shared with concurrently running tests.)
        let (decision, warm) = check_equivalence_with_stats(&g1, &g2);
        assert!(decision.is_proved());
        let after = SUMMAND_CACHE.with(|cache| cache.borrow().len());
        assert_eq!(after, carried, "carry-over must prevent summand re-simplification");
        // The replayed stats are bit-identical to the cold run's.
        assert_eq!(cold.pruned_implied, warm.pruned_implied);
        assert_eq!(cold.pruned_zero, warm.pruned_zero);
    }

    #[test]
    fn smt_budget_trip_unwinds_without_polluting_the_summand_cache() {
        use std::sync::Arc;
        let g1 = gexpr_of("MATCH (n) WHERE n.age > 5 AND n.age > 3 RETURN n");
        let g2 = gexpr_of("MATCH (n) WHERE n.age > 5 RETURN n");
        // A one-step SMT budget trips inside the first summand
        // simplification; the decide-layer checkpoint surfaces the recorded
        // trip (first-trip-wins: the stage is Smt, not Decide).
        let (left, right) = gexpr::arena::with_thread_store(|store| {
            let left = store.intern_expr(&g1);
            (left, store.intern_expr(&g2))
        });
        let token = Arc::new(limits::RunToken::new(None, 1, 0));
        let tripped = limits::with_token(token, || {
            try_check_equivalence_with_opts(left, right, DecideOptions::default())
        });
        assert!(
            matches!(
                tripped,
                Err(limits::Trip::BudgetExhausted { stage: limits::Stage::Smt, budget: 1 })
            ),
            "{tripped:?}"
        );
        // Cache hygiene: nothing simplified on the tripped path was memoized
        // (this test's thread started with a cold cache).
        assert_eq!(SUMMAND_CACHE.with(|cache| cache.borrow().len()), 0);
        // A clean re-prove from the same thread proves the pair and
        // repopulates the cache — no degraded state was retained.
        let (decision, stats) = check_equivalence_with_stats(&g1, &g2);
        assert!(decision.is_proved());
        assert!(stats.pruned_implied >= 1, "{stats:?}");
        assert!(SUMMAND_CACHE.with(|cache| cache.borrow().len()) > 0);
    }
}
