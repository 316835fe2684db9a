//! Fault-injection harness for the prover's failure domains.
//!
//! Every test arms a `limits::faults` fault (panic, stall, forced SMT
//! `Unknown`) or a resource budget, drives the prover through it, and
//! asserts the three robustness invariants of the limits layer:
//!
//! 1. the injected fault yields the *right* structured reason code
//!    (`Timeout { stage }`, `BudgetExhausted { stage, budget }`, `Panicked`)
//!    — never a wrong `EQUIVALENT`/`NOT EQUIVALENT`;
//! 2. a batch containing the afflicted pair completes, with every other
//!    pair's verdict identical to the fault-free run;
//! 3. no cache retains state computed on the faulted path: re-proving with
//!    faults disarmed and limits off reproduces the reference verdict.
//!
//! The fault harness and the panic hook are process-global, so every test
//! serializes on [`FAULT_LOCK`]. Each `#[test]` runs on its own fresh
//! thread, so thread-local caches (arena, summand, SMT formula) are
//! cold unless the test itself warms them — several tests rely on this to
//! guarantee the armed stage is actually reached instead of served from a
//! warm memo.

use std::sync::Mutex;
use std::time::Duration;

use graphqe::{FailureCategory, GraphQE, ProveLimits, SearchConfig, Verdict};
use limits::faults::{self, FaultKind};
use limits::Stage;

/// Serializes every test in this file: armed faults and the panic hook are
/// process-global.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// A prover whose pipeline always runs for real: no search memo and no
/// normalize memo (a memoized replay would skip the machinery the faults
/// target — a parse-cache entry's memoized stages satisfy stage ② without
/// ever reaching the armed normalize checkpoint).
fn fault_prover() -> GraphQE {
    GraphQE {
        search_config: SearchConfig { use_memo: false },
        use_normalize_cache: false,
        ..GraphQE::new()
    }
}

/// Runs `f` with a silenced panic hook (the injected panics are expected;
/// their backtraces would drown the test output), restoring the previous
/// hook afterwards.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(previous);
    result
}

/// An equivalent pair whose proof requires SMT summand simplification, so
/// the pipeline reaches the CDCL loop (`smt_step` checkpoints).
const EQ_SMT: (&str, &str) =
    ("MATCH (n) WHERE n.age > 5 AND n.age > 3 RETURN n", "MATCH (n) WHERE n.age > 5 RETURN n");
/// A non-equivalent pair: not provable, so the pipeline reaches the
/// counterexample search (`search_step` checkpoints).
const NEQ_SEARCH: (&str, &str) = ("MATCH (n:Person) RETURN n", "MATCH (n:Book) RETURN n");
/// An equivalent pair decided by iso matching alone.
const EQ_SIMPLE: (&str, &str) = ("MATCH (a)-[r]->(b) RETURN a", "MATCH (b)<-[r]-(a) RETURN a");

/// The batch covering every faultable stage, ordered so that with one armed
/// shot the afflicted pair is deterministic: the first pair exercises
/// normalize, decide and the SMT loop; the second is the first to search.
const BATCH: [(&str, &str); 3] = [EQ_SMT, NEQ_SEARCH, EQ_SIMPLE];

/// Fingerprint for verdict comparison across runs: the verdict class and
/// the failure reason (the witnesses themselves are pinned by
/// `tests/search_pins.rs`).
fn fingerprint(verdict: &Verdict) -> (bool, bool, Option<FailureCategory>) {
    (verdict.is_equivalent(), verdict.is_not_equivalent(), verdict.failure_category())
}

/// One armed panic shot at `stage`: the batch must complete, exactly one
/// pair must degrade to `Unknown(Panicked)`, and every other pair's verdict
/// must match the fault-free reference bit for bit.
fn panic_isolation_at(stage: Stage) {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    let prover = fault_prover();
    let (outcomes, _) = with_quiet_panics(|| {
        faults::arm(stage, FaultKind::Panic, 1);
        let batch = prover.prove_batch(&BATCH, 1);
        faults::disarm();
        batch
    });
    assert_eq!(outcomes.len(), BATCH.len(), "the batch must complete");
    let panicked: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.verdict.failure_category() == Some(FailureCategory::Panicked))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(panicked.len(), 1, "exactly one pair must be afflicted at {stage}: {panicked:?}");
    // Fault-free reference run (after the faulted one, so the faulted run
    // starts from this test thread's cold caches and really reaches the
    // armed stage).
    let (reference, _) = prover.prove_batch(&BATCH, 1);
    for (index, (outcome, expected)) in outcomes.iter().zip(&reference).enumerate() {
        if index == panicked[0] {
            // The afflicted pair itself recovers on the clean re-run: no
            // cache may have frozen the panicked attempt.
            assert!(
                !expected.verdict.is_unknown(),
                "pair {index} must re-prove cleanly after the panic"
            );
            continue;
        }
        assert_eq!(
            fingerprint(&outcome.verdict),
            fingerprint(&expected.verdict),
            "pair {index} diverged from the fault-free run under panic@{stage}"
        );
    }
}

#[test]
fn a_panic_during_normalization_degrades_one_pair_not_the_batch() {
    panic_isolation_at(Stage::Normalize);
}

#[test]
fn a_panic_during_the_decision_degrades_one_pair_not_the_batch() {
    panic_isolation_at(Stage::Decide);
}

#[test]
fn a_panic_inside_the_smt_loop_degrades_one_pair_not_the_batch() {
    panic_isolation_at(Stage::Smt);
}

#[test]
fn a_panic_during_the_search_degrades_one_pair_not_the_batch() {
    panic_isolation_at(Stage::Search);
}

/// One armed stall shot at `stage` plus a deadline shorter than the stall:
/// the stalled checkpoint itself must observe the expiry, so the verdict is
/// `Unknown(Timeout)` attributed to exactly that stage; disarmed re-proving
/// must reproduce the reference verdict from clean caches.
fn stall_times_out_at(stage: Stage, pair: (&str, &str)) {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    let limited = GraphQE {
        limits: ProveLimits {
            deadline: Some(Duration::from_millis(100)),
            ..ProveLimits::default()
        },
        ..fault_prover()
    };
    faults::arm(stage, FaultKind::Stall(Duration::from_millis(300)), 1);
    let verdict = limited.prove(pair.0, pair.1);
    faults::disarm();
    assert_eq!(
        verdict.failure_category(),
        Some(FailureCategory::Timeout { stage }),
        "stall@{stage} must surface as a timeout at {stage}, got {verdict}"
    );
    // Determinism: the tripped run never yields a wrong definite verdict,
    // and with limits off the original verdict is reproduced from clean
    // (unpoisoned) cache state.
    let reference = fault_prover().prove(pair.0, pair.1);
    assert!(
        !reference.is_unknown(),
        "clean re-prove after the trip must reach the definite verdict, got {reference}"
    );
}

#[test]
fn a_stall_past_the_deadline_times_out_in_normalization() {
    stall_times_out_at(Stage::Normalize, EQ_SIMPLE);
}

#[test]
fn a_stall_in_a_cached_normalization_times_out_and_memoizes_nothing() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    // Every cache on, and texts no other test proves: stage ② runs through
    // the texts' fresh parse-cache entries, so the armed checkpoint is the
    // one a memoizing normalization passes.
    let pair =
        ("MATCH (fi_trip)-[r]->(b) RETURN fi_trip", "MATCH (b)<-[r]-(fi_trip) RETURN fi_trip");
    let limited = GraphQE {
        limits: ProveLimits {
            deadline: Some(Duration::from_millis(100)),
            ..ProveLimits::default()
        },
        ..GraphQE::new()
    };
    faults::arm(Stage::Normalize, FaultKind::Stall(Duration::from_millis(300)), 1);
    let verdict = limited.prove(pair.0, pair.1);
    faults::disarm();
    assert_eq!(
        verdict.failure_category(),
        Some(FailureCategory::Timeout { stage: Stage::Normalize }),
        "got {verdict}"
    );
    // A tripped normalization is never memoized: both entries hold no stages.
    for text in [pair.0, pair.1] {
        let entry = graphqe::parse_check_cached(text).expect("the text parses");
        assert!(entry.memoized_stages().is_none(), "the trip left stages in {text}'s entry");
    }
    assert!(GraphQE::new().prove(pair.0, pair.1).is_equivalent());
}

#[test]
fn a_stall_past_the_deadline_times_out_in_the_decision() {
    stall_times_out_at(Stage::Decide, EQ_SIMPLE);
}

#[test]
fn a_stall_past_the_deadline_times_out_in_the_smt_loop() {
    stall_times_out_at(Stage::Smt, EQ_SMT);
}

#[test]
fn a_stall_past_the_deadline_times_out_in_the_search() {
    stall_times_out_at(Stage::Search, NEQ_SEARCH);
}

#[test]
fn a_deadline_mid_search_never_flips_the_verdict_and_the_memo_stays_clean() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    // Memo ON here: the point is that the aborted search must not freeze its
    // partial outcome in the process-wide search memo. Unique texts keep the
    // memo entry under this test's control.
    let pair = ("MATCH (fi_memo:Person) RETURN fi_memo", "MATCH (fi_memo:Book) RETURN fi_memo");
    let limited = GraphQE {
        limits: ProveLimits {
            deadline: Some(Duration::from_millis(100)),
            ..ProveLimits::default()
        },
        ..GraphQE::new()
    };
    faults::arm(Stage::Search, FaultKind::Stall(Duration::from_millis(300)), 1);
    let tripped = limited.prove(pair.0, pair.1);
    faults::disarm();
    assert_eq!(
        tripped.failure_category(),
        Some(FailureCategory::Timeout { stage: Stage::Search }),
        "got {tripped}"
    );
    // Limits off: the full search runs, finds the witness, and only now may
    // the memo record an outcome for this pair.
    let clean = GraphQE::new();
    assert!(clean.prove(pair.0, pair.1).is_not_equivalent());
    // A second clean prove replays the same certificate (memoized now).
    assert!(clean.prove(pair.0, pair.1).is_not_equivalent());
}

#[test]
fn forced_smt_unknowns_degrade_conservatively_and_leave_caches_clean() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    let prover = fault_prover();
    // Every SMT check reports Unknown: the implied-atom pruning that proves
    // this pair cannot fire, the decision degrades to NotProved, and the
    // search (which needs no SMT) exhausts its pool without a witness. The
    // verdict must be Unknown — soundly, never a wrong NOT_EQUIVALENT.
    faults::arm(Stage::Smt, FaultKind::SmtUnknown, u32::MAX);
    let degraded = prover.prove(EQ_SMT.0, EQ_SMT.1);
    faults::disarm();
    assert!(degraded.is_unknown(), "forced SMT unknowns must degrade to Unknown, got {degraded}");
    // Cache hygiene: nothing the degraded run computed may persist — on the
    // same thread, the clean re-prove must reach EQUIVALENT (a cached
    // degraded summand simplification would block the pruning again).
    let clean = prover.prove(EQ_SMT.0, EQ_SMT.1);
    assert!(clean.is_equivalent(), "degraded state leaked into a cache: {clean}");
}

#[test]
fn an_exhausted_smt_step_budget_reports_the_budget_and_skips_the_search() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    let limited = GraphQE {
        limits: ProveLimits { smt_step_budget: 1, ..ProveLimits::default() },
        ..fault_prover()
    };
    let verdict = limited.prove(EQ_SMT.0, EQ_SMT.1);
    assert_eq!(
        verdict.failure_category(),
        Some(FailureCategory::BudgetExhausted { stage: Stage::Smt, budget: 1 }),
        "got {verdict}"
    );
    // Clean re-prove from the same thread: the budgeted run's degraded SMT
    // answers were not memoized anywhere.
    assert!(fault_prover().prove(EQ_SMT.0, EQ_SMT.1).is_equivalent());
}

#[test]
fn an_exhausted_search_graph_budget_reports_the_budget_not_a_wrong_verdict() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    let limited = GraphQE {
        limits: ProveLimits { search_graph_budget: 1, ..ProveLimits::default() },
        ..fault_prover()
    };
    // One candidate graph (the empty seed graph) does not separate this
    // pair, so the budget trips before the separating graph is reached.
    let verdict = limited.prove(NEQ_SEARCH.0, NEQ_SEARCH.1);
    assert_eq!(
        verdict.failure_category(),
        Some(FailureCategory::BudgetExhausted { stage: Stage::Search, budget: 1 }),
        "got {verdict}"
    );
    assert!(fault_prover().prove(NEQ_SEARCH.0, NEQ_SEARCH.1).is_not_equivalent());
}

/// CI matrix entry point: when `GRAPHQE_FAULT=<kind>@<stage>` is set, arm
/// one shot of it and drive a batch through every stage. The batch must
/// complete, no pair may flip to a *wrong* definite verdict, and at most
/// one pair may differ from the fault-free reference — with the reason
/// matching the injected kind. Without the variable the test is a no-op, so
/// plain `cargo test` runs stay fault-free.
#[test]
fn armed_from_the_environment_the_batch_completes_with_the_right_reason() {
    let Ok(spec) = std::env::var("GRAPHQE_FAULT") else { return };
    let Some((stage, kind)) = faults::parse_spec(&spec) else {
        panic!("unparsable GRAPHQE_FAULT spec: {spec}")
    };
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    // Stall faults need a deadline to convert the delay into a trip; the
    // default stall is 50ms, so 25ms sits safely under it.
    let deadline = matches!(kind, FaultKind::Stall(_)).then(|| Duration::from_millis(25));
    let prover =
        GraphQE { limits: ProveLimits { deadline, ..ProveLimits::default() }, ..fault_prover() };
    let (outcomes, _) = with_quiet_panics(|| {
        assert_eq!(faults::arm_from_env(), Some((stage, kind)), "arming from env must succeed");
        let batch = prover.prove_batch(&BATCH, 1);
        faults::disarm();
        batch
    });
    assert_eq!(outcomes.len(), BATCH.len(), "the batch must complete");
    let (reference, _) = fault_prover().prove_batch(&BATCH, 1);
    let mut divergent = 0;
    for (index, (outcome, expected)) in outcomes.iter().zip(&reference).enumerate() {
        if fingerprint(&outcome.verdict) == fingerprint(&expected.verdict) {
            continue;
        }
        divergent += 1;
        // A divergent pair may only be Unknown with the injected reason
        // family — never a flipped definite verdict.
        let reason = outcome.verdict.failure_category();
        let reason_matches = match kind {
            FaultKind::Panic => reason == Some(FailureCategory::Panicked),
            FaultKind::Stall(_) => {
                matches!(reason, Some(FailureCategory::Timeout { .. }))
            }
            FaultKind::SmtUnknown => reason.is_some(),
        };
        assert!(
            reason_matches,
            "pair {index} diverged with the wrong reason under {spec}: {:?}",
            outcome.verdict
        );
    }
    assert!(divergent <= 1, "one armed shot may afflict at most one pair, got {divergent}");
}
