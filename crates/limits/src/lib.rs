//! # limits
//!
//! Cooperative resource budgets, deadlines and cancellation for the prover
//! pipeline — the failure-domain substrate under `graphqe`'s `ProveLimits`.
//!
//! The design is a cheap shared [`RunToken`] (a deadline `Instant`, a cancel
//! `AtomicBool`, and per-resource step counters) installed as a thread-local
//! **ambient token** for the duration of one proof. Long-running loops across
//! the workspace — the normalizer's rule fixpoint, `liastar::decide`'s
//! summand processing, the SMT solver's CDCL refinement loop, the
//! counterexample search's per-graph loop — call the free functions
//! [`checkpoint`], [`smt_step`] and [`search_step`] cooperatively. With no
//! token installed (the default), every call is a thread-local probe that
//! returns `Ok(())`; with a token, the call charges the budget, checks the
//! deadline, and returns the first [`Trip`] once any limit is exceeded.
//!
//! A trip is **sticky**: the first recorded trip wins (later stages report
//! the original cause, not a cascade), and recording it raises the token's
//! cancel flag so every later loop of the same proof unwinds at its next
//! checkpoint. [`cancelled`] is the cheap relaxed-load probe the cache
//! layers use to keep results computed on a tripped path out of the
//! process- and thread-wide memo caches.
//!
//! The [`faults`] module is the test-only (env- or explicitly-armed)
//! fault-injection harness: it can force a panic or an artificial stall at
//! any stage's checkpoint, or force the SMT solver to report `Unknown`.
//! Disarmed (the default), its cost is one relaxed atomic load per
//! checkpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The pipeline stage a trip or an injected fault is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stage ② — rule-based normalization (`cypher-normalizer`).
    Normalize,
    /// Stage ④ — the LIA★ decision procedure (`liastar`).
    Decide,
    /// The SMT solver's CDCL(T) refinement loop (`smt`).
    Smt,
    /// The counterexample search over concrete graphs (`graphqe`).
    Search,
}

impl Stage {
    /// All stages, in pipeline order (for test matrices).
    pub const ALL: [Stage; 4] = [Stage::Normalize, Stage::Decide, Stage::Smt, Stage::Search];

    /// Parses the lowercase stage name used by the `GRAPHQE_FAULT` syntax.
    pub fn parse(name: &str) -> Option<Stage> {
        match name {
            "normalize" => Some(Stage::Normalize),
            "decide" => Some(Stage::Decide),
            "smt" => Some(Stage::Smt),
            "search" => Some(Stage::Search),
            _ => None,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Normalize => "normalize",
            Stage::Decide => "decide",
            Stage::Smt => "smt",
            Stage::Search => "search",
        })
    }
}

/// Why a run was cut short. The first trip recorded on a [`RunToken`] wins;
/// every later checkpoint reports the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// The deadline passed; `stage` is where the expiry was detected.
    Timeout {
        /// The stage whose checkpoint observed the expired deadline.
        stage: Stage,
    },
    /// A step budget ran out at `stage`.
    BudgetExhausted {
        /// The stage whose counter crossed its budget.
        stage: Stage,
        /// The configured budget that was exceeded.
        budget: u64,
    },
    /// The token was cancelled externally via [`RunToken::cancel`].
    Cancelled,
}

impl fmt::Display for Trip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trip::Timeout { stage } => write!(f, "deadline exceeded during {stage}"),
            Trip::BudgetExhausted { stage, budget } => {
                write!(f, "{stage} budget of {budget} steps exhausted")
            }
            Trip::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// The shared cancellation/budget token of one proof run.
///
/// Cheap by construction: checking costs a relaxed atomic load, charging a
/// budget one `fetch_add`. With a deadline set, the clock is only probed on
/// every `PROBE_INTERVAL`-th check (`Instant::now()` is the expensive part
/// of a checkpoint; the worst-case detection slack of a few checkpoints is
/// noise against millisecond-scale deadlines). [`with_token`] installs an
/// `Arc` of the token as the calling thread's ambient token; any other
/// holder of the `Arc` can [`RunToken::cancel`] the run from outside.
#[derive(Debug, Default)]
pub struct RunToken {
    deadline: Option<Instant>,
    /// Maximum SMT CDCL(T) refinement iterations, summed across all solver
    /// calls under this token. `0` = unlimited.
    smt_step_budget: u64,
    /// Maximum candidate graphs the counterexample search may evaluate,
    /// summed across every search of the run. `0` = unlimited.
    search_graph_budget: u64,
    cancelled: AtomicBool,
    smt_steps: AtomicU64,
    search_graphs: AtomicU64,
    /// Deadline checks since the token was created; the clock is probed when
    /// this hits a multiple of [`PROBE_INTERVAL`].
    checks: AtomicU64,
    trip: Mutex<Option<Trip>>,
}

/// How many deadline checks share one `Instant::now()` probe. The very first
/// check always probes (the counter starts at zero), and an injected stall
/// forces a probe regardless of the counter.
const PROBE_INTERVAL: u64 = 16;

impl RunToken {
    /// A token with no deadline and no budgets: it trips only on
    /// [`RunToken::cancel`].
    pub fn unlimited() -> RunToken {
        RunToken::default()
    }

    /// A token with the given deadline and step budgets (`0` = unlimited).
    pub fn new(deadline: Option<Instant>, smt_step_budget: u64, search_graph_budget: u64) -> Self {
        RunToken { deadline, smt_step_budget, search_graph_budget, ..RunToken::default() }
    }

    /// Requests cooperative cancellation (idempotent; an earlier trip wins).
    pub fn cancel(&self) {
        self.record_trip(Trip::Cancelled);
    }

    /// `true` once any trip was recorded. Relaxed load — this is the cheap
    /// probe the cache layers use for insert hygiene.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The first trip recorded on this token, if any.
    pub fn trip(&self) -> Option<Trip> {
        if !self.is_cancelled() {
            return None;
        }
        *self.trip.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records `trip` unless one is already recorded, raises the cancel
    /// flag, and returns the winning (first) trip.
    pub fn record_trip(&self, trip: Trip) -> Trip {
        let mut slot = self.trip.lock().unwrap_or_else(|e| e.into_inner());
        let winner = *slot.get_or_insert(trip);
        // Release so the winning trip is visible to threads that observe the
        // flag before probing the mutex.
        self.cancelled.store(true, Ordering::Release);
        winner
    }

    /// Deadline/cancellation check attributed to `stage` (clock probe
    /// subsampled — see `PROBE_INTERVAL`).
    pub fn check(&self, stage: Stage) -> Result<(), Trip> {
        self.check_forced(stage, false)
    }

    /// [`RunToken::check`] with `force_probe` bypassing the clock-probe
    /// subsampling — used after an injected stall, whose checkpoint must
    /// observe the expiry itself for exact stage attribution.
    fn check_forced(&self, stage: Stage, force_probe: bool) -> Result<(), Trip> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(self.trip().unwrap_or(Trip::Cancelled));
        }
        if let Some(deadline) = self.deadline {
            let probe = force_probe
                || self.checks.fetch_add(1, Ordering::Relaxed).is_multiple_of(PROBE_INTERVAL);
            if probe && Instant::now() >= deadline {
                return Err(self.record_trip(Trip::Timeout { stage }));
            }
        }
        Ok(())
    }

    /// Charges one SMT refinement iteration, then checks deadline/budget.
    pub fn tick_smt(&self) -> Result<(), Trip> {
        self.tick_smt_forced(false)
    }

    fn tick_smt_forced(&self, force_probe: bool) -> Result<(), Trip> {
        let steps = self.smt_steps.fetch_add(1, Ordering::Relaxed) + 1;
        if self.smt_step_budget != 0 && steps > self.smt_step_budget {
            return Err(self.record_trip(Trip::BudgetExhausted {
                stage: Stage::Smt,
                budget: self.smt_step_budget,
            }));
        }
        self.check_forced(Stage::Smt, force_probe)
    }

    /// Charges one candidate graph of the counterexample search, then checks
    /// deadline/budget.
    pub fn tick_search(&self) -> Result<(), Trip> {
        self.tick_search_forced(false)
    }

    fn tick_search_forced(&self, force_probe: bool) -> Result<(), Trip> {
        let graphs = self.search_graphs.fetch_add(1, Ordering::Relaxed) + 1;
        if self.search_graph_budget != 0 && graphs > self.search_graph_budget {
            return Err(self.record_trip(Trip::BudgetExhausted {
                stage: Stage::Search,
                budget: self.search_graph_budget,
            }));
        }
        self.check_forced(Stage::Search, force_probe)
    }

    /// SMT iterations charged so far (test/report observability).
    pub fn smt_steps(&self) -> u64 {
        self.smt_steps.load(Ordering::Relaxed)
    }

    /// Search graphs charged so far (test/report observability).
    pub fn search_graphs(&self) -> u64 {
        self.search_graphs.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// The ambient (thread-local) token
// ---------------------------------------------------------------------------

thread_local! {
    static AMBIENT: RefCell<Option<Arc<RunToken>>> = const { RefCell::new(None) };
}

/// Installs `token` as the calling thread's ambient token for the duration
/// of `f`. Panic-safe: the previous token (usually `None`) is restored even
/// if `f` unwinds, so a caught panic cannot leak a stale token into the next
/// proof on the same thread.
pub fn with_token<R>(token: Arc<RunToken>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<RunToken>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|slot| *slot.borrow_mut() = self.0.take());
        }
    }
    let previous = AMBIENT.with(|slot| slot.borrow_mut().replace(token));
    let _restore = Restore(previous);
    f()
}

/// Runs `f` with **no** ambient token (restoring the current one after),
/// so infallible entry points can guarantee their cooperative checkpoints
/// never trip.
pub fn without_token<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<RunToken>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|slot| *slot.borrow_mut() = self.0.take());
        }
    }
    let previous = AMBIENT.with(|slot| slot.borrow_mut().take());
    let _restore = Restore(previous);
    f()
}

fn with_ambient(f: impl FnOnce(&RunToken) -> Result<(), Trip>) -> Result<(), Trip> {
    AMBIENT.with(|slot| match slot.borrow().as_deref() {
        Some(token) => f(token),
        None => Ok(()),
    })
}

/// Cooperative deadline/cancellation checkpoint for `stage`, against the
/// ambient token. Also the injection point of armed [`faults`] for `stage`.
/// `Ok(())` when no token is installed.
pub fn checkpoint(stage: Stage) -> Result<(), Trip> {
    let stalled = faults::trigger(stage);
    with_ambient(|token| token.check_forced(stage, stalled))
}

/// Charges one SMT CDCL(T) iteration against the ambient token (and triggers
/// armed faults for [`Stage::Smt`]). `Ok(())` when no token is installed.
pub fn smt_step() -> Result<(), Trip> {
    let stalled = faults::trigger(Stage::Smt);
    with_ambient(|token| token.tick_smt_forced(stalled))
}

/// Charges one counterexample-search candidate graph against the ambient
/// token (and triggers armed faults for [`Stage::Search`]). `Ok(())` when no
/// token is installed.
pub fn search_step() -> Result<(), Trip> {
    let stalled = faults::trigger(Stage::Search);
    with_ambient(|token| token.tick_search_forced(stalled))
}

/// `true` once the ambient token (if any) has tripped. The cache layers call
/// this before inserting: results computed on a tripped path must never be
/// memoized.
pub fn cancelled() -> bool {
    AMBIENT.with(|slot| slot.borrow().as_deref().is_some_and(RunToken::is_cancelled))
}

/// The ambient token's recorded trip, if any.
pub fn trip() -> Option<Trip> {
    AMBIENT.with(|slot| slot.borrow().as_deref().and_then(RunToken::trip))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Fault/ambient state is global per thread or process; tests that touch
    /// it serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// The calling thread's ambient token, if one is installed.
    fn current_token() -> Option<Arc<RunToken>> {
        AMBIENT.with(|slot| slot.borrow().clone())
    }

    #[test]
    fn no_token_means_no_trips() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(checkpoint(Stage::Decide).is_ok());
        assert!(smt_step().is_ok());
        assert!(search_step().is_ok());
        assert!(!cancelled());
        assert_eq!(trip(), None);
    }

    #[test]
    fn deadline_trips_and_sticks() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let token = Arc::new(RunToken::new(Some(Instant::now() - Duration::from_millis(1)), 0, 0));
        with_token(token.clone(), || {
            let first = checkpoint(Stage::Normalize);
            assert_eq!(first, Err(Trip::Timeout { stage: Stage::Normalize }));
            // A later stage reports the original trip, not a new one.
            let later = checkpoint(Stage::Search);
            assert_eq!(later, Err(Trip::Timeout { stage: Stage::Normalize }));
            assert!(cancelled());
        });
        assert_eq!(token.trip(), Some(Trip::Timeout { stage: Stage::Normalize }));
        // Outside the scope the ambient token is gone.
        assert!(!cancelled());
        assert!(checkpoint(Stage::Normalize).is_ok());
    }

    #[test]
    fn budgets_trip_at_the_configured_step() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let token = Arc::new(RunToken::new(None, 3, 2));
        with_token(token.clone(), || {
            assert!(smt_step().is_ok());
            assert!(smt_step().is_ok());
            assert!(smt_step().is_ok());
            assert_eq!(smt_step(), Err(Trip::BudgetExhausted { stage: Stage::Smt, budget: 3 }));
        });
        assert_eq!(token.smt_steps(), 4);

        let token = Arc::new(RunToken::new(None, 0, 2));
        with_token(token.clone(), || {
            assert!(search_step().is_ok());
            assert!(search_step().is_ok());
            assert_eq!(
                search_step(),
                Err(Trip::BudgetExhausted { stage: Stage::Search, budget: 2 })
            );
            // The SMT budget is independent (0 = unlimited).
            assert!(matches!(smt_step(), Err(Trip::BudgetExhausted { stage: Stage::Search, .. })));
        });
    }

    #[test]
    fn an_expired_deadline_is_detected_within_one_probe_interval() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let token = Arc::new(RunToken::new(Some(Instant::now() + Duration::from_millis(1)), 0, 0));
        // Consume the always-probing first check while the deadline is live.
        assert!(token.check(Stage::Decide).is_ok());
        std::thread::sleep(Duration::from_millis(2));
        // The clock probe is subsampled, but the expiry must surface within
        // the next PROBE_INTERVAL checks.
        let tripped = (0..PROBE_INTERVAL).any(|_| token.check(Stage::Decide).is_err());
        assert!(tripped, "expired deadline went undetected for a whole probe interval");
        assert_eq!(token.trip(), Some(Trip::Timeout { stage: Stage::Decide }));
    }

    #[test]
    fn external_cancel_is_observed_by_checkpoints() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let token = Arc::new(RunToken::unlimited());
        token.cancel();
        with_token(token, || {
            assert_eq!(checkpoint(Stage::Decide), Err(Trip::Cancelled));
            assert_eq!(trip(), Some(Trip::Cancelled));
        });
    }

    #[test]
    fn with_token_restores_the_previous_token_even_on_panic() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let outer = Arc::new(RunToken::unlimited());
        with_token(outer.clone(), || {
            let inner = Arc::new(RunToken::unlimited());
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_token(inner, || panic!("boom"))
            }));
            assert!(result.is_err());
            // The outer token is back in place after the unwind.
            assert!(Arc::ptr_eq(&current_token().unwrap(), &outer));
        });
        assert!(current_token().is_none());
    }

    #[test]
    fn without_token_suspends_the_ambient_token() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let token = Arc::new(RunToken::unlimited());
        token.cancel();
        with_token(token.clone(), || {
            assert!(checkpoint(Stage::Decide).is_err());
            without_token(|| {
                assert!(checkpoint(Stage::Decide).is_ok());
                assert!(current_token().is_none());
            });
            assert!(checkpoint(Stage::Decide).is_err());
        });
    }

    #[test]
    fn fault_parsing_and_shot_countdown() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(faults::parse_spec("panic@decide").is_some());
        assert!(faults::parse_spec("stall@search").is_some());
        assert!(faults::parse_spec("smt-unknown@smt").is_some());
        assert!(faults::parse_spec("panic@nowhere").is_none());
        assert!(faults::parse_spec("frobnicate@smt").is_none());
        // Shot-count suffix: kept by the `_with_shots` parser, tolerated (and
        // discarded) by the plain one, rejected when non-positive or garbage.
        assert_eq!(
            faults::parse_spec_with_shots("panic@search*3"),
            Some((Stage::Search, faults::FaultKind::Panic, 3))
        );
        assert_eq!(
            faults::parse_spec_with_shots("stall@decide"),
            Some((Stage::Decide, faults::FaultKind::Stall(faults::DEFAULT_STALL), 1))
        );
        assert_eq!(
            faults::parse_spec("panic@search*3"),
            Some((Stage::Search, faults::FaultKind::Panic))
        );
        assert!(faults::parse_spec_with_shots("panic@search*0").is_none());
        assert!(faults::parse_spec_with_shots("panic@search*many").is_none());

        faults::arm(Stage::Smt, faults::FaultKind::SmtUnknown, 2);
        assert!(faults::forced_smt_unknown());
        assert!(faults::forced_smt_unknown());
        // Shots exhausted: disarmed.
        assert!(!faults::forced_smt_unknown());

        // A panic fault actually panics at its stage's checkpoint and only
        // there.
        faults::arm(Stage::Decide, faults::FaultKind::Panic, 1);
        assert!(checkpoint(Stage::Normalize).is_ok());
        let panicked = std::panic::catch_unwind(|| checkpoint(Stage::Decide));
        assert!(panicked.is_err());
        // One shot: the next checkpoint is clean.
        assert!(checkpoint(Stage::Decide).is_ok());
        faults::disarm();
    }

    #[test]
    fn stall_fault_delays_until_the_deadline_expires() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let token = Arc::new(RunToken::new(Some(Instant::now() + Duration::from_millis(5)), 0, 0));
        faults::arm(Stage::Search, faults::FaultKind::Stall(Duration::from_millis(20)), 1);
        with_token(token, || {
            // The stall sleeps past the deadline, so the very same call
            // observes the expiry and attributes it to the stalled stage.
            assert_eq!(search_step(), Err(Trip::Timeout { stage: Stage::Search }));
        });
        faults::disarm();
    }
}
