//! The pipeline's resilience layer: error types, panic capture, retry
//! with deterministic backoff, stage budgets, and the bookkeeping
//! structures for quarantine (dead letters) and graceful degradation.
//!
//! Web-scale harvesting input is adversarially messy — truncated pages,
//! broken encodings, corrupt annotations — and the tutorial's premise is
//! that KB construction survives that noise. This module supplies the
//! machinery [`pipeline`](crate::pipeline) uses to guarantee that a
//! poison document is *quarantined* instead of killing the harvest, and
//! that an over-budget or crashing refinement stage *degrades* to a
//! cheaper method instead of aborting.
//!
//! Everything here is deterministic: backoff jitter comes from a seeded
//! hash, never from wall-clock entropy, so two runs with the same seed
//! retry with identical delays.

use std::any::Any;
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

use kb_store::StoreError;

use crate::pipeline::Method;

// ---------------------------------------------------------------------
// Error type: nothing panics across the public pipeline API.
// ---------------------------------------------------------------------

/// Errors surfaced by the harvesting pipeline. Worker panics are caught
/// and converted; store failures are wrapped — no panic crosses the
/// public pipeline API.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A worker thread died in a way the per-document quarantine could
    /// not absorb (e.g. the thread pool itself failed to join).
    WorkerPanic {
        /// Pipeline stage name.
        stage: &'static str,
        /// Captured panic payload.
        detail: String,
    },
    /// A single-threaded pipeline stage panicked; the panic was caught
    /// at the stage boundary.
    StagePanic {
        /// Pipeline stage name.
        stage: &'static str,
        /// Captured panic payload.
        detail: String,
    },
    /// A knowledge-base operation failed while loading results.
    Store(StoreError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::WorkerPanic { stage, detail } => {
                write!(f, "worker panicked in stage {stage:?}: {detail}")
            }
            PipelineError::StagePanic { stage, detail } => {
                write!(f, "stage {stage:?} panicked: {detail}")
            }
            PipelineError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for PipelineError {
    fn from(e: StoreError) -> Self {
        PipelineError::Store(e)
    }
}

// ---------------------------------------------------------------------
// Panic capture.
// ---------------------------------------------------------------------

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent while a
/// [`catch_panic`] guard is active on the panicking thread and delegates
/// to the previous hook otherwise. Keeps chaos runs with hundreds of
/// expected poison-document panics from flooding stderr.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Stringifies a panic payload (the common `&str`/`String` payloads are
/// preserved verbatim; anything else becomes a placeholder).
pub(crate) fn panic_payload_to_string(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs `f`, converting an unwinding panic into `Err(message)`. Panic
/// output is suppressed for the duration (the payload is *captured*, not
/// lost — it becomes the error string). Guards nest: an inner one hands
/// the outer one's suppression back.
pub(crate) fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    let outer = SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(outer));
    result.map_err(panic_payload_to_string)
}

// ---------------------------------------------------------------------
// Retry with deterministic backoff.
// ---------------------------------------------------------------------

/// Splitmix64: a tiny, high-quality deterministic mixer used to derive
/// per-attempt jitter without touching any global RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A bounded-retry policy with exponential backoff and seeded jitter.
///
/// Jitter is derived from `jitter_seed` and the attempt number only, so
/// a run's delay schedule is a pure function of its configuration — no
/// wall-clock randomness, fully reproducible in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (including the first); at least 1.
    pub max_attempts: u32,
    /// Backoff base in milliseconds; 0 disables sleeping entirely.
    pub base_delay_ms: u64,
    /// Upper bound on a single delay in milliseconds.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3, base_delay_ms: 10, max_delay_ms: 1_000, jitter_seed: 0x5eed }
    }
}

/// What a [`RetryPolicy::run`] ended with, plus how many attempts it
/// took to get there.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryOutcome<T, E> {
    /// The final success or the last error.
    pub result: Result<T, E>,
    /// Attempts actually made (1..=max_attempts).
    pub attempts: u32,
}

impl RetryPolicy {
    /// A policy that retries `max_attempts` times with no sleeping —
    /// the right default for CPU-local work where backing off buys
    /// nothing (used by the pipeline's per-document guard).
    pub(crate) fn immediate(max_attempts: u32) -> Self {
        Self { max_attempts, base_delay_ms: 0, max_delay_ms: 0, ..Self::default() }
    }

    /// The delay scheduled *after* failed attempt `attempt` (1-based):
    /// exponential in the attempt number, scaled by a deterministic
    /// jitter factor in `[0.5, 1.5)`, capped at `max_delay_ms`.
    pub(crate) fn delay_after(&self, attempt: u32) -> Duration {
        if self.base_delay_ms == 0 {
            return Duration::ZERO;
        }
        let raw = self.base_delay_ms.saturating_mul(1u64 << (attempt.saturating_sub(1)).min(20));
        let jitter_bits = splitmix64(self.jitter_seed ^ u64::from(attempt));
        let factor = 0.5 + (jitter_bits >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = (raw as f64 * factor) as u64;
        Duration::from_millis(jittered.min(self.max_delay_ms))
    }

    /// Runs `op` until it succeeds or attempts are exhausted, sleeping
    /// the scheduled backoff between attempts. `op` receives the 1-based
    /// attempt number.
    pub fn run<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> RetryOutcome<T, E> {
        let max = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match op(attempt) {
                Ok(v) => return RetryOutcome { result: Ok(v), attempts: attempt },
                Err(e) if attempt >= max => {
                    return RetryOutcome { result: Err(e), attempts: attempt }
                }
                Err(_) => {
                    let delay = self.delay_after(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stage budgets.
// ---------------------------------------------------------------------

/// A cooperative wall-clock budget for a pipeline stage. The guard
/// cannot preempt a running computation; the pipeline checks it before
/// committing a stage's result (a non-positive budget is exceeded from
/// the start, which is how tests force a deterministic "timeout").
#[derive(Debug)]
pub struct BudgetGuard {
    budget_secs: f64,
    start: Instant,
}

impl BudgetGuard {
    /// Starts the clock on a budget of `budget_secs` seconds.
    pub fn start(budget_secs: f64) -> Self {
        Self { budget_secs, start: Instant::now() }
    }

    /// Seconds elapsed since the guard started.
    pub(crate) fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether the budget is spent. Budgets `<= 0` are always exceeded;
    /// an infinite budget never is.
    pub fn exceeded(&self) -> bool {
        if self.budget_secs <= 0.0 {
            return true;
        }
        self.budget_secs.is_finite() && self.elapsed_secs() > self.budget_secs
    }
}

// ---------------------------------------------------------------------
// Quarantine (dead-letter queue) bookkeeping.
// ---------------------------------------------------------------------

/// Why a document landed in the dead-letter queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Pre-flight integrity validation rejected the document.
    Defect(String),
    /// The extractor panicked on the document (payload captured);
    /// retries, if configured, were exhausted.
    Panic(String),
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Defect(d) => write!(f, "integrity defect: {d}"),
            QuarantineReason::Panic(p) => write!(f, "extractor panic: {p}"),
        }
    }
}

/// A dead-letter entry: one quarantined document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// The poisoned document's id.
    pub doc_id: u32,
    /// Its title, for human-readable triage.
    pub title: String,
    /// What went wrong.
    pub reason: QuarantineReason,
    /// Extraction attempts made before giving up (1 for validation
    /// rejections, which are permanent and not retried).
    pub attempts: u32,
}

// ---------------------------------------------------------------------
// Graceful degradation.
// ---------------------------------------------------------------------

/// Why a stage was downgraded.
#[derive(Debug, Clone, PartialEq)]
pub enum DowngradeReason {
    /// The stage exceeded its wall-clock budget.
    BudgetExceeded {
        /// The configured budget in seconds.
        budget_secs: f64,
        /// Time actually spent before the downgrade (0 when the budget
        /// was exhausted before the stage even started).
        elapsed_secs: f64,
    },
    /// The stage panicked; the payload was captured.
    Panicked(String),
}

impl fmt::Display for DowngradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DowngradeReason::BudgetExceeded { budget_secs, elapsed_secs } => {
                write!(f, "budget of {budget_secs}s exceeded after {elapsed_secs:.3}s")
            }
            DowngradeReason::Panicked(p) => write!(f, "stage panicked: {p}"),
        }
    }
}

/// A recorded rung of the degradation ladder: the pipeline fell back
/// from one refinement method to a cheaper one instead of failing.
#[derive(Debug, Clone, PartialEq)]
pub struct Downgrade {
    /// Stage name (currently always `"refinement"`).
    pub stage: &'static str,
    /// The method that failed.
    pub from: Method,
    /// The method actually used.
    pub to: Method,
    /// Why the ladder was taken.
    pub reason: DowngradeReason,
}

// ---------------------------------------------------------------------
// Knobs.
// ---------------------------------------------------------------------

/// Resilience configuration for a harvest run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Per-document retry policy for the collection stage. Defaults to
    /// two immediate attempts (deterministic extractor panics will fail
    /// again, but transient environmental failures get a second shot).
    pub retry: RetryPolicy,
    /// Wall-clock budget for the refinement stage in seconds. When the
    /// chosen method ([`Method::Reasoning`] / [`Method::FactorGraph`])
    /// exceeds it, the pipeline degrades to [`Method::Statistical`] and
    /// records the [`Downgrade`]. `INFINITY` disables the guard; `0.0`
    /// forces the ladder deterministically (used by tests).
    pub refine_budget_secs: f64,
    /// Chaos hook: panic inside the refinement stage to exercise the
    /// degradation ladder's panic rung. Never set outside tests.
    pub inject_refine_panic: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::immediate(2),
            refine_budget_secs: f64::INFINITY,
            inject_refine_panic: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_panic_captures_str_and_string_payloads() {
        assert_eq!(catch_panic(|| 7).unwrap(), 7);
        let e = catch_panic(|| -> () { panic!("boom") }).unwrap_err();
        assert_eq!(e, "boom");
        let e = catch_panic(|| -> () { panic!("{} {}", "formatted", 42) }).unwrap_err();
        assert_eq!(e, "formatted 42");
    }

    #[test]
    fn catch_panic_captures_slice_panics() {
        let v = [1, 2, 3];
        let i = std::hint::black_box(9);
        let e = catch_panic(|| v[i]).unwrap_err();
        assert!(e.contains("out of bounds"), "{e}");
    }

    #[test]
    fn backoff_is_deterministic_in_the_seed() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 10,
            max_delay_ms: 10_000,
            jitter_seed: 9,
        };
        let a: Vec<_> = (1..=4).map(|i| p.delay_after(i)).collect();
        let b: Vec<_> = (1..=4).map(|i| p.delay_after(i)).collect();
        assert_eq!(a, b);
        let q = RetryPolicy { jitter_seed: 10, ..p };
        let c: Vec<_> = (1..=4).map(|i| q.delay_after(i)).collect();
        assert_ne!(a, c, "different seeds should jitter differently");
    }

    #[test]
    fn backoff_grows_and_respects_the_cap() {
        let p =
            RetryPolicy { max_attempts: 8, base_delay_ms: 10, max_delay_ms: 50, jitter_seed: 1 };
        for i in 1..=8 {
            assert!(p.delay_after(i) <= Duration::from_millis(50));
        }
        // With jitter in [0.5, 1.5), attempt 4's raw delay (80ms) beats
        // attempt 1's (10ms) regardless of the jitter draw.
        let uncapped = RetryPolicy { max_delay_ms: 100_000, ..p };
        assert!(uncapped.delay_after(4) > uncapped.delay_after(1));
    }

    #[test]
    fn zero_base_delay_never_sleeps() {
        let p = RetryPolicy::immediate(4);
        for i in 1..=4 {
            assert_eq!(p.delay_after(i), Duration::ZERO);
        }
    }

    #[test]
    fn retry_runs_until_success_and_counts_attempts() {
        let p = RetryPolicy::immediate(5);
        let out = p.run(|attempt| if attempt < 3 { Err("not yet") } else { Ok(attempt) });
        assert_eq!(out.result, Ok(3));
        assert_eq!(out.attempts, 3);
    }

    #[test]
    fn retry_exhausts_and_returns_last_error() {
        let p = RetryPolicy::immediate(3);
        let out: RetryOutcome<(), String> = p.run(|a| Err(format!("fail {a}")));
        assert_eq!(out.result, Err("fail 3".to_string()));
        assert_eq!(out.attempts, 3);
    }

    #[test]
    fn zero_budget_is_exceeded_immediately_and_infinite_never() {
        assert!(BudgetGuard::start(0.0).exceeded());
        assert!(BudgetGuard::start(-1.0).exceeded());
        assert!(!BudgetGuard::start(f64::INFINITY).exceeded());
        assert!(!BudgetGuard::start(3600.0).exceeded());
    }

    #[test]
    fn pipeline_error_displays_and_converts() {
        let e: PipelineError = StoreError::InvalidTimeSpan.into();
        assert!(e.to_string().contains("store error"));
        let w = PipelineError::WorkerPanic { stage: "collect", detail: "boom".into() };
        assert!(w.to_string().contains("collect") && w.to_string().contains("boom"));
    }
}
