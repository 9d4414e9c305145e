//! The pipeline's failure model: its error type, panic capture, and
//! the dead-letter bookkeeping for quarantined documents.
//!
//! Web-scale harvesting input is adversarially messy — truncated pages,
//! broken encodings, corrupt annotations — and the tutorial's premise is
//! that KB construction survives that noise. The rule has two halves.
//! Input is quarantined: [`pipeline`](crate::pipeline) validates each
//! document and runs its extraction once behind `catch_panic`, so a
//! poison document lands in the dead-letter queue ([`Quarantined`])
//! instead of killing the harvest. A panic in our own code is a defect,
//! and it surfaces as a typed [`PipelineError`] at the stage boundary,
//! never as an unwind across the public API.
//!
//! Nothing is retried: extraction is a pure function of the document,
//! so a document that panics once panics again, and the same seed
//! always gives the same KB.

use std::any::Any;
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use kb_store::StoreError;

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
// Quarantine (dead-letter queue) bookkeeping.
// ---------------------------------------------------------------------

/// Why a document landed in the dead-letter queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Pre-flight integrity validation rejected the document.
    Defect(String),
    /// The extractor panicked on the document (payload captured).
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

    // The six tests below keep the names of the retry, backoff and
    // budget tests this module used to hold; each now pins a piece of
    // the one failure rule that replaced them.

    /// A deterministic failure is caught with the same payload every
    /// time, so a second attempt could only repeat the first.
    #[test]
    fn backoff_is_deterministic_in_the_seed() {
        let extract = |seed: u64| -> u64 {
            assert!(seed.is_multiple_of(2), "odd seed {seed}");
            seed
        };
        let first = catch_panic(|| extract(7));
        assert_eq!(first, Err("odd seed 7".to_string()));
        assert_eq!(first, catch_panic(|| extract(7)));
        assert_eq!(catch_panic(|| extract(8)), Ok(8));
    }

    /// Guards nest: the inner one hands the outer one's suppression
    /// back, and the outermost restores the thread's own setting.
    #[test]
    fn backoff_grows_and_respects_the_cap() {
        let suppressed = || SUPPRESS_PANIC_OUTPUT.with(Cell::get);
        assert!(!suppressed());
        let outer = catch_panic(|| -> () {
            let inner = catch_panic(|| -> () { panic!("inner") });
            assert!(suppressed(), "the outer guard still silences panics");
            assert_eq!(inner, Err("inner".to_string()));
            panic!("outer")
        });
        assert_eq!(outer, Err("outer".to_string()));
        assert!(!suppressed());
    }

    /// A guard leaves no suppression behind, whether its closure
    /// returned or panicked.
    #[test]
    fn zero_base_delay_never_sleeps() {
        let suppressed = || SUPPRESS_PANIC_OUTPUT.with(Cell::get);
        assert_eq!(catch_panic(|| "done"), Ok("done"));
        assert!(!suppressed());
        assert!(catch_panic(|| -> () { panic!("poison") }).is_err());
        assert!(!suppressed());
    }

    /// A guarded closure runs exactly once, whether it returns or panics.
    #[test]
    fn retry_runs_until_success_and_counts_attempts() {
        let calls = Cell::new(0);
        let call = || {
            calls.set(calls.get() + 1);
            calls.get()
        };
        assert_eq!(catch_panic(call), Ok(1));
        let failed = catch_panic(|| -> () { panic!("call {}", call()) });
        assert_eq!(failed, Err("call 2".to_string()));
        assert_eq!(calls.get(), 2);
    }

    /// A caught payload becomes the quarantine reason verbatim; a payload
    /// that is not a string becomes a placeholder.
    #[test]
    fn retry_exhausts_and_returns_last_error() {
        let payload = catch_panic(|| -> () { panic!("bad span {}", 3) }).unwrap_err();
        let reason = QuarantineReason::Panic(payload);
        assert_eq!(reason.to_string(), "extractor panic: bad span 3");
        let opaque = catch_panic(|| -> () { panic::panic_any(42u8) }).unwrap_err();
        assert_eq!(opaque, "opaque panic payload");
    }

    /// The two halves of the rule read apart: a defect in the input is a
    /// quarantine reason, a panic in a stage is a typed error.
    #[test]
    fn zero_budget_is_exceeded_immediately_and_infinite_never() {
        let defect = QuarantineReason::Defect("mention 3 out of bounds".into());
        assert_eq!(defect.to_string(), "integrity defect: mention 3 out of bounds");
        let e = PipelineError::StagePanic { stage: "harvest", detail: "boom".into() };
        assert_eq!(e.to_string(), r#"stage "harvest" panicked: boom"#);
        assert!(e.source().is_none());
    }

    #[test]
    fn pipeline_error_displays_and_converts() {
        let e: PipelineError = StoreError::InvalidTimeSpan.into();
        assert!(e.to_string().contains("store error"));
        let w = PipelineError::WorkerPanic { stage: "collect", detail: "boom".into() };
        assert!(w.to_string().contains("collect") && w.to_string().contains("boom"));
    }
}
