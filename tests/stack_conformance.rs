//! The stack-wide state machine (`kb_testkit::stack`) on its fixed
//! cases: drawn workloads of writes, lifecycle events and reads, each
//! replayed into the reference model and into every production
//! configuration — the live builder and its freeze, the segment chain,
//! a durable store, a query service and routers at 1 and 4 partitions —
//! and checked after every step. The module doc of `kb_testkit::stack`
//! says which configurations are compared with each other, and why only
//! those.
//!
//! A divergence panics with its case, step and the steps up to it as a
//! `#[test]`; such tests are kept in `mod regressions`.

use kb_testkit::stack::replay_drawn;

/// Workloads the fixed-case test replays.
const CASES: u64 = 16;

/// What the fixed cases must reach besides every step kind. A router
/// scatters what it does not send to one partition; a stack is 8 deep
/// with no compaction between.
const PATHS: &str = "service view.delta_patched, service view.reexecuted, \
    router view.delta_patched, router view.reexecuted, router serve.routed_single, \
    crash inside a record, crash on a record boundary, stack 8 deep, budgeted page faults, \
    budgeted spills";

/// The fixed cases, each a drawn workload, conform at every step, and
/// together reach every path in [`PATHS`].
#[test]
fn fixed_cases_conform_and_reach_every_path() {
    let coverage = replay_drawn("stack_conformance", CASES);
    let kinds = "Assert Retract Install Seal Compact Crash Reopen Register Unregister Query";
    let paths = kinds.split(' ').chain(PATHS.split(", "));
    let missed: Vec<&str> = paths.filter(|&p| coverage.get(p).is_none_or(|&n| n == 0)).collect();
    assert!(missed.is_empty(), "never reached {missed:?}: {coverage:?}");
    // Many served answers are empty by design (nothing installed yet,
    // false filters, windows past the end, terms outside the
    // dictionary), but not three in four.
    let (queries, with_rows) = (coverage["Query"], coverage["a Query with rows"]);
    assert!(with_rows * 4 > queries, "{with_rows} of {queries} queries had rows");
}

/// Step lists the fixed cases failed on, as printed, less the steps and
/// spans, confidences and sources the failure did not need.
mod regressions {
    use kb_testkit::stack::replay;
    // What a pasted step list names.
    #[allow(unused_imports)]
    use kb_testkit::gen::{Budget::*, Step::*};
    #[allow(unused_imports)]
    use kbkit::kb_store::{TimePoint, TimeSpan};

    /// DISTINCT over grouped state: the new group `(?x e0, ?y e3)`
    /// projects to `e3 1`, a row the answer already had, so the answer
    /// does not change. The update added the group's row all the same,
    /// and previous + added ≠ new + removed.
    #[test]
    fn a_distinct_grouped_view_reports_the_diff_of_its_answers() {
        replay(&[
            Assert { s: 0, p: 1, o: 3, confidence: 1.0, span: None, source: 0 },
            Assert { s: 3, p: 0, o: 1, confidence: 1.0, span: None, source: 3 },
            Install,
            Register(
                "SELECT DISTINCT ?y COUNT(?x) AS ?n WHERE { ?y ?r ?x . ?z r1 ?w } GROUP BY ?x ?y"
                    .into(),
            ),
            Assert { s: 3, p: 0, o: 0, confidence: 0.5, span: None, source: 2 },
            Install,
        ]);
    }

    /// Groups `(?x, ?y)` projected to `?y COUNT(?x)`: one group's count
    /// leaves a value another group's count enters, so the same row was
    /// both removed and added.
    #[test]
    fn grouped_rows_that_leave_and_enter_as_one_cancel() {
        replay(&[
            Assert { s: 0, p: 1, o: 3, confidence: 1.0, span: None, source: 0 },
            Assert { s: 1, p: 1, o: 2, confidence: 1.0, span: None, source: 0 },
            Assert { s: 1, p: 2, o: 0, confidence: 1.0, span: None, source: 0 },
            Assert { s: 0, p: 2, o: 1, confidence: 1.0, span: None, source: 0 },
            Assert { s: 2, p: 2, o: 3, confidence: 1.0, span: None, source: 0 },
            Assert { s: 2, p: 2, o: 1, confidence: 1.0, span: None, source: 0 },
            Assert { s: 3, p: 0, o: 3, confidence: 1.0, span: None, source: 0 },
            Assert { s: 0, p: 2, o: 0, confidence: 1.0, span: None, source: 0 },
            Assert { s: 3, p: 2, o: 3, confidence: 1.0, span: None, source: 0 },
            Install,
            Assert { s: 1, p: 0, o: 2, confidence: 1.0, span: None, source: 0 },
            Assert { s: 1, p: 0, o: 3, confidence: 1.0, span: None, source: 0 },
            Register(
                "SELECT ?y COUNT(?x) AS ?n WHERE { ?z ?r ?w @1986 . e0 ?r ?y . ?x ?r ?y } \
                 GROUP BY ?x ?y"
                    .into(),
            ),
            Assert { s: 0, p: 0, o: 1, confidence: 1.0, span: None, source: 0 },
            Assert { s: 3, p: 0, o: 1, confidence: 1.0, span: None, source: 0 },
            Assert { s: 2, p: 0, o: 2, confidence: 1.0, span: None, source: 0 },
            Install,
        ]);
    }
}
