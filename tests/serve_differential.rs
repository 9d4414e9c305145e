//! Differential property tests for the partitioned serving layer:
//! random KBs (asserts + retractions, split into a base and random
//! delta installs) and random SELECT shapes must produce byte-identical
//! output through a [`KbRouter`] at every partition count 1–4 as
//! through one monolithic `QueryService` over the same segment chain.
//! Any divergence is a bug in exactly one of the two paths — the
//! subject-hash split, the scan-level gather, or the delta fan-out.

use std::sync::Arc;

use proptest::prelude::*;

use kb_testkit::assert_facts_conform;
use kbkit::kb_obs::Registry;
use kbkit::kb_query::QueryService;
use kbkit::kb_serve::{AdmissionConfig, KbRouter};

// The KB and query generators `kb-query`'s differential suite uses.
#[path = "../crates/query/tests/common/mod.rs"]
mod common;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partitioned ≡ monolithic: for every partition count 1–4, the
    /// router's answer to a random query (every construct of the
    /// language, see `common::query_texts`) over a randomly
    /// delta-segmented KB renders byte-identically to a single
    /// `QueryService` over the same chain — including a guaranteed
    /// subject-bound probe so both routing paths are always exercised.
    /// Every partition count holds the reference's facts, confidence,
    /// span and source included.
    #[test]
    fn partitioned_router_matches_monolithic_service(
        ops in common::ops(6, 3, 1..40),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        text in common::query_texts(),
        probe in (0u32..6, 0u32..3),
    ) {
        let (base, deltas, view) =
            common::segment_chain(&ops, &common::cut_positions(&ops, &cuts));

        // Always-subject-bound probe: single constant-subject pattern.
        let (ps, pp) = probe;
        let probe_text = format!("e{ps} r{pp} ?x . e{ps} ?r ?y");

        let oracle = QueryService::from_view(&view);
        let oview = oracle.snapshot();
        let reference = common::reference_of(&ops);

        for partitions in 1usize..=4 {
            let router = KbRouter::with_config(
                Arc::clone(&base),
                partitions,
                AdmissionConfig::default(),
                &Registry::new(),
            );
            for delta in &deltas {
                router.apply_delta(Arc::clone(delta));
            }
            let rview = router.view();
            assert_facts_conform(rview.as_ref(), &reference);
            for q in [text.as_str(), probe_text.as_str()] {
                match (router.query(q), oracle.query(q)) {
                    (Ok(got), Ok(want)) => prop_assert_eq!(
                        got.render(rview.as_ref()),
                        want.render(oview.as_ref()),
                        "{} partitions diverged on: {}",
                        partitions,
                        q
                    ),
                    (Err(_), Err(_)) => {} // both reject (e.g. unbound projection)
                    (got, want) => prop_assert!(
                        false,
                        "only one side failed on {:?} at {} partitions: router {:?}, oracle ok={:?}",
                        q, partitions, got.map(|_| ()), want.is_ok()
                    ),
                }
            }
        }
    }
}
