//! Every production read configuration against the one reference model
//! (`kb-testkit`): a fixed-seed list of assert / retract ops over
//! spanned and unspanned triples is replayed into `RefKb` and into
//!
//! * one monolithic `KbSnapshot`,
//! * a `SegmentedSnapshot` of a base plus 1–3 deltas,
//! * the same segments written to disk by a `SegmentStore` (sealed
//!   deltas and a WAL tail) and reopened under a memory budget of half
//!   the base's frames, so columns page in and out while answering,
//! * a 4-partition `KbRouter` fed the same base and deltas,
//!
//! and each answers 40 generated queries — every construct of the
//! language — which `assert_conforms` holds against the reference
//! evaluation. No configuration is judged by another one here.

use std::sync::Arc;

use kb_testkit::assert_conforms;
use kbkit::kb_obs::Registry;
use kbkit::kb_query;
use kbkit::kb_serve::{AdmissionConfig, KbRouter};
use kbkit::kb_store::{
    segment_io, DeltaSegment, KbSnapshot, SegmentRegion, SegmentStore, StoreOptions,
};
use proptest::prelude::*;
use proptest::TestRng;

// The KB and query generators `kb-query`'s differential suite uses.
#[path = "../crates/query/tests/common/mod.rs"]
mod common;

/// The base plus its deltas on disk — all but the last sealed into
/// delta files, the last left in the WAL — reopened under a budget of
/// half the base segment's frames region.
fn reopened_under_budget(
    dir: &std::path::Path,
    base: &Arc<KbSnapshot>,
    deltas: &[Arc<DeltaSegment>],
) -> SegmentStore {
    let options = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };
    std::fs::remove_dir_all(dir).ok();
    let mut store = SegmentStore::create(dir, Arc::clone(base), options).unwrap();
    for (i, delta) in deltas.iter().enumerate() {
        if i + 1 == deltas.len() {
            store.seal().unwrap();
        }
        store.install_delta(Arc::clone(delta)).unwrap();
    }
    drop(store);
    let image = std::fs::read(dir.join("base-0.seg")).unwrap();
    let (_, frames) = segment_io::region_map(&image)
        .unwrap()
        .into_iter()
        .find(|(region, _)| *region == SegmentRegion::Frames)
        .expect("a v2 segment has a frames region");
    let options = StoreOptions { memory_budget: Some(frames.len() / 2), ..options };
    SegmentStore::open_with(dir, options).unwrap()
}

#[test]
fn every_read_configuration_conforms_to_the_reference_model() {
    let dir = std::env::temp_dir().join(format!("kbkit-conformance-{}", std::process::id()));
    let (mut answered, mut nonempty, mut faults) = (0u32, 0u32, 0usize);
    for seed in 0..6u64 {
        let rng = &mut TestRng::for_case(seed, 0);
        // Four entities and three relations: dense enough to join.
        let ops = prop::collection::vec((0u8..5, 0u32..4, 0u32..3, 0u32..4), 40..120).generate(rng);
        let cuts: Vec<usize> = (1..=1 + seed as usize % 3).map(|i| i * ops.len() / 4).collect();
        let reference = common::reference_of(&ops);

        let monolithic = common::builder_of(&ops).freeze();
        let (base, deltas, segmented) = common::segment_chain(&ops, &cuts);
        assert_eq!(deltas.len(), cuts.len());
        let store = reopened_under_budget(&dir, &base, &deltas);
        let paged = store.view();
        let router = KbRouter::with_config(base, 4, AdmissionConfig::default(), &Registry::new());
        for delta in &deltas {
            router.apply_delta(Arc::clone(delta));
        }
        let partitioned = router.view();

        for _ in 0..40 {
            let text = common::query_texts().generate(rng);
            let query = kb_query::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let run = |view: &dyn kbkit::kb_store::KbRead| {
                kb_query::query(view, &text).unwrap_or_else(|e| panic!("{text}: {e}"))
            };
            assert_conforms(&query, &run(&monolithic), &monolithic, &reference);
            assert_conforms(&query, &run(&segmented), &segmented, &reference);
            assert_conforms(&query, &run(&paged), &paged, &reference);
            let routed = router.query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_conforms(&query, &routed, partitioned.as_ref(), &reference);
            answered += 1;
            nonempty += u32::from(!routed.rows.is_empty());
        }
        faults += store.memory_budget().page_faults();
    }
    std::fs::remove_dir_all(&dir).ok();
    // The run must have been worth it: enough non-empty answers (many
    // are empty by design — false filters, windows past the end, terms
    // outside the dictionary), and a budget that made the store page.
    assert!(nonempty * 3 > answered, "{nonempty} of {answered} answers had rows");
    assert!(faults > 0, "the budgeted store never faulted a column in");
}
