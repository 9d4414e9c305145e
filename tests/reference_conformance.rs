//! Every production read configuration against the one reference model
//! (`kb-testkit`): a fixed-seed list of assert / retract ops, each
//! assertion with its own confidence, span and source, is replayed into
//! `RefKb` and into
//!
//! * one monolithic `KbSnapshot`,
//! * a `SegmentedSnapshot` of a base plus 1–3 deltas,
//! * the same segments written to disk by a `SegmentStore` (sealed
//!   deltas and a WAL tail) and reopened under a memory budget of half
//!   the base's frames, so columns page in and out while answering,
//! * a 4-partition `KbRouter` fed the same base and deltas,
//!
//! and each holds the reference's facts — confidence bits, span and
//! source — and answers 40 generated queries — every construct of the
//! language — which `assert_conforms` holds against the reference
//! evaluation. No configuration is judged by another one here.
//!
//! A second check holds the accessors below the query engine — `term`,
//! `resolve`, `source_name`, `fact`, `fact_for`, `facts`, bodies that
//! `KbRead` provides once for every view — to the documented order of
//! runs: base before deltas, partition 0 first.

use std::sync::Arc;

use kb_testkit::{assert_conforms, assert_facts_conform};
use kbkit::kb_obs::Registry;
use kbkit::kb_query;
use kbkit::kb_serve::{AdmissionConfig, KbRouter};
use kbkit::kb_store::{
    partition_delta, partition_snapshot, segment_io, subject_partition, DeltaSegment, Fact, FactId,
    KbRead, KbSnapshot, PartitionedView, SegmentRegion, SegmentStore, SegmentedSnapshot, SourceId,
    StoreOptions, TermId,
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
        let ops = common::ops(4, 3, 40..120).generate(rng);
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
        for view in [&monolithic as &dyn KbRead, &segmented, &paged, partitioned.as_ref()] {
            assert_facts_conform(view, &reference);
        }

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

/// A star join wide enough that how the executor finds a prefix row's
/// matches — a lookup a row, or anything it builds from the predicate's
/// whole run once it has seen enough rows — shows: 160 anchor subjects
/// `e{i} r0 …`, a `r1` run of some 420 facts (every second anchor
/// subject plus filler subjects), `r2` facts pointing back at the
/// anchors. Two deltas then add `r1` facts, assert facts again that are
/// there, bury some under tombstones and revive a part of those.
fn star_ops() -> (Vec<common::Op>, Vec<usize>) {
    use common::{Write::Retract, CERTAIN};
    let arm = |i: u32| (CERTAIN, i, 1, 2_000 + i % 7);
    let mut ops: Vec<common::Op> = (0..160).map(|i| (CERTAIN, i, 0, 1_000 + i % 5)).collect();
    ops.extend((0..160).filter(|i| i % 2 == 0).map(arm));
    ops.extend((0..340).map(|j| (CERTAIN, 5_000 + j, 1, 2_000 + j % 7)));
    ops.extend((0..240).rev().map(|j| (CERTAIN, 6_000 + j, 2, j % 80)));
    let mut cuts = vec![ops.len()];
    // Delta one: a second value for every third subject, a fourth of the
    // old facts asserted again, a tenth retracted (every twentieth both).
    ops.extend((0..160).filter(|i| i % 3 == 0).map(|i| (CERTAIN, i, 1, 2_000 + (i + 1) % 7)));
    ops.extend((0..160).filter(|i| i % 4 == 0).map(arm));
    ops.extend((0..160).filter(|i| i % 10 == 0).map(|i| (Retract, i, 1, 2_000 + i % 7)));
    ops.extend((0..34).map(|j| (Retract, 5_000 + j * 10, 1, 2_000 + (j * 10) % 7)));
    cuts.push(ops.len());
    // Delta two: every third tombstone lifted, some of delta one's
    // additions retracted, a few anchors gone and a few new.
    ops.extend((0..160).filter(|i| i % 30 == 0).map(arm));
    ops.extend((0..160).filter(|i| i % 9 == 0).map(|i| (Retract, i, 1, 2_000 + (i + 1) % 7)));
    ops.extend((0..160).filter(|i| i % 50 == 0).map(|i| (Retract, i, 0, 1_000 + i % 5)));
    ops.extend((160..170).flat_map(|i| [(CERTAIN, i, 0, 1_000 + i % 5), arm(i)]));
    (ops, cuts)
}

#[test]
fn a_wide_star_join_conforms_and_renders_alike_on_every_view() {
    let (ops, cuts) = star_ops();
    let reference = common::reference_of(&ops);
    let monolithic = common::builder_of(&ops).freeze();
    let (base, deltas, segmented) = common::segment_chain(&ops, &cuts);
    assert_eq!(deltas.len(), 2);
    let router = KbRouter::with_config(base, 4, AdmissionConfig::default(), &Registry::new());
    for delta in &deltas {
        router.apply_delta(Arc::clone(delta));
    }
    let partitioned = router.view();
    let views: [(&str, &dyn KbRead); 3] = [
        ("monolithic", &monolithic),
        ("segmented", &segmented),
        ("4 partitions", partitioned.as_ref()),
    ];

    let bodies = [
        "?x r0 ?a . ?x r1 ?b",
        "?x r0 ?a . ?y r2 ?x",
        "?x r0 ?a . ?x r1 ?b . ?y r2 ?x",
        "?x r0 ?a OPTIONAL { ?x r1 ?b }",
        "{ ?x r0 ?a } UNION { ?z r2 e7 } OPTIONAL { ?y r2 ?x }",
    ];
    for body in bodies {
        // Every view's whole answer is the reference's, the router's too.
        let text = format!("SELECT * WHERE {{ {body} }}");
        let query = kb_query::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let mut answers = Vec::new();
        for (name, view) in views {
            let out = kb_query::query(view, &text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_conforms(&query, &out, view, &reference);
            answers.push((name, out.render(view)));
        }
        let routed = router.query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_conforms(&query, &routed, partitioned.as_ref(), &reference);
        answers.push(("routed", routed.render(partitioned.as_ref())));
        // And its rows leave every executor in one order, the one a
        // window without ORDER BY slices.
        let (_, want) = &answers[0];
        let rows: Vec<&str> = want.lines().collect();
        assert!(rows.len() > 100, "{text}: {} rows", rows.len());
        for (name, got) in &answers[1..] {
            assert_eq!(got, want, "{name}: {text}");
        }
        for (offset, limit) in [(40, 25), (95, 40)] {
            let text = format!("{text} LIMIT {limit} OFFSET {offset}");
            let want = rows[offset..rows.len().min(offset + limit)].join("\n") + "\n";
            for (name, view) in views {
                let out = kb_query::query(view, &text).unwrap_or_else(|e| panic!("{text}: {e}"));
                assert_eq!(out.render(view), want, "{name}: {text}");
            }
            let routed = router.query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(routed.render(partitioned.as_ref()), want, "routed: {text}");
        }
    }
}

/// Every addressable fact of `view`, by ascending id.
fn table_of(view: &dyn KbRead) -> Vec<Fact> {
    (0..).map_while(|i| view.fact(FactId(i)).cloned()).collect()
}

#[test]
fn shared_accessors_agree_across_monolith_segments_and_partitions() {
    for seed in 0..6u64 {
        let rng = &mut TestRng::for_case(seed, 1);
        // Three chunks of ops, each reaching one entity — and so one
        // source — further than the last, so that both deltas extend
        // the term space and the source table.
        let chunks = [4u32, 5, 6].map(|entities| common::ops(entities, 3, 30..50).generate(rng));
        let monolith = common::builder_of(&chunks.concat()).freeze();
        let base = common::builder_of(&chunks[0]).freeze().into_shared();
        let mut segmented = SegmentedSnapshot::from_base(Arc::clone(&base));
        let mut parts: Vec<SegmentedSnapshot> = partition_snapshot(&base, 4)
            .into_iter()
            .map(|p| SegmentedSnapshot::from_base(p.into_shared()))
            .collect();
        for ops in &chunks[1..] {
            let delta = Arc::new(common::builder_of(ops).freeze_delta(&segmented));
            for (part, slice) in parts.iter_mut().zip(partition_delta(&delta, &segmented, 4)) {
                *part = part.with_delta(Arc::new(slice));
            }
            segmented = segmented.with_delta(delta);
        }
        assert_eq!(segmented.delta_count(), 2);
        let partitioned = PartitionedView::new(parts.into_iter().map(Arc::new).collect());
        let views: [&dyn KbRead; 3] = [&monolith, &segmented, &partitioned];

        // One term and source id space, whichever view is asked.
        assert!(monolith.term_count() > base.term_count(), "seed {seed}: deltas add no term");
        assert_eq!(monolith.term_count(), segmented.term_count());
        for id in 0..monolith.term_count() as u32 + 2 {
            let name = monolith.resolve(TermId(id));
            assert_eq!(name.is_some(), (id as usize) < monolith.term_count());
            for view in views {
                assert_eq!(view.resolve(TermId(id)), name);
                assert_eq!(name.and_then(|n| view.term(n)), name.map(|_| TermId(id)));
            }
        }
        let sources = |view: &dyn KbRead| -> Vec<Option<String>> {
            (0..9).map(|i| view.source_name(SourceId(i)).map(str::to_string)).collect()
        };
        let known = |names: &[Option<String>]| names.iter().flatten().count();
        assert!(known(&sources(&monolith)) > known(&sources(base.as_ref())), "seed {seed}");
        assert!(known(&sources(&monolith)) < 9);
        for view in views {
            assert_eq!(sources(view), sources(&monolith));
        }

        // Fact ids address the concatenated tables: the base, then each
        // delta; with partitions, all of partition 0 before partition 1.
        let runs: Vec<Vec<Fact>> = std::iter::once(table_of(base.as_ref()))
            .chain(
                segmented
                    .deltas()
                    .iter()
                    .map(|d| d.entries_iter().map(|(f, _)| f.clone()).collect()),
            )
            .collect();
        assert_eq!(table_of(&segmented), runs.concat());
        let owner = |f: &Fact| subject_partition(monolith.resolve(f.triple.s).unwrap(), 4);
        let by_partition: Vec<Fact> = (0..4)
            .flat_map(|k| runs.iter().flatten().filter(move |f| owner(f) == k).cloned())
            .collect();
        assert_eq!(table_of(&partitioned), by_partition);
        assert_eq!(by_partition.len(), runs.concat().len());

        for view in views {
            // `facts` walks those tables in that order and keeps what
            // `fact_for` calls the live, authoritative entry.
            let table = (0..).map_while(|i| view.fact(FactId(i)));
            let authoritative: Vec<&Fact> = table
                .filter(|f| view.fact_for(&f.triple).is_some_and(|g| std::ptr::eq(g, *f)))
                .collect();
            assert!(view.facts().zip(&authoritative).all(|(a, b)| std::ptr::eq(a, *b)));
            assert_eq!(view.facts().count(), authoritative.len());
            assert_eq!(view.len(), authoritative.len());
            // And every view holds the monolith's facts, confidence,
            // span and source included.
            let meta = |view: &dyn KbRead, f: Option<&Fact>| {
                let source = |f: &Fact| view.source_name(f.source).map(str::to_string);
                f.map(|f| (f.triple, f.confidence.to_bits(), f.span, source(f)))
            };
            for f in monolith.facts() {
                let here = meta(view, view.fact_for(&f.triple));
                assert_eq!(here, meta(&monolith, Some(f)), "seed {seed}");
            }
            for f in table_of(view) {
                let here = meta(view, view.fact_for(&f.triple));
                assert_eq!(here, meta(&monolith, monolith.fact_for(&f.triple)), "seed {seed}");
                assert!(view.source_name(f.source).is_some());
            }
        }
    }
}
