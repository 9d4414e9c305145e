//! Every production read configuration against the one reference model
//! (`kb-testkit`): drawn workloads replayed by the stack-wide runner
//! (`kb_testkit::stack`), each ended by a compaction and a reopen under
//! a memory budget, so that the paged store answers too. Beside them
//! two fixed shapes: a star join wide enough for the executor to switch
//! from index lookups to a probe table, alike on monolithic, segmented
//! and 4-partition views; and the `KbRead` accessors every view shares,
//! held to the documented order of runs (base before deltas, partition
//! 0 first).

use std::sync::Arc;

use kb_testkit::assert_conforms;
use kb_testkit::gen::{self, Budget, Step, Write::Retract, CERTAIN};
use kb_testkit::stack::replay;
use kbkit::kb_obs::Registry;
use kbkit::kb_query;
use kbkit::kb_serve::{AdmissionConfig, KbRouter};
use kbkit::kb_store::{
    partition_delta, partition_snapshot, subject_partition, Fact, FactId, KbRead, PartitionedView,
    SegmentedSnapshot, SourceId, TermId,
};
use proptest::prelude::*;
use proptest::{test_seed, TestRng};

/// Every configuration — the builder and its freeze, a segment chain, a
/// durable store, a query service and routers at 1 and 4 partitions —
/// holds the reference's facts and answers every query as it does over
/// drawn workloads. Each ends with its writes installed and compacted
/// into the base, and the store reopened under half the base's frames,
/// where the workload's texts are asked again, columns paging in and
/// out while answering.
#[test]
fn every_read_configuration_conforms_to_the_reference_model() {
    let seed = test_seed("every_read_configuration_conforms_to_the_reference_model");
    let (mut queries, mut with_rows, mut faults) = (0, 0, 0);
    for case in 0..3 {
        let mut steps = gen::workload().generate(&mut TestRng::for_case(seed, case));
        let texts: Vec<Step> = (steps.iter())
            .filter_map(|step| match step {
                Step::Register(text) | Step::Query(text) => Some(Step::Query(text.clone())),
                _ => None,
            })
            .collect();
        let budget = Budget::HalfBaseFrames;
        steps.extend([Step::Install, Step::Compact, Step::Reopen { budget }]);
        steps.extend(texts);
        let coverage = replay(&steps);
        queries += coverage["Query"];
        with_rows += coverage["a Query with rows"];
        faults += coverage["budgeted page faults"];
    }
    // The run must have been worth it: enough non-empty answers (many
    // are empty by design — false filters, windows past the end, terms
    // outside the dictionary), and a budget that made the store page.
    assert!(with_rows * 3 > queries, "{with_rows} of {queries} queries had rows");
    assert!(faults > 0, "the budgeted store never faulted a column in");
}

/// A star join wide enough that how the executor finds a prefix row's
/// matches — a lookup a row, or anything it builds from the predicate's
/// whole run once it has seen enough rows — shows: 160 anchor subjects
/// `e{i} r0 …`, a `r1` run of some 420 facts (every second anchor
/// subject plus filler subjects), `r2` facts pointing back at the
/// anchors. Two deltas then add `r1` facts, assert facts again that are
/// there, bury some under tombstones and revive a part of those.
fn star_ops() -> (Vec<gen::Op>, Vec<usize>) {
    let arm = |i: u32| (CERTAIN, i, 1, 2_000 + i % 7);
    let mut ops: Vec<gen::Op> = (0..160).map(|i| (CERTAIN, i, 0, 1_000 + i % 5)).collect();
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
    let reference = gen::reference_of(&ops);
    let monolithic = gen::builder_of(&ops).freeze();
    let (base, deltas, segmented) = gen::segment_chain(&ops, &cuts);
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
        let chunks = [4u32, 5, 6].map(|entities| gen::ops(entities, 3, 30..50).generate(rng));
        let monolith = gen::builder_of(&chunks.concat()).freeze();
        let base = gen::builder_of(&chunks[0]).freeze().into_shared();
        let mut segmented = SegmentedSnapshot::from_base(Arc::clone(&base));
        let mut parts: Vec<SegmentedSnapshot> = partition_snapshot(&base, 4)
            .into_iter()
            .map(|p| SegmentedSnapshot::from_base(p.into_shared()))
            .collect();
        for ops in &chunks[1..] {
            let delta = Arc::new(gen::builder_of(ops).freeze_delta(&segmented));
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
