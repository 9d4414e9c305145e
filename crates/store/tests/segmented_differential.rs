//! Differential property tests for the segmented read path: a
//! [`SegmentedSnapshot`] assembled from 1–4 random chunk splits of an
//! op sequence must answer byte-for-byte like the monolithic
//! [`KbSnapshot`] built from the same ops in one shot. Any divergence
//! is a bug in exactly one of the two paths — the merge iterators, the
//! delta freeze, or the monolithic freeze.
//!
//! Confidences are compared within `1e-9`: noisy-or accumulation
//! (`1 - Π(1 - cᵢ)`) is associative in exact arithmetic but not in
//! `f64`, and the segmented path may parenthesize the product
//! differently (per-builder first, then against the base).

use std::sync::Arc;

use proptest::prelude::*;

use kb_store::{
    KbBuilder, KbRead, KbReadBatch, SegmentedSnapshot, TimePoint, TimeSpan, TripleBatch,
    TriplePattern, BATCH_ROWS,
};

/// One mutation: assert a fact with some confidence, span and source,
/// or retract a triple (which the delta path turns into a tombstone
/// when the triple is visible below the split point).
#[derive(Debug, Clone, Copy)]
enum Op {
    Add { s: u32, p: u32, o: u32, conf: f64, span: Option<TimeSpan>, source: u32 },
    Retract { s: u32, p: u32, o: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // kind 0 retracts, anything else asserts — a 4:1 bias keeps most
    // sequences live enough to exercise the merge paths. A third of
    // the assertions carry no span, the rest one year.
    (0u8..5, 0u32..8, 0u32..4, 0u32..8, 1u32..10, 0i32..45, 0u32..3).prop_map(
        |(kind, s, p, o, c, year, source)| {
            if kind == 0 {
                return Op::Retract { s, p, o };
            }
            let span = (year >= 15).then(|| TimeSpan::at(TimePoint::year(1970 + year)));
            Op::Add { s, p, o, conf: c as f64 / 10.0, span, source }
        },
    )
}

fn apply(b: &mut KbBuilder, op: Op) {
    match op {
        Op::Add { s, p, o, conf, span, source } => {
            let t = kb_store::Triple::new(
                b.intern(&format!("e{s}")),
                b.intern(&format!("r{p}")),
                b.intern(&format!("e{o}")),
            );
            let source = b.register_source(&format!("src{source}"));
            b.add_fact(kb_store::Fact { triple: t, confidence: conf, source, span });
        }
        Op::Retract { s, p, o } => {
            b.retract_str(&format!("e{s}"), &format!("r{p}"), &format!("e{o}"));
        }
    }
}

/// Splits `ops` at `cuts` fractional positions into 1–4 chunks, builds
/// chunk 0 into the base snapshot and freezes each later chunk as a
/// delta against the growing view.
fn build_segmented(ops: &[Op], cuts: &[prop::sample::Index]) -> SegmentedSnapshot {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c.index(ops.len() + 1)).collect();
    bounds.push(0);
    bounds.push(ops.len());
    bounds.sort_unstable();
    bounds.dedup();
    let mut chunks = bounds.windows(2).map(|w| &ops[w[0]..w[1]]);

    let mut base = KbBuilder::new();
    for &op in chunks.next().unwrap_or(&[]) {
        apply(&mut base, op);
    }
    let mut view = SegmentedSnapshot::from_base(base.freeze().into_shared());
    for chunk in chunks {
        let mut b = KbBuilder::new();
        for &op in chunk {
            apply(&mut b, op);
        }
        view = view.with_delta(Arc::new(b.freeze_delta(&view)));
    }
    view
}

/// One live fact as resolved strings, its confidence, span and source
/// name.
type Row = (String, String, String, i64, Option<TimeSpan>, String);

/// Renders every live fact as a [`Row`], for id-independent comparison.
/// Sorted: the two views may enumerate in different (fact-table vs
/// merged) orders.
fn fact_dump<K: KbRead + ?Sized>(kb: &K) -> Vec<Row> {
    let mut rows: Vec<_> = kb
        .facts()
        .map(|f| {
            (
                kb.resolve(f.triple.s).unwrap().to_string(),
                kb.resolve(f.triple.p).unwrap().to_string(),
                kb.resolve(f.triple.o).unwrap().to_string(),
                // Quantize the confidence so float noise under 1e-9
                // cannot flip a comparison.
                (f.confidence * 1e9).round() as i64,
                f.span,
                kb.source_name(f.source).unwrap().to_string(),
            )
        })
        .collect();
    rows.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `matching_iter` equivalence for every pattern shape: identical
    /// triple sequences (in index order) and confidences within 1e-9.
    #[test]
    fn segmented_matching_matches_monolithic(
        ops in prop::collection::vec(op_strategy(), 1..60),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        qs in 0u32..8, qp in 0u32..4, qo in 0u32..8,
    ) {
        let mut mono_b = KbBuilder::new();
        for &op in &ops {
            apply(&mut mono_b, op);
        }
        let mono = mono_b.freeze();
        let seg = build_segmented(&ops, &cuts);

        prop_assert_eq!(mono.len(), seg.len(), "live counts diverge");
        prop_assert_eq!(fact_dump(&mono), fact_dump(&seg), "live fact sets diverge");

        let (es, rp, eo) = (format!("e{qs}"), format!("r{qp}"), format!("e{qo}"));
        for mask in 0u8..8 {
            let want = |name: &str| (mono.term(name), seg.term(name));
            let mut pat_m = TriplePattern::any();
            let mut pat_s = TriplePattern::any();
            let mut probed = true;
            for (bit, name, slot_m, slot_s) in [
                (1u8, &es, &mut pat_m.s, &mut pat_s.s),
                (2u8, &rp, &mut pat_m.p, &mut pat_s.p),
                (4u8, &eo, &mut pat_m.o, &mut pat_s.o),
            ] {
                if mask & bit != 0 {
                    let (m, s) = want(name);
                    // The two views intern the same term set.
                    prop_assert_eq!(m.is_some(), s.is_some());
                    match (m, s) {
                        (Some(m), Some(s)) => { *slot_m = Some(m); *slot_s = Some(s); }
                        _ => { probed = false; break; }
                    }
                }
            }
            if !probed {
                continue; // term absent everywhere: nothing to compare
            }
            let mono_hits: Vec<_> = mono
                .matching_iter(&pat_m)
                .map(|f| (
                    mono.resolve(f.triple.s).unwrap().to_string(),
                    mono.resolve(f.triple.p).unwrap().to_string(),
                    mono.resolve(f.triple.o).unwrap().to_string(),
                    (f.confidence * 1e9).round() as i64,
                ))
                .collect();
            let seg_hits: Vec<_> = seg
                .matching_iter(&pat_s)
                .map(|f| (
                    seg.resolve(f.triple.s).unwrap().to_string(),
                    seg.resolve(f.triple.p).unwrap().to_string(),
                    seg.resolve(f.triple.o).unwrap().to_string(),
                    (f.confidence * 1e9).round() as i64,
                ))
                .collect();
            prop_assert_eq!(&mono_hits, &seg_hits, "pattern mask {} diverged", mask);
            prop_assert_eq!(
                mono.count_matching(&pat_m), seg.count_matching(&pat_s),
                "counts diverged for mask {}", mask
            );
        }
    }

    /// Compaction is the identity on answers: folding every delta into
    /// a fresh monolithic base must preserve the merged view exactly.
    #[test]
    fn compaction_preserves_any_split(
        ops in prop::collection::vec(op_strategy(), 1..50),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
    ) {
        let seg = build_segmented(&ops, &cuts);
        let compacted = seg.compact();
        prop_assert_eq!(seg.len(), compacted.len());
        prop_assert_eq!(fact_dump(&seg), fact_dump(&compacted));
    }

    /// Vectorized scans are the tuple scans, chunked: for every delta
    /// stack depth (0 / 2 / 8) and every pattern mask, concatenating
    /// `matching_batches` yields the exact triple sequence of
    /// `matching_iter` — same rows, same order — and no batch exceeds
    /// [`BATCH_ROWS`].
    #[test]
    fn batches_match_tuple_scans_across_delta_stacks(
        ops in prop::collection::vec(op_strategy(), 1..60),
        qs in 0u32..8, qp in 0u32..4, qo in 0u32..8,
    ) {
        for &n_deltas in &[0usize, 2, 8] {
            let view = build_stack(&ops, n_deltas);
            let (es, rp, eo) = (format!("e{qs}"), format!("r{qp}"), format!("e{qo}"));
            'mask: for mask in 0u8..8 {
                let mut pat = TriplePattern::any();
                for (bit, name, slot) in [
                    (1u8, &es, &mut pat.s),
                    (2u8, &rp, &mut pat.p),
                    (4u8, &eo, &mut pat.o),
                ] {
                    if mask & bit != 0 {
                        match view.term(name) {
                            Some(id) => *slot = Some(id),
                            None => continue 'mask, // term absent: nothing to compare
                        }
                    }
                }
                let tuple: Vec<kb_store::Triple> =
                    view.matching_iter(&pat).map(|f| f.triple).collect();
                let mut got: Vec<kb_store::Triple> = Vec::new();
                let mut mb = view.matching_batches(&pat);
                let mut tb = TripleBatch::new();
                while mb.next_batch(&mut tb) {
                    prop_assert!(tb.len() <= BATCH_ROWS, "oversized batch: {}", tb.len());
                    for i in 0..tb.len() {
                        got.push(tb.row(i));
                    }
                }
                prop_assert_eq!(
                    &got, &tuple,
                    "mask {} diverged on a {}-delta stack", mask, n_deltas
                );
            }
        }
    }
}

/// Splits `ops` into exactly `n_deltas + 1` even chunks: chunk 0 is the
/// base, every later chunk a delta (possibly empty — empty deltas are a
/// legal, interesting edge case for the merge cursors).
fn build_stack(ops: &[Op], n_deltas: usize) -> SegmentedSnapshot {
    let chunks = n_deltas + 1;
    let bound = |i: usize| i * ops.len() / chunks;
    let mut base = KbBuilder::new();
    for &op in &ops[..bound(1)] {
        apply(&mut base, op);
    }
    let mut view = SegmentedSnapshot::from_base(base.freeze().into_shared());
    for c in 1..chunks {
        let mut b = KbBuilder::new();
        for &op in &ops[bound(c)..bound(c + 1)] {
            apply(&mut b, op);
        }
        view = view.with_delta(Arc::new(b.freeze_delta(&view)));
    }
    view
}
