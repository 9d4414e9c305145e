//! T17 — compressed, vectorized batch execution: columnar batch scan
//! throughput against the tuple iterator, and the memory footprint of
//! the compressed permutation indexes.
//!
//! The harness asserts the PR's acceptance bars inline, like T15/T16:
//! at 100k facts the batch path must scan F4/F8-style workloads ≥2×
//! faster than tuple-at-a-time, and the frame-compressed indexes must
//! undercut the uncompressed sorted-array layout by ≥30%.

use std::sync::Arc;
use std::time::Instant;

use kb_store::{KbBuilder, KbRead, KbReadBatch, SegmentedSnapshot, TripleBatch, TriplePattern};

use crate::exp_kb::{synthetic_kb, two_hop_join};
use crate::exp_query::synthetic_kb_skewed;
use crate::table::Table;

/// Times `f` until ≥200ms elapsed (at least two iterations), returning
/// (million rows per second, rows per iteration).
fn mrows_per_sec(mut f: impl FnMut() -> usize) -> (f64, usize) {
    let rows = f(); // warmup, and the per-iteration row count
    let t0 = Instant::now();
    let mut iters = 0usize;
    while iters < 2 || t0.elapsed().as_millis() < 200 {
        let r = f();
        assert_eq!(r, rows, "non-deterministic scan while timing");
        iters += 1;
    }
    ((rows * iters) as f64 / t0.elapsed().as_secs_f64() / 1e6, rows)
}

/// Tuple-at-a-time scan over every pattern: the pre-vectorization hot
/// path. Sums subject ids so the compiler cannot skip the decode.
pub fn tuple_scan<K: KbRead + ?Sized>(kb: &K, pats: &[TriplePattern]) -> usize {
    let mut rows = 0usize;
    let mut sum = 0u64;
    for pat in pats {
        for f in kb.matching_iter(pat) {
            rows += 1;
            sum = sum.wrapping_add(f.triple.s.0 as u64);
        }
    }
    std::hint::black_box(sum);
    rows
}

/// Columnar batch scan over the same patterns.
pub fn batch_scan<K: KbRead + ?Sized>(kb: &K, pats: &[TriplePattern]) -> usize {
    let mut rows = 0usize;
    let mut sum = 0u64;
    let mut tb = TripleBatch::new();
    for pat in pats {
        let mut mb = kb.matching_batches(pat);
        while mb.next_batch(&mut tb) {
            rows += tb.len();
            for id in &tb.s {
                sum = sum.wrapping_add(id.0 as u64);
            }
        }
    }
    std::hint::black_box(sum);
    rows
}

/// The three scan workloads at one size: F4-style per-predicate range
/// scans on the uniform KB, the F8 skew-dominant predicate, and a full
/// unbound scan. Returns `(label, patterns, snapshot)` triples.
fn workloads(n: usize) -> Vec<(String, Vec<TriplePattern>, kb_store::KbSnapshot)> {
    let uniform = synthetic_kb(n, 7).snapshot();
    let rel_pats: Vec<TriplePattern> = (0..32)
        .filter_map(|i| uniform.term(&format!("rel_{i}")))
        .map(TriplePattern::with_p)
        .collect();
    let skewed = synthetic_kb_skewed(n, 7).snapshot();
    let big = TriplePattern::with_p(skewed.term("rel_big").expect("skewed KB has rel_big"));
    vec![
        ("predicate scans (F4)".into(), rel_pats, uniform.clone()),
        ("skewed rel_big scan (F8)".into(), vec![big], skewed),
        ("full scan".into(), vec![TriplePattern::any()], uniform),
    ]
}

/// T17: batch vs tuple scan throughput, compressed index memory, and
/// informational segmented / path-join rows.
pub fn t17() -> String {
    let mut scans = Table::new(&[
        "facts",
        "workload",
        "tuple Mrows/s",
        "batch Mrows/s",
        "speedup",
        "rows/scan",
    ]);
    let mut mem = Table::new(&["facts", "entries", "frames", "compressed KiB", "raw KiB", "saved"]);
    for &n in &[100_000usize, 1_000_000] {
        for (label, pats, snap) in workloads(n) {
            let (tuple, rows_t) = mrows_per_sec(|| tuple_scan(&snap, &pats));
            let (batch, rows_b) = mrows_per_sec(|| batch_scan(&snap, &pats));
            assert_eq!(rows_t, rows_b, "{label}: batch and tuple scans disagree on rows");
            let speedup = batch / tuple;
            if n == 100_000 {
                assert!(
                    speedup >= 2.0,
                    "batch scan must be ≥2× tuple-at-a-time on `{label}` at 100k facts \
                     (tuple {tuple:.1} Mrows/s, batch {batch:.1} Mrows/s)"
                );
            }
            scans.row(vec![
                n.to_string(),
                label,
                format!("{tuple:.1}"),
                format!("{batch:.1}"),
                format!("{speedup:.1}x"),
                rows_t.to_string(),
            ]);
        }
        let snap = synthetic_kb(n, 7).snapshot();
        let st = snap.index_stats();
        if n == 100_000 {
            assert!(
                st.saved_ratio() >= 0.30,
                "compressed frames must save ≥30% of the raw permutation layout at 100k facts \
                 (compressed {} B, raw {} B)",
                st.compressed_bytes,
                st.raw_bytes
            );
        }
        mem.row(vec![
            n.to_string(),
            st.entries.to_string(),
            st.frames.to_string(),
            format!("{:.0}", st.compressed_bytes as f64 / 1024.0),
            format!("{:.0}", st.raw_bytes as f64 / 1024.0),
            format!("{:.0}%", st.saved_ratio() * 100.0),
        ]);
    }

    // Informational: the segmented merge falls back to tuple merging
    // inside the batch API — chunking must not cost anything, but no
    // splice speedup is expected either; the path join is kb-query's
    // batch executor (there is no tuple join to compare it with).
    let mut extra = Table::new(&["view", "workload", "tuple Mrows/s", "batch Mrows/s"]);
    let base = synthetic_kb(80_000, 7).snapshot().into_shared();
    let mut seg = SegmentedSnapshot::from_base(base);
    for d in 0..4 {
        let mut b = KbBuilder::new();
        for j in 0..5_000 {
            b.assert_str(&format!("dx_{d}_{j}"), &format!("rel_{}", j % 32), &format!("dy_{j}"));
        }
        seg = seg.with_delta(Arc::new(b.freeze_delta(&seg)));
    }
    let pats = [TriplePattern::any()];
    let (seg_tuple, _) = mrows_per_sec(|| tuple_scan(&seg, &pats));
    let (seg_batch, _) = mrows_per_sec(|| batch_scan(&seg, &pats));
    extra.row(vec![
        "4-delta stack (100k)".into(),
        "full scan".into(),
        format!("{seg_tuple:.1}"),
        format!("{seg_batch:.1}"),
    ]);
    let snap = synthetic_kb(100_000, 7).snapshot();
    let join = two_hop_join(&snap);
    let (pj_batch, _) = mrows_per_sec(|| kb_query::execute(&join, &snap).rows.len());
    extra.row(vec![
        "monolithic (100k)".into(),
        "path join rel_0 ⋈ rel_1 (kb-query)".into(),
        "—".into(),
        format!("{pj_batch:.1}"),
    ]);

    format!(
        "T17 — vectorized batch execution: scan throughput and compressed-index memory\n{}\n\
         permutation-index memory (frame-compressed vs raw sorted arrays)\n{}\n\
         fallback paths (informational — tuple merge inside the batch API)\n{}",
        scans.render(),
        mem.render(),
        extra.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_and_tuple_scans_agree_at_smoke_scale() {
        let snap = synthetic_kb(5_000, 3).snapshot();
        let pats = [TriplePattern::any(), TriplePattern::with_p(snap.term("rel_0").unwrap())];
        assert_eq!(tuple_scan(&snap, &pats), batch_scan(&snap, &pats));
        assert!(tuple_scan(&snap, &pats) > 5_000, "full + rel_0 scans cover the KB");
    }

    #[test]
    fn compression_saves_memory_at_smoke_scale() {
        // The harness asserts ≥30% at 100k; at 5k the structure alone
        // must already be winning, not losing.
        let snap = synthetic_kb(5_000, 3).snapshot();
        let st = snap.index_stats();
        assert!(st.compressed_bytes > 0);
        assert!(st.compressed_bytes < st.raw_bytes, "frames should beat the raw layout: {st:?}");
    }
}
