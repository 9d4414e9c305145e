//! T16 (durable segment store): what a cold start costs with and
//! without on-disk segments.
//!
//! Without the segment store, a crashed or restarted deployment has to
//! *re-produce* its KB: re-run the harvest pipeline over the corpus
//! (the facts exist nowhere else), re-freeze, re-index. With it, the
//! same deployment re-opens checksummed segment files — an `O(n)`
//! validated read with no extraction, no merging and no sorting — and
//! a `QueryService` is serving again in milliseconds.
//!
//! Both sides of the comparison end at the same place — a serving
//! `QueryService` — and both are taken as the *minimum* over repeated
//! runs, which damps scheduler noise on loaded machines without
//! flattering either side.
//!
//! Three rows, with the comparison spelled out honestly:
//!
//! 1. **Corpus scale, fully measured** — harvest the experiment corpus,
//!    freeze it and boot a service (the rebuild), then cold-open the
//!    durable store it produced. Both sides measured directly. At this
//!    scale (a few thousand facts) fixed per-open costs dominate, so
//!    the guard here is a looser ≥10×; the headline 50× bar belongs to
//!    the 100k row below.
//! 2. **100k facts** — cold-open measured directly on a 100k-fact KB;
//!    the rebuild side is the row-1 pipeline throughput (facts/s)
//!    linearly extrapolated to 100k facts. The pipeline is linear in
//!    documents while freezing is `O(n log n)`, so the extrapolation
//!    *understates* the true rebuild cost — the conservative direction.
//!    Asserted ≥50× (the acceptance bar).
//! 3. **TSV reload at 100k (informational)** — the repo's other
//!    persistence path (parse the N-Triples dump, re-merge, re-sort).
//!    Much cheaper than re-harvesting but still several times slower
//!    than `open`; reported without an assertion.

use std::sync::Arc;
use std::time::Instant;

use kb_corpus::Corpus;
use kb_harvest::pipeline::{harvest, HarvestConfig};
use kb_query::QueryService;
use kb_store::{
    ntriples, segment_io, KbRead, KbSnapshot, SegmentRegion, SegmentStore, StoreOptions,
    TriplePattern,
};

use crate::exp_query::synthetic_kb_skewed;
use crate::table::Table;

const OPEN_ITERS: usize = 5;
const REBUILD_ITERS: usize = 2;

/// Milliseconds to cold-start a serving `QueryService` from the store
/// directory: open (checksum validation + WAL replay) plus the service
/// bootstrap (stats catalog, caches). Minimum over [`OPEN_ITERS`] runs.
fn cold_start_ms(dir: &std::path::Path) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..OPEN_ITERS {
        let t0 = Instant::now();
        let store = SegmentStore::open(dir).expect("open store");
        let view = store.view();
        let service = QueryService::from_view(&view);
        std::hint::black_box(service.generation());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Writes `snap` as a fresh store directory under the temp dir.
fn store_dir(name: &str, snap: Arc<KbSnapshot>) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kbkit-t16-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    SegmentStore::create(&dir, snap, StoreOptions::default()).expect("create store");
    dir
}

/// T16 core measurements, shared by the harness table and the smoke
/// test: `(facts, rebuild_ms, cold_start_ms)` for the corpus-scale
/// comparison.
pub fn t16_measure(corpus: &Corpus) -> (usize, f64, f64) {
    let mut rebuild_ms = f64::INFINITY;
    let mut snap = None;
    for _ in 0..REBUILD_ITERS {
        let t0 = Instant::now();
        let out = harvest(corpus, &HarvestConfig::default()).expect("harvest");
        let rebuilt = out.kb.snapshot().into_shared();
        let service = QueryService::new(Arc::clone(&rebuilt));
        std::hint::black_box(service.generation());
        rebuild_ms = rebuild_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        snap = Some(rebuilt);
    }
    let snap = snap.expect("at least one rebuild");
    let facts = snap.len();
    let dir = store_dir("corpus", snap);
    let open_ms = cold_start_ms(&dir);
    std::fs::remove_dir_all(&dir).ok();
    (facts, rebuild_ms, open_ms)
}

/// T16: cold-start open vs full rebuild.
pub fn t16(corpus: &Corpus) -> String {
    let mut t = Table::new(&["facts", "rebuild", "rebuild ms", "cold start ms", "speedup"]);

    // Row 1: both sides measured end to end at corpus scale. Fixed
    // per-open costs (file opens, stats bootstrap) dominate at a few
    // thousand facts, so this row guards a looser 10×; the 50×
    // acceptance bar is asserted on the 100k row, where the linear
    // costs dominate. Skipped entirely on the tiny smoke corpus.
    let (facts, rebuild_ms, open_ms) = t16_measure(corpus);
    if facts >= 1_000 {
        assert!(
            rebuild_ms >= 10.0 * open_ms,
            "cold start must be ≥10× faster than re-harvesting \
             (rebuild {rebuild_ms:.1}ms vs open {open_ms:.3}ms at {facts} facts)"
        );
    }
    let throughput = facts as f64 / (rebuild_ms / 1e3); // facts per second
    t.row(vec![
        facts.to_string(),
        "re-harvest (measured)".into(),
        format!("{rebuild_ms:.1}"),
        format!("{open_ms:.2}"),
        format!("{:.0}x", rebuild_ms / open_ms),
    ]);

    // Row 2: 100k facts — open measured, rebuild extrapolated from the
    // measured pipeline throughput (the pipeline is linear in docs).
    let kb100 = synthetic_kb_skewed(100_000, 7);
    let snap100 = kb100.snapshot().into_shared();
    let facts100 = snap100.len();
    let dump100 = ntriples::to_string(snap100.as_ref()).expect("dump");
    let dir = store_dir("100k", snap100);
    let open100_ms = cold_start_ms(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let rebuild100_ms = facts100 as f64 / throughput * 1e3;
    // The acceptance bar. Only asserted when the throughput base came
    // from a real corpus — on the --small smoke corpus the per-document
    // fixed costs deflate the extrapolated rebuild well below what a
    // real 100k harvest would cost, which would fail the ratio for the
    // wrong reason. CI runs the harness at full scale.
    if facts >= 1_000 {
        assert!(
            rebuild100_ms >= 50.0 * open100_ms,
            "cold start at 100k facts must be ≥50× faster than a pipeline rebuild \
             (extrapolated rebuild {rebuild100_ms:.0}ms vs open {open100_ms:.2}ms)"
        );
    }
    t.row(vec![
        facts100.to_string(),
        "re-harvest (extrapolated)".into(),
        format!("{rebuild100_ms:.0}"),
        format!("{open100_ms:.2}"),
        format!("{:.0}x", rebuild100_ms / open100_ms),
    ]);

    // Row 3 (informational): reloading the N-Triples dump — parse,
    // re-merge, re-sort all three permutations. No assertion: this path
    // only exists when a dump was written, and is still slower.
    let t0 = Instant::now();
    let reloaded = ntriples::from_str(&dump100).expect("parse dump");
    let resnap = reloaded.freeze();
    let tsv_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(resnap.len(), facts100);
    t.row(vec![
        facts100.to_string(),
        "TSV reload (measured)".into(),
        format!("{tsv_ms:.1}"),
        format!("{open100_ms:.2}"),
        format!("{:.1}x", tsv_ms / open100_ms),
    ]);

    format!(
        "T16 — durable segment store: cold start vs rebuild (open = checksummed \
         segment read + WAL replay + QueryService bootstrap, min of {OPEN_ITERS})\n\
         pipeline throughput measured in row 1: {throughput:.0} facts/s\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// T19 — beyond-RAM paging
// ---------------------------------------------------------------------

/// Frames-region byte length of the store's base segment.
fn t19_frames_bytes(dir: &std::path::Path) -> usize {
    let bytes = std::fs::read(dir.join("base-0.seg")).expect("read base segment");
    segment_io::region_map(&bytes)
        .expect("region map")
        .into_iter()
        .find(|(r, _)| *r == SegmentRegion::Frames)
        .map(|(_, range)| range.len())
        .expect("v2 base segment has a frames region")
}

/// Milliseconds for a *lazy* `SegmentStore::open_with` alone — no
/// service bootstrap, no prefault — minimum over [`OPEN_ITERS`] runs.
fn t19_open_ms(dir: &std::path::Path) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..OPEN_ITERS {
        let t0 = Instant::now();
        let store = SegmentStore::open_with(dir, StoreOptions::default()).expect("open store");
        std::hint::black_box(store.generation());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// A mixed scan/probe workload derived from the KB itself: the full
/// scan plus subject-, predicate- and object-bound probes taken from
/// the first facts of the store, touching all three permutations.
fn t19_workload(view: &kb_store::SegmentedSnapshot) -> Vec<TriplePattern> {
    let mut patterns = vec![TriplePattern::any()];
    for m in view.matching_iter(&TriplePattern::any()).take(3) {
        patterns.push(TriplePattern::with_s(m.triple.s));
        patterns.push(TriplePattern::with_p(m.triple.p));
        patterns.push(TriplePattern::with_o(m.triple.o));
    }
    patterns
}

/// `(facts, lazy_open_ms)` for one store size in [`t19_measure`].
pub type OpenPoint = (usize, f64);

/// `(budget, peak_resident, faults, spills)` from the budgeted serve
/// in [`t19_measure`].
pub type BudgetEvidence = (usize, usize, usize, usize);

/// T19 core: the open-latency point at each scale plus the
/// budgeted-serve evidence at the large one — shared by the harness
/// table and the smoke test. Asserts the acceptance bars:
/// open latency flat in KB size (≤ `flat_factor`×), budgeted answers
/// byte-identical, resident never above the budget.
pub fn t19_measure(
    small: usize,
    large: usize,
    flat_factor: f64,
) -> (OpenPoint, OpenPoint, BudgetEvidence) {
    let small_snap = synthetic_kb_skewed(small, 7).snapshot().into_shared();
    let small_facts = small_snap.len();
    let small_dir = store_dir(&format!("t19-{small}"), small_snap);
    let open_small = t19_open_ms(&small_dir);
    std::fs::remove_dir_all(&small_dir).ok();

    let large_snap = synthetic_kb_skewed(large, 7).snapshot().into_shared();
    let large_facts = large_snap.len();
    let large_dir = store_dir(&format!("t19-{large}"), large_snap);
    let open_large = t19_open_ms(&large_dir);

    // The flatness bar: open cost is O(header), so a KB 100× bigger
    // must open within `flat_factor`× of the small one. A 50µs floor
    // on the denominator damps scheduler jitter at these sub-ms
    // latencies without loosening the bar meaningfully.
    assert!(
        open_large <= flat_factor * open_small.max(0.05),
        "lazy open is not flat in KB size: {large_facts} facts took {open_large:.3}ms \
         vs {open_small:.3}ms for {small_facts}"
    );

    // Budgeted serving: half the frames region, differential against
    // the unbudgeted open of the same directory.
    let budget = t19_frames_bytes(&large_dir) / 2;
    let oracle_store =
        SegmentStore::open_with(&large_dir, StoreOptions::default()).expect("oracle open");
    let oracle_view = oracle_store.view();
    let workload = t19_workload(&oracle_view);
    let want: Vec<usize> = workload.iter().map(|p| oracle_view.count_matching(p)).collect();
    drop((oracle_view, oracle_store));

    let options = StoreOptions { memory_budget: Some(budget), ..StoreOptions::default() };
    let store = SegmentStore::open_with(&large_dir, options).expect("budgeted open");
    let view = store.view();
    let meter = store.memory_budget();
    let mut peak = 0usize;
    for _ in 0..2 {
        // Two passes so re-faults after spills are exercised too.
        for (p, want_n) in workload.iter().zip(&want) {
            let got = view.count_matching(p);
            assert_eq!(got, *want_n, "budgeted count diverged for {p:?}");
            peak = peak.max(meter.resident_bytes());
        }
    }
    assert!(peak <= budget, "resident columns peaked at {peak} B over the {budget} B budget");
    let faults = meter.page_faults();
    let spills = meter.spills();
    assert!(faults > 0, "budgeted serving must fault columns in");
    assert!(spills > 0, "a half-frames budget must spill under the full workload");
    std::fs::remove_dir_all(&large_dir).ok();
    ((small_facts, open_small), (large_facts, open_large), (budget, peak, faults, spills))
}

/// T19: beyond-RAM paging — lazy open latency is flat in KB size, and
/// a store budgeted at half its frames region serves the same answers
/// while resident bytes stay under the cap.
pub fn t19() -> String {
    let ((small_facts, open_small), (large_facts, open_large), (budget, peak, faults, spills)) =
        t19_measure(10_000, 1_000_000, 3.0);
    let mut t = Table::new(&["facts", "lazy open ms", "vs 10k"]);
    t.row(vec![small_facts.to_string(), format!("{open_small:.3}"), "1.0x".into()]);
    t.row(vec![
        large_facts.to_string(),
        format!("{open_large:.3}"),
        format!("{:.1}x", open_large / open_small.max(0.05)),
    ]);
    format!(
        "T19 — beyond-RAM paging: lazy open is O(header), budgeted serving spills \
         instead of growing (min of {OPEN_ITERS} opens)\n{}\
         budgeted serve at {large_facts} facts: budget {budget} B (half the frames region), \
         peak resident {peak} B, {faults} faults, {spills} spills — answers byte-identical\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_corpus::CorpusConfig;

    #[test]
    fn cold_start_beats_reharvest_at_smoke_scale() {
        let corpus = Corpus::generate(&CorpusConfig::tiny());
        let (facts, rebuild_ms, open_ms) = t16_measure(&corpus);
        assert!(facts > 0);
        assert!(
            rebuild_ms > open_ms,
            "opening segments must beat re-harvesting even at tiny scale \
             (rebuild {rebuild_ms:.1}ms vs open {open_ms:.3}ms)"
        );
    }

    #[test]
    fn cold_start_replays_into_an_identical_service() {
        let corpus = Corpus::generate(&CorpusConfig::tiny());
        let out = harvest(&corpus, &HarvestConfig::default()).expect("harvest");
        let snap = out.kb.snapshot().into_shared();
        let oracle = ntriples::to_string(snap.as_ref()).expect("dump");
        let dir = store_dir("identity", Arc::clone(&snap));
        let store = SegmentStore::open(&dir).expect("open");
        let service = QueryService::from_view(&store.view());
        let recovered = ntriples::to_string(service.snapshot().as_ref()).expect("dump");
        assert_eq!(recovered, oracle, "cold-started service serves the same KB");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paging_bars_hold_at_smoke_scale() {
        // 5k vs 50k keeps the smoke run fast; the full 10k-vs-1M curve
        // (and the 3x flatness bar at that scale) runs in the harness.
        let ((small, _), (large, _), (budget, peak, faults, spills)) =
            t19_measure(5_000, 50_000, 3.0);
        assert!(small > 0 && large > small);
        assert!(peak <= budget);
        assert!(faults > 0 && spills > 0);
    }
}
