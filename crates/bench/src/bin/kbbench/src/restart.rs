//! `restart_paged`: an operator restarts a store that is larger than
//! its memory budget. Each cycle opens the store with a budget of half
//! its frames region, boots a `QueryService` on it, answers one point
//! query (time to first answer) and then runs a fixed scan/probe mix
//! over all three permutations twice, so that spilled columns fault
//! back in; then everything is dropped.
//!
//! This is the "larger than the program's own cache" workload: the
//! working set is about twice the budget, and segmap, frames and the
//! service bootstrap dominate. The OS page cache is warm: the store
//! was written moments earlier, so reads measure the program's paging,
//! not the disk.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{generate, Workload, WorkloadConfig};
use crate::refclock::RefClock;
use crate::scenario::{build_snapshot, micros, Budget, Measured, Scale, TempDir, Terms};
use crate::trace::Tracer;
use kb_query::{QueryService, StatsCatalog};
use kb_store::{
    segment_io, KbRead, KbReadBatch, SegmentRegion, SegmentStore, SegmentedSnapshot, StoreOptions,
    TripleBatch, TriplePattern,
};

/// Patterns in the scan/probe mix.
const MIX: usize = 64;
/// Passes over the mix per cycle; the second re-faults what the first
/// spilled.
const PASSES: usize = 2;

pub struct Setup {
    dir: TempDir,
    budget: usize,
    mix: Vec<TriplePattern>,
    /// Rows each pattern of the mix matches, counted without a budget.
    oracle: Vec<usize>,
    /// Seconds the unbudgeted store took for the same passes.
    unbudgeted_mix_s: f64,
    first_queries: Vec<String>,
    facts: usize,
}

pub fn setup(seed: u64, scale: &Scale, work_dir: &Path) -> Result<Setup, String> {
    let w = generate(&WorkloadConfig::new(seed, scale.restart_facts));
    let snap = Arc::new(build_snapshot(&w));
    let dir = TempDir::create(work_dir, "restart").map_err(|e| e.to_string())?;
    let store_dir = dir.path().join("store");
    SegmentStore::create(&store_dir, Arc::clone(&snap), StoreOptions::default())
        .map_err(|e| format!("create: {e}"))?;
    drop(snap);
    let budget = frames_bytes(&store_dir)? / 2;
    let mix = scan_mix(&w);

    // The oracle: the same passes on the same files, no budget.
    let store = SegmentStore::open_with(&store_dir, StoreOptions::default())
        .map_err(|e| format!("oracle open: {e}"))?;
    let view = store.view();
    let start = Instant::now();
    let mut oracle = Vec::new();
    for _ in 0..PASSES {
        oracle = mix.iter().map(|p| scan_rows(&view, p)).collect();
    }
    let unbudgeted_mix_s = start.elapsed().as_secs_f64();
    Ok(Setup {
        dir,
        budget,
        mix,
        oracle,
        unbudgeted_mix_s,
        first_queries: w.point,
        facts: w.config.facts,
    })
}

/// Byte length of the frames region of the store's base segment.
fn frames_bytes(store_dir: &Path) -> Result<usize, String> {
    let bytes = std::fs::read(store_dir.join("base-0.seg")).map_err(|e| e.to_string())?;
    segment_io::region_map(&bytes)
        .map_err(|e| e.to_string())?
        .into_iter()
        .find(|(region, _)| *region == SegmentRegion::Frames)
        .map(|(_, range)| range.len())
        .ok_or_else(|| "base segment has no frames region".to_string())
}

/// The fixed mix: a quarter each of predicate scans (POS), subject
/// probes (SPO), object probes (OSP) and predicate+object probes (POS).
/// Subjects and objects are picked by degree rank, from the hubs down
/// the tail in powers of two, so that the rows behind the mix depend on
/// the shape of the KB and hardly on the seed.
fn scan_mix(w: &Workload) -> Vec<TriplePattern> {
    let terms = Terms::of(w);
    (0..MIX)
        .map(|k| {
            let step = k / 4;
            let rank = ((1usize << step) - 1).min(w.by_out_degree.len() - 1);
            let subject = terms.entity(w.by_out_degree[rank]);
            let object = terms.entity(w.by_in_degree[rank]);
            match k % 4 {
                0 => TriplePattern::with_p(terms.predicate(step * 3 % w.config.predicates)),
                1 => TriplePattern::with_s(subject),
                2 => TriplePattern::with_o(object),
                // Entity-valued predicates only (every third takes
                // literals), the most frequent first.
                _ => TriplePattern::with_po(terms.predicate(step / 2 * 3), object),
            }
        })
        .collect()
}

/// Scans the pattern in batches and returns the rows seen, so that
/// every matching row is decoded (a bare count is `O(log n)`).
fn scan_rows(view: &SegmentedSnapshot, pattern: &TriplePattern) -> usize {
    let mut batch = TripleBatch::new();
    let mut batches = view.matching_batches(pattern);
    let mut rows = 0;
    while batches.next_batch(&mut batch) {
        rows += batch.len();
    }
    rows
}

pub fn run(setup: &Setup, budget: Duration, tracer: &mut Tracer, clock: &mut RefClock) -> Measured {
    let mut m = Measured::default();
    let store_dir = setup.dir.path().join("store");
    let options = StoreOptions { memory_budget: Some(setup.budget), ..StoreOptions::default() };
    let (mut rows, mut mix_s) = (0usize, 0.0);
    let (mut faults, mut spills, mut peak, mut cycles) = (0usize, 0usize, 0usize, 0usize);
    let mut counts_equal = true;
    let mut budget = Budget::new(budget);
    while budget.more() {
        clock.tick();
        tracer.next_op();
        m.attempted += 1;
        let start = Instant::now();
        let cycle = tracer.enter("restart.first_answer");
        let span = tracer.enter("segment_store.open");
        let store = match SegmentStore::open_with(&store_dir, options) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("kbbench: budgeted open failed: {e}");
                m.failed += 1;
                break;
            }
        };
        tracer.exit(span);
        let view = store.view();
        if tracer.is_on() {
            // Touch the dictionary first, so that the lazy load of the
            // base segment gets its own span instead of hiding inside
            // the service bootstrap. The untraced path leaves it where
            // a user meets it.
            let span = tracer.enter("segmap.base_fault");
            std::hint::black_box(view.resolve(kb_store::TermId(0)));
            tracer.exit(span);
        }
        let span = tracer.enter("service.from_view");
        let service = QueryService::from_view(&view);
        tracer.exit(span);
        let span = tracer.enter("restart.first_query");
        let text = &setup.first_queries[cycles % setup.first_queries.len()];
        let answered = service.query(text).map(|out| out.render(service.snapshot().as_ref()));
        tracer.exit(span);
        tracer.exit(cycle);
        m.op("first_answer", start, micros(start));
        clock.tick();
        if answered.is_err() {
            m.failed += 1;
        }

        let meter = store.memory_budget();
        let (mix_start, rows_before) = (Instant::now(), rows);
        let span = tracer.enter("restart.scan_mix");
        for _ in 0..PASSES {
            for (pattern, want) in setup.mix.iter().zip(&setup.oracle) {
                let got = scan_rows(&view, pattern);
                counts_equal &= got == *want;
                rows += got;
                peak = peak.max(meter.resident_bytes());
            }
        }
        tracer.exit(span);
        m.work("scan", mix_start, micros(mix_start), (rows - rows_before) as f64, 0.0);
        mix_s += mix_start.elapsed().as_secs_f64();
        faults += meter.page_faults();
        spills += meter.spills();
        cycles += 1;

        if tracer.is_on() {
            let span = tracer.enter("stats.build");
            std::hint::black_box(StatsCatalog::build(&view));
            tracer.exit(span);
        }
    }

    m.calibrate(clock);
    let ops = m.attempted;
    m.check(
        "restart_paged.counts_equal_unbudgeted",
        counts_equal,
        format!("{MIX} patterns × {PASSES} passes × {cycles} cycles"),
        ops,
    );
    m.check(
        "restart_paged.resident_within_budget",
        peak <= setup.budget,
        format!("peak {peak} B under a budget of {} B", setup.budget),
        ops,
    );
    let per_cycle = |n: usize| n as f64 / cycles.max(1) as f64;
    m.counts.insert("facts", setup.facts as f64);
    m.counts.insert("budget_bytes", setup.budget as f64);
    m.counts.insert("faults_per_cycle", per_cycle(faults));
    m.counts.insert("spills_per_cycle", per_cycle(spills));
    m.counts.insert("peak_resident_ratio", peak as f64 / setup.budget as f64);
    m.counts.insert("scan_slowdown", mix_s / cycles.max(1) as f64 / setup.unbudgeted_mix_s);
    m
}
