//! Beyond-RAM paging suite: a durable store opened under a
//! `memory_budget` smaller than its index must (a) open in O(header)
//! time without touching cold bytes, (b) answer every query
//! byte-identically to an unbudgeted open while resident column bytes
//! never exceed the budget, and (c) spill without ever writing — so a
//! kill -9 mid-spill can lose nothing.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use kbkit::kb_query::QueryService;
use kbkit::kb_store::{
    ntriples, segment_io, DeltaSegment, Fact, KbBuilder, KbRead, KbReadBatch, KbSnapshot,
    SegmentRegion, SegmentStore, SegmentedSnapshot, StoreOptions, TermId, TimeSpan, Triple,
    TripleBatch, TriplePattern,
};

const NO_FSYNC: StoreOptions = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kbkit-paging-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A KB big enough that every permutation column holds many frames.
fn sized_base(people: usize) -> Arc<KbSnapshot> {
    let mut b = KbBuilder::new();
    let src = b.register_source("paging-source");
    let born = b.intern("bornIn");
    let located = b.intern("locatedIn");
    for i in 0..people {
        let s = b.intern(&format!("person_{i}"));
        let o = b.intern(&format!("city_{}", i % 50));
        b.add_fact(Fact {
            triple: Triple::new(s, born, o),
            confidence: 0.6 + 0.3 * ((i % 10) as f64 / 10.0),
            source: src,
            span: TimeSpan::parse("[1950,2020]"),
        });
    }
    for c in 0..50 {
        let s = b.intern(&format!("city_{c}"));
        let o = b.intern(&format!("country_{}", c % 5));
        b.add_triple(s, located, o);
    }
    b.freeze().into()
}

/// Frames-region length of the base segment — the budget denominator.
fn frames_bytes(dir: &Path) -> usize {
    let bytes = std::fs::read(dir.join("base-0.seg")).unwrap();
    segment_io::region_map(&bytes)
        .unwrap()
        .into_iter()
        .find(|(r, _)| *r == SegmentRegion::Frames)
        .map(|(_, range)| range.len())
        .expect("v2 segment has a frames region")
}

const QUERIES: &[&str] = &[
    "?p bornIn ?c",
    "?p bornIn ?c . ?c locatedIn ?n",
    "person_7 bornIn ?c",
    "SELECT DISTINCT ?c WHERE { ?p bornIn ?c }",
    "SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c",
];

fn answers(service: &QueryService, view: &SegmentedSnapshot) -> Vec<String> {
    QUERIES.iter().map(|q| service.query(q).unwrap().render(view)).collect()
}

/// A store opened under half its frames-region budget answers every
/// query byte-identically to an unbudgeted open, pages columns in and
/// out (faults and spills both observed), and the resident gauge never
/// ends a query above the configured limit.
#[test]
fn budgeted_queries_are_byte_identical_and_stay_under_budget() {
    let dir = scratch("differential");
    drop(SegmentStore::create(&dir, sized_base(1500), NO_FSYNC).unwrap());
    let budget = frames_bytes(&dir) / 2;

    // Oracle: unbudgeted (eager-equivalent) open.
    let oracle_store = SegmentStore::open_with(&dir, NO_FSYNC).unwrap();
    let oracle_view = oracle_store.view();
    oracle_view.prefault().unwrap();
    let oracle_service = QueryService::from_view(&oracle_view);
    let want = answers(&oracle_service, &oracle_view);
    let want_dump = ntriples::to_string(&oracle_view).unwrap();

    // Budgeted open of the same directory.
    let options = StoreOptions { memory_budget: Some(budget), ..NO_FSYNC };
    let store = SegmentStore::open_with(&dir, options).unwrap();
    let view = store.view();
    view.prefault().unwrap();
    let service = QueryService::from_view(&view);
    let meter = store.memory_budget();
    assert_eq!(meter.limit(), Some(budget));

    for (q, want_one) in QUERIES.iter().zip(&want) {
        let got = service.query(q).unwrap().render(&view);
        assert_eq!(&got, want_one, "budgeted answer diverged for {q:?}");
        assert!(
            meter.resident_bytes() <= budget,
            "resident {} B exceeds budget {budget} B after {q:?}",
            meter.resident_bytes(),
        );
    }
    assert_eq!(ntriples::to_string(&view).unwrap(), want_dump);
    assert!(meter.page_faults() > 0, "budgeted serving must fault columns in");
    assert!(meter.spills() > 0, "a half-index budget must force spills");
    std::fs::remove_dir_all(&dir).ok();
}

/// A lazy open reads only the preamble and header: no column is
/// resident and no fault has happened until the first query touches
/// the index.
#[test]
fn lazy_open_touches_no_cold_bytes() {
    let dir = scratch("lazy-open");
    drop(SegmentStore::create(&dir, sized_base(800), NO_FSYNC).unwrap());
    let options = StoreOptions { memory_budget: Some(1 << 20), ..NO_FSYNC };
    let store = SegmentStore::open_with(&dir, options).unwrap();
    let meter = store.memory_budget();
    assert_eq!(meter.resident_bytes(), 0, "open must not materialize columns");
    assert_eq!(meter.page_faults(), 0, "open must not fault");
    // Count-prefix reads (delta stacking checks) are not faults either.
    let view = store.view();
    assert!(view.term_count() > 0);
    assert_eq!(meter.page_faults(), 0, "term_count must use the count prefix, not a fault");
    // First real scan faults.
    let n = view.count_matching(&kbkit::kb_store::TriplePattern::any());
    assert_eq!(n, 850);
    assert!(meter.page_faults() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Spill is read-only: serving under a starvation budget (every fault
/// evicts the previous column) leaves every on-disk byte untouched, so
/// a crash at any point during paging — including mid-spill — loses
/// nothing. The store reopens cleanly afterwards and serves the same
/// KB.
#[test]
fn spill_never_writes_and_store_survives_crash_during_paging() {
    let dir = scratch("spill-readonly");
    drop(SegmentStore::create(&dir, sized_base(600), NO_FSYNC).unwrap());
    let before: Vec<(String, Vec<u8>)> = {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        files.into_iter().map(|p| (p.display().to_string(), std::fs::read(&p).unwrap())).collect()
    };
    let oracle = {
        let store = SegmentStore::open_with(&dir, NO_FSYNC).unwrap();
        ntriples::to_string(&store.view()).unwrap()
    };

    // Starvation budget: one byte, so every column fault spills the
    // previously resident column.
    let options = StoreOptions { memory_budget: Some(1), ..NO_FSYNC };
    let store = SegmentStore::open_with(&dir, options).unwrap();
    let view = store.view();
    view.prefault().unwrap();
    for q in ["?p bornIn ?c", "?p locatedIn ?c", "person_3 bornIn ?c"] {
        let service_free = QueryService::from_view(&view);
        let _ = service_free.query(q).unwrap();
    }
    assert!(store.memory_budget().spills() > 0, "starvation budget must spill");
    // Simulated kill -9 mid-paging: drop with no shutdown protocol.
    drop((view, store));

    for (name, bytes) in &before {
        assert_eq!(
            &std::fs::read(name).unwrap(),
            bytes,
            "{name} changed on disk — paging must never write"
        );
    }
    let store = SegmentStore::open_with(&dir, NO_FSYNC).unwrap();
    assert_eq!(ntriples::to_string(&store.view()).unwrap(), oracle);
    std::fs::remove_dir_all(&dir).ok();
}

/// Rows per compression frame (`kb_store::FRAME_ROWS`). A page
/// is a run of whole frames, so every page boundary is a frame boundary
/// whatever the private page size is.
const FRAME: usize = 1024;
/// Full frames of seam rows in each permutation.
const SEAM_FRAMES: usize = 64;
/// Bulk rows behind the seam rows: 35 frames and a partial one, one
/// predicate, nearly all on one object.
const BULK: usize = 35 * FRAME + 300;

/// The lead term of seam row `n` in a permutation whose every frame
/// holds three buckets — one row, 1022 rows, one row: the first starts
/// exactly on the frame boundary and ends one row after it, the second
/// starts one row after it and ends one row before the next, the third
/// starts one row before the next boundary and ends exactly on it.
fn seam_lead(n: usize) -> usize {
    3 * (n / FRAME)
        + match n % FRAME {
            0 => 0,
            1023 => 2,
            _ => 1,
        }
}

/// A KB whose three permutations all open with `SEAM_FRAMES` frames of
/// seam buckets (see [`seam_lead`]; the lead terms hold the lowest ids
/// of their role, so the buckets sit at rows `0..64 × 1024` of SPO, POS
/// and OSP alike), followed by `BULK` rows of one predicate that give
/// POS and OSP ranges spanning 35 frames and a last partial frame.
/// Row `n` of SPO is row `r·64 + k` of POS and row
/// `lo·4096 + hi·64 + k` of OSP (`k = n / 1024`, `r = n % 1024`,
/// `hi = r / 16`, `lo = r % 16`): two rows of one subject never share
/// predicate and object, so all facts are distinct.
fn seam_base() -> (Arc<KbSnapshot>, [Vec<TermId>; 3]) {
    let mut b = KbBuilder::new();
    let leads: [Vec<TermId>; 3] = ["s", "p", "o"]
        .map(|role| (0..3 * SEAM_FRAMES).map(|i| b.intern(&format!("{role}{i}"))).collect());
    for n in 0..SEAM_FRAMES * FRAME {
        let (k, r) = (n / FRAME, n % FRAME);
        let (hi, lo) = (r / 16, r % 16);
        let p = seam_lead(r * 64 + k);
        let o = seam_lead(lo * 4096 + hi * 64 + k);
        b.add_triple(leads[0][seam_lead(n)], leads[1][p], leads[2][o]);
    }
    let born = b.intern("bornIn");
    let cities = [b.intern("city_big"), b.intern("city_small")];
    for i in 0..BULK {
        let s = b.intern(&format!("person_{i}"));
        b.add_triple(s, born, cities[usize::from(i % 29 == 0)]);
    }
    let snap = b.freeze();
    assert_eq!(snap.len(), SEAM_FRAMES * FRAME + BULK, "the seam rows must be distinct facts");
    (snap.into(), leads)
}

/// The tuple scan, the batch scan and the count of one pattern.
type ScanRows = (Vec<Triple>, Vec<Triple>, usize);

/// Everything a pattern answers: the tuple scan, the batch scan and
/// the count.
fn scan<K: KbRead>(view: &K, pattern: &TriplePattern) -> ScanRows {
    let mut rows = Vec::new();
    let mut batch = TripleBatch::new();
    let mut batches = view.matching_batches(pattern);
    while batches.next_batch(&mut batch) {
        rows.extend((0..batch.len()).map(|i| batch.row(i)));
    }
    (view.matching_triples(pattern), rows, view.count_matching(pattern))
}

/// [`scan`] plus the facts of the `matching_iter` scan, confidence,
/// source and span included: the one scan that reads fact ids.
fn scan_facts<K: KbRead>(view: &K, pattern: &TriplePattern) -> (ScanRows, Vec<Fact>) {
    (scan(view, pattern), view.matching_iter(pattern).cloned().collect())
}

/// Patterns at every seam of [`seam_base`]: ranges that start and end
/// exactly on, one row before and one row after every frame boundary —
/// in all three permutations, narrowed by a second bound term,
/// post-filtered (`s?o`), over the last partial frame, and past the end
/// of the bucket array.
fn seam_patterns<K: KbRead>(oracle: &K, leads: &[Vec<TermId>; 3]) -> Vec<TriplePattern> {
    let by_role = [TriplePattern::with_s, TriplePattern::with_p, TriplePattern::with_o];
    let mut patterns = vec![TriplePattern::any()];
    for (terms, with) in leads.iter().zip(by_role) {
        patterns.extend(terms.iter().map(|&t| with(t)));
    }
    // Two bound terms: a binary search inside a seam bucket, and the
    // post-filtered `s?o` shape.
    for t in oracle.matching_triples(&TriplePattern::any()).into_iter().step_by(1021).take(64) {
        patterns.extend([
            TriplePattern::with_sp(t.s, t.p),
            TriplePattern::with_po(t.p, t.o),
            TriplePattern::with_so(t.s, t.o),
            TriplePattern::exact(t),
        ]);
    }
    // The bulk: ranges of 35 frames and a partial one, narrowing whose
    // probes jump across them, and subjects of the last partial frame.
    let term = |name: &str| oracle.term(name).unwrap();
    let (born, big, small) = (term("bornIn"), term("city_big"), term("city_small"));
    let last = term(&format!("person_{}", BULK - 1));
    patterns.extend([
        TriplePattern::with_p(born),
        TriplePattern::with_o(big),
        TriplePattern::with_o(small),
        TriplePattern::with_po(born, big),
        TriplePattern::with_po(born, small),
        TriplePattern::with_s(last),
        TriplePattern::with_so(last, big),
        TriplePattern::with_so(term("person_0"), small),
        TriplePattern::with_sp(term("person_17"), born),
        // No bucket: the highest id is never a predicate, and an id past
        // the dictionary is nothing at all.
        TriplePattern::with_p(last),
        TriplePattern::with_s(TermId(last.0 + 7)),
        TriplePattern::with_o(TermId(u32::MAX - 1)),
    ]);
    patterns
}

/// Opens the store at `dir` under a budget nothing fits in, a budget of
/// about one page, half the frames region and no budget, and checks
/// that every pattern's batch, tuple and `matching_iter` scans, its
/// count and the N-Triples dump equal `oracle`'s. Resident bytes end
/// every call under the limit (under what one paged unit may take, for
/// the two limits a unit does not fit in).
fn answers_like_under_every_budget<K: KbRead>(dir: &Path, oracle: &K, patterns: &[TriplePattern]) {
    let region = frames_bytes(dir);
    let want: Vec<_> = patterns.iter().map(|p| scan_facts(oracle, p)).collect();
    let want_dump = ntriples::to_string(oracle).unwrap();
    for budget in [Some(1), Some(32 << 10), Some(region / 2), None] {
        let store =
            SegmentStore::open_with(dir, StoreOptions { memory_budget: budget, ..NO_FSYNC })
                .unwrap();
        let view = store.view();
        let meter = store.memory_budget();
        // One paged unit may stay resident however small the limit.
        let ceiling = budget.map_or(usize::MAX, |limit| limit.max(region / 4));
        for (pattern, want_one) in patterns.iter().zip(&want) {
            assert_eq!(&scan_facts(&view, pattern), want_one, "{pattern:?} under {budget:?}");
            assert!(
                meter.resident_bytes() <= ceiling,
                "resident {} B after {pattern:?} under {budget:?}",
                meter.resident_bytes(),
            );
        }
        assert_eq!(ntriples::to_string(&view).unwrap(), want_dump, "dump under {budget:?}");
        assert!(meter.resident_bytes() <= ceiling, "resident after the dump under {budget:?}");
        assert_eq!(meter.spills() > 0, budget.is_some(), "spills under {budget:?}");
    }
}

/// Differential at every seam: a store whose columns hold a hundred
/// frames answers every [`seam_patterns`] pattern under every budget
/// byte-identically to the eager open of the same file.
#[test]
fn every_seam_answers_like_the_eager_open_under_every_budget() {
    let dir = scratch("seams");
    let (base, leads) = seam_base();
    drop(SegmentStore::create(&dir, base, NO_FSYNC).unwrap());
    let oracle = KbSnapshot::open_segment(dir.join("base-0.seg")).unwrap();
    assert!(oracle.index_stats().frames >= 12 * (SEAM_FRAMES + 35));

    // The seam buckets are where the construction says: degrees 1, 1022,
    // 1 down every role, on the lowest ids of the role.
    let by_role = [TriplePattern::with_s, TriplePattern::with_p, TriplePattern::with_o];
    for (terms, with) in leads.iter().zip(by_role) {
        for (i, &t) in terms.iter().enumerate() {
            assert_eq!(oracle.count_matching(&with(t)), [1, 1022, 1][i % 3]);
        }
    }
    let patterns = seam_patterns(&oracle, &leads);
    assert_eq!(oracle.matching_triples(&patterns[0]).len(), SEAM_FRAMES * FRAME + BULK);
    answers_like_under_every_budget(&dir, &oracle, &patterns);
    std::fs::remove_dir_all(&dir).ok();
}

/// The seam differential over a stacked view: a sealed delta shadows
/// (with its own confidence and source) and tombstones rows on both
/// sides of frame boundaries and inside the seam buckets, of the bulk
/// and of its last partial frame, and adds facts inside seam buckets.
/// The k-way merge pops every cursor it advances, so this walks the
/// fact ids decoded on demand at every seam, under every budget,
/// against the eager open of the base and delta files.
#[test]
fn every_seam_of_a_stacked_view_answers_like_the_eager_open_under_every_budget() {
    let dir = scratch("stacked-seams");
    let (base, leads) = seam_base();
    let mut store = SegmentStore::create(&dir, base, NO_FSYNC).unwrap();
    let view = store.view();
    let spo = view.matching_triples(&TriplePattern::any());
    let name = |t: TermId| view.resolve(t).unwrap().to_owned();
    let mut b = KbBuilder::new();
    let src = b.register_source("delta-source");
    let fact = |triple, confidence| Fact { triple, confidence, source: src, span: None };
    let shadow = |b: &mut KbBuilder, t: Triple, confidence: f64| {
        let [s, p, o] = [t.s, t.p, t.o].map(|x| b.intern(&name(x)));
        b.add_fact(fact(Triple::new(s, p, o), confidence));
    };
    let mut tombstones = 0;
    for k in 1..SEAM_FRAMES {
        let seam = k * FRAME;
        // Around the boundary: the last row of a frame, the first of the
        // next, and rows inside the 1 022-row bucket that follows.
        shadow(&mut b, spo[seam - 1], 0.25);
        shadow(&mut b, spo[seam + 1 + k % 3], 0.5);
        for n in [seam, seam + 2 + 5 * k] {
            let t = spo[n];
            b.retract_str(&name(t.s), &name(t.p), &name(t.o));
            tombstones += 1;
        }
        // A new fact in the seam bucket of `s`, between its rows.
        let s = b.intern(&name(spo[seam + 1].s));
        let (p, o) = (b.intern(&name(leads[1][3 * k % 192])), b.intern(&format!("o_new{k}")));
        b.add_fact(fact(Triple::new(s, p, o), 0.75));
    }
    // The bulk: every 997th person, its last partial frame, its last row.
    for i in (0..BULK).step_by(997).chain([BULK - 2]) {
        shadow(&mut b, spo[SEAM_FRAMES * FRAME + i], 0.125);
    }
    for i in (500..BULK).step_by(1013).chain([BULK - 1]) {
        let city = if i % 29 == 0 { "city_small" } else { "city_big" };
        b.retract_str(&format!("person_{i}"), "bornIn", city);
        tombstones += 1;
    }
    let delta = b.freeze_delta(&view);
    assert_eq!(delta.tombstones(), tombstones);
    assert!(delta.shadowed() > 2 * SEAM_FRAMES && delta.new_facts() == SEAM_FRAMES - 1);
    store.install_delta(Arc::new(delta)).unwrap();
    store.seal().unwrap();
    drop(store);

    let base = KbSnapshot::open_segment(dir.join("base-0.seg")).unwrap();
    let delta_file = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("delta-"))
        .expect("the sealed delta");
    let delta = DeltaSegment::open_segment(delta_file).unwrap();
    let oracle = SegmentedSnapshot::from_base(base.into()).with_delta(delta.into());
    let patterns = seam_patterns(&oracle, &leads);
    answers_like_under_every_budget(&dir, &oracle, &patterns);
    std::fs::remove_dir_all(&dir).ok();
}

/// A probe pays for what it reads: on a fresh budgeted open of the
/// hundred-frame store, one subject lookup — a bucket slot, three
/// fact-id rows — reads and keeps well under a twentieth of the frames
/// region (two column directories and two pages), not the five whole
/// columns a cursor used to pin.
#[test]
fn a_subject_probe_faults_kilobytes_not_columns() {
    let dir = scratch("probe");
    drop(SegmentStore::create(&dir, seam_base().0, NO_FSYNC).unwrap());
    let region = frames_bytes(&dir);
    let options = StoreOptions { memory_budget: Some(region / 2), ..NO_FSYNC };
    let store = SegmentStore::open_with(&dir, options).unwrap();
    let (view, meter) = (store.view(), store.memory_budget());
    let person = view.term("person_17").unwrap();
    assert_eq!(
        (meter.fault_bytes(), meter.resident_bytes()),
        (0, 0),
        "the dictionary is not paged"
    );

    assert_eq!(view.matching_triples(&TriplePattern::with_s(person)).len(), 1);
    let (read, resident) = (meter.fault_bytes(), meter.resident_bytes());
    assert!(read > 0 && resident > 0);
    assert!(read * 20 < region, "one probe read {read} B of a {region} B region");
    assert!(resident * 20 < region, "one probe left {resident} B of a {region} B region resident");
    assert!(meter.page_faults() <= 4, "{} faults for one probe", meter.page_faults());
    std::fs::remove_dir_all(&dir).ok();
}

/// Rows of a batch scan: the columnar path every query scan takes.
fn batch_rows<K: KbRead>(view: &K, pattern: &TriplePattern) -> usize {
    let (mut rows, mut batch) = (0, TripleBatch::new());
    let mut batches = view.matching_batches(pattern);
    while batches.next_batch(&mut batch) {
        rows += batch.len();
    }
    rows
}

/// A scan reads only the columns it returns. On fresh budgeted opens of
/// the hundred-frame store, a batch scan of the `bornIn` bucket (35 POS
/// frames and a partial one) reads fewer bytes than a `matching_iter`
/// scan of it, by at least the fact-id pages of its range: 35 frames of
/// 1 024 distinct fact ids pack to at least 10 bits a row. And a batch
/// scan of a 1 022-row seam bucket, whose rows sit on one page of each
/// column, faults the directory and that page of its two unbound key
/// columns and nothing more: no page of its leading column, which the
/// bucket fixes, and none of its fact ids.
#[test]
fn a_batch_scan_faults_neither_fact_ids_nor_its_fixed_leading_column() {
    let dir = scratch("batch-columns");
    let (base, leads) = seam_base();
    drop(SegmentStore::create(&dir, base, NO_FSYNC).unwrap());
    let options = StoreOptions { memory_budget: Some(frames_bytes(&dir) / 2), ..NO_FSYNC };
    let read_by_born_scan = |facts: bool| {
        let store = SegmentStore::open_with(&dir, options).unwrap();
        let view = store.view();
        let born = TriplePattern::with_p(view.term("bornIn").unwrap());
        let rows = if facts { view.matching_iter(&born).count() } else { batch_rows(&view, &born) };
        assert_eq!(rows, BULK);
        store.memory_budget().fault_bytes()
    };
    let (batch, tuple) = (read_by_born_scan(false), read_by_born_scan(true));
    let fid_pages = 35 * FRAME * 10 / 8;
    assert!(batch + fid_pages <= tuple, "batch scan read {batch} B, matching_iter {tuple} B");

    let store = SegmentStore::open_with(&dir, options).unwrap();
    let (view, meter) = (store.view(), store.memory_budget());
    // A one-row bucket on the same page: the bucket slots and the fact
    // ids, through the small-range path.
    assert_eq!(view.matching_triples(&TriplePattern::with_p(leads[1][0])).len(), 1);
    let before = meter.page_faults();
    assert_eq!(batch_rows(&view, &TriplePattern::with_p(leads[1][1])), 1022);
    assert_eq!(meter.page_faults() - before, 2 * 2, "two key columns: a directory and a page each");
    std::fs::remove_dir_all(&dir).ok();
}

/// A mix over all three permutations whose pages fit the budget is
/// read from disk once: the second pass answers the same rows with the
/// fault counters where the first pass left them, and nothing was
/// spilled to make room.
#[test]
fn a_mix_that_fits_the_budget_faults_nothing_on_its_second_pass() {
    let dir = scratch("second-pass");
    let (base, leads) = seam_base();
    drop(SegmentStore::create(&dir, base, NO_FSYNC).unwrap());
    let options = StoreOptions { memory_budget: Some(frames_bytes(&dir) / 2), ..NO_FSYNC };
    let store = SegmentStore::open_with(&dir, options).unwrap();
    let (view, meter) = (store.view(), store.memory_budget());
    let term = |name: &str| view.term(name).unwrap();
    let (born, small) = (term("bornIn"), term("city_small"));
    let mut mix = vec![TriplePattern::with_p(born), TriplePattern::with_po(born, small)];
    for k in (1..3 * SEAM_FRAMES).step_by(48) {
        mix.extend([
            TriplePattern::with_p(leads[1][k]),
            TriplePattern::with_s(leads[0][k]),
            TriplePattern::with_o(leads[2][k]),
            TriplePattern::with_s(term(&format!("person_{}", k * 100))),
        ]);
    }
    let first: Vec<_> = mix.iter().map(|p| scan(&view, p)).collect();
    let (faults, read) = (meter.page_faults(), meter.fault_bytes());
    assert!(first.iter().map(|(rows, ..)| rows.len()).sum::<usize>() > BULK);
    assert!(faults > 0 && meter.spills() == 0, "{faults} faults, {} spills", meter.spills());

    let second: Vec<_> = mix.iter().map(|p| scan(&view, p)).collect();
    assert_eq!(second, first);
    assert_eq!((meter.page_faults(), meter.fault_bytes(), meter.spills()), (faults, read, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// Seals one delta onto a `sized_base(people)` store in `dir`: `new`
/// newcomers born in a city, a shadow of every tenth base person and a
/// tombstone of every twentieth, offset by five. Returns the sealed
/// delta's file.
fn store_with_sealed_delta(dir: &Path, people: usize, new: usize) -> PathBuf {
    let mut store = SegmentStore::create(dir, sized_base(people), NO_FSYNC).unwrap();
    let mut b = KbBuilder::new();
    for i in 0..new {
        b.assert_str(&format!("newcomer_{i}"), "bornIn", &format!("city_{}", i % 50));
    }
    for i in (0..people).step_by(10) {
        b.assert_str(&format!("person_{i}"), "bornIn", &format!("city_{}", i % 50));
    }
    for i in (5..people).step_by(20) {
        b.retract_str(&format!("person_{i}"), "bornIn", &format!("city_{}", i % 50));
    }
    let delta = b.freeze_delta(&store.view());
    assert_eq!((delta.new_facts(), delta.tombstones()), (new, people.div_ceil(20)));
    store.install_delta(Arc::new(delta)).unwrap();
    store.seal().unwrap();
    drop(store);
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("delta-"))
        .expect("the sealed delta")
}

/// The index stats of paged columns come from the region's layout and
/// equal what the resident open of the same file counts, for a lazily
/// opened base and for a delta paged under a bounded budget; reading
/// them faults no page.
#[test]
fn paged_index_stats_equal_the_resident_open_of_the_same_file() {
    let dir = scratch("paged-stats");
    let delta_file = store_with_sealed_delta(&dir, 5000, 2400);
    let options = StoreOptions { memory_budget: Some(64 << 10), ..NO_FSYNC };
    let store = SegmentStore::open_with(&dir, options).unwrap();
    let view = store.view();
    let resident_base = KbSnapshot::open_segment(dir.join("base-0.seg")).unwrap();
    let resident_delta = DeltaSegment::open_segment(&delta_file).unwrap();
    let (base, delta) = (view.base().index_stats(), view.deltas()[0].index_stats());
    assert_eq!(base, resident_base.index_stats());
    assert_eq!(delta, resident_delta.index_stats());
    assert_eq!(base.entries, 3 * resident_base.len());
    assert_eq!(delta.entries, 3 * resident_delta.len());
    assert!(base.frames > 3 * 4 && base.compressed_bytes > 0);
    assert_eq!(store.memory_budget().page_faults(), 0, "stats read the layout, not a page");
    std::fs::remove_dir_all(&dir).ok();
}

/// Writing a file-backed segment reads each paged column whole: a
/// lazily opened base and a delta paged under a 64 KiB budget write
/// files that reopen resident to the store's own view — the same
/// N-Triples dump and index stats — and that are byte for byte the
/// files the store wrote.
#[test]
fn a_paged_base_and_delta_write_segments_that_reopen_like_the_store() {
    let dir = scratch("rewrite");
    let delta_file = store_with_sealed_delta(&dir, 1500, 600);
    let options = StoreOptions { memory_budget: Some(64 << 10), ..NO_FSYNC };
    let store = SegmentStore::open_with(&dir, options).unwrap();
    let view = store.view();
    let out = dir.join("rewritten");
    std::fs::create_dir_all(&out).unwrap();
    view.base().write_segment(out.join("base.seg")).unwrap();
    view.deltas()[0].write_segment(out.join("delta.seg")).unwrap();

    let reopened = SegmentedSnapshot::from_base(
        KbSnapshot::open_segment(out.join("base.seg")).unwrap().into(),
    )
    .with_delta(DeltaSegment::open_segment(out.join("delta.seg")).unwrap().into());
    assert_eq!(ntriples::to_string(&reopened).unwrap(), ntriples::to_string(&view).unwrap());
    assert_eq!(reopened.index_stats(), view.index_stats());
    let bytes = |path: PathBuf| std::fs::read(path).unwrap();
    assert!(bytes(out.join("base.seg")) == bytes(dir.join("base-0.seg")), "base differs");
    assert!(bytes(out.join("delta.seg")) == bytes(delta_file), "delta differs");
    std::fs::remove_dir_all(&dir).ok();
}
