//! One segment image, one reader: the eager doors
//! (`KbSnapshot::open_segment`, `DeltaSegment::open_segment`), the lazy
//! door (`SegmentStore::open_with`, then `view().prefault()`) and WAL
//! replay all decode an image with the same code, so they must give the
//! same verdict on the same bytes — the same damaged region for a base,
//! the same refusal for a delta, the same entries from a WAL payload and
//! from the sealed file, a corrupt header for any version but the one
//! the writer writes, and a corrupt facts region for a fact table that
//! holds one triple twice. An extension term that repeats one already
//! in the id space is refused by the stack: an older delta's at
//! install, the base's at compaction.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use kbkit::kb_store::{
    ntriples, segment_io, Compactor, DeltaSegment, Fact, FactKind, KbBuilder, KbRead, KbSnapshot,
    SegmentRegion, SegmentStore, SegmentedSnapshot, StoreError, StoreOptions, TimeSpan, Triple,
    Wal,
};

const NO_FSYNC: StoreOptions = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };
/// Unbounded, and a budget no column fits in.
const BUDGETS: [Option<usize>; 2] = [None, Some(1)];
const BASE: &str = "base-0.seg";
const DELTA: &str = "delta-0-1.seg";
const WAL: &str = "wal-0.log";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kbkit-image-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Every base region non-empty: spans, a taxonomy edge, a sameAs link,
/// a label, a named source.
fn rich_base() -> Arc<KbSnapshot> {
    let mut b = KbBuilder::new();
    let src = b.register_source("image-source");
    let born = b.intern("bornIn");
    for i in 0..8 {
        let s = b.intern(&format!("person_{i}"));
        let o = b.intern(&format!("city_{}", i % 3));
        b.add_fact(Fact {
            triple: Triple::new(s, born, o),
            confidence: 0.5 + 0.05 * i as f64,
            source: src,
            span: TimeSpan::parse("[1990,2000]"),
        });
    }
    let (person, entity) = (b.intern("person"), b.intern("entity"));
    b.taxonomy.add_subclass(person, entity).unwrap();
    let (a, alias) = (b.intern("person_0"), b.intern("p0_alias"));
    b.sameas.declare(a, alias);
    let en = b.labels.lang("en");
    b.labels.add(a, en, "Person Zero");
    b.freeze().into()
}

/// A new fact with a new term and source, a shadow, and two tombstones.
fn delta_over(view: &SegmentedSnapshot) -> Arc<DeltaSegment> {
    let mut b = KbBuilder::new();
    let src = b.register_source("delta-source");
    let triple = Triple::new(b.intern("person_0"), b.intern("wonPrize"), b.intern("some_prize"));
    b.add_fact(Fact { triple, confidence: 0.8, source: src, span: None });
    b.assert_str("person_2", "bornIn", "city_2");
    b.retract_str("person_1", "bornIn", "city_1");
    b.retract_str("person_4", "bornIn", "city_1");
    let delta = b.freeze_delta(view);
    assert_eq!((delta.new_facts(), delta.shadowed(), delta.tombstones()), (1, 1, 2));
    Arc::new(delta)
}

/// A store holding `rich_base` and, sealed, `delta_over` it.
fn sealed_store(dir: &Path) {
    let mut store = SegmentStore::create(dir, rich_base(), NO_FSYNC).unwrap();
    store.install_delta(delta_over(&store.view())).unwrap();
    store.seal().unwrap();
}

fn corrupt_region<T>(what: &str, result: Result<T, StoreError>) -> SegmentRegion {
    match result {
        Err(StoreError::Corrupt { region, .. }) => region,
        Err(other) => panic!("{what}: untyped error {other}"),
        Ok(_) => panic!("{what}: silently accepted"),
    }
}

/// The lazy door's verdict on a store directory: the error of the open,
/// or of the prefault that follows it.
fn lazy_verdict(dir: &Path, memory_budget: Option<usize>) -> Result<(), StoreError> {
    SegmentStore::open_with(dir, StoreOptions { memory_budget, ..NO_FSYNC })?.view().prefault()
}

/// First, middle and last byte of every region of the image (header
/// included), each with the region it lies in.
fn probe_offsets(image: &[u8]) -> Vec<(SegmentRegion, usize)> {
    let regions = segment_io::region_map(image).expect("region map");
    assert_eq!(regions.iter().map(|(_, r)| r.len()).sum::<usize>(), image.len());
    regions
        .into_iter()
        .flat_map(|(region, r)| {
            [r.start, (r.start + r.end) / 2, r.end - 1].map(|offset| (region, offset))
        })
        .collect()
}

#[test]
fn a_flipped_base_byte_names_the_same_region_through_the_eager_and_the_lazy_door() {
    let dir = scratch("base");
    drop(SegmentStore::create(&dir, rich_base(), NO_FSYNC).unwrap());
    let path = dir.join(BASE);
    let image = std::fs::read(&path).unwrap();
    for (region, offset) in probe_offsets(&image) {
        let what = format!("byte {offset} in {region}");
        let mut bad = image.clone();
        bad[offset] ^= 0xA5;
        std::fs::write(&path, &bad).unwrap();
        let eager = corrupt_region(&what, KbSnapshot::open_segment(&path));
        assert!(eager == region || eager == SegmentRegion::Header, "{what} reported as {eager}");
        for budget in BUDGETS {
            let lazy = corrupt_region(&what, lazy_verdict(&dir, budget));
            assert_eq!(lazy, eager, "{what}, budget {budget:?}: the doors disagree");
        }
    }
    std::fs::write(&path, &image).unwrap();
    assert!(KbSnapshot::open_segment(&path).is_ok());
    for budget in BUDGETS {
        lazy_verdict(&dir, budget).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Recomputes every region's checksum and the header's, so that what a
/// test wrote inside a region is all that is wrong with the image. The
/// region table follows the 16-byte preamble (`… · header_crc u32`) and
/// its count: `tag u8 · offset u64 · len u64 · crc u32` per region.
fn reseal(image: &mut [u8]) {
    let regions = segment_io::region_map(image).expect("the header is intact");
    for (entry, (_, range)) in regions[1..].iter().enumerate() {
        let crc_at = 20 + entry * 21 + 17;
        let crc = segment_io::crc32(&image[range.clone()]);
        image[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    }
    let crc = segment_io::crc32(&image[16..regions[0].1.end]);
    image[12..16].copy_from_slice(&crc.to_le_bytes());
}

/// Offset of descriptor `frame` of column `col` in a frames region that
/// starts at `at`: per column `rows u32 · frames u32`, ten bytes a
/// descriptor (`base u32 · enc u8 · width u8 · end u32`), then
/// `payload_len u32` and the payload.
fn descriptor_at(image: &[u8], mut at: usize, col: usize, frame: usize) -> usize {
    let u32_at = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
    for _ in 0..col {
        let payload_len_at = at + 8 + 10 * u32_at(at + 4);
        at = payload_len_at + 4 + u32_at(payload_len_at);
    }
    assert!(frame < u32_at(at + 4), "column {col} has no frame {frame}");
    at + 8 + 10 * frame
}

/// Frame descriptors that are wrong under valid checksums — an encoding
/// nobody writes, payload offsets running backwards — are the same
/// typed error through both doors: the lazy door reads all fifteen
/// columns' descriptors at `prefault`, it does not wait for the first
/// query to trip over them.
#[test]
fn damaged_frame_descriptors_under_valid_checksums_fail_prefault_like_the_eager_open() {
    let dir = scratch("descriptors");
    let mut b = KbBuilder::new();
    for i in 0..1100 {
        b.assert_str(&format!("person_{i}"), "bornIn", &format!("city_{}", i % 3));
    }
    drop(SegmentStore::create(&dir, b.freeze().into(), NO_FSYNC).unwrap());
    let path = dir.join(BASE);
    let image = std::fs::read(&path).unwrap();
    let (_, frames) = segment_io::region_map(&image)
        .unwrap()
        .into_iter()
        .find(|(region, _)| *region == SegmentRegion::Frames)
        .unwrap();
    // (column, frame, byte of the descriptor, value): the encoding of
    // the first and of the last column's first frame, and the second
    // frame of the SPO subject column ending before the first.
    let first_end = descriptor_at(&image, frames.start, 0, 0) + 6;
    assert_ne!(image[first_end..first_end + 4], [0; 4], "frame 0 of column 0 has a payload");
    for (col, frame, byte, value) in [(0, 0, 4, 9u8), (14, 0, 4, 9), (0, 1, 6, 0), (0, 1, 7, 0)] {
        let what = format!("descriptor {frame} of column {col}, byte {byte}");
        let mut bad = image.clone();
        let at = descriptor_at(&bad, frames.start, col, frame) + byte;
        if bad[at] == value {
            continue; // the high byte of a small offset is zero already
        }
        bad[at] = value;
        reseal(&mut bad);
        std::fs::write(&path, &bad).unwrap();
        let eager = corrupt_region(&what, KbSnapshot::open_segment(&path));
        assert_eq!(eager, SegmentRegion::Frames, "{what}");
        for budget in BUDGETS {
            let lazy = corrupt_region(&what, lazy_verdict(&dir, budget));
            assert_eq!(lazy, SegmentRegion::Frames, "{what}, budget {budget:?}");
        }
    }
    // Resealing an undamaged image changes nothing.
    let mut same = image.clone();
    reseal(&mut same);
    assert_eq!(same, image);
    std::fs::remove_dir_all(&dir).ok();
}

/// The store does not fail on a bad delta, it sets it aside; so the
/// doors agree when every image `DeltaSegment::open_segment` refuses is
/// quarantined as a sealed file (either budget) and as a WAL payload,
/// and the store serves the base alone.
#[test]
fn a_flipped_delta_byte_is_refused_by_the_eager_door_and_set_aside_by_the_store() {
    let template = scratch("delta-template");
    sealed_store(&template);
    let image = std::fs::read(template.join(DELTA)).unwrap();
    let names: Vec<String> =
        segment_io::region_map(&image).unwrap().iter().map(|(r, _)| r.to_string()).collect();
    assert!(names.iter().any(|n| n.contains("delta")), "delta regions present: {names:?}");
    let base_only = ntriples::to_string(&*rich_base()).unwrap();

    let dir = scratch("delta");
    for (region, offset) in probe_offsets(&image) {
        let what = format!("byte {offset} in {region}");
        let mut bad = image.clone();
        bad[offset] ^= 0xA5;

        copy_dir(&template, &dir);
        std::fs::write(dir.join(DELTA), &bad).unwrap();
        let eager = corrupt_region(&what, DeltaSegment::open_segment(dir.join(DELTA)));
        assert!(eager == region || eager == SegmentRegion::Header, "{what} reported as {eager}");

        for budget in BUDGETS {
            copy_dir(&template, &dir);
            std::fs::write(dir.join(DELTA), &bad).unwrap();
            let store =
                SegmentStore::open_with(&dir, StoreOptions { memory_budget: budget, ..NO_FSYNC })
                    .unwrap_or_else(|e| panic!("{what}: a bad delta failed the open: {e}"));
            let report = store.recovery_report();
            assert_eq!(report.sealed_deltas, 0, "{what}, budget {budget:?}");
            assert!(report.quarantined.iter().any(|f| f.starts_with(DELTA)), "{what}: {report:?}");
            assert_eq!(ntriples::to_string(&store.view()).unwrap(), base_only, "{what}");
        }

        // The same image as a WAL payload: the record frames correctly
        // (its CRC is over the damaged payload), the payload is refused.
        std::fs::remove_dir_all(&dir).ok();
        drop(SegmentStore::create(&dir, rich_base(), NO_FSYNC).unwrap());
        Wal::create(dir.join(WAL), 0, false).unwrap().append(1, &bad).unwrap();
        let store = SegmentStore::open_with(&dir, NO_FSYNC).unwrap();
        assert_eq!(store.recovery_report().wal_replayed, 0, "{what} replayed from the WAL");
        assert!(store.recovery_report().degraded(), "{what}");
        assert_eq!(ntriples::to_string(&store.view()).unwrap(), base_only, "{what}");
    }
    for dir in [template, dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

fn entries(delta: &DeltaSegment) -> Vec<(Fact, FactKind)> {
    delta.entries_iter().map(|(fact, kind)| (fact.clone(), kind)).collect()
}

#[test]
fn a_delta_decodes_the_same_from_its_wal_payload_and_from_its_sealed_file() {
    let dir = scratch("wal-vs-file");
    let mut store = SegmentStore::create(&dir, rich_base(), NO_FSYNC).unwrap();
    let original = delta_over(&store.view());
    store.install_delta(Arc::clone(&original)).unwrap();
    drop(store);

    // Unsealed: recovery decodes the WAL payload.
    let payload = Wal::replay(dir.join(WAL)).unwrap().records.remove(0).1;
    let mut store = SegmentStore::open_with(&dir, NO_FSYNC).unwrap();
    assert_eq!(store.recovery_report().wal_replayed, 1);
    let from_wal = Arc::clone(&store.view().deltas()[0]);
    let dump = ntriples::to_string(&store.view()).unwrap();
    store.seal().unwrap();
    drop(store);

    // Sealed: the file holds the bytes the WAL held, and every door
    // that reads it decodes the same delta.
    assert_eq!(std::fs::read(dir.join(DELTA)).unwrap(), payload);
    let eager = DeltaSegment::open_segment(dir.join(DELTA)).unwrap();
    let mut from_file = vec![Arc::new(eager)];
    for budget in BUDGETS {
        let store =
            SegmentStore::open_with(&dir, StoreOptions { memory_budget: budget, ..NO_FSYNC })
                .unwrap();
        assert_eq!((store.recovery_report().sealed_deltas, store.unsealed_count()), (1, 0));
        store.view().prefault().unwrap();
        assert_eq!(ntriples::to_string(&store.view()).unwrap(), dump, "budget {budget:?}");
        from_file.push(Arc::clone(&store.view().deltas()[0]));
    }
    assert_eq!(entries(&from_wal), entries(&original));
    for delta in &from_file {
        assert_eq!(entries(delta), entries(&from_wal));
        assert_eq!(delta.first_term(), from_wal.first_term());
        assert_eq!(delta.touched_predicates(), from_wal.touched_predicates());
        assert_eq!(delta.net_live(), from_wal.net_live());
    }
    // Resident indexes re-serialize to the image they were read from.
    for delta in [&from_wal, &from_file[0]] {
        let rewritten = dir.join("rewritten.seg");
        delta.write_segment(&rewritten).unwrap();
        assert_eq!(std::fs::read(&rewritten).unwrap(), payload);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// There is one format version. An image that says 1 (the retired
/// raw-permutation layout) or 3 is as foreign as one that says 99.
#[test]
fn any_other_format_version_is_a_corrupt_header_through_every_door() {
    let template = scratch("version-template");
    sealed_store(&template);
    let dir = scratch("version");
    for version in [1u8, 3] {
        let with_version = |name: &str| {
            let mut image = std::fs::read(template.join(name)).unwrap();
            assert_eq!(image[4..8], segment_io::FORMAT_VERSION.to_le_bytes());
            image[4] = version;
            image
        };
        copy_dir(&template, &dir);
        std::fs::write(dir.join(BASE), with_version(BASE)).unwrap();
        let eager = corrupt_region("base", KbSnapshot::open_segment(dir.join(BASE)));
        assert_eq!(eager, SegmentRegion::Header, "version {version}");
        for budget in BUDGETS {
            let lazy = corrupt_region("base", lazy_verdict(&dir, budget));
            assert_eq!(lazy, SegmentRegion::Header, "version {version}, budget {budget:?}");
        }

        copy_dir(&template, &dir);
        std::fs::write(dir.join(DELTA), with_version(DELTA)).unwrap();
        let eager = corrupt_region("delta", DeltaSegment::open_segment(dir.join(DELTA)));
        assert_eq!(eager, SegmentRegion::Header, "version {version}");
        let store = SegmentStore::open_with(&dir, NO_FSYNC).unwrap();
        assert!(store.recovery_report().quarantined.iter().any(|f| f.starts_with(DELTA)));
    }
    for dir in [template, dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Makes fact 1 of a segment image repeat fact 0's triple and reseals
/// it. The facts region opens with its row count; a row is `s u32 · p
/// u32 · o u32 · confidence u64 · source u32 · span flag u8`, then, if
/// the flag is 1, `len u16` and the span's text.
fn repeat_first_triple(image: &mut [u8]) {
    let (_, facts) = segment_io::region_map(image)
        .unwrap()
        .into_iter()
        .find(|(region, _)| *region == SegmentRegion::Facts)
        .unwrap();
    let first = facts.start + 4;
    let flag_at = first + 24;
    let second = match image[flag_at] {
        0 => flag_at + 1,
        _ => flag_at + 3 + u16::from_le_bytes([image[flag_at + 1], image[flag_at + 2]]) as usize,
    };
    let triple: [u8; 12] = image[first..first + 12].try_into().unwrap();
    assert_ne!(image[second..second + 12], triple, "facts 0 and 1 already share a triple");
    image[second..second + 12].copy_from_slice(&triple);
    reseal(image);
}

/// A fact table that holds one triple twice, under valid checksums, is
/// a corrupt facts region through every door: the eager open and the
/// lazy open's first fault of a base, the eager open of a delta and the
/// replay of the same delta as a WAL payload, which sets it aside.
#[test]
fn a_repeated_triple_under_valid_checksums_is_a_corrupt_facts_region_through_every_door() {
    let template = scratch("repeat-template");
    sealed_store(&template);
    let dir = scratch("repeat");

    let mut base = std::fs::read(template.join(BASE)).unwrap();
    repeat_first_triple(&mut base);
    copy_dir(&template, &dir);
    std::fs::write(dir.join(BASE), &base).unwrap();
    let eager = corrupt_region("base", KbSnapshot::open_segment(dir.join(BASE)));
    assert_eq!(eager, SegmentRegion::Facts);
    for budget in BUDGETS {
        let lazy = corrupt_region("base", lazy_verdict(&dir, budget));
        assert_eq!(lazy, SegmentRegion::Facts, "budget {budget:?}");
    }

    let mut delta = std::fs::read(template.join(DELTA)).unwrap();
    repeat_first_triple(&mut delta);
    copy_dir(&template, &dir);
    std::fs::write(dir.join(DELTA), &delta).unwrap();
    let eager = corrupt_region("delta", DeltaSegment::open_segment(dir.join(DELTA)));
    assert_eq!(eager, SegmentRegion::Facts);
    std::fs::remove_dir_all(&dir).ok();
    drop(SegmentStore::create(&dir, rich_base(), NO_FSYNC).unwrap());
    Wal::create(dir.join(WAL), 0, false).unwrap().append(1, &delta).unwrap();
    let store = SegmentStore::open_with(&dir, NO_FSYNC).unwrap();
    assert_eq!(store.recovery_report().wal_replayed, 0, "the repeated triple was replayed");
    assert!(store.recovery_report().degraded());
    assert_eq!(
        ntriples::to_string(&store.view()).unwrap(),
        ntriples::to_string(&*rich_base()).unwrap()
    );
    for dir in [template, dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A store over `rich_base` with two sealed deltas, the first adding
/// term `first`, the second `second`; returns the second's file name.
fn two_delta_store(dir: &Path, first: &str, second: &str) -> &'static str {
    let mut store = SegmentStore::create(dir, rich_base(), NO_FSYNC).unwrap();
    for term in [first, second] {
        let mut b = KbBuilder::new();
        b.assert_str("person_0", "visited", term);
        store.install_delta(Arc::new(b.freeze_delta(&store.view()))).unwrap();
    }
    store.seal().unwrap();
    "delta-0-2.seg"
}

/// Rewrites the one occurrence of `from` inside the dictionary region
/// of the delta file `name` as `to` (the same length) and reseals it.
fn rename_extension_term(dir: &Path, name: &str, from: &str, to: &str) {
    assert_eq!(from.len(), to.len());
    let mut image = std::fs::read(dir.join(name)).unwrap();
    let (_, dict) = segment_io::region_map(&image)
        .unwrap()
        .into_iter()
        .find(|(region, _)| *region == SegmentRegion::Dictionary)
        .unwrap();
    let at = image[dict.clone()].windows(from.len()).position(|w| w == from.as_bytes());
    let at = dict.start + at.expect("the term is in the extension table");
    image[at..at + to.len()].copy_from_slice(to.as_bytes());
    reseal(&mut image);
    std::fs::write(dir.join(name), &image).unwrap();
}

/// A delta whose extension table repeats a term an older delta added,
/// under valid checksums, decodes (the image alone holds no repeat),
/// but the stack refuses it at install: the store sets it aside and
/// serves the base and the older delta, under either budget.
#[test]
fn a_term_an_older_delta_added_is_refused_at_install_and_set_aside() {
    let template = scratch("repeat-delta-term-template");
    let second = two_delta_store(&template, "prize_a", "prize_b");
    let first_only = {
        let view = SegmentedSnapshot::from_base(rich_base());
        let mut b = KbBuilder::new();
        b.assert_str("person_0", "visited", "prize_a");
        ntriples::to_string(&view.with_delta(Arc::new(b.freeze_delta(&view)))).unwrap()
    };
    rename_extension_term(&template, second, "prize_b", "prize_a");
    DeltaSegment::open_segment(template.join(second)).expect("the image alone is sound");

    let dir = scratch("repeat-delta-term");
    for budget in BUDGETS {
        copy_dir(&template, &dir);
        let store =
            SegmentStore::open_with(&dir, StoreOptions { memory_budget: budget, ..NO_FSYNC })
                .unwrap();
        let report = store.recovery_report();
        assert_eq!(report.sealed_deltas, 1, "budget {budget:?}");
        assert!(report.quarantined.iter().any(|f| f.starts_with(second)), "{report:?}");
        let view = store.view();
        assert_eq!(ntriples::to_string(&view).unwrap(), first_only, "budget {budget:?}");
        let id = view.term("prize_a").unwrap();
        assert_eq!((view.resolve(id), view.term_count()), (Some("prize_a"), id.index() + 1));
    }
    for dir in [template, dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A delta whose extension table repeats a base term, under valid
/// checksums, installs: stacking reads only a lazy base's counts. Its
/// compaction is refused as a corrupt dictionary instead of folding a
/// snapshot one term short, and the store keeps serving the stack it
/// had, under either budget.
#[test]
fn a_term_the_base_holds_is_refused_at_compaction() {
    let template = scratch("repeat-base-term-template");
    let second = two_delta_store(&template, "prize_a", "city_9");
    rename_extension_term(&template, second, "city_9", "city_1");

    let dir = scratch("repeat-base-term");
    for budget in BUDGETS {
        copy_dir(&template, &dir);
        let options = StoreOptions { memory_budget: budget, ..NO_FSYNC };
        let mut store = SegmentStore::open_with(&dir, options).unwrap();
        assert!(!store.recovery_report().degraded(), "budget {budget:?}");
        assert_eq!(store.view().delta_count(), 2);
        let dump = ntriples::to_string(&store.view()).unwrap();
        let err = store.compact(&Compactor::default(), true);
        assert_eq!(corrupt_region("compaction", err), SegmentRegion::Dictionary);
        assert_eq!(store.view().delta_count(), 2, "budget {budget:?}");
        assert_eq!(ntriples::to_string(&store.view()).unwrap(), dump, "budget {budget:?}");
        drop(store);
        let store = SegmentStore::open_with(&dir, options).unwrap();
        assert_eq!(store.view().delta_count(), 2, "the failed compaction changed the store");
    }
    for dir in [template, dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}
