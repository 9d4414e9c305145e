//! Corruption-injection suite for the durable segment store: flip one
//! byte in every region of every on-disk artifact — base segment
//! header, dictionary, permutation columns, delta segments, WAL records,
//! manifest — and prove the store answers with a *typed*
//! [`StoreError::Corrupt`] naming the damaged region. It must never
//! panic, and it must never serve a silently-wrong KB.

use std::path::PathBuf;
use std::sync::Arc;

use kbkit::kb_store::{
    ntriples, segment_io, DeltaSegment, KbBuilder, KbSnapshot, SegmentRegion, SegmentStore,
    SegmentedSnapshot, StoreError, StoreOptions, Wal,
};

const NO_FSYNC: StoreOptions = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kbkit-corrupt-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small but fully-featured KB: confidences, spans, taxonomy edges,
/// sameAs links and labels, so every segment region is non-empty.
fn rich_base() -> Arc<KbSnapshot> {
    let mut b = KbBuilder::new();
    let src = b.register_source("test-source");
    for i in 0..8 {
        let s = b.intern(&format!("person_{i}"));
        let p = b.intern("bornIn");
        let o = b.intern(&format!("city_{}", i % 3));
        b.add_fact(kbkit::kb_store::Fact {
            triple: kbkit::kb_store::Triple::new(s, p, o),
            confidence: 0.5 + 0.05 * i as f64,
            source: src,
            span: kbkit::kb_store::TimeSpan::parse("[1990,2000]"),
        });
    }
    let person = b.intern("person");
    let entity = b.intern("entity");
    b.taxonomy.add_subclass(person, entity).unwrap();
    let a = b.intern("person_0");
    let a2 = b.intern("p0_alias");
    b.sameas.declare(a, a2);
    let en = b.labels.lang("en");
    b.labels.add(a, en, "Person Zero");
    b.freeze().into()
}

fn delta_over(view: &SegmentedSnapshot) -> DeltaSegment {
    let mut b = KbBuilder::new();
    b.assert_str("person_0", "wonPrize", "some_prize");
    b.retract_str("person_1", "bornIn", "city_1");
    b.freeze_delta(view)
}

/// Every single-byte flip in a base segment must surface as `Corrupt`
/// naming the region the byte belongs to.
#[test]
fn base_segment_flips_report_the_damaged_region() {
    let dir = scratch("base-regions");
    let base = rich_base();
    let path = dir.join("base.seg");
    base.write_segment(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let regions = segment_io::region_map(&bytes).expect("region map");
    // The map must cover the whole file, so the sweep below visits
    // every region (header included).
    assert_eq!(regions.iter().map(|(_, r)| r.len()).sum::<usize>(), bytes.len());

    for (region, range) in &regions {
        // Flip the first, middle, and last byte of each region.
        for offset in [range.start, (range.start + range.end) / 2, range.end - 1] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0xA5;
            std::fs::write(&path, &bad).unwrap();
            match KbSnapshot::open_segment(&path) {
                Err(StoreError::Corrupt { region: reported, .. }) => {
                    // Structural preamble damage (magic/version/length
                    // fields) is always attributed to the header.
                    assert!(
                        reported == *region || reported == SegmentRegion::Header,
                        "byte {offset} in {region} reported as {reported}"
                    );
                }
                Err(other) => panic!("byte {offset} in {region}: untyped error {other}"),
                Ok(_) => panic!("byte {offset} in {region} was silently accepted"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Same sweep for a delta segment (which adds the delta-metadata and
/// fact-kinds regions).
#[test]
fn delta_segment_flips_report_the_damaged_region() {
    let dir = scratch("delta-regions");
    let base = rich_base();
    let view = SegmentedSnapshot::from_base(base);
    let delta = delta_over(&view);
    let path = dir.join("delta.seg");
    delta.write_segment(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let regions = segment_io::region_map(&bytes).expect("region map");
    let names: Vec<String> = regions.iter().map(|(r, _)| r.to_string()).collect();
    assert!(names.iter().any(|n| n.contains("delta")), "delta regions present: {names:?}");

    for (region, range) in &regions {
        for offset in [range.start, range.end - 1] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0xA5;
            std::fs::write(&path, &bad).unwrap();
            match DeltaSegment::open_segment(&path) {
                Err(StoreError::Corrupt { region: reported, .. }) => {
                    assert!(
                        reported == *region || reported == SegmentRegion::Header,
                        "byte {offset} in {region} reported as {reported}"
                    );
                }
                Err(other) => panic!("byte {offset} in {region}: untyped error {other}"),
                Ok(_) => panic!("byte {offset} in {region} was silently accepted"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped byte in a WAL record is typed damage (`wal record`), and
/// recovery serves the intact prefix rather than failing or lying.
#[test]
fn wal_record_flip_is_typed_and_recovery_degrades_gracefully() {
    let dir = scratch("wal-record");
    let base = rich_base();
    let mut store = SegmentStore::create(&dir, Arc::clone(&base), NO_FSYNC).unwrap();
    let d1 = {
        let mut b = KbBuilder::new();
        b.assert_str("person_2", "wonPrize", "first_prize");
        Arc::new(b.freeze_delta(&store.view()))
    };
    store.install_delta(d1).unwrap();
    let oracle = ntriples::to_string(&store.view()).unwrap();
    let d2 = {
        let mut b = KbBuilder::new();
        b.assert_str("person_3", "wonPrize", "second_prize");
        Arc::new(b.freeze_delta(&store.view()))
    };
    store.install_delta(d2).unwrap();
    drop(store);

    let wal_path = dir.join("wal-0.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let n = bytes.len();
    bytes[n - 3] ^= 0xA5; // inside the second record's payload
    std::fs::write(&wal_path, &bytes).unwrap();

    // The WAL layer reports typed damage...
    let replay = Wal::replay(&wal_path).unwrap();
    let (err, _) = replay.damage.expect("damage reported");
    assert!(matches!(err, StoreError::Corrupt { region: SegmentRegion::WalRecord, .. }), "{err}");

    // ...and the store quarantines the damaged tail, serving the prefix.
    let store = SegmentStore::open_with(&dir, NO_FSYNC).unwrap();
    let report = store.recovery_report();
    assert!(report.degraded(), "damage must be reported, not hidden");
    assert_eq!(report.wal_replayed, 1, "intact prefix survives");
    assert_eq!(ntriples::to_string(&store.view()).unwrap(), oracle);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every flipped byte in the manifest is caught; the store refuses to
/// open rather than guessing at its file list.
#[test]
fn manifest_flips_are_hard_typed_errors() {
    let dir = scratch("manifest");
    let base = rich_base();
    drop(SegmentStore::create(&dir, base, NO_FSYNC).unwrap());
    let path = dir.join("MANIFEST");
    let bytes = std::fs::read(&path).unwrap();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xA5;
        std::fs::write(&path, &bad).unwrap();
        match SegmentStore::open_with(&dir, NO_FSYNC) {
            Err(StoreError::Corrupt { region: SegmentRegion::Manifest, .. }) => {}
            Err(other) => panic!("manifest flip at byte {i}: wrong error {other}"),
            Ok(_) => panic!("manifest flip at byte {i} was silently accepted"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Lazy opens defer region checksums to first access: a flipped byte
/// in a *cold* region must not fail `open_with` (only the preamble,
/// header and manifest are read there) but must surface as the same
/// typed `Corrupt` error — naming the damaged region — the moment the
/// region is faulted via `prefault`. Nothing is ever silently served.
#[test]
fn cold_region_flips_surface_on_first_access_not_open() {
    use kbkit::kb_store::KbRead as _;
    let dir = scratch("cold-regions");
    let base = rich_base();
    drop(SegmentStore::create(&dir, base, NO_FSYNC).unwrap());
    let path = dir.join("base-0.seg");
    let bytes = std::fs::read(&path).unwrap();
    let regions = segment_io::region_map(&bytes).expect("region map");

    for (region, range) in &regions {
        for offset in [range.start, (range.start + range.end) / 2, range.end - 1] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0xA5;
            std::fs::write(&path, &bad).unwrap();
            let opened = SegmentStore::open_with(&dir, NO_FSYNC);
            if *region == SegmentRegion::Header {
                // Structural damage is still a hard open error.
                match opened {
                    Err(StoreError::Corrupt { .. }) => continue,
                    Err(other) => panic!("header byte {offset}: untyped error {other}"),
                    Ok(_) => panic!("header byte {offset} was silently accepted"),
                }
            }
            // Data-region damage: the lazy open must succeed (open cost
            // is O(header), the cold bytes were never read) ...
            let store = opened
                .unwrap_or_else(|e| panic!("byte {offset} in {region} failed lazy open: {e}"));
            // ... and the first touch must report the damaged region.
            match store.view().prefault() {
                Err(StoreError::Corrupt { region: reported, .. }) => {
                    assert!(
                        reported == *region || reported == SegmentRegion::Header,
                        "byte {offset} in {region} reported as {reported}"
                    );
                }
                Err(other) => panic!("byte {offset} in {region}: untyped error {other}"),
                Ok(()) => panic!("byte {offset} in {region} was silently accepted"),
            }
        }
    }

    // With deltas stacked on it the lazy open does read eight cold
    // bytes: the dictionary's and the source table's count prefixes,
    // which the stacking check compares each delta against. A rotten
    // prefix must not pass for a mis-stacked delta: recovery verifies
    // those two regions before it sets anything aside, so the damage is
    // the base's hard, typed error and no file is touched.
    std::fs::remove_dir_all(&dir).ok();
    let mut store = SegmentStore::create(&dir, rich_base(), NO_FSYNC).unwrap();
    store.install_delta(Arc::new(delta_over(&store.view()))).unwrap();
    store.seal().unwrap();
    let unsealed = {
        let mut b = KbBuilder::new();
        b.assert_str("person_5", "wonPrize", "another_prize");
        Arc::new(b.freeze_delta(&store.view()))
    };
    store.install_delta(unsealed).unwrap();
    drop(store);
    let listing = || {
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect();
        files.sort();
        files
    };
    assert_eq!(listing().len(), 4, "manifest, base, one sealed delta, WAL");
    let mut bad = bytes.clone();
    let dictionary = regions.iter().find(|(r, _)| *r == SegmentRegion::Dictionary).unwrap();
    bad[dictionary.1.start] ^= 0xA5;
    std::fs::write(&path, &bad).unwrap();
    let before = listing();
    match SegmentStore::open_with(&dir, NO_FSYNC) {
        Err(StoreError::Corrupt {
            region: SegmentRegion::Dictionary | SegmentRegion::Header,
            ..
        }) => {}
        Err(other) => panic!("rotten count prefix: wrong error {other}"),
        Ok(store) => panic!(
            "rotten count prefix blamed on the deltas: {:?}",
            store.recovery_report().quarantined
        ),
    }
    assert!(before == listing(), "a refused open must leave every file as it was");
    // Repaired, the same directory opens whole.
    std::fs::write(&path, &bytes).unwrap();
    let store = SegmentStore::open_with(&dir, NO_FSYNC).unwrap();
    let report = store.recovery_report();
    assert_eq!((report.sealed_deltas, report.wal_replayed, report.degraded()), (1, 1, false));
    std::fs::remove_dir_all(&dir).ok();
}
