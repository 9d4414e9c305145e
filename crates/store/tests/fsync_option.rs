//! `StoreOptions::fsync` must reach every file the segment store
//! writes, not only the WAL and the manifest.
//!
//! The evidence is the process-global `store.fsyncs` counter, which
//! every sync the store issues goes through. This file holds a single
//! test so that nothing else in its process moves that counter.

use std::sync::Arc;

use kb_store::{Compactor, KbBuilder, KbRead, SegmentStore, StoreOptions};

const INSTALLS: u64 = 3;

/// create → `INSTALLS` installs → seal → forced compact, returning how
/// many syncs the store issued along the way.
fn lifecycle(name: &str, options: StoreOptions) -> u64 {
    let dir = std::env::temp_dir().join(format!("kbstore-fsync-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let syncs = kb_obs::global().counter("store.fsyncs");
    let before = syncs.get();

    let mut base = KbBuilder::new();
    base.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
    let mut store = SegmentStore::create(&dir, base.freeze().into_shared(), options).unwrap();
    for i in 0..INSTALLS {
        let mut b = KbBuilder::new();
        b.assert_str(&format!("Person_{i}"), "bornIn", "San_Jose");
        let delta = b.freeze_delta(&store.view());
        store.install_delta(Arc::new(delta)).unwrap();
    }
    store.seal().unwrap();
    assert!(store.compact(&Compactor::default(), true).unwrap());
    assert_eq!(store.view().len(), 1 + INSTALLS as usize);

    std::fs::remove_dir_all(&dir).ok();
    syncs.get() - before
}

#[test]
fn fsync_option_reaches_segment_files() {
    let off = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };
    assert_eq!(lifecycle("off", off), 0, "fsync: false must not sync any file or directory");

    // Under the default every artifact is synced together with its
    // directory entry: create and compact each write a base segment, a
    // WAL header and the manifest (3 × 2); an install is one WAL
    // barrier; a seal writes one file per delta plus the manifest and
    // a fresh WAL header.
    let on = StoreOptions { seal_every: 0, ..StoreOptions::default() };
    let (create, compact, seal) = (6, 6, 2 * INSTALLS + 4);
    assert_eq!(lifecycle("on", on), create + INSTALLS + seal + compact);
}
