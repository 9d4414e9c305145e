//! End-to-end observability test: run one tiny harvest → freeze →
//! serve cycle and check that every instrumented layer reported into
//! the process-global registry, in both render formats.

use std::sync::Arc;

use kbkit::kb_corpus::{Corpus, CorpusConfig};
use kbkit::kb_harvest::pipeline::{harvest, HarvestConfig};
use kbkit::kb_obs;
use kbkit::kb_query::QueryService;
use kbkit::kb_store::{KbBuilder, SegmentStore, StoreOptions};

/// Metric families each layer must publish (matching the acceptance
/// bar for `kbkit metrics`).
const EXPECTED_FAMILIES: &[&str] = &[
    // kb-harvest pipeline
    "harvest.phase.extract_us",
    "harvest.facts.accepted",
    "harvest.docs.processed",
    // kb-store snapshot/index
    "store.snapshot.freeze_us",
    "store.snapshot.facts",
    "store.index.entries",
    // kb-store compressed frame index
    "store.index_bytes",
    "store.frames.compressed_bytes",
    "store.frames.raw_bytes",
    // kb-store resident bytes by part
    "store.bytes.facts",
    "store.bytes.by_triple",
    "store.bytes.dict",
    "store.bytes.frames",
    // kb-store durable layer (WAL + recovery)
    "store.wal.appends",
    "store.wal.replayed",
    "store.fsync_micros",
    "store.recovery.quarantined_segments",
    // kb-query serving layer
    "query.cache.result_hits",
    "query.cache.result_misses",
    "query.cache.bytes",
    "query.parse_us",
];

#[test]
fn one_pipeline_run_populates_all_three_layers() {
    let corpus = Corpus::generate(&CorpusConfig::tiny());
    let output = harvest(&corpus, &HarvestConfig::default()).expect("tiny harvest succeeds");
    let snap = output.kb.freeze().into_shared();
    let service = QueryService::new(snap);
    for _ in 0..2 {
        service.query("?p bornIn ?c").expect("query succeeds");
    }

    // Durable layer: one create → install → kill → reopen round trip in
    // a scratch directory populates the WAL and recovery families.
    let scratch = std::env::temp_dir().join(format!("kbkit-obs-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let options = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };
    let base = service.snapshot().base().clone();
    let mut store = SegmentStore::create(&scratch, Arc::clone(&base), options).expect("create");
    let mut b = KbBuilder::new();
    b.assert_str("obs_probe", "type", "probe");
    store.install_delta(Arc::new(b.freeze_delta(&store.view()))).expect("install");
    drop(store); // kill: no seal — the WAL is the only durable copy
    let store = SegmentStore::open_with(&scratch, options).expect("reopen");
    assert_eq!(store.recovery_report().wal_replayed, 1);
    drop(store);
    std::fs::remove_dir_all(&scratch).ok();

    let registry = kb_obs::global();
    let text = registry.render_text();
    let json = registry.render_json();
    for family in EXPECTED_FAMILIES {
        assert!(text.contains(family), "text table is missing {family}:\n{text}");
        assert!(json.contains(&format!("\"{family}\"")), "JSON is missing {family}:\n{json}");
    }

    // The query ran twice, so the serving layer saw at least one hit
    // and one miss; the harvest accepted at least one fact; the durable
    // round trip logged and replayed at least one WAL record.
    assert!(registry.counter("query.cache.result_hits").get() >= 1);
    assert!(registry.counter("query.cache.result_misses").get() >= 1);
    // The service still holds the answer it cached.
    assert!(registry.gauge("query.cache.bytes").get() > 0, "query.cache.bytes after a query");
    assert!(registry.counter("harvest.facts.accepted").get() >= 1);
    assert!(registry.counter("store.wal.appends").get() >= 1);
    assert!(registry.counter("store.wal.replayed").get() >= 1);
    assert_eq!(registry.counter("store.recovery.quarantined_segments").get(), 0);

    // The frame gauges carry the compressed-index footprint: non-empty,
    // and strictly smaller than the uncompressed layout.
    let compressed = registry.gauge("store.frames.compressed_bytes").get();
    let raw = registry.gauge("store.frames.raw_bytes").get();
    assert!(compressed > 0, "compressed frame bytes should be non-zero");
    assert!(compressed < raw, "frames should compress below the raw layout");
    assert_eq!(registry.gauge("store.index_bytes").get(), compressed);

    // Every part of a frozen KB holds some resident bytes, and the
    // frames part is the compressed index.
    for part in ["facts", "by_triple", "dict", "frames"] {
        let bytes = registry.gauge(&format!("store.bytes.{part}")).get();
        assert!(bytes > 0, "store.bytes.{part} should be non-zero");
    }
    assert_eq!(registry.gauge("store.bytes.frames").get(), compressed);
}
