//! Chaos integration: deterministically corrupt a slice of the corpus
//! and prove the pipeline (a) completes, (b) quarantines exactly the
//! poison documents into the dead-letter queue, (c) loses at most two
//! points of precision/recall versus harvesting the clean subset, and
//! (d) does all of it reproducibly under a fixed `(corpus, fault)`
//! seed pair.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use kbkit::kb_corpus::{gold, inject_faults, Corpus, CorpusConfig, FaultConfig, FaultReport};
use kbkit::kb_harvest::pipeline::{
    evaluate_discovered, harvest, HarvestConfig, IncrementalHarvester, Method,
};
use kbkit::kb_store::{ntriples, KbRead, SegmentStore, StoreOptions, Wal};

const FAULT_RATE: f64 = 0.2;

fn chaos_config() -> FaultConfig {
    FaultConfig { fault_rate: FAULT_RATE, ..Default::default() }
}

/// A tiny corpus with ~20% of its documents deterministically faulted.
fn faulted_corpus() -> (Corpus, FaultReport) {
    let mut corpus = Corpus::generate(&CorpusConfig::tiny());
    let report = inject_faults(&mut corpus, &chaos_config());
    (corpus, report)
}

#[test]
fn chaotic_harvest_completes_with_exact_dead_letter_accounting() {
    let (corpus, report) = faulted_corpus();
    let total = corpus.all_docs().len();
    assert!(
        report.len() * 10 >= total,
        "chaos premise broken: only {}/{} docs faulted (< 10%)",
        report.len(),
        total
    );
    let poison = report.poison_ids();
    assert!(!poison.is_empty(), "fault mix should include poison kinds");
    assert!(!report.benign_ids().is_empty(), "fault mix should include benign stress");

    let out = harvest(&corpus, &HarvestConfig::default())
        .expect("pipeline must survive a 20% faulty corpus");

    // The dead-letter queue is exactly the injected poison set: every
    // poison doc is quarantined, nothing else is.
    let quarantined: BTreeSet<u32> = out.stats.quarantined.iter().map(|q| q.doc_id).collect();
    assert_eq!(quarantined, poison, "dead letters must match injected poison exactly");
    for id in report.benign_ids() {
        assert!(!quarantined.contains(&id), "benign stressed doc {id} must survive");
    }
    assert_eq!(out.stats.docs, total - poison.len());
    assert!(!out.accepted.is_empty(), "survivors should still yield accepted facts");
}

#[test]
fn chaotic_harvest_quality_stays_within_two_points_of_clean_subset() {
    let (chaotic, report) = faulted_corpus();
    let poison = report.poison_ids();
    assert!(!poison.is_empty());

    // The baseline: the same faulted corpus (same seeds, same benign
    // stress) with the poison documents removed up front, so the only
    // difference is *who* discards them — us or the pipeline.
    let (mut clean, report2) = faulted_corpus();
    assert_eq!(report, report2, "fault injection must be seed-deterministic");
    clean.articles.retain(|d| !poison.contains(&d.id));
    clean.overviews.retain(|d| !poison.contains(&d.id));
    clean.web_pages.retain(|d| !poison.contains(&d.id));
    clean.essays.retain(|d| !poison.contains(&d.id));

    let cfg = HarvestConfig::default();
    let gold_facts = gold::gold_fact_strings(&chaotic.world);
    let out_chaos = harvest(&chaotic, &cfg).expect("chaotic harvest");
    let out_clean = harvest(&clean, &cfg).expect("clean-subset harvest");
    assert_eq!(out_clean.stats.quarantined_count(), 0);

    let m_chaos = evaluate_discovered(&out_chaos.accepted, &gold_facts, &out_chaos.seeds);
    let m_clean = evaluate_discovered(&out_clean.accepted, &gold_facts, &out_clean.seeds);
    assert!(
        (m_chaos.precision - m_clean.precision).abs() <= 0.02,
        "precision drifted: chaotic {} vs clean subset {}",
        m_chaos.precision,
        m_clean.precision
    );
    assert!(
        (m_chaos.recall - m_clean.recall).abs() <= 0.02,
        "recall drifted: chaotic {} vs clean subset {}",
        m_chaos.recall,
        m_clean.recall
    );
}

#[test]
fn chaotic_harvest_is_deterministic_end_to_end() {
    let (c1, r1) = faulted_corpus();
    let (c2, r2) = faulted_corpus();
    assert_eq!(r1, r2);

    let cfg = HarvestConfig::default();
    let out1 = harvest(&c1, &cfg).expect("harvest");
    let out2 = harvest(&c2, &cfg).expect("harvest");

    let q1: Vec<u32> = out1.stats.quarantined.iter().map(|q| q.doc_id).collect();
    let q2: Vec<u32> = out2.stats.quarantined.iter().map(|q| q.doc_id).collect();
    assert_eq!(q1, q2, "dead-letter order and content must be reproducible");

    let keys1: Vec<_> = out1.accepted.iter().map(|c| c.key()).collect();
    let keys2: Vec<_> = out2.accepted.iter().map(|c| c.key()).collect();
    assert_eq!(keys1, keys2, "accepted facts must be reproducible under chaos");
    assert_eq!(out1.kb.len(), out2.kb.len());
}

// ---------------------------------------------------------------------
// Crash-recovery chaos: a durable incremental harvest killed (-9) at an
// arbitrary instant must recover byte-identically to the last completed
// install barrier — never to a torn or invented state.

const NO_FSYNC: StoreOptions = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };

/// A durable incremental harvest on the chaotic corpus, captured as the
/// raw files it left behind plus the N-Triples oracle dump after every
/// install barrier. Built once; crash scenarios restore these files
/// into fresh directories and mutilate them.
struct DurableRun {
    /// `(file name, contents)` for every file in the store directory.
    files: Vec<(String, Vec<u8>)>,
    /// `oracles[k]` = dump of the view after `k` installed deltas.
    oracles: Vec<String>,
    /// WAL file name and, for each record, the file offset one past its
    /// last byte (so `boundaries[k]` = prefix length holding `k+1`
    /// complete records).
    wal_name: String,
    boundaries: Vec<usize>,
}

fn durable_run() -> &'static DurableRun {
    static RUN: OnceLock<DurableRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let (corpus, _) = faulted_corpus();
        let (boot, held_out) = corpus.bootstrap_split();
        let cfg = HarvestConfig::default();
        let (inc, out) = IncrementalHarvester::bootstrap(&boot, &cfg).expect("bootstrap");
        let base = out.kb.snapshot().into_shared();

        let dir = chaos_dir("fixture");
        let mut store = SegmentStore::create(&dir, base, NO_FSYNC).expect("create store");
        let mut oracles = vec![ntriples::to_string(&store.view()).expect("dump")];
        for chunk in held_out.chunks(3) {
            let refs: Vec<_> = chunk.iter().collect();
            let view = store.view();
            let outcome = inc.harvest_batch(&corpus.world, &refs, &view).expect("batch");
            store.install_delta(Arc::new(outcome.delta)).expect("install");
            oracles.push(ntriples::to_string(&store.view()).expect("dump"));
        }
        assert!(oracles.len() >= 3, "need at least two installs to crash between");
        drop(store); // the simulated kill -9: no seal, no compaction

        let mut files = Vec::new();
        let mut wal_name = String::new();
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let entry = entry.expect("entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("wal-") {
                wal_name = name.clone();
            }
            files.push((name, std::fs::read(entry.path()).expect("read file")));
        }
        assert!(!wal_name.is_empty(), "store must have a WAL");

        let wal_path = dir.join(&wal_name);
        let replay = Wal::replay(&wal_path).expect("replay");
        assert_eq!(replay.records.len(), oracles.len() - 1);
        let mut boundaries = Vec::new();
        let mut pos = kbkit::kb_store::WAL_HEADER_LEN as usize;
        for (_, payload) in &replay.records {
            pos += 16 + payload.len();
            boundaries.push(pos);
        }
        std::fs::remove_dir_all(&dir).ok();
        DurableRun { files, oracles, wal_name, boundaries }
    })
}

fn chaos_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kbkit-chaos-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Restores the fixture's files into `dir`, truncating the WAL to
/// `wal_len` bytes — the crash instant.
fn restore_with_wal_cut(run: &DurableRun, dir: &PathBuf, wal_len: usize) {
    std::fs::create_dir_all(dir).expect("mkdir");
    for (name, bytes) in &run.files {
        let data = if name == &run.wal_name { &bytes[..wal_len.min(bytes.len())] } else { bytes };
        std::fs::write(dir.join(name), data).expect("write");
    }
}

/// Which oracle a crash at WAL length `len` must recover to: one entry
/// per *complete* record in the surviving prefix.
fn expected_oracle(run: &DurableRun, len: usize) -> &str {
    let complete = run.boundaries.iter().filter(|&&b| b <= len).count();
    &run.oracles[complete]
}

#[test]
fn kill_nine_after_install_recovers_byte_identically() {
    let run = durable_run();
    let dir = chaos_dir("clean-kill");
    let wal_full = run.files.iter().find(|(n, _)| n == &run.wal_name).unwrap().1.len();
    restore_with_wal_cut(run, &dir, wal_full);

    let store = SegmentStore::open_with(&dir, NO_FSYNC).expect("recovery");
    let report = store.recovery_report();
    assert_eq!(report.wal_replayed, run.oracles.len() - 1, "every install replays");
    assert!(!report.degraded(), "a clean kill -9 quarantines nothing");
    assert_eq!(report.wal_truncated_bytes, 0);
    let recovered = ntriples::to_string(&store.view()).expect("dump");
    assert_eq!(recovered, *run.oracles.last().unwrap(), "recovered view must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_nine_mid_record_recovers_to_the_previous_barrier_at_every_byte() {
    let run = durable_run();
    let dir = chaos_dir("torn-sweep");
    // Sweep every byte boundary inside the *last* record: from the end
    // of the second-to-last record to one byte short of the full WAL.
    let last_start = run.boundaries[run.boundaries.len() - 2];
    let last_end = *run.boundaries.last().unwrap();
    for cut in last_start..last_end {
        restore_with_wal_cut(run, &dir, cut);
        let store = SegmentStore::open_with(&dir, NO_FSYNC)
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        assert_eq!(store.recovery_report().wal_replayed, run.oracles.len() - 2, "cut at {cut}");
        assert!(!store.recovery_report().degraded(), "a torn tail is not corruption");
        let recovered = ntriples::to_string(&store.view()).expect("dump");
        assert_eq!(recovered, expected_oracle(run, cut), "cut at {cut}");
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A kill -9 at *any* WAL offset — not just inside the last record —
    /// recovers to exactly the barrier of the last complete record.
    #[test]
    fn kill_nine_at_any_wal_offset_recovers_to_a_barrier(frac in 0.0f64..1.0) {
        let run = durable_run();
        let header = kbkit::kb_store::WAL_HEADER_LEN as usize;
        let full = *run.boundaries.last().unwrap();
        let cut = header + ((full - header) as f64 * frac) as usize;
        let dir = chaos_dir(&format!("prop-{cut}"));
        restore_with_wal_cut(run, &dir, cut);
        let store = SegmentStore::open_with(&dir, NO_FSYNC).expect("recovery");
        prop_assert!(!store.recovery_report().degraded());
        let recovered = ntriples::to_string(&store.view()).expect("dump");
        prop_assert_eq!(&recovered, expected_oracle(run, cut), "cut at {}", cut);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn recovered_store_keeps_accepting_installs() {
    // Crash mid-record, recover, then continue harvesting on top of the
    // recovered store: the WAL sequence must continue seamlessly.
    let run = durable_run();
    let dir = chaos_dir("continue");
    let cut = *run.boundaries.last().unwrap() - 7; // tear the last record
    restore_with_wal_cut(run, &dir, cut);

    let mut store = SegmentStore::open_with(&dir, NO_FSYNC).expect("recovery");
    let before = store.view().len();
    let mut b = kbkit::kb_store::KbBuilder::new();
    b.assert_str("post_crash_entity", "type", "survivor");
    store.install_delta(Arc::new(b.freeze_delta(&store.view()))).expect("install after crash");
    assert_eq!(store.view().len(), before + 1);
    let oracle = ntriples::to_string(&store.view()).expect("dump");
    drop(store); // kill again

    let store = SegmentStore::open_with(&dir, NO_FSYNC).expect("second recovery");
    assert_eq!(ntriples::to_string(&store.view()).expect("dump"), oracle);
    std::fs::remove_dir_all(&dir).ok();
}

/// Quarantine comes before refinement, so every method sees the same
/// survivors: the dead letters do not depend on the method.
#[test]
fn zero_refine_budget_on_chaotic_corpus_degrades_but_completes() {
    let (corpus, report) = faulted_corpus();
    for method in [Method::PatternsOnly, Method::Statistical, Method::FactorGraph] {
        let out = harvest(&corpus, &HarvestConfig { method, ..Default::default() })
            .expect("every method survives a faulty corpus");
        let quarantined: BTreeSet<u32> = out.stats.quarantined.iter().map(|q| q.doc_id).collect();
        assert_eq!(quarantined, report.poison_ids(), "{method:?}");
        assert!(!out.accepted.is_empty(), "{method:?} still produces facts");
    }
}
