//! The durable segment store: a directory of checksummed segment files
//! plus a delta WAL and an atomically-replaced [`Manifest`], giving the
//! layered [`SegmentedSnapshot`] a home on disk that survives kill-9.
//!
//! ## Directory layout
//!
//! ```text
//! <data-dir>/
//!   MANIFEST              atomic commit point (see manifest module)
//!   base-<gen>.seg        checksummed base segment
//!   delta-<gen>-<seq>.seg sealed delta segments
//!   wal-<gen>.log         delta WAL: installs since the last seal
//!   *.quarantined         corrupt bytes set aside by recovery
//! ```
//!
//! ## Crash-safety argument, operation by operation
//!
//! * **install_delta** — one WAL `append` + fsync. A crash before the
//!   fsync returns leaves a torn tail that replay truncates (the
//!   install never happened); after, the record replays. No other file
//!   is touched, so there is no partial state.
//! * **seal** — (1) write each unsealed delta to its own fsynced
//!   `delta-*.seg`, (2) atomically replace the manifest with the new
//!   delta list and `applied_seq`, (3) truncate the WAL. A crash after
//!   (1) leaves unreferenced files that recovery garbage-collects; a
//!   crash after (2) leaves WAL records with `seq <= applied_seq`,
//!   which replay skips as duplicates of the sealed files.
//! * **compact** — write `base-<gen+1>.seg` and a fresh WAL, then
//!   atomically switch the manifest, then delete the old generation's
//!   files. Every crash window leaves either the old manifest plus
//!   unreferenced new files, or the new manifest plus unreferenced old
//!   files — recovery garbage-collects whichever set lost.
//!
//! ## Recovery policy
//!
//! The manifest and the base segment are load-bearing: corruption there
//! is a hard, typed error ([`StoreError::Corrupt`]) — there is nothing
//! sensible to serve. Everything stacked above degrades gracefully:
//! a corrupt sealed delta or WAL record quarantines itself *and
//! everything after it* (later segments extend the term space of
//! earlier ones, so nothing after a gap can be interpreted), and the
//! store serves the surviving prefix while reporting exactly what was
//! set aside via [`RecoveryReport`] and the
//! `store.recovery.quarantined_segments` counter.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::manifest::{Manifest, MANIFEST_NAME};
use crate::segmap::MemoryBudget;
use crate::segment::{Compactor, DeltaSegment, SegmentedSnapshot};
use crate::segment_io;
use crate::snapshot::KbSnapshot;
use crate::wal::{DurabilityCost, Wal};
use crate::StoreError;

/// Tuning knobs for a [`SegmentStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Whether to fsync after every WAL append and file install.
    /// Disabling trades crash durability for speed (`kbkit --no-fsync`).
    pub fsync: bool,
    /// Seal the WAL into standalone delta files once it holds this many
    /// unsealed installs (0 disables auto-seal; call [`SegmentStore::seal`]).
    pub seal_every: usize,
    /// Ceiling, in bytes, on resident lazily-loaded index columns
    /// across every segment this store opens. `None` keeps columns
    /// resident forever once touched (they still load lazily, so open
    /// stays `O(header)`); `Some(n)` spills cold columns back to disk
    /// under the store's clock policy once `n` is exceeded.
    pub memory_budget: Option<usize>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self { fsync: true, seal_every: 8, memory_budget: None }
    }
}

/// What recovery found when opening a store directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sealed delta segments applied from the manifest.
    pub sealed_deltas: usize,
    /// WAL records replayed (after skipping those already sealed).
    pub wal_replayed: usize,
    /// Bytes of torn WAL tail truncated (normal crash signature).
    pub wal_truncated_bytes: u64,
    /// Files (or WAL tails) set aside as `*.quarantined`.
    pub quarantined: Vec<String>,
    /// Unreferenced leftovers from crashed seals/compactions that were
    /// garbage-collected.
    pub removed_garbage: Vec<String>,
}

impl RecoveryReport {
    /// Whether recovery had to degrade (quarantine anything).
    pub fn degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }
}

/// A durable, crash-recoverable home for a [`SegmentedSnapshot`].
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    options: StoreOptions,
    manifest: Manifest,
    wal: Wal,
    view: SegmentedSnapshot,
    /// Installs logged to the WAL but not yet sealed into delta files,
    /// kept in memory so `seal` doesn't have to re-read the WAL.
    unsealed: Vec<(u64, Arc<DeltaSegment>)>,
    recovery: RecoveryReport,
    /// The paging budget every lazily opened segment charges against.
    budget: MemoryBudget,
}

fn budget_of(options: &StoreOptions) -> MemoryBudget {
    match options.memory_budget {
        Some(limit) => MemoryBudget::bounded(limit),
        None => MemoryBudget::unbounded(),
    }
}

fn base_name(generation: u64) -> String {
    format!("base-{generation}.seg")
}

fn delta_name(generation: u64, seq: u64) -> String {
    format!("delta-{generation}-{seq}.seg")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation}.log")
}

/// Renames `path` to `path.quarantined`, falling back to removal if the
/// rename fails; records the quarantined name in `report`.
fn quarantine_file(path: &Path, report: &mut RecoveryReport) {
    let target = quarantined_path(path);
    if std::fs::rename(path, &target).is_err() {
        std::fs::remove_file(path).ok();
    }
    report.quarantined.push(file_name(&target));
}

fn quarantined_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".quarantined");
    path.with_file_name(name)
}

fn file_name(path: &Path) -> String {
    path.file_name().unwrap_or_default().to_string_lossy().into_owned()
}

impl SegmentStore {
    /// Creates a new store at `dir` (which must be empty or absent)
    /// holding `base` as generation 0.
    pub fn create(
        dir: impl AsRef<Path>,
        base: Arc<KbSnapshot>,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        if dir.join(MANIFEST_NAME).exists() {
            return Err(StoreError::Io(format!(
                "refusing to create a store over an existing one at {}",
                dir.display()
            )));
        }
        let manifest = Manifest {
            generation: 0,
            applied_seq: 0,
            base: base_name(0),
            deltas: Vec::new(),
            wal: wal_name(0),
            compacted_from: None,
        };
        base.write_segment_with(&dir.join(&manifest.base), options.fsync)?;
        let wal = Wal::create(dir.join(&manifest.wal), 0, options.fsync)?;
        manifest.store(&dir, options.fsync)?;
        let view = SegmentedSnapshot::from_base(base);
        Ok(Self {
            dir,
            options,
            manifest,
            wal,
            view,
            unsealed: Vec::new(),
            recovery: RecoveryReport::default(),
            budget: budget_of(&options),
        })
    }

    /// Opens (and if necessary recovers) the store at `dir` with
    /// default options.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens the store at `dir`, validating every checksum on the way
    /// up: manifest → base → sealed deltas → WAL replay. See the module
    /// docs for the exact degradation policy.
    pub fn open_with(dir: impl AsRef<Path>, options: StoreOptions) -> Result<Self, StoreError> {
        let obs = kb_obs::global();
        let start = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        let mut report = RecoveryReport::default();
        let budget = budget_of(&options);

        // 1. Manifest and base segment header are hard requirements.
        //    The base opens *lazily*: only its preamble and region
        //    table are read and validated here, so open cost is
        //    independent of KB size. Corruption in a cold region
        //    surfaces as the same typed error on first access — call
        //    [`SegmentedSnapshot::prefault`] on the view to get the old
        //    validate-everything-at-open behavior back.
        let mut manifest = Manifest::load(&dir)?;
        let base = Arc::new(segment_io::snapshot_open_lazy(&dir.join(&manifest.base), &budget)?);
        let mut view = SegmentedSnapshot::from_base(base);

        // 2. Sealed deltas, in manifest order. The first failure
        //    quarantines that delta, every later one, and the WAL:
        //    nothing stacked above a gap can be interpreted. The
        //    stacking check reads the base's term and source counts,
        //    which a lazy open took from bytes it has not checksummed —
        //    so before anything is set aside (here or in step 3) those
        //    regions are verified: a rotten base is the hard error of
        //    step 1, not a reason to quarantine healthy deltas.
        let mut surviving_deltas = Vec::new();
        let mut stack_broken = false;
        let mut unsealed = Vec::new();
        for name in manifest.deltas.clone() {
            if stack_broken {
                quarantine_file(&dir.join(&name), &mut report);
                continue;
            }
            let stacked = segment_io::delta_open_lazy(&dir.join(&name), &budget)
                .map(Arc::new)
                .and_then(|delta| view.try_with_delta(Arc::clone(&delta)).map(|v| (v, delta)));
            match stacked {
                Ok((next, _)) => {
                    view = next;
                    report.sealed_deltas += 1;
                    surviving_deltas.push(name);
                }
                Err(_) => {
                    view.base().verify_counts()?;
                    stack_broken = true;
                    quarantine_file(&dir.join(&name), &mut report);
                }
            }
        }

        // 3. WAL replay. Records sealed into delta files (`seq <=
        //    applied_seq`) are skipped as duplicates; torn tails are
        //    truncated silently (the expected crash signature); damaged
        //    records quarantine themselves and everything after.
        let wal_path = dir.join(&manifest.wal);
        let wal = if stack_broken {
            // The WAL stacks above the broken sealed prefix.
            quarantine_file(&wal_path, &mut report);
            Wal::create(&wal_path, manifest.generation, options.fsync)?
        } else {
            match Wal::replay(&wal_path) {
                Err(_header_damage) => {
                    quarantine_file(&wal_path, &mut report);
                    Wal::create(&wal_path, manifest.generation, options.fsync)?
                }
                Ok(mut replay) => {
                    report.wal_truncated_bytes = replay.torn_bytes;
                    let mut replay_failed_at = None;
                    for (i, (seq, payload)) in replay.records.iter().enumerate() {
                        if *seq <= manifest.applied_seq {
                            continue; // already sealed into a delta file
                        }
                        let stacked = segment_io::delta_from_bytes(payload)
                            .map(Arc::new)
                            .and_then(|d| view.try_with_delta(Arc::clone(&d)).map(|v| (v, d)));
                        match stacked {
                            Ok((next, delta)) => {
                                view = next;
                                report.wal_replayed += 1;
                                unsealed.push((*seq, delta));
                            }
                            Err(_) => {
                                view.base().verify_counts()?;
                                replay_failed_at = Some(i);
                                break;
                            }
                        }
                    }
                    if let Some((_, tail_bytes)) = replay.damage.take() {
                        // Preserve the damaged tail for forensics, then
                        // let `reopen` truncate it away.
                        let all = std::fs::read(&wal_path)?;
                        let tail_start = all.len() - tail_bytes as usize;
                        let qpath = quarantined_path(&wal_path);
                        std::fs::write(&qpath, &all[tail_start..]).ok();
                        report.quarantined.push(file_name(&qpath));
                    }
                    if let Some(i) = replay_failed_at {
                        // A record that frames correctly but decodes or
                        // stacks wrong: quarantine it and the rest.
                        let all = std::fs::read(&wal_path)?;
                        let keep: u64 = replay.records[..i]
                            .iter()
                            .map(|(_, p)| 16 + p.len() as u64)
                            .sum::<u64>()
                            + crate::wal::WAL_HEADER_LEN;
                        let qpath = quarantined_path(&wal_path);
                        std::fs::write(&qpath, &all[keep as usize..]).ok();
                        report.quarantined.push(file_name(&qpath));
                        replay.valid_len = keep;
                        replay.records.truncate(i);
                    }
                    Wal::reopen(&wal_path, &replay, options.fsync)?
                }
            }
        };

        // 4. Self-heal the manifest if the delta stack degraded, so the
        //    next open doesn't trip over the same quarantined files.
        if surviving_deltas.len() != manifest.deltas.len() {
            manifest.deltas = surviving_deltas;
            manifest.store(&dir, options.fsync)?;
        }

        // 5. Garbage-collect unreferenced leftovers from crashed seals
        //    or compactions (and stale temp files from atomic writes).
        let referenced: Vec<String> =
            manifest.referenced_files().into_iter().map(String::from).collect();
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let keep = name == MANIFEST_NAME
                    || name.ends_with(".quarantined")
                    || referenced.iter().any(|r| r == &name);
                if !keep {
                    std::fs::remove_file(entry.path()).ok();
                    report.removed_garbage.push(name);
                }
            }
        }

        obs.counter("store.wal.replayed").add(report.wal_replayed as u64);
        obs.counter("store.recovery.quarantined_segments").add(report.quarantined.len() as u64);
        obs.histogram("store.open_micros").observe(start.elapsed().as_micros() as u64);
        obs.counter("store.opens").inc();

        Ok(Self { dir, options, manifest, wal, view, unsealed, recovery: report, budget })
    }

    /// The paging budget this store's lazily opened segments charge
    /// against. Tests and tooling read residency/fault/spill counts
    /// here rather than from the process-global gauges, which race when
    /// several stores coexist.
    pub fn memory_budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the last `open` had to do to get here.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Current compaction generation.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// The current layered view (cheap clone: `Arc`s all the way down).
    pub fn view(&self) -> SegmentedSnapshot {
        self.view.clone()
    }

    /// Number of installs logged to the WAL but not yet sealed.
    pub fn unsealed_count(&self) -> usize {
        self.unsealed.len()
    }

    /// Durably installs a delta: validates it stacks on the current
    /// view, appends its image to the WAL behind an fsync barrier, then
    /// publishes the new view. Once this returns, the delta survives
    /// kill-9. Auto-seals when `seal_every` is reached.
    pub fn install_delta(
        &mut self,
        delta: Arc<DeltaSegment>,
    ) -> Result<DurabilityCost, StoreError> {
        // Validate the stacking contract *before* writing anything: a
        // delta frozen against the wrong view must not reach the log.
        let next_view = self.view.try_with_delta(Arc::clone(&delta))?;
        let seq = self.wal.last_seq().max(self.manifest.applied_seq) + 1;
        let payload = segment_io::delta_to_bytes(&delta)?;
        let mut cost = self.wal.append(seq, &payload)?;
        self.view = next_view;
        self.unsealed.push((seq, delta));
        if self.options.seal_every > 0 && self.unsealed.len() >= self.options.seal_every {
            cost.add(self.seal()?);
        }
        Ok(cost)
    }

    /// Seals every WAL-resident delta into its own checksummed
    /// `delta-*.seg` file, commits the new file list through the
    /// manifest, and resets the WAL. Idempotent across crashes: until
    /// the manifest rename lands, the WAL remains the source of truth.
    pub fn seal(&mut self) -> Result<DurabilityCost, StoreError> {
        if self.unsealed.is_empty() {
            return Ok(DurabilityCost::default());
        }
        let start = Instant::now();
        let mut bytes = 0u64;
        let mut new_manifest = self.manifest.clone();
        for (seq, delta) in &self.unsealed {
            let name = delta_name(self.manifest.generation, *seq);
            bytes += delta.write_segment_with(&self.dir.join(&name), self.options.fsync)?;
            new_manifest.deltas.push(name);
            new_manifest.applied_seq = *seq;
        }
        let write_micros = start.elapsed().as_micros() as u64;
        // Commit point: after this rename the delta files are the
        // durable copies and the WAL records become skippable.
        new_manifest.store(&self.dir, self.options.fsync)?;
        self.manifest = new_manifest;
        let fsync_start = Instant::now();
        self.wal = Wal::create(
            self.dir.join(&self.manifest.wal),
            self.manifest.generation,
            self.options.fsync,
        )?;
        self.unsealed.clear();
        kb_obs::global().counter("store.seals").inc();
        Ok(DurabilityCost {
            bytes,
            write_micros,
            fsync_micros: fsync_start.elapsed().as_micros() as u64,
        })
    }

    /// Compacts the layered view into a fresh base segment under the
    /// next generation and retires the old generation's files. Returns
    /// whether compaction ran (it is skipped unless `compactor` says
    /// the stack is worth collapsing, or `force` is set).
    pub fn compact(&mut self, compactor: &Compactor, force: bool) -> Result<bool, StoreError> {
        if !force && !compactor.should_compact(&self.view) {
            return Ok(false);
        }
        if self.view.delta_count() == 0 && self.unsealed.is_empty() {
            return Ok(false);
        }
        let old_files: Vec<String> =
            self.manifest.referenced_files().into_iter().map(String::from).collect();
        let generation = self.manifest.generation + 1;
        let base = Arc::new(self.view.compact());
        let new_manifest = Manifest {
            generation,
            applied_seq: 0,
            base: base_name(generation),
            deltas: Vec::new(),
            wal: wal_name(generation),
            compacted_from: Some(self.manifest.generation),
        };
        base.write_segment_with(&self.dir.join(&new_manifest.base), self.options.fsync)?;
        let wal = Wal::create(self.dir.join(&new_manifest.wal), generation, self.options.fsync)?;
        // Commit point: the manifest rename switches generations.
        new_manifest.store(&self.dir, self.options.fsync)?;
        self.manifest = new_manifest;
        self.wal = wal;
        self.view = SegmentedSnapshot::from_base(base);
        self.unsealed.clear();
        // Retire the old generation. A crash before this loop finishes
        // just leaves unreferenced files for the next open's GC.
        for name in old_files {
            std::fs::remove_file(self.dir.join(name)).ok();
        }
        kb_obs::global().counter("store.compactions").inc();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KbBuilder;
    use crate::error::SegmentRegion;
    use crate::fact::{Fact, Triple};
    use crate::ntriples;
    use crate::read::KbRead;
    use crate::TriplePattern;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kbstore-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn no_fsync() -> StoreOptions {
        StoreOptions { fsync: false, seal_every: 0, memory_budget: None }
    }

    fn push_fact(b: &mut KbBuilder, s: &str, p: &str, o: &str, conf: f64, src: &str) {
        let source = b.register_source(src);
        let triple = Triple::new(b.intern(s), b.intern(p), b.intern(o));
        b.add_fact(Fact { triple, confidence: conf, source, span: None });
    }

    fn base_snapshot() -> Arc<KbSnapshot> {
        let mut b = KbBuilder::new();
        push_fact(&mut b, "Einstein", "bornIn", "Ulm", 0.9, "seed");
        push_fact(&mut b, "Einstein", "type", "physicist", 1.0, "seed");
        Arc::new(b.freeze())
    }

    fn delta_on(view: &SegmentedSnapshot, s: &str, p: &str, o: &str) -> Arc<DeltaSegment> {
        let mut b = KbBuilder::new();
        push_fact(&mut b, s, p, o, 0.8, "delta-src");
        Arc::new(b.freeze_delta(view))
    }

    #[test]
    fn create_install_reopen_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut store = SegmentStore::create(&dir, base_snapshot(), no_fsync()).unwrap();
        let d1 = delta_on(&store.view(), "Ulm", "locatedIn", "Germany");
        store.install_delta(d1).unwrap();
        let d2 = delta_on(&store.view(), "Einstein", "wonPrize", "Nobel");
        store.install_delta(d2).unwrap();
        let before = ntriples::to_string(&store.view()).unwrap();
        drop(store);

        let store = SegmentStore::open_with(&dir, no_fsync()).unwrap();
        assert_eq!(store.recovery_report().wal_replayed, 2);
        assert!(!store.recovery_report().degraded());
        let after = ntriples::to_string(&store.view()).unwrap();
        assert_eq!(before, after, "recovered view must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_then_reopen_skips_sealed_wal_records() {
        let dir = temp_dir("seal");
        let mut store = SegmentStore::create(&dir, base_snapshot(), no_fsync()).unwrap();
        let d1 = delta_on(&store.view(), "Ulm", "locatedIn", "Germany");
        store.install_delta(d1).unwrap();
        store.seal().unwrap();
        let d2 = delta_on(&store.view(), "Einstein", "wonPrize", "Nobel");
        store.install_delta(d2).unwrap();
        let before = ntriples::to_string(&store.view()).unwrap();
        drop(store);

        let store = SegmentStore::open_with(&dir, no_fsync()).unwrap();
        assert_eq!(store.recovery_report().sealed_deltas, 1);
        assert_eq!(store.recovery_report().wal_replayed, 1);
        assert_eq!(ntriples::to_string(&store.view()).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_recovers_to_last_barrier() {
        let dir = temp_dir("torn");
        let mut store = SegmentStore::create(&dir, base_snapshot(), no_fsync()).unwrap();
        let d1 = delta_on(&store.view(), "Ulm", "locatedIn", "Germany");
        store.install_delta(d1).unwrap();
        let oracle = ntriples::to_string(&store.view()).unwrap();
        let d2 = delta_on(&store.view(), "Einstein", "wonPrize", "Nobel");
        store.install_delta(d2).unwrap();
        let wal_path = dir.join(wal_name(0));
        drop(store);

        // Tear the last record at every byte boundary: recovery must
        // always land exactly on the d1 barrier.
        let full = std::fs::read(&wal_path).unwrap();
        let replay = Wal::replay(&wal_path).unwrap();
        let keep = crate::wal::WAL_HEADER_LEN as usize + 16 + replay.records[0].1.len();
        for cut in keep..full.len() {
            std::fs::write(&wal_path, &full[..cut]).unwrap();
            let store = SegmentStore::open_with(&dir, no_fsync()).unwrap();
            assert_eq!(store.recovery_report().wal_replayed, 1, "cut at {cut}");
            assert_eq!(ntriples::to_string(&store.view()).unwrap(), oracle, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_sealed_delta_quarantines_suffix_and_serves_prefix() {
        let dir = temp_dir("quarantine");
        let mut store = SegmentStore::create(&dir, base_snapshot(), no_fsync()).unwrap();
        let d1 = delta_on(&store.view(), "Ulm", "locatedIn", "Germany");
        store.install_delta(d1).unwrap();
        store.seal().unwrap();
        let oracle = ntriples::to_string(&store.view()).unwrap();
        let d2 = delta_on(&store.view(), "Einstein", "wonPrize", "Nobel");
        store.install_delta(d2).unwrap();
        store.seal().unwrap();
        drop(store);

        // Rot a byte inside the *second* sealed delta's payload.
        let victim = dir.join(delta_name(0, 2));
        let mut bytes = std::fs::read(&victim).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0xA5;
        std::fs::write(&victim, &bytes).unwrap();

        let store = SegmentStore::open_with(&dir, no_fsync()).unwrap();
        let report = store.recovery_report();
        assert!(report.degraded());
        assert_eq!(report.sealed_deltas, 1, "first delta survives");
        assert!(report.quarantined.iter().any(|f| f.starts_with(&delta_name(0, 2))));
        assert_eq!(ntriples::to_string(&store.view()).unwrap(), oracle);
        // Self-healed: a second open sees a clean store.
        drop(store);
        let store = SegmentStore::open_with(&dir, no_fsync()).unwrap();
        assert!(!store.recovery_report().degraded());
        assert_eq!(ntriples::to_string(&store.view()).unwrap(), oracle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_base_or_manifest_is_a_hard_typed_error() {
        let dir = temp_dir("hard");
        let mut store = SegmentStore::create(&dir, base_snapshot(), no_fsync()).unwrap();
        let d1 = delta_on(&store.view(), "Ulm", "locatedIn", "Germany");
        store.install_delta(d1).unwrap();
        drop(store);

        // Header damage is still caught *at open* — the lazy reader
        // validates the preamble and region table before returning.
        let base_path = dir.join(base_name(0));
        let good = std::fs::read(&base_path).unwrap();
        let mut bad = good.clone();
        bad[10] ^= 0xA5; // inside header_len of the preamble
        std::fs::write(&base_path, &bad).unwrap();
        assert!(matches!(
            SegmentStore::open_with(&dir, no_fsync()),
            Err(StoreError::Corrupt { .. })
        ));

        // Damage past the header opens fine (regions are cold) but
        // surfaces as the same typed error on prefault / first access.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n / 2] ^= 0xA5;
        std::fs::write(&base_path, &bad).unwrap();
        let store = SegmentStore::open_with(&dir, no_fsync()).unwrap();
        assert!(matches!(store.view().prefault(), Err(StoreError::Corrupt { .. })));
        drop(store);
        std::fs::write(&base_path, &good).unwrap();

        let manifest_path = dir.join(MANIFEST_NAME);
        let good_m = std::fs::read(&manifest_path).unwrap();
        let mut bad_m = good_m.clone();
        bad_m[good_m.len() / 2] ^= 0xA5;
        std::fs::write(&manifest_path, &bad_m).unwrap();
        assert!(matches!(
            SegmentStore::open_with(&dir, no_fsync()),
            Err(StoreError::Corrupt { region: SegmentRegion::Manifest, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_switches_generations_and_retires_old_files() {
        let dir = temp_dir("compact");
        let mut store = SegmentStore::create(&dir, base_snapshot(), no_fsync()).unwrap();
        let d1 = delta_on(&store.view(), "Ulm", "locatedIn", "Germany");
        store.install_delta(d1).unwrap();
        store.seal().unwrap();
        let d2 = delta_on(&store.view(), "Einstein", "wonPrize", "Nobel");
        store.install_delta(d2).unwrap();
        let oracle = ntriples::to_string(&store.view()).unwrap();

        assert!(store.compact(&Compactor::default(), true).unwrap());
        assert_eq!(store.generation(), 1);
        assert_eq!(store.view().delta_count(), 0);
        assert_eq!(ntriples::to_string(&store.view()).unwrap(), oracle);
        assert!(!dir.join(base_name(0)).exists(), "old base retired");
        assert!(!dir.join(wal_name(0)).exists(), "old wal retired");
        drop(store);

        let store = SegmentStore::open_with(&dir, no_fsync()).unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(ntriples::to_string(&store.view()).unwrap(), oracle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_seal_kicks_in_at_threshold() {
        let dir = temp_dir("autoseal");
        let options = StoreOptions { fsync: false, seal_every: 2, memory_budget: None };
        let mut store = SegmentStore::create(&dir, base_snapshot(), options).unwrap();
        let d1 = delta_on(&store.view(), "Ulm", "locatedIn", "Germany");
        store.install_delta(d1).unwrap();
        assert_eq!(store.unsealed_count(), 1);
        let d2 = delta_on(&store.view(), "Einstein", "wonPrize", "Nobel");
        store.install_delta(d2).unwrap();
        assert_eq!(store.unsealed_count(), 0, "auto-seal fired");
        assert!(dir.join(delta_name(0, 1)).exists());
        assert!(dir.join(delta_name(0, 2)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_delta_is_rejected_before_touching_the_wal() {
        let dir = temp_dir("mismatch");
        let mut store = SegmentStore::create(&dir, base_snapshot(), no_fsync()).unwrap();
        // Freeze a delta against a *different* (larger) view.
        let other = {
            let mut b = KbBuilder::new();
            push_fact(&mut b, "X", "y", "Z", 1.0, "other");
            SegmentedSnapshot::from_base(Arc::new(b.freeze()))
        };
        let stray = delta_on(&other, "W", "v", "U");
        let wal_len_before = std::fs::metadata(dir.join(wal_name(0))).unwrap().len();
        assert!(store.install_delta(stray).is_err());
        let wal_len_after = std::fs::metadata(dir.join(wal_name(0))).unwrap().len();
        assert_eq!(wal_len_before, wal_len_after, "nothing reached the log");
        assert_eq!(store.view().count_matching(&TriplePattern::any()), 2, "view unchanged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_from_crashed_seal_is_collected() {
        let dir = temp_dir("gc");
        let mut store = SegmentStore::create(&dir, base_snapshot(), no_fsync()).unwrap();
        let d1 = delta_on(&store.view(), "Ulm", "locatedIn", "Germany");
        store.install_delta(d1).unwrap();
        drop(store);
        // Simulate a seal that crashed after writing its delta file but
        // before the manifest rename: the file exists, unreferenced.
        let orphan = dir.join(delta_name(0, 1));
        std::fs::write(&orphan, b"half-written seal output").unwrap();
        let stale_tmp = dir.join("base-0.tmp");
        std::fs::write(&stale_tmp, b"stale temp").unwrap();

        let store = SegmentStore::open_with(&dir, no_fsync()).unwrap();
        assert!(!orphan.exists());
        assert!(!stale_tmp.exists());
        assert_eq!(store.recovery_report().removed_garbage.len(), 2);
        assert_eq!(store.recovery_report().wal_replayed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
