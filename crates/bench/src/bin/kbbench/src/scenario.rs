//! What the four scenarios share: sizes, the result they hand back, the
//! KB build from a generated workload, and temp directories that go
//! away on every exit path.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kb_store::{KbBuilder, KbSnapshot, TermId};

use crate::gen::{entity_name, predicate_name, GenFact, Workload};
use crate::refclock::{epoch, RefClock};

/// Sizes of one run. `smoke` keeps every code path and every check but
/// cuts inputs to about a hundredth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub smoke: bool,
    /// Multiplier on `CorpusConfig::standard`'s world for `construct`.
    pub corpus_factor: usize,
    /// Facts in the paged store of `restart_paged`.
    pub restart_facts: usize,
    /// Facts in the resident KB of `query_exec`.
    pub query_facts: usize,
    /// Facts behind the router of `serve_mixed`.
    pub serve_facts: usize,
    /// Installs in one round of `serve_mixed`; every tenth touches the
    /// probed predicate.
    pub serve_installs_per_round: usize,
    /// Reads after each install of `serve_mixed`: at the 30 000 reads a
    /// second of this box, an install every 40 ms.
    pub serve_reads_per_install: usize,
    /// Most operations one query class may run in a traced pass, so
    /// the span dump stays small.
    pub traced_ops: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        smoke: false,
        corpus_factor: 8,
        restart_facts: 400_000,
        query_facts: 1_000_000,
        serve_facts: 100_000,
        serve_installs_per_round: 20,
        serve_reads_per_install: 1_200,
        traced_ops: 20_000,
    };
    pub const SMOKE: Scale = Scale {
        smoke: true,
        corpus_factor: 1,
        restart_facts: 50_000,
        query_facts: 50_000,
        serve_facts: 50_000,
        serve_installs_per_round: 10,
        serve_reads_per_install: 100,
        traced_ops: 200,
    };
}

/// One timed operation, in twenty bytes: a run keeps up to a million
/// of them, and they must not show in its peak memory.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was issued, in microseconds after [`epoch`].
    at_us: u32,
    /// Microseconds on the wall clock.
    pub wall_us: f32,
    /// Microseconds on the reference clock; the wall clock's until
    /// [`Measured::calibrate`] has run.
    pub us: f32,
    /// What it got done, in the class's own unit (operations, facts,
    /// rows, delta entries): the numerator of a throughput.
    pub work: f32,
    /// The part of `wall_us` the device decided, which is left out of
    /// `us` (see `refclock.rs`).
    device_us: f32,
}

/// What a scenario measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Samples by operation class, in the order they were taken.
    pub ops: BTreeMap<&'static str, Vec<Sample>>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks: name, whether it held, and what was seen.
    pub checks: Vec<(String, bool, String)>,
    /// Counts and ratios read from the program's public return values.
    pub counts: BTreeMap<&'static str, f64>,
    /// kb-obs counters read by name; `None` when the name is gone.
    pub obs: Vec<(&'static str, Option<f64>)>,
    /// Samples of the operation class per round, when the scenario
    /// runs in rounds of identical work: the rounds are then the
    /// stretches the end-to-end metrics are taken over.
    pub round_len: Option<usize>,
}

impl Measured {
    /// Records one operation of `class` issued at `at` that took
    /// `micros` on the wall clock.
    pub fn op(&mut self, class: &'static str, at: Instant, micros: f64) {
        self.work(class, at, micros, 1.0, 0.0);
    }

    /// Records a stretch of `micros` in which `work` units got done and
    /// of which `device` were the device's to decide.
    pub fn work(&mut self, class: &'static str, at: Instant, micros: f64, work: f64, device: f64) {
        let samples = self.ops.entry(class).or_default();
        // Grow by a fixed step, not by doubling: a run that takes a few
        // samples more than the last must not peak megabytes higher.
        if samples.len() == samples.capacity() {
            samples.reserve_exact(1 << 16);
        }
        let at_us = (at - epoch()).as_micros() as u32;
        samples.push(Sample {
            at_us,
            wall_us: micros as f32,
            us: micros as f32,
            work: work as f32,
            device_us: device.min(micros) as f32,
        });
    }

    /// Puts every sample's computing time on the reference clock
    /// `clock`, which was read on the thread that took the samples
    /// while they were taken.
    pub fn calibrate(&mut self, clock: &RefClock) {
        for s in self.ops.values_mut().flatten() {
            let start = epoch() + Duration::from_micros(u64::from(s.at_us));
            let end = start + Duration::from_secs_f32(s.wall_us / 1e6);
            s.us = (s.wall_us - s.device_us) * clock.scale(start, end) as f32;
        }
    }

    /// Records a check. A failed check fails every operation of the
    /// phase it covers, so `ops_covered` are added to `failed`.
    pub fn check(&mut self, name: &str, ok: bool, detail: String, ops_covered: u64) {
        if !ok {
            self.failed += ops_covered.max(1);
            eprintln!("kbbench: check failed: {name}: {detail}");
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Folds another pass in: samples pool, tallies add, and counts of
    /// the later pass win.
    pub fn absorb(&mut self, other: Measured) {
        for (class, samples) in other.ops {
            self.ops.entry(class).or_default().extend(samples);
        }
        self.counts.extend(other.counts);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.obs.extend(other.obs);
        self.round_len = self.round_len.or(other.round_len);
    }

    pub fn checks_hold(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// Every check held, no operation failed, and there was one: a run
    /// that attempted nothing has shown nothing.
    pub fn correct(&self) -> bool {
        self.checks_hold() && self.attempted > 0
    }
}

/// A deadline that always lets at least one operation through.
pub struct Budget {
    end: Instant,
    first: bool,
}

impl Budget {
    pub fn new(d: Duration) -> Self {
        Self { end: Instant::now() + d, first: true }
    }

    pub fn more(&mut self) -> bool {
        std::mem::take(&mut self.first) || Instant::now() < self.end
    }
}

pub fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// Term ids of a generated workload inside a builder or snapshot whose
/// terms were interned by [`build_snapshot`]: entities first, then
/// predicates, then literal values.
pub struct Terms {
    entities: u32,
    predicates: u32,
}

impl Terms {
    pub fn of(w: &Workload) -> Self {
        Self { entities: w.config.entities() as u32, predicates: w.config.predicates as u32 }
    }

    pub fn entity(&self, e: u32) -> TermId {
        TermId(e)
    }

    pub fn predicate(&self, p: usize) -> TermId {
        TermId(self.entities + p as u32)
    }

    pub fn object(&self, o: u32) -> TermId {
        if o < self.entities {
            TermId(o)
        } else {
            TermId(o + self.predicates)
        }
    }
}

/// Loads the workload's base facts into a builder and freezes it.
pub fn build_snapshot(w: &Workload) -> KbSnapshot {
    let mut b = KbBuilder::new();
    let terms = Terms::of(w);
    for e in 0..w.config.entities() as u32 {
        let id = b.intern(&entity_name(e));
        debug_assert_eq!(id, terms.entity(e));
    }
    for p in 0..w.config.predicates {
        b.intern(&predicate_name(p));
    }
    for l in 0..w.config.literals() as u32 {
        b.intern(&format!("v{l}"));
    }
    for f in &w.facts {
        b.add_triple(terms.entity(f.s), terms.predicate(f.p as usize), terms.object(f.o));
    }
    b.freeze()
}

/// The three strings of a generated fact.
pub fn fact_strings(w: &Workload, f: &GenFact) -> (String, String, String) {
    (entity_name(f.s), predicate_name(f.p as usize), w.object_name(f.o))
}

/// A directory under the work dir that is removed when dropped —
/// after a failed check or a panic as well as after a clean run.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(work_dir: &Path, name: &str) -> std::io::Result<Self> {
        let path = work_dir.join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of all files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
