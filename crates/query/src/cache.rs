//! The caching *policy* behind [`QueryService`](crate::QueryService):
//! one stamped, bounded, single-flight cache type, used for the raw-text
//! aliases, the plans and the results alike.
//!
//! ## Caching discipline
//!
//! Two cache levels sit in front of the parse → plan → execute
//! pipeline:
//!
//! 1. **Raw-text probe** — an exact match on the query string skips
//!    parsing entirely (the hot path for repeated identical queries).
//! 2. **Normalized probe** — on a raw miss the text is parsed and its
//!    canonical [`Display`](std::fmt::Display) form becomes the cache
//!    key, so formatting variants (case of keywords, whitespace,
//!    redundant dots) share one plan and one result entry. The raw
//!    text is then recorded as an alias for future level-1 hits.
//!
//! **Freshness:** the served view changes only by delta.
//! [`apply_delta`] stacks a [`DeltaSegment`] onto it, bumps an *epoch*
//! counter and records, per predicate the delta touches, the epoch at
//! which that predicate last changed. Every cached entry is stamped
//! with the epoch it was computed at and carries its plan's
//! [`Footprint`] — the set of predicate ids its answer can depend on —
//! and is served only while no footprint predicate has changed since
//! its epoch. Entries whose predicates are untouched by a delta
//! *survive the install*; this is the cache-retention win the segmented
//! store exists for. Footprints that cannot be predicate-scoped
//! (variable predicates, or constants the view had never interned — a
//! delta could make them real) are *wildcard* and die on every delta.
//! The same rule guards `put`: an execution that raced a delta touching
//! its footprint is rejected, so the single-flight machinery needs no
//! special cases. Plans survive deltas unless wildcard ([`TermId`]s are
//! append-only across deltas; a stale join order is a performance, not
//! correctness, issue); results are additionally swept by touched
//! predicate.
//!
//! ## Single flight
//!
//! Concurrent identical lookups that miss a cache do the work once.
//! [`StampedCache::get_or_compute`] keeps an in-flight table keyed by
//! `(epoch, key)` under the same lock as the entries: the first thread
//! to miss becomes the *leader* and computes; later arrivals block
//! until it has an answer and are reported as [`Outcome::Joined`] (the
//! service's `*_dedup` counters), not as misses. Keying on the epoch
//! means a flight can never dedup across a delta install. Missing and
//! choosing to lead or follow happen under one lock, and the leader
//! stores its value before it retires its flight, so a thread arriving
//! after the retirement hits: no second probe is needed. An error
//! reaches every follower of its flight but is never stored. A leader
//! that unwinds without an answer wakes its followers, one of which
//! takes over.
//!
//! [`apply_delta`]: crate::QueryService::apply_delta
//! [`DeltaSegment`]: kb_store::DeltaSegment
//! [`TermId`]: kb_store::TermId

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use kb_obs::Gauge;
use kb_store::TermId;

use crate::error::QueryError;
use crate::lock::{lock, recover, write};
use crate::plan::Footprint;

/// What [`LruCache::put`] did with the offered entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PutOutcome {
    /// Entry stored, nothing displaced.
    Inserted,
    /// Entry stored after evicting the least-recently-used one.
    Evicted,
    /// Entry rejected: a delta touching its footprint landed after its
    /// epoch stamp.
    StaleRejected,
}

/// How [`StampedCache::get_or_compute`] came by its value; exactly one
/// per call, which is what keeps the service's one-counter-per-query
/// conservation law exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Served from a fresh cached entry.
    Hit,
    /// This thread led the flight and ran `compute`: what the cache did
    /// with the value, or `None` if `compute` failed and offered none.
    Computed(Option<PutOutcome>),
    /// Another thread's in-flight computation supplied the value.
    Joined,
}

/// One cached value with its validity stamp.
struct Entry<V> {
    /// Delta epoch the value was computed against.
    epoch: u64,
    /// LRU recency tick of the latest hit or store.
    used: u64,
    /// The tick this entry is filed under in `LruCache::recency`: its
    /// `used` as of the last time the index looked, so never above it.
    filed: u64,
    /// Predicates the value can depend on; the unit of partial
    /// invalidation.
    footprint: Footprint,
    value: V,
}

/// When predicates last changed: the per-predicate half of the
/// freshness rule, apart from the entries so that an entry can be
/// checked against it while borrowed.
#[derive(Default)]
struct DeltaEpochs {
    /// Epoch at which each predicate last changed (missing = never,
    /// i.e. epoch 0 — the base snapshot).
    pred_epoch: HashMap<TermId, u64>,
    /// Epoch of the most recent delta install; the freshness bar for
    /// wildcard footprints.
    last_delta_epoch: u64,
}

impl DeltaEpochs {
    /// Whether a value stamped `epoch` with this `footprint` is still
    /// current: no footprint predicate changed after the stamp, and a
    /// wildcard footprint has seen every delta.
    fn fresh(&self, footprint: &Footprint, epoch: u64) -> bool {
        if footprint.is_wildcard() {
            return self.last_delta_epoch <= epoch;
        }
        footprint.preds.iter().all(|p| self.pred_epoch.get(p).copied().unwrap_or(0) <= epoch)
    }
}

/// A bounded exact LRU keyed by string, stamped with `(epoch,
/// footprint)`. Recency is a monotone counter, so ticks are unique and
/// the least-recently-used entry comes first in a tick-ordered index:
/// eviction takes it from there instead of scanning every entry for the
/// minimum, which was most of a cache miss's cost. A hit only stamps
/// its entry; the index catches up at eviction: an entry filed under an
/// older tick than its stamp is re-filed, and the first one filed under
/// its own stamp is the victim — nothing can be older, since no entry
/// is filed above its stamp.
///
/// Invalidation is the predicate epoch map:
/// [`apply_delta`](LruCache::apply_delta) records the epoch at which
/// each touched predicate last changed and sweeps affected entries;
/// `get` and `put` both re-check an entry's footprint against the map,
/// so a computation that raced a delta install can neither be served
/// nor re-inserted.
struct LruCache<V> {
    capacity: usize,
    tick: u64,
    /// The delta installs seen so far.
    deltas: DeltaEpochs,
    map: HashMap<Arc<str>, Entry<V>>,
    /// `filed` tick → key, one per entry of `map`.
    recency: BTreeMap<u64, Arc<str>>,
    /// The in-flight table of [`StampedCache::get_or_compute`], under
    /// the entries' lock so that "miss" and "lead or follow" are one
    /// decision. At most one slot per thread currently computing, so
    /// lookups scan it: that needs no owned key per probe, and the
    /// table is a handful of rows.
    inflight: Vec<Slot<V>>,
    /// Values that left `map` since the lock was taken — evicted,
    /// replaced, gone stale or swept by a delta.
    /// [`Held`] takes them along when it lets go of the lock: freeing a
    /// large answer takes as long as a hundred hits, and every reader of
    /// the service would wait for it.
    removed: Vec<V>,
    /// The bytes the values hold, if the cache is weighed.
    weight: Option<Weight<V>>,
}

/// The bytes a cache's values hold, on a gauge that several caches may
/// share: raised by what [`LruCache::put`] stores, lowered by what
/// leaves through [`LruCache::removed`], and by what is still held
/// when the cache goes.
struct Weight<V> {
    gauge: Arc<Gauge>,
    bytes: fn(&V) -> usize,
    /// This cache's share of the gauge.
    held: i64,
}

impl<V> Weight<V> {
    /// Adds `value`'s bytes (`sign` 1) or takes them off (−1).
    fn add(&mut self, value: &V, sign: i64) {
        let delta = sign * (self.bytes)(value) as i64;
        self.held += delta;
        self.gauge.add(delta);
    }
}

impl<V> Drop for Weight<V> {
    fn drop(&mut self) {
        self.gauge.add(-self.held);
    }
}

impl<V: Clone> LruCache<V> {
    fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            tick: 0,
            deltas: DeltaEpochs::default(),
            map: HashMap::new(),
            recency: BTreeMap::new(),
            inflight: Vec::new(),
            removed: Vec::new(),
            weight: None,
        }
    }

    fn get(&mut self, key: &str, epoch: u64) -> Option<V> {
        let e = self.map.get_mut(key)?;
        if e.epoch > epoch || !self.deltas.fresh(&e.footprint, e.epoch) {
            // Newer than the reader's view, or delta-outdated: drop
            // eagerly.
            self.recency.remove(&e.filed);
            self.removed.extend(self.map.remove(key).map(|e| e.value));
            return None;
        }
        self.tick += 1;
        e.used = self.tick;
        Some(e.value.clone())
    }

    /// Removes the least-recently-used entry, bringing the index up to
    /// date with the hits since it last looked on the way.
    fn evict(&mut self) {
        while let Some((filed, key)) = self.recency.pop_first() {
            let e = self.map.get_mut(&key).expect("every indexed key has an entry");
            if e.used == filed {
                self.removed.extend(self.map.remove(&key).map(|e| e.value));
                return;
            }
            e.filed = e.used;
            self.recency.insert(e.used, key);
        }
    }

    fn put(&mut self, key: &str, epoch: u64, footprint: Footprint, value: V) -> PutOutcome {
        if !self.deltas.fresh(&footprint, epoch) {
            return PutOutcome::StaleRejected;
        }
        self.tick += 1;
        let mut outcome = PutOutcome::Inserted;
        let shared_key = match self.map.get(key) {
            Some(replaced) => {
                self.recency.remove(&replaced.filed).expect("every entry is in the recency index")
            }
            None => {
                if self.map.len() >= self.capacity {
                    self.evict();
                    outcome = PutOutcome::Evicted;
                }
                Arc::from(key)
            }
        };
        let (used, filed) = (self.tick, self.tick);
        if let Some(weight) = &mut self.weight {
            weight.add(&value, 1);
        }
        self.recency.insert(filed, Arc::clone(&shared_key));
        let entry = Entry { epoch, used, filed, footprint, value };
        self.removed.extend(self.map.insert(shared_key, entry).map(|e| e.value));
        outcome
    }

    /// Records a delta install at `epoch` touching `touched` and sweeps
    /// the entries it outdates: wildcard footprints always die; with
    /// `wildcard_only = false`, entries whose footprint intersects
    /// `touched` die too. Returns `(retained, invalidated)` counts.
    fn apply_delta(&mut self, epoch: u64, touched: &[TermId], wildcard_only: bool) -> (u64, u64) {
        for p in touched {
            self.deltas.pred_epoch.insert(*p, epoch);
        }
        self.deltas.last_delta_epoch = epoch;
        let before = self.map.len();
        let outdated = self.map.extract_if(|_, e| {
            e.footprint.is_wildcard() || (!wildcard_only && e.footprint.is_touched_by(touched))
        });
        for (_, e) in outdated {
            self.recency.remove(&e.filed);
            self.removed.push(e.value);
        }
        let after = self.map.len();
        (after as u64, (before - after) as u64)
    }
}

/// One in-flight computation, used as a latch: its leader holds the
/// write lock from before the flight is visible until the answer is in,
/// so a follower's `read` blocks exactly that long. `None` after the
/// wait means the leader unwound without an answer.
type Flight<V> = RwLock<Option<Result<V, QueryError>>>;

/// A row of the in-flight table: the epoch and the key, so a flight can
/// never dedup across an `apply_delta`.
struct Slot<V> {
    epoch: u64,
    key: Box<str>,
    flight: Arc<Flight<V>>,
}

/// Takes a leader's slot out of the in-flight table when dropped — at
/// the end of its flight, or while its `compute` unwinds.
struct Retire<'a, V> {
    cache: &'a StampedCache<V>,
    flight: &'a Arc<Flight<V>>,
}

impl<V> Drop for Retire<'_, V> {
    fn drop(&mut self) {
        // This may run in an unwind, where a second panic would abort:
        // take the lock even if poisoned. No update of the cache panics
        // half-way, so its data is valid either way.
        let mut shared = recover(self.cache.shared.lock());
        shared.inflight.retain(|slot| !Arc::ptr_eq(&slot.flight, self.flight));
    }
}

/// The table lock as [`StampedCache::lock`] hands it out. On drop it
/// takes [`LruCache::removed`] with it and frees those values only once
/// the lock is released: fields drop in declaration order, the guard
/// first.
struct Held<'a, V> {
    guard: MutexGuard<'a, LruCache<V>>,
    removed: Vec<V>,
}

impl<V> Drop for Held<'_, V> {
    fn drop(&mut self) {
        let cache = &mut *self.guard;
        self.removed = std::mem::take(&mut cache.removed);
        if let Some(weight) = &mut cache.weight {
            for value in &self.removed {
                weight.add(value, -1);
            }
        }
    }
}

impl<V> std::ops::Deref for Held<'_, V> {
    type Target = LruCache<V>;

    fn deref(&self) -> &LruCache<V> {
        &self.guard
    }
}

impl<V> std::ops::DerefMut for Held<'_, V> {
    fn deref_mut(&mut self) -> &mut LruCache<V> {
        &mut self.guard
    }
}

/// A bounded exact-LRU cache whose entries are stamped with `(epoch,
/// footprint)` and whose misses are deduplicated
/// across threads. See the module docs for the freshness rule and the
/// leader/follower protocol.
pub(crate) struct StampedCache<V> {
    shared: Mutex<LruCache<V>>,
}

impl<V: Clone> StampedCache<V> {
    pub(crate) fn new(capacity: usize) -> Self {
        StampedCache { shared: Mutex::new(LruCache::new(capacity)) }
    }

    /// Like [`new`](Self::new), keeping on `gauge` the `bytes` of the
    /// values held.
    pub(crate) fn weighed(capacity: usize, gauge: Arc<Gauge>, bytes: fn(&V) -> usize) -> Self {
        let mut cache = LruCache::new(capacity);
        cache.weight = Some(Weight { gauge, bytes, held: 0 });
        StampedCache { shared: Mutex::new(cache) }
    }

    fn lock(&self) -> Held<'_, V> {
        Held { guard: lock(&self.shared), removed: Vec::new() }
    }

    /// The fresh entry under `key`, if any; refreshes its recency. An
    /// entry that has gone stale is dropped.
    pub(crate) fn probe(&self, key: &str, epoch: u64) -> Option<V> {
        self.lock().get(key, epoch)
    }

    /// The value for `key` at `epoch`: a fresh cached entry, else the
    /// answer of a flight already computing it, else `compute`'s — run
    /// on this thread, outside the lock, and offered to the cache with
    /// the footprint it returns (subject to the epoch rule). `compute`
    /// runs at most once per flight; its error reaches every follower
    /// and is not stored.
    pub(crate) fn get_or_compute(
        &self,
        key: &str,
        epoch: u64,
        compute: impl FnOnce() -> Result<(V, Footprint), QueryError>,
    ) -> (Result<V, QueryError>, Outcome) {
        let mut shared = loop {
            let mut shared = self.lock();
            if let Some(value) = shared.get(key, epoch) {
                return (Ok(value), Outcome::Hit);
            }
            let running = shared.inflight.iter().find(|s| s.epoch == epoch && &*s.key == key);
            let Some(slot) = running else { break shared };
            let flight = Arc::clone(&slot.flight);
            drop(shared);
            // Blocks until the leader lets go. If it panicked the lock
            // is poisoned and the answer missing: probe again, maybe
            // lead.
            let answer = recover(flight.read()).clone();
            if let Some(result) = answer {
                return (result, Outcome::Joined);
            }
        };
        // Nobody is computing this: lead, with the table lock still
        // held from the miss.
        let flight: Arc<Flight<V>> = Arc::new(RwLock::new(None));
        let mut answer = write(&flight);
        shared.inflight.push(Slot { epoch, key: key.into(), flight: flight.clone() });
        drop(shared);
        // Declared after `answer`, so dropped before it: if `compute`
        // unwinds, the slot is gone by the time the followers wake to
        // an empty answer and look for a flight to join.
        let retire = Retire { cache: self, flight: &flight };
        let (result, put) = match compute() {
            Ok((value, footprint)) => {
                let put = self.lock().put(key, epoch, footprint, value.clone());
                (Ok(value), Some(put))
            }
            Err(e) => (Err(e), None),
        };
        // The value is stored before the flight retires, so whoever
        // arrives after the retirement hits.
        drop(retire);
        *answer = Some(result.clone());
        (result, Outcome::Computed(put))
    }

    /// Records a delta install and sweeps what it outdates; see
    /// [`LruCache::apply_delta`]. Returns `(retained, invalidated)`.
    pub(crate) fn apply_delta(
        &self,
        epoch: u64,
        touched: &[TermId],
        wildcard_only: bool,
    ) -> (u64, u64) {
        self.lock().apply_delta(epoch, touched, wildcard_only)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    impl<V: Clone> LruCache<V> {
        /// Number of live entries.
        fn len(&self) -> usize {
            debug_assert_eq!(self.map.len(), self.recency.len());
            self.map.len()
        }
    }

    impl<V: Clone> StampedCache<V> {
        fn len(&self) -> usize {
            self.lock().len()
        }
    }

    /// Epoch scoping at the cache level: entries probed or re-inserted
    /// after a delta touching their footprint bounce.
    #[test]
    fn delta_epoch_rejects_raced_puts_and_probes() {
        let mut lru: LruCache<u32> = LruCache::new(8);
        let p = TermId(7);
        let fp = Footprint { preds: vec![p], wildcard: false };
        assert_eq!(lru.put("q", 0, fp.clone(), 1), PutOutcome::Inserted);

        // A delta touching p at epoch 1 sweeps and raises the bar.
        let (retained, invalidated) = lru.apply_delta(1, &[p], false);
        assert_eq!((retained, invalidated), (0, 1));

        // A straggler stamped with the pre-delta epoch bounces.
        assert_eq!(lru.put("q", 0, fp.clone(), 1), PutOutcome::StaleRejected);
        // Stamped at the new epoch it lands and serves.
        assert_eq!(lru.put("q", 1, fp.clone(), 2), PutOutcome::Inserted);
        assert_eq!(lru.get("q", 1), Some(2));

        // An untouched-predicate entry sails through regardless.
        let other = Footprint { preds: vec![TermId(9)], wildcard: false };
        assert_eq!(lru.put("r", 0, other, 3), PutOutcome::Inserted);
        let (retained, invalidated) = lru.apply_delta(2, &[p], false);
        assert_eq!((retained, invalidated), (1, 1), "only the p-footprint entry dies");
        assert_eq!(lru.get("r", 0), Some(3));

        // Wildcard footprints die on every delta, even a disjoint one.
        let wild = Footprint { preds: vec![], wildcard: true };
        assert_eq!(lru.put("w", 2, wild.clone(), 4), PutOutcome::Inserted);
        lru.apply_delta(3, &[TermId(1000)], false);
        assert_eq!(lru.get("w", 3), None);
        assert_eq!(lru.put("w", 2, wild, 4), PutOutcome::StaleRejected);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: LruCache<u32> = LruCache::new(2);
        let fp = Footprint::default;
        lru.put("a", 0, fp(), 1);
        lru.put("b", 0, fp(), 2);
        assert_eq!(lru.get("a", 0), Some(1));
        assert_eq!(lru.put("c", 0, fp(), 3), PutOutcome::Evicted); // evicts "b"
        assert_eq!(lru.get("b", 0), None);
        assert_eq!(lru.get("a", 0), Some(1));
        assert_eq!(lru.get("c", 0), Some(3));
    }

    /// A cached value that notes, when it is freed, whether the lock
    /// of the table it was cached in was free.
    #[derive(Clone)]
    struct Witness {
        seen: Arc<Seen>,
        /// Counts the copies alive, the test's own included.
        copies: Arc<()>,
    }

    #[derive(Default)]
    struct Seen {
        table: std::sync::OnceLock<StampedCache<Witness>>,
        table_was_free: Mutex<Vec<bool>>,
    }

    impl Drop for Witness {
        fn drop(&mut self) {
            if let (Some(table), Ok(mut log)) =
                (self.seen.table.get(), self.seen.table_was_free.lock())
            {
                log.push(table.shared.try_lock().is_ok());
            }
        }
    }

    /// A cached answer can be large (a 22 000-row result takes half a
    /// millisecond to free), so none may be freed while the table's
    /// lock is held: not the LRU victim, not what a delta sweeps.
    #[test]
    fn removed_values_are_freed_after_the_table_lock_is_released() {
        let seen = Arc::new(Seen::default());
        let table = seen.table.get_or_init(|| StampedCache::new(2));
        let cache = |key: &str, pred: u32| {
            let value = Witness { seen: Arc::clone(&seen), copies: Arc::new(()) };
            let copies = Arc::clone(&value.copies);
            let footprint = Footprint { preds: vec![TermId(pred)], wildcard: false };
            let (got, outcome) = table.get_or_compute(key, 0, || Ok((value, footprint)));
            assert!(got.is_ok() && matches!(outcome, Outcome::Computed(Some(_))));
            copies
        };
        // The test's handle and the cached copy.
        let (a, b) = (cache("a", 1), cache("b", 2));
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (2, 2));
        let c = cache("c", 1);
        assert_eq!(Arc::strong_count(&a), 1, "a full table evicts its least recently used entry");
        table.apply_delta(1, &[TermId(2)], false);
        assert_eq!(Arc::strong_count(&b), 1, "the delta touched b's footprint");
        assert_eq!(Arc::strong_count(&c), 2);
        let log = seen.table_was_free.lock().unwrap();
        assert!(log.len() >= 3 && log.iter().all(|&free| free), "{log:?}");
    }

    /// The min-scan LRU the cache replaced, kept as the reference the
    /// tick-ordered index is checked against: same freshness rule, and
    /// eviction by a scan of every entry for the smallest `used`.
    #[derive(Default)]
    struct Model {
        capacity: usize,
        tick: u64,
        pred_epoch: HashMap<TermId, u64>,
        last_delta_epoch: u64,
        map: HashMap<String, Entry<u32>>,
    }

    impl Model {
        fn delta_fresh(&self, footprint: &Footprint, epoch: u64) -> bool {
            if footprint.is_wildcard() {
                return self.last_delta_epoch <= epoch;
            }
            footprint.preds.iter().all(|p| self.pred_epoch.get(p).copied().unwrap_or(0) <= epoch)
        }

        fn get(&mut self, key: &str, epoch: u64) -> Option<u32> {
            let e = self.map.get(key)?;
            if e.epoch > epoch || !self.delta_fresh(&e.footprint, e.epoch) {
                self.map.remove(key);
                return None;
            }
            self.tick += 1;
            let e = self.map.get_mut(key).unwrap();
            e.used = self.tick;
            Some(e.value)
        }

        fn put(&mut self, key: &str, epoch: u64, fp: Footprint, value: u32) -> PutOutcome {
            if !self.delta_fresh(&fp, epoch) {
                return PutOutcome::StaleRejected;
            }
            self.tick += 1;
            let mut outcome = PutOutcome::Inserted;
            if self.map.len() >= self.capacity && !self.map.contains_key(key) {
                let victim =
                    self.map.iter().min_by_key(|(_, e)| e.used).map(|(k, _)| k.clone()).unwrap();
                self.map.remove(&victim);
                outcome = PutOutcome::Evicted;
            }
            let (used, filed) = (self.tick, 0);
            let entry = Entry { epoch, used, filed, footprint: fp, value };
            self.map.insert(key.to_string(), entry);
            outcome
        }

        fn get_or_compute(
            &mut self,
            key: &str,
            epoch: u64,
            fp: Footprint,
            value: u32,
        ) -> (u32, Outcome) {
            match self.get(key, epoch) {
                Some(v) => (v, Outcome::Hit),
                None => (value, Outcome::Computed(Some(self.put(key, epoch, fp, value)))),
            }
        }

        fn apply_delta(
            &mut self,
            epoch: u64,
            touched: &[TermId],
            wildcard_only: bool,
        ) -> (u64, u64) {
            for p in touched {
                self.pred_epoch.insert(*p, epoch);
            }
            self.last_delta_epoch = epoch;
            let before = self.map.len();
            self.map.retain(|_, e| {
                !e.footprint.is_wildcard() && (wildcard_only || !e.footprint.is_touched_by(touched))
            });
            (self.map.len() as u64, (before - self.map.len()) as u64)
        }
    }

    /// `(key, epoch, value)` of every entry, sorted, plus the keys from
    /// least to most recently used.
    type Contents = (Vec<(String, u64, u32)>, Vec<String>);

    fn contents<'a>(entries: impl Iterator<Item = (&'a str, &'a Entry<u32>)>) -> Contents {
        let mut all: Vec<_> = entries.collect();
        all.sort_by_key(|(_, e)| e.used);
        let by_recency = all.iter().map(|(k, _)| k.to_string()).collect();
        let mut rows: Vec<_> = all.iter().map(|(k, e)| (k.to_string(), e.epoch, e.value)).collect();
        rows.sort();
        (rows, by_recency)
    }

    /// The proof behind "same victim": random `probe` / `get_or_compute`
    /// / `apply_delta` sequences leave the cache and the min-scan model
    /// with the same entries in the same recency order after every step
    /// — so the same key was evicted — and report the same outcome at
    /// every step.
    #[test]
    fn ordered_index_evicts_what_the_min_scan_model_evicts() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.gen_range(1..=6usize);
            let cache: StampedCache<u32> = StampedCache::new(capacity);
            let mut model = Model { capacity, ..Model::default() };
            let mut epoch = 0u64;
            for step in 0..600u32 {
                let key = format!("k{}", rng.gen_range(0..10u32));
                // Mostly the current epoch, sometimes a straggler's.
                let e = if rng.gen_bool(0.2) { rng.gen_range(0..=epoch) } else { epoch };
                let at = format!("seed {seed} step {step}");
                match rng.gen_range(0..20u32) {
                    0..=2 => {
                        epoch += 1;
                        let touched: Vec<TermId> =
                            (0..4).filter(|_| rng.gen_bool(0.3)).map(TermId).collect();
                        let wildcard_only = rng.gen_bool(0.5);
                        assert_eq!(
                            cache.apply_delta(epoch, &touched, wildcard_only),
                            model.apply_delta(epoch, &touched, wildcard_only),
                            "{at}"
                        );
                    }
                    3..=8 => assert_eq!(cache.probe(&key, e), model.get(&key, e), "{at}"),
                    _ => {
                        let fp = Footprint {
                            preds: (0..4).filter(|_| rng.gen_bool(0.4)).map(TermId).collect(),
                            wildcard: rng.gen_bool(0.15),
                        };
                        let (got, outcome) =
                            cache.get_or_compute(&key, e, || Ok((step, fp.clone())));
                        assert_eq!(
                            (got.unwrap(), outcome),
                            model.get_or_compute(&key, e, fp, step),
                            "{at}"
                        );
                    }
                }
                let shared = cache.lock();
                assert_eq!(
                    contents(shared.map.iter().map(|(k, e)| (&**k, e))),
                    contents(model.map.iter().map(|(k, e)| (k.as_str(), e))),
                    "{at}"
                );
                assert_eq!(shared.len(), model.map.len(), "{at}");
                assert!(shared.inflight.is_empty(), "{at}");
            }
        }
    }

    /// A delta that lands while an epoch-0 leader computes splits the
    /// flight: a lookup at epoch 1 leads its own instead of joining the
    /// older one, and the epoch-0 leader's put then bounces if the delta
    /// touched its footprint and lands if it did not.
    #[test]
    fn single_flight_never_spans_a_delta() {
        let p = TermId(3);
        let footprint = Footprint { preds: vec![p], wildcard: false };
        for touched in [p, TermId(4)] {
            let (cache, footprint) = (&StampedCache::<u32>::new(4), &footprint);
            let (go, wait) = std::sync::mpsc::channel::<()>();
            let (leader, later) = thread::scope(|scope| {
                let leader = scope.spawn(move || {
                    cache.get_or_compute("q", 0, || {
                        // A wrongly joined epoch-1 lookup would wait on
                        // this flight: time out and let the asserts say so.
                        let _ = wait.recv_timeout(std::time::Duration::from_secs(10));
                        Ok((1, footprint.clone()))
                    })
                });
                while cache.shared.lock().unwrap().inflight.is_empty() {
                    thread::yield_now();
                }
                cache.apply_delta(1, &[touched], false);
                let later = cache.get_or_compute("q", 1, || Ok((2, footprint.clone())));
                go.send(()).unwrap();
                (leader.join().unwrap(), later)
            });
            let at = format!("delta touching {touched:?}");
            assert_eq!(later, (Ok(2), Outcome::Computed(Some(PutOutcome::Inserted))), "{at}");
            let put = if touched == p { PutOutcome::StaleRejected } else { PutOutcome::Inserted };
            assert_eq!(leader, (Ok(1), Outcome::Computed(Some(put))), "{at}");
            let cached = if touched == p { 2 } else { 1 };
            assert_eq!(cache.probe("q", 1), Some(cached), "{at}");
            assert!(cache.lock().inflight.is_empty(), "{at}");
        }
    }

    /// Spins until `followers` threads have joined the only flight in
    /// `cache`'s table: the slot, the leader and each follower hold one
    /// reference to it. Called from a leader's `compute`, this forces
    /// the interleaving "everyone joined before the leader finished".
    fn wait_for_followers<V>(cache: &StampedCache<V>, followers: usize) {
        loop {
            let joined = {
                let shared = cache.shared.lock().unwrap();
                Arc::strong_count(&shared.inflight[0].flight) - 2
            };
            if joined == followers {
                return;
            }
            thread::yield_now();
        }
    }

    type Lookup = (Result<u32, QueryError>, Outcome);
    const FOLLOWERS: usize = 3;

    /// Runs one leader whose `compute` is `leader_compute` (entered
    /// only once `FOLLOWERS` threads wait on its flight) against
    /// followers whose `compute` counts its runs and yields 7. Returns
    /// the leader's result (`Err` = it unwound), each follower's, and
    /// the number of follower computes.
    fn race(
        cache: &StampedCache<u32>,
        leader_compute: impl FnOnce() -> Result<(u32, Footprint), QueryError> + Send,
    ) -> (thread::Result<Lookup>, Vec<Lookup>, usize) {
        let recomputes = AtomicUsize::new(0);
        let (leader, followers) = thread::scope(|scope| {
            let leader = scope.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    cache.get_or_compute("q", 0, || {
                        wait_for_followers(cache, FOLLOWERS);
                        leader_compute()
                    })
                }))
            });
            // Followers start only once the leader's slot exists, so
            // none of them can lead the first flight.
            while cache.shared.lock().unwrap().inflight.is_empty() {
                thread::yield_now();
            }
            let followers: Vec<_> = (0..FOLLOWERS)
                .map(|_| {
                    scope.spawn(|| {
                        cache.get_or_compute("q", 0, || {
                            recomputes.fetch_add(1, Ordering::SeqCst);
                            Ok((7, Footprint::default()))
                        })
                    })
                })
                .collect();
            (leader.join().unwrap(), followers.into_iter().map(|h| h.join().unwrap()).collect())
        });
        (leader, followers, recomputes.load(Ordering::SeqCst))
    }

    /// Leader abandonment: a `compute` that unwinds wakes its
    /// followers, exactly one of them recomputes, the rest share that
    /// answer, and nothing is left in flight.
    #[test]
    fn abandoned_flight_is_taken_over_by_exactly_one_follower() {
        let cache: StampedCache<u32> = StampedCache::new(4);
        // `resume_unwind` unwinds like a panic without printing one.
        let (leader, followers, recomputes) =
            race(&cache, || resume_unwind(Box::new("leader dies")));
        assert!(leader.is_err(), "the leader's unwind propagates to its caller");
        assert_eq!(recomputes, 1, "exactly one follower takes over");
        let took_over = Outcome::Computed(Some(PutOutcome::Inserted));
        assert_eq!(followers.iter().filter(|(_, o)| *o == took_over).count(), 1);
        for (value, outcome) in &followers {
            assert_eq!(value, &Ok(7));
            assert!(matches!(outcome, Outcome::Computed(_) | Outcome::Joined | Outcome::Hit));
        }
        assert!(cache.lock().inflight.is_empty(), "no flight may outlive its leader");
        assert_eq!(cache.probe("q", 0), Some(7));
    }

    /// An `Err` from `compute` reaches every joined follower, is not
    /// cached, and the next lookup computes afresh.
    #[test]
    fn compute_error_is_shared_with_followers_but_never_cached() {
        let cache: StampedCache<u32> = StampedCache::new(4);
        let boom = QueryError::Plan("boom".to_string());
        let (leader, followers, recomputes) = race(&cache, || Err(boom.clone()));
        assert_eq!(leader.unwrap(), (Err(boom.clone()), Outcome::Computed(None)));
        assert_eq!(recomputes, 0, "a published error is an answer: nobody recomputes");
        for lookup in &followers {
            assert_eq!(lookup, &(Err(boom.clone()), Outcome::Joined));
        }
        assert_eq!(cache.len(), 0, "errors leave no entry behind");
        assert!(cache.lock().inflight.is_empty());
        let (again, outcome) = cache.get_or_compute("q", 0, || Ok((9, Footprint::default())));
        assert_eq!((again, outcome), (Ok(9), Outcome::Computed(Some(PutOutcome::Inserted))));
    }
}
