//! Concurrent serving layer: a segmented-snapshot-backed service with a
//! bounded plan cache and an epoch-invalidated result cache.
//!
//! ## Caching
//!
//! Three caches of one type front the parse → plan → execute pipeline:
//! raw text → normalized key, key → plan, key → result. The served
//! view changes only by [`apply_delta`], which bumps the epoch; what
//! keeps an entry fresh across it (its epoch stamp and predicate
//! footprint), which entry a full cache evicts and how concurrent
//! identical misses share one computation are the policy of the private
//! `cache` module (`cache.rs` beside this file), explained there; this
//! module decides what is cached under which key and maps each lookup's
//! outcome onto the `query.cache.*` counters.
//!
//! ## Observability
//!
//! The service owns its counters and latency histograms (`kb-obs`
//! primitives) and publishes them in a [`Registry`] under
//! `query.cache.*` / `query.{parse,plan,exec}_us`; [`cache_stats`]
//! (CacheStats) reads the same counters. Span durations come from the
//! registry's injectable clock, so timing tests never touch the wall
//! clock. By default metrics land in [`kb_obs::global()`]; tests pass a
//! private registry via [`QueryService::with_instrumentation`].
//!
//! [`apply_delta`]: QueryService::apply_delta
//! [`cache_stats`]: QueryService::cache_stats
//! [`Registry`]: kb_obs::Registry
//!
//! The service is `Sync` and has no worker pool of its own: whoever
//! serves concurrently (`kb-serve`'s router, the stress suites) calls
//! [`QueryService::query`] from its own threads, which share the
//! immutable view, so no locking happens on the read path beyond brief
//! cache probes.

use std::sync::{Arc, Mutex, MutexGuard};

use kb_obs::{Clock, Counter, Gauge, Histogram, Registry, SpanTimer};
use kb_store::{DeltaSegment, KbSnapshot, SegmentedSnapshot};

use crate::ast::SelectQuery;
use crate::cache::{Outcome, PutOutcome, StampedCache};
use crate::error::QueryError;
use crate::exec::{execute, QueryOutput};
use crate::lock::lock;
use crate::parse::parse;
use crate::plan::{plan, Footprint, Plan};
use crate::stats::StatsCatalog;
use crate::view::{ViewId, ViewRegistry, ViewUpdate};

/// Default bound on each cache (plans and results separately).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Cache hit/miss/dedup counters, cheap to read at any time.
///
/// Conservation law: every [`query`](QueryService::query) call
/// increments exactly one of `result_hits` / `result_misses` /
/// `result_dedup`, so their sum equals the number of queries served —
/// exactly, even under concurrency (the stress tests pin this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered straight from the result cache.
    pub result_hits: u64,
    /// Queries that had to execute.
    pub result_misses: u64,
    /// Queries that joined another thread's in-flight execution instead
    /// of executing themselves (single-flight dedup).
    pub result_dedup: u64,
    /// Plan lookups that reused a cached plan (raw or normalized hit).
    pub plan_hits: u64,
    /// Plan lookups that parsed and planned from scratch.
    pub plan_misses: u64,
    /// Plan lookups that joined another thread's in-flight compilation.
    pub plan_dedup: u64,
    /// Entries evicted from the plan cache by capacity pressure.
    pub plan_evictions: u64,
    /// Entries evicted from the result cache by capacity pressure.
    pub result_evictions: u64,
    /// Inserts rejected because their epoch stamp predated a delta
    /// touching their footprint (an install raced the computation).
    pub stale_put_rejects: u64,
    /// Delta segments stacked onto the serving view by
    /// [`apply_delta`](QueryService::apply_delta).
    pub delta_installs: u64,
    /// Result-cache entries that *survived* a delta install because
    /// their footprint was disjoint from the delta's touched
    /// predicates — the partial-invalidation win.
    pub result_retained: u64,
    /// Result-cache entries swept by a delta install (wildcard
    /// footprint or touched predicate).
    pub result_invalidated: u64,
}

/// The service's owned metric instances, published by name in a
/// [`Registry`]. Owning (rather than sharing get-or-create handles)
/// keeps per-service readouts exact even when several services coexist
/// in one process, as they do under `cargo test`.
struct ServiceMetrics {
    result_hits: Arc<Counter>,
    result_misses: Arc<Counter>,
    result_dedup: Arc<Counter>,
    plan_hits: Arc<Counter>,
    plan_misses: Arc<Counter>,
    plan_dedup: Arc<Counter>,
    plan_evictions: Arc<Counter>,
    result_evictions: Arc<Counter>,
    stale_put_rejects: Arc<Counter>,
    delta_installs: Arc<Counter>,
    result_retained: Arc<Counter>,
    result_invalidated: Arc<Counter>,
    /// Bytes of the answer blocks the result cache holds. Shared, not
    /// owned: the services of one registry (a router's partitions) sum
    /// their caches on it.
    cache_bytes: Arc<Gauge>,
    parse_us: Arc<Histogram>,
    plan_us: Arc<Histogram>,
    exec_us: Arc<Histogram>,
    clock: Arc<dyn Clock>,
}

impl ServiceMetrics {
    /// Fresh instances, registered (replacing same-named predecessors)
    /// in `registry`.
    fn publish(registry: &Registry) -> Self {
        let counter = |name: &str| {
            let c = Arc::new(Counter::new());
            registry.register_counter(name, Arc::clone(&c));
            c
        };
        let histogram = |name: &str| {
            let h = Arc::new(Histogram::latency());
            registry.register_histogram(name, Arc::clone(&h));
            h
        };
        ServiceMetrics {
            result_hits: counter("query.cache.result_hits"),
            result_misses: counter("query.cache.result_misses"),
            result_dedup: counter("query.cache.result_dedup"),
            plan_hits: counter("query.cache.plan_hits"),
            plan_misses: counter("query.cache.plan_misses"),
            plan_dedup: counter("query.cache.plan_dedup"),
            plan_evictions: counter("query.cache.plan_evictions"),
            result_evictions: counter("query.cache.result_evictions"),
            stale_put_rejects: counter("query.cache.stale_put_rejects"),
            delta_installs: counter("query.service.delta_installs"),
            result_retained: counter("query.cache.result_retained"),
            result_invalidated: counter("query.cache.result_invalidated"),
            cache_bytes: registry.gauge("query.cache.bytes"),
            parse_us: histogram("query.parse_us"),
            plan_us: histogram("query.plan_us"),
            exec_us: histogram("query.exec_us"),
            clock: registry.clock(),
        }
    }

    fn span(&self, hist: &Arc<Histogram>) -> SpanTimer {
        SpanTimer::start(Arc::clone(&self.clock), Arc::clone(hist))
    }

    /// Parses `text`, timed as `query.parse_us`.
    fn timed_parse(&self, text: &str) -> Result<SelectQuery, QueryError> {
        let parse_span = self.span(&self.parse_us);
        let parsed = parse(text);
        parse_span.stop();
        parsed
    }

    /// Maps one lookup's outcome onto its cache's counters: exactly one
    /// of `hits` / `misses` / `dedup` moves, and a miss whose value
    /// displaced an entry or bounced as stale counts as that too.
    fn count(&self, outcome: Outcome, [hits, misses, dedup, evictions]: [&Counter; 4]) {
        match outcome {
            Outcome::Hit => hits.inc(),
            Outcome::Joined => dedup.inc(),
            Outcome::Computed(put) => {
                misses.inc();
                match put {
                    Some(PutOutcome::Evicted) => evictions.inc(),
                    Some(PutOutcome::StaleRejected) => self.stale_put_rejects.inc(),
                    Some(PutOutcome::Inserted) | None => {}
                }
            }
        }
    }
}

/// The current serving view (base + delta stack) and its planner
/// statistics, swapped atomically under one lock. `epoch` bumps on
/// every delta install and scopes cache freshness per predicate. A
/// query clones it once and runs against that copy.
#[derive(Clone)]
struct Served {
    view: Arc<SegmentedSnapshot>,
    stats: Arc<StatsCatalog>,
    epoch: u64,
}

/// A concurrent query service over an immutable, segmentable KB view.
///
/// Shared by reference (or `Arc`) across client threads; all methods
/// take `&self`. See the module docs for what is cached and the metrics
/// published, `cache.rs` for caching discipline and single-flight dedup.
pub struct QueryService {
    current: Mutex<Served>,
    plans: StampedCache<Arc<Plan>>,
    results: StampedCache<Arc<QueryOutput>>,
    /// raw query text → normalized cache key. Text to text, so
    /// delta-independent: entries are stamped epoch 0 with the empty
    /// footprint and never go stale. Only the key: the parse itself
    /// would cost more memory than a re-parse is worth.
    aliases: StampedCache<Arc<str>>,
    /// Standing views maintained across delta installs. Lock order is
    /// always `current` → `views`, never the reverse.
    views: Mutex<ViewRegistry>,
    metrics: ServiceMetrics,
}

impl QueryService {
    /// Creates a service over `snapshot` with
    /// [`DEFAULT_CACHE_CAPACITY`] for both caches. Builds the
    /// statistics catalog once, up front. Metrics are published in the
    /// process-global [`kb_obs::global()`] registry.
    pub fn new(snapshot: Arc<KbSnapshot>) -> Self {
        Self::with_instrumentation(snapshot, DEFAULT_CACHE_CAPACITY, kb_obs::global())
    }

    /// Like [`new`](Self::new) with an explicit per-cache bound,
    /// publishing metrics in `registry` and timing spans with its
    /// clock. Tests pass a private registry (usually on a
    /// [`ManualClock`](kb_obs::ManualClock)) for exact, isolated
    /// readouts.
    pub fn with_instrumentation(
        snapshot: Arc<KbSnapshot>,
        capacity: usize,
        registry: &Registry,
    ) -> Self {
        let view = SegmentedSnapshot::from_base(snapshot);
        let stats = Arc::new(StatsCatalog::build(&view));
        Self::over(view, stats, capacity, registry)
    }

    /// The one place a service is assembled; the public constructors
    /// differ only in where the catalog comes from.
    fn over(
        view: SegmentedSnapshot,
        stats: Arc<StatsCatalog>,
        capacity: usize,
        registry: &Registry,
    ) -> Self {
        let metrics = ServiceMetrics::publish(registry);
        let answer_bytes = |out: &Arc<QueryOutput>| out.rows.heap_bytes();
        QueryService {
            current: Mutex::new(Served { view: Arc::new(view), stats, epoch: 0 }),
            plans: StampedCache::new(capacity),
            results: StampedCache::weighed(
                capacity,
                Arc::clone(&metrics.cache_bytes),
                answer_bytes,
            ),
            aliases: StampedCache::new(capacity * 4),
            views: Mutex::new(ViewRegistry::new(registry)),
            metrics,
        }
    }

    /// Like [`with_instrumentation`](Self::with_instrumentation), but
    /// planning with a caller-provided statistics catalog instead of
    /// one built from `snapshot`.
    ///
    /// This is the partitioned-replica constructor: a router slicing
    /// one KB into N partition services hands every replica the
    /// *global* catalog, so each partition makes exactly the join-order
    /// decisions a monolithic service over the whole KB would — the
    /// key to byte-identical routed-single answers.
    pub fn with_shared_stats(
        snapshot: Arc<KbSnapshot>,
        stats: Arc<StatsCatalog>,
        capacity: usize,
        registry: &Registry,
    ) -> Self {
        Self::over(SegmentedSnapshot::from_base(snapshot), stats, capacity, registry)
    }

    /// Builds a service that serves an already-layered view — the
    /// cold-start path for a durable
    /// [`SegmentStore`](kb_store::SegmentStore): the recovered base
    /// installs first, then each delta stacks in order, leaving caches
    /// and planner statistics exactly as if the deltas had been applied
    /// live.
    pub fn from_view(view: &SegmentedSnapshot) -> Self {
        let service = Self::new(Arc::clone(view.base()));
        for delta in view.deltas() {
            service.apply_delta(Arc::clone(delta));
        }
        service
    }

    /// Stacks `delta` onto the current view: the epoch bumps, the
    /// delta's statistics fold into the planner catalog incrementally,
    /// and only cached results whose footprint intersects the delta's
    /// [`touched_predicates`](DeltaSegment::touched_predicates) (plus
    /// all wildcard entries) are swept — everything else keeps serving.
    /// Plans survive unless wildcard: term ids are append-only across
    /// deltas, so a cached plan stays *correct*, merely possibly
    /// mis-costed against the updated catalog.
    ///
    /// The delta must have been frozen (via
    /// [`KbBuilder::freeze_delta`](kb_store::KbBuilder::freeze_delta))
    /// against the currently-served view — the sequential-stacking
    /// contract; a mismatch panics. The sweep runs while the service
    /// lock is held so no query can observe the new view with the old
    /// cache epoch.
    ///
    /// Returns one consistent [`ViewUpdate`] per registered standing
    /// view the delta touches — the subscription feed; callers without
    /// views ignore it. Views are maintained under the same service
    /// lock as the install itself, so every update batch corresponds to
    /// exactly one epoch.
    pub fn apply_delta(&self, delta: Arc<DeltaSegment>) -> Vec<ViewUpdate> {
        let cur = lock(&self.current);
        let stats = Arc::new(cur.stats.merged_with_delta(&delta));
        self.stack(cur, delta, stats)
    }

    /// [`apply_delta`](Self::apply_delta), installing a caller-provided
    /// statistics catalog instead of folding the delta's statistics
    /// into the current one.
    ///
    /// Partitioned deployments pass one: the router merges the *full*
    /// delta into the global catalog once and hands the result to every
    /// partition replica, so all replicas keep planning against
    /// identical whole-KB statistics no matter which slice of the delta
    /// they received.
    pub fn apply_delta_with_stats(
        &self,
        delta: Arc<DeltaSegment>,
        stats: Arc<StatsCatalog>,
    ) -> Vec<ViewUpdate> {
        self.stack(lock(&self.current), delta, stats)
    }

    /// The body both delta doors share, run under the service lock
    /// `cur` their caller took.
    fn stack(
        &self,
        mut cur: MutexGuard<'_, Served>,
        delta: Arc<DeltaSegment>,
        stats: Arc<StatsCatalog>,
    ) -> Vec<ViewUpdate> {
        let old_view = Arc::clone(&cur.view);
        let view = Arc::new(cur.view.with_delta(Arc::clone(&delta)));
        cur.epoch += 1;
        let epoch = cur.epoch;
        cur.view = view;
        cur.stats = stats;
        let touched = delta.touched_predicates();
        self.plans.apply_delta(epoch, touched, true);
        let (retained, invalidated) = self.results.apply_delta(epoch, touched, false);
        let updates = lock(&self.views).apply_delta(
            delta.as_ref(),
            old_view.as_ref(),
            cur.view.as_ref(),
            &cur.stats,
        );
        drop(cur);
        self.metrics.delta_installs.inc();
        self.metrics.result_retained.add(retained);
        self.metrics.result_invalidated.add(invalidated);
        updates
    }

    /// Registers `text` as a materialized standing view over the
    /// currently-served view; later [`apply_delta`](Self::apply_delta)
    /// calls patch its answer incrementally (see [`ViewRegistry`](crate::ViewRegistry)).
    /// Registration holds the service lock so the initial answer is
    /// consistent with one epoch.
    pub fn register_view(&self, text: &str) -> Result<ViewId, QueryError> {
        let cur = lock(&self.current);
        lock(&self.views).register(text, cur.view.as_ref(), &cur.stats)
    }

    /// Removes a standing view; returns whether it existed.
    pub fn unregister_view(&self, id: ViewId) -> bool {
        lock(&self.views).unregister(id)
    }

    /// The standing view's current materialized answer (canonical row
    /// order).
    pub fn view_result(&self, id: ViewId) -> Option<Arc<QueryOutput>> {
        lock(&self.views).result(id)
    }

    /// The delta epoch (starts at 0, bumps on
    /// [`apply_delta`](Self::apply_delta)).
    pub fn epoch(&self) -> u64 {
        lock(&self.current).epoch
    }

    /// The currently served view: the base snapshot plus any stacked
    /// deltas. Freeze incremental batches against this.
    pub fn snapshot(&self) -> Arc<SegmentedSnapshot> {
        lock(&self.current).view.clone()
    }

    /// Cache counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            result_hits: self.metrics.result_hits.get(),
            result_misses: self.metrics.result_misses.get(),
            result_dedup: self.metrics.result_dedup.get(),
            plan_hits: self.metrics.plan_hits.get(),
            plan_misses: self.metrics.plan_misses.get(),
            plan_dedup: self.metrics.plan_dedup.get(),
            plan_evictions: self.metrics.plan_evictions.get(),
            result_evictions: self.metrics.result_evictions.get(),
            stale_put_rejects: self.metrics.stale_put_rejects.get(),
            delta_installs: self.metrics.delta_installs.get(),
            result_retained: self.metrics.result_retained.get(),
            result_invalidated: self.metrics.result_invalidated.get(),
        }
    }

    /// Looks up or compiles the plan for `text`. Public so callers can
    /// inspect it: [`Plan::describe`] labels its operators (the CLI's
    /// `--explain` prints them).
    pub fn plan_for(&self, text: &str) -> Result<Arc<Plan>, QueryError> {
        let at = lock(&self.current).clone();
        let (key, parsed) = self.normalized_key(text)?;
        self.plan_of(text, &key, parsed, &at)
    }

    /// Level 1, the raw-text alias: the normalized cache key remembered
    /// for `text`, which skips parsing. On a miss the text is parsed,
    /// its canonical form becomes the key, and the parse is handed back
    /// for the planning that follows; `None` there: alias remembered.
    fn normalized_key(&self, text: &str) -> Result<(Arc<str>, Option<SelectQuery>), QueryError> {
        let mut parsed = None;
        let (key, _) = self.aliases.get_or_compute(text, 0, || {
            let query = self.metrics.timed_parse(text)?;
            let key = Arc::from(query.to_string());
            parsed = Some(query);
            Ok((key, Footprint::default()))
        });
        Ok((key?, parsed))
    }

    /// Level 2: the plan cached under the normalized `key` for the
    /// served view `at`, compiled (timed) on a miss — from `parsed`, or
    /// from `text` again if a remembered alias had skipped the parse.
    fn plan_of(
        &self,
        text: &str,
        key: &str,
        parsed: Option<SelectQuery>,
        at: &Served,
    ) -> Result<Arc<Plan>, QueryError> {
        let (compiled, outcome) = self.plans.get_or_compute(key, at.epoch, || {
            let parsed = match parsed {
                Some(query) => query,
                None => self.metrics.timed_parse(text)?,
            };
            let plan_span = self.metrics.span(&self.metrics.plan_us);
            let compiled = plan(&parsed, at.view.as_ref(), &at.stats);
            plan_span.stop();
            let compiled = Arc::new(compiled?);
            let footprint = compiled.footprint().clone();
            Ok((compiled, footprint))
        });
        let m = &self.metrics;
        m.count(outcome, [&m.plan_hits, &m.plan_misses, &m.plan_dedup, &m.plan_evictions]);
        compiled
    }

    /// Parses (or reuses), plans (or reuses) and executes `text`
    /// against the current view, consulting the result cache first
    /// and deduplicating concurrent identical executions (single
    /// flight).
    pub fn query(&self, text: &str) -> Result<Arc<QueryOutput>, QueryError> {
        let at = lock(&self.current).clone();
        let (key, parsed) = self.normalized_key(text)?;
        // A remembered raw text probes the result cache before it
        // touches the plan cache: the hot path for repeated identical
        // queries moves one counter and never parses or plans.
        if parsed.is_none() {
            if let Some(hit) = self.results.probe(&key, at.epoch) {
                self.metrics.result_hits.inc();
                return Ok(hit);
            }
        }
        let compiled = self.plan_of(text, &key, parsed, &at)?;
        let (out, outcome) = self.results.get_or_compute(&key, at.epoch, || {
            let exec_span = self.metrics.span(&self.metrics.exec_us);
            let out = Arc::new(execute(compiled.as_ref(), at.view.as_ref()));
            exec_span.stop();
            Ok((out, compiled.footprint().clone()))
        });
        let m = &self.metrics;
        m.count(outcome, [&m.result_hits, &m.result_misses, &m.result_dedup, &m.result_evictions]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;
    use std::sync::Barrier;
    use std::thread;

    fn snapshot() -> Arc<KbSnapshot> {
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        b.assert_str("Steve_Wozniak", "bornIn", "San_Jose");
        b.assert_str("San_Francisco", "locatedIn", "California");
        b.assert_str("San_Jose", "locatedIn", "California");
        b.freeze().into_shared()
    }

    fn service() -> QueryService {
        // A private registry keeps counter readouts isolated from any
        // other service living in this (parallel) test process.
        QueryService::with_instrumentation(snapshot(), DEFAULT_CACHE_CAPACITY, &Registry::new())
    }

    #[test]
    fn repeated_query_hits_both_caches() {
        let svc = service();
        let q = "?p bornIn ?c . ?c locatedIn California";
        let a = svc.query(q).unwrap();
        let b = svc.query(q).unwrap();
        assert_eq!(a, b);
        let stats = svc.cache_stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.result_misses, 1);
        assert_eq!(stats.result_hits, 1);
    }

    #[test]
    fn formatting_variants_share_a_plan() {
        let svc = service();
        svc.query("SELECT ?p WHERE { ?p bornIn San_Jose }").unwrap();
        svc.query("select  ?p  where { ?p bornIn San_Jose . }").unwrap();
        let stats = svc.cache_stats();
        assert_eq!(stats.plan_misses, 1, "normalization should merge the variants");
        assert_eq!(stats.result_hits, 1);
    }

    /// Pins every counter transition on the two probe paths: the
    /// raw-alias fast path (no parse) vs the normalized path (parse,
    /// then canonical-key probes).
    #[test]
    fn counter_transitions_raw_alias_vs_normalized_path() {
        let svc = service();
        let raw = "select ?p where { ?p bornIn San_Jose }"; // non-canonical spelling

        // 1. Cold: alias miss → parse → plan miss → result miss.
        svc.query(raw).unwrap();
        assert_eq!(
            svc.cache_stats(),
            CacheStats { plan_misses: 1, result_misses: 1, ..Default::default() }
        );

        // 2. Same raw text: alias hit → result hit. No parse, no plan
        //    counter moves.
        svc.query(raw).unwrap();
        assert_eq!(
            svc.cache_stats(),
            CacheStats { plan_misses: 1, result_misses: 1, result_hits: 1, ..Default::default() }
        );

        // 3. A formatting variant (alias miss, same canonical form):
        //    parse → plan HIT under the canonical key → result hit.
        svc.query("SELECT ?p WHERE { ?p bornIn San_Jose . }").unwrap();
        assert_eq!(
            svc.cache_stats(),
            CacheStats {
                plan_misses: 1,
                plan_hits: 1,
                result_misses: 1,
                result_hits: 2,
                ..Default::default()
            }
        );

        // 4. The variant again: its alias is now remembered → pure
        //    result hit on the fast path.
        svc.query("SELECT ?p WHERE { ?p bornIn San_Jose . }").unwrap();
        assert_eq!(
            svc.cache_stats(),
            CacheStats {
                plan_misses: 1,
                plan_hits: 1,
                result_misses: 1,
                result_hits: 3,
                ..Default::default()
            }
        );

        // 5. plan_for alone on a fresh text: plan miss, result counters
        //    untouched.
        svc.plan_for("?c locatedIn California").unwrap();
        let s = svc.cache_stats();
        assert_eq!((s.plan_misses, s.result_misses, s.result_hits), (2, 1, 3));

        // Conservation: one result counter per query() call.
        assert_eq!(s.result_hits + s.result_misses + s.result_dedup, 4);
    }

    /// The partial-invalidation win: a delta that touches only a
    /// disjoint predicate leaves warm results serving, bumps the
    /// retention counter and never re-executes.
    #[test]
    fn delta_install_retains_untouched_results() {
        let svc = service();
        let qa = "SELECT ?p WHERE { ?p bornIn San_Jose }";
        let qb = "SELECT ?c WHERE { ?c locatedIn California }";
        svc.query(qa).unwrap();
        svc.query(qb).unwrap();

        // A delta touching only a brand-new predicate.
        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "worksAt", "Apple_Inc");
        svc.apply_delta(Arc::new(b.freeze_delta(&view)));
        assert_eq!(svc.epoch(), 1);

        // Both warm results survive: pure cache hits, no re-execution.
        svc.query(qa).unwrap();
        svc.query(qb).unwrap();
        let stats = svc.cache_stats();
        assert_eq!(stats.delta_installs, 1);
        assert_eq!(stats.result_retained, 2, "disjoint-footprint entries must survive");
        assert_eq!(stats.result_invalidated, 0);
        assert_eq!(stats.result_misses, 2, "no re-execution after the delta");
        assert_eq!(stats.result_hits, 2);

        // The new fact is still queryable (fresh execution).
        let out = svc.query("SELECT ?x WHERE { Steve_Jobs worksAt ?x }").unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    /// The flip side: a delta touching a cached query's predicate
    /// sweeps exactly that entry, and the re-execution sees the delta.
    #[test]
    fn delta_install_invalidates_touched_predicates_only() {
        let svc = service();
        let qa = "SELECT ?p WHERE { ?p bornIn San_Jose }";
        let qb = "SELECT ?c WHERE { ?c locatedIn California }";
        assert_eq!(svc.query(qa).unwrap().rows.len(), 1);
        svc.query(qb).unwrap();

        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Another_Person", "bornIn", "San_Jose");
        svc.apply_delta(Arc::new(b.freeze_delta(&view)));

        let after = svc.query(qa).unwrap();
        assert_eq!(after.rows.len(), 2, "swept entry must re-execute over the delta");
        let stats = svc.cache_stats();
        assert_eq!(stats.result_invalidated, 1, "only the bornIn entry dies");
        assert_eq!(stats.result_retained, 1, "the locatedIn entry survives");
        assert_eq!(stats.result_misses, 3, "qa cold, qb cold, qa after the delta");
    }

    /// Standing views ride the install path: a registered view is
    /// patched by `apply_delta` and the update batch it returns carries
    /// exactly the changed rows.
    #[test]
    fn standing_view_patches_through_the_install_path() {
        let svc = service();
        let id = svc
            .register_view("SELECT ?p ?c WHERE { ?p bornIn ?c . ?c locatedIn California }")
            .unwrap();
        assert_eq!(svc.view_result(id).unwrap().rows.len(), 2);

        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Jerry_Brown", "bornIn", "San_Francisco");
        b.retract_str("Steve_Wozniak", "bornIn", "San_Jose");
        let updates = svc.apply_delta(Arc::new(b.freeze_delta(&view)));
        assert_eq!(updates.len(), 1);
        assert!(updates[0].patched, "conjunctive SELECT must be delta-patched");
        assert_eq!(updates[0].added.len(), 1);
        assert_eq!(updates[0].removed.len(), 1);

        // The patched answer matches a fresh service-level execution.
        let direct = svc.query("SELECT ?p ?c WHERE { ?p bornIn ?c . ?c locatedIn California }");
        assert_eq!(svc.view_result(id).unwrap().rows.len(), direct.unwrap().rows.len());

        assert!(svc.unregister_view(id));
        assert!(svc.view_result(id).is_none());
    }

    /// A query without variables answers in rows of no cells, so its
    /// row count is all it says. Every stage an answer passes through
    /// keeps that count: the executor, DISTINCT, OFFSET and LIMIT, the
    /// result cache, a standing view across a retraction and a
    /// re-assertion, and the render.
    #[test]
    fn a_ground_query_keeps_its_row_count_through_every_stage() {
        let svc = service();
        let fact = "Steve_Wozniak bornIn San_Jose";
        let count = |text: &str| crate::query(svc.snapshot().as_ref(), text).unwrap().rows.len();
        let out = crate::query(svc.snapshot().as_ref(), fact).unwrap();
        assert_eq!((out.cols.len(), out.rows.len()), (0, 1));
        assert!(out.rows[0].is_empty());
        assert_eq!(out.render(svc.snapshot().as_ref()), "\n");
        assert_eq!(count("Steve_Wozniak bornIn San_Francisco"), 0);

        let both = "{ Steve_Wozniak bornIn San_Jose } UNION { Steve_Jobs bornIn San_Francisco }";
        assert_eq!(count(&format!("SELECT * WHERE {{ {both} }}")), 2);
        assert_eq!(count(&format!("SELECT DISTINCT * WHERE {{ {both} }}")), 1);
        assert_eq!(count(&format!("SELECT * WHERE {{ {both} }} OFFSET 1")), 1);
        assert_eq!(count(&format!("SELECT * WHERE {{ {both} }} OFFSET 3")), 0);
        assert_eq!(count(&format!("SELECT * WHERE {{ {both} }} LIMIT 0")), 0);
        assert_eq!(count(&format!("SELECT DISTINCT * WHERE {{ {both} }} LIMIT 1")), 1);

        assert_eq!(svc.query(fact).unwrap().rows.len(), 1);
        assert_eq!(svc.query(fact).unwrap().rows.len(), 1);
        assert_eq!(svc.cache_stats().result_hits, 1, "the second answer comes from the cache");

        let id = svc.register_view(fact).unwrap();
        assert_eq!(svc.view_result(id).unwrap().rows.len(), 1);
        let install = |edit: &dyn Fn(&mut KbBuilder)| {
            let mut b = KbBuilder::new();
            edit(&mut b);
            let mut updates = svc.apply_delta(Arc::new(b.freeze_delta(&svc.snapshot())));
            assert_eq!(updates.len(), 1);
            assert!(updates[0].patched, "a ground pattern is delta-patchable");
            updates.remove(0)
        };
        let gone = install(&|b| {
            b.retract_str("Steve_Wozniak", "bornIn", "San_Jose");
        });
        assert_eq!((gone.added.len(), gone.removed.len(), gone.output.rows.len()), (0, 1, 0));
        assert_eq!(svc.query(fact).unwrap().rows.len(), 0);
        let back = install(&|b| {
            b.assert_str("Steve_Wozniak", "bornIn", "San_Jose");
        });
        assert_eq!((back.added.len(), back.removed.len(), back.output.rows.len()), (1, 0, 1));
        assert_eq!(svc.view_result(id).unwrap().rows.len(), 1);
        assert_eq!(back.output.render(svc.snapshot().as_ref()), "\n");
        assert_eq!(svc.query(fact).unwrap().rows.len(), 1);
    }

    /// A delta disjoint from every view footprint produces no updates,
    /// and an `apply_delta` whose updates are ignored still maintains
    /// state.
    #[test]
    fn standing_view_survives_silent_installs() {
        let svc = service();
        let id = svc.register_view("SELECT ?p WHERE { ?p bornIn San_Jose }").unwrap();

        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "worksAt", "Apple_Inc");
        let updates = svc.apply_delta(Arc::new(b.freeze_delta(&view)));
        assert!(updates.is_empty(), "disjoint delta must not touch the view");

        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Another_Person", "bornIn", "San_Jose");
        svc.apply_delta(Arc::new(b.freeze_delta(&view)));
        assert_eq!(
            svc.view_result(id).unwrap().rows.len(),
            2,
            "installs whose updates are dropped still patch the materialized answer"
        );
    }

    /// The thundering-herd fix: N threads issuing the same cold query
    /// must produce exactly one execution (one `result_miss`); everyone
    /// else is a cache hit or a single-flight join.
    #[test]
    fn single_flight_dedups_concurrent_cold_queries() {
        const THREADS: usize = 8;
        let svc = Arc::new(service());
        let barrier = Arc::new(Barrier::new(THREADS));
        let q = "?p bornIn ?c . ?c locatedIn California";
        let outputs: Vec<Arc<QueryOutput>> = thread::scope(|scope| {
            (0..THREADS)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        svc.query(q).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for out in &outputs[1..] {
            assert_eq!(out, &outputs[0], "all threads must see the same answer");
        }
        let stats = svc.cache_stats();
        assert_eq!(stats.result_misses, 1, "exactly one execution: {stats:?}");
        assert_eq!(stats.plan_misses, 1, "exactly one compilation: {stats:?}");
        assert_eq!(
            stats.result_hits + stats.result_dedup,
            (THREADS - 1) as u64,
            "everyone else reused the leader's work: {stats:?}"
        );
    }

    #[test]
    fn eviction_and_error_counters_are_exposed() {
        let reg = Registry::new();
        let svc = QueryService::with_instrumentation(snapshot(), 1, &reg);
        svc.query("?p bornIn ?c").unwrap();
        svc.query("?c locatedIn ?s").unwrap(); // evicts the first plan+result
        let stats = svc.cache_stats();
        assert_eq!(stats.plan_evictions, 1);
        assert_eq!(stats.result_evictions, 1);
        // A parse error increments nothing but leaves the service sane.
        assert!(svc.query("SELECT WHERE {").is_err());
        assert_eq!(svc.cache_stats().result_misses, 2);
        // The metrics are visible in the registry the service published
        // into.
        assert!(reg.render_json().contains("\"query.cache.plan_evictions\":1"));
    }

    /// `query.cache.bytes` is what the cached answer blocks hold: raised
    /// by an insert, lowered by an eviction and a delta sweep, summed
    /// over the services of one registry while each lives.
    #[test]
    fn cache_bytes_gauge_follows_the_answers_held() {
        let reg = Registry::new();
        let bytes = || reg.gauge("query.cache.bytes").get();
        let svc = QueryService::with_instrumentation(snapshot(), 1, &reg);
        let born = svc.query("?p bornIn ?c").unwrap().rows.heap_bytes() as i64;
        assert!(born > 0);
        assert_eq!(bytes(), born);
        let located = svc.query("?c locatedIn ?s").unwrap().rows.heap_bytes() as i64;
        assert_eq!(bytes(), located, "the first answer was evicted");

        let other = QueryService::with_instrumentation(snapshot(), 1, &reg);
        other.query("?p bornIn ?c").unwrap();
        assert_eq!(bytes(), located + born, "two services sum on one gauge");
        drop(other);
        assert_eq!(bytes(), located, "a service takes its share along");

        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Cupertino", "locatedIn", "California");
        svc.apply_delta(Arc::new(b.freeze_delta(&view)));
        assert_eq!(bytes(), 0, "the delta swept the locatedIn answer");
    }

    /// Timing histograms record one sample per timed step, with
    /// durations from the injected clock — never the wall clock.
    #[test]
    fn latency_histograms_use_the_injected_clock() {
        let clock = kb_obs::ManualClock::shared(0);
        let reg = Registry::with_clock(clock);
        let svc = QueryService::with_instrumentation(snapshot(), DEFAULT_CACHE_CAPACITY, &reg);
        svc.query("?p bornIn ?c").unwrap(); // cold: parse + plan + exec
        svc.query("?p bornIn ?c").unwrap(); // alias fast path: no timing
        let parse = reg.histogram("query.parse_us").snapshot();
        let plan = reg.histogram("query.plan_us").snapshot();
        let exec = reg.histogram("query.exec_us").snapshot();
        assert_eq!((parse.count, plan.count, exec.count), (1, 1, 1));
        // The manual clock never advanced, so every duration is exactly
        // zero — deterministically.
        assert_eq!((parse.sum, plan.sum, exec.sum), (0, 0, 0));
    }
}
