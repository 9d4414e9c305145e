//! The scatter-gather router: N partition replicas, planner-aware
//! routing, epoch-barrier delta fan-out.

use std::fmt;
use std::sync::{Arc, Mutex, RwLock};

use kb_obs::Registry;
use kb_query::{
    routing_decision, QueryError, QueryOutput, QueryService, RoutingDecision, StatsCatalog, ViewId,
    ViewRegistry, DEFAULT_CACHE_CAPACITY,
};
use kb_store::{
    partition_delta, partition_snapshot, subject_partition, DeltaSegment, KbSnapshot,
    PartitionedView,
};

use crate::admission::{Admission, AdmissionConfig, Overloaded};
use crate::lock::{lock, read, write};
use crate::metrics::ServeMetrics;
use crate::subscribe::{Subscription, SubscriptionHub};

/// The tenant [`KbRouter::query`] bills requests to.
pub const DEFAULT_TENANT: &str = "default";

/// What a routed request can fail with: a query-layer error
/// (parse/plan), or a typed admission rejection.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Parse or plan failure, verbatim from the query layer.
    Query(QueryError),
    /// Shed by admission control — retry later or at a lower rate.
    Overloaded(Overloaded),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Query(e) => write!(f, "{e}"),
            ServeError::Overloaded(o) => write!(f, "overloaded: {o}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        ServeError::Query(e)
    }
}

/// The merged state the scatter path executes against, swapped
/// atomically on every delta install. Holding one clone of these Arcs
/// gives a query a consistent cross-partition view for its whole
/// execution — the epoch barrier.
struct MergedState {
    view: Arc<PartitionedView>,
    stats: Arc<StatsCatalog>,
    epoch: u64,
}

/// A partitioned serving endpoint: subject-hash partitions of one KB,
/// each behind its own [`QueryService`] replica, fronted by
/// planner-aware routing and admission control.
///
/// See the [crate docs](crate) for the partitioning invariant, the
/// scatter design and the consistency story. The router is `Send +
/// Sync`; share it by reference or `Arc` across client threads.
pub struct KbRouter {
    services: Vec<Arc<QueryService>>,
    state: RwLock<MergedState>,
    admission: Admission,
    /// Standing views over the *merged* view: term ids are global
    /// (replicated dictionaries), so maintaining once at the router
    /// against the full delta is byte-identical to maintaining on a
    /// monolithic service. Lock order is `state` → `views`.
    views: Mutex<ViewRegistry>,
    subs: SubscriptionHub,
    subscriber_buffer: usize,
    metrics: ServeMetrics,
}

impl KbRouter {
    /// Partitions `base` into `partitions` replicas behind the
    /// admission policy `config`, publishing metrics in `registry`
    /// (tests pass a private registry on a
    /// [`ManualClock`](kb_obs::ManualClock) for exact readouts and
    /// deterministic token buckets).
    pub fn with_config(
        base: Arc<KbSnapshot>,
        partitions: usize,
        config: AdmissionConfig,
        registry: &Registry,
    ) -> Self {
        assert!(partitions > 0, "router needs at least one partition");
        let metrics = ServeMetrics::publish(registry);
        // The *global* catalog: every replica plans with whole-KB
        // statistics, so join orders match the monolithic oracle's.
        let stats = Arc::new(StatsCatalog::build(base.as_ref()));
        let services: Vec<Arc<QueryService>> = partition_snapshot(&base, partitions)
            .into_iter()
            .map(|part| {
                Arc::new(QueryService::with_shared_stats(
                    part.into_shared(),
                    Arc::clone(&stats),
                    DEFAULT_CACHE_CAPACITY,
                    registry,
                ))
            })
            .collect();
        let view = Arc::new(PartitionedView::new(services.iter().map(|s| s.snapshot()).collect()));
        let subscriber_buffer = config.subscriber_buffer;
        let admission = Admission::new(
            config,
            registry.clock(),
            partitions,
            Arc::clone(&metrics.queue_depth),
            Arc::clone(&metrics.tenants),
        );
        KbRouter {
            services,
            state: RwLock::new(MergedState { view, stats, epoch: 0 }),
            admission,
            views: Mutex::new(ViewRegistry::new(registry)),
            subs: SubscriptionHub::new(
                Arc::clone(&metrics.view_pushed),
                Arc::clone(&metrics.view_lagged),
            ),
            subscriber_buffer,
            metrics,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.services.len()
    }

    /// The delta epoch (bumps once per [`apply_delta`](Self::apply_delta)).
    pub fn epoch(&self) -> u64 {
        read(&self.state).epoch
    }

    /// The current merged view — what scatter queries execute over, and
    /// what callers render results against.
    pub fn view(&self) -> Arc<PartitionedView> {
        Arc::clone(&read(&self.state).view)
    }

    /// One partition's replica (tests assert per-partition cache and
    /// install counters through this).
    pub fn service(&self, partition: usize) -> &Arc<QueryService> {
        &self.services[partition]
    }

    /// Installs `delta` across every partition under the epoch barrier.
    ///
    /// `delta` must have been frozen against the current merged view
    /// (same sequential-stacking contract as
    /// [`QueryService::apply_delta`] — valid because every replica's
    /// term/source totals equal the merged view's). The router splits
    /// the frozen segment by subject hash, folds the *full* delta into
    /// the global statistics once, installs each slice on its replica,
    /// and swaps the merged scatter view — all while holding the state
    /// write lock, so no scatter query can observe some partitions
    /// pre-delta and others post-delta, and no two installs interleave.
    /// Subject-bound queries keep serving throughout (each replica
    /// swap is internally atomic).
    pub fn apply_delta(&self, delta: Arc<DeltaSegment>) {
        let span = self.metrics.span(&self.metrics.install_us);
        let mut st = write(&self.state);
        let old_view = Arc::clone(&st.view);
        let split = partition_delta(delta.as_ref(), st.view.as_ref(), self.services.len());
        let stats = Arc::new(st.stats.merged_with_delta(&delta));
        for (service, slice) in self.services.iter().zip(split) {
            service.apply_delta_with_stats(Arc::new(slice), Arc::clone(&stats));
        }
        st.view =
            Arc::new(PartitionedView::new(self.services.iter().map(|s| s.snapshot()).collect()));
        st.stats = stats;
        st.epoch += 1;
        // Standing views maintain against the *full* delta over the
        // old/new merged views, still under the epoch barrier — one
        // consistent update batch per view per install. The push never
        // blocks (bounded queues shed), so a stalled subscriber cannot
        // hold the barrier.
        let updates = lock(&self.views).apply_delta(
            delta.as_ref(),
            old_view.as_ref(),
            st.view.as_ref(),
            &st.stats,
        );
        self.subs.push(updates);
        drop(st);
        span.stop();
        self.metrics.installs.inc();
    }

    /// Registers `text` as a materialized standing view over the merged
    /// view; every later [`apply_delta`](Self::apply_delta) patches it
    /// under the epoch barrier and fans one consistent [`ViewUpdate`]
    /// batch out to its subscribers.
    ///
    /// [`ViewUpdate`]: kb_query::ViewUpdate
    pub fn register_view(&self, text: &str) -> Result<ViewId, ServeError> {
        let st = read(&self.state);
        let id = lock(&self.views).register(text, st.view.as_ref(), &st.stats)?;
        Ok(id)
    }

    /// Removes a standing view; returns whether it existed. Existing
    /// subscriptions on it simply stop receiving updates.
    pub fn unregister_view(&self, id: ViewId) -> bool {
        lock(&self.views).unregister(id)
    }

    /// The standing view's current materialized answer (canonical row
    /// order; render against [`view`](Self::view)).
    pub fn view_result(&self, id: ViewId) -> Option<Arc<QueryOutput>> {
        lock(&self.views).result(id)
    }

    /// Opens a subscription on a standing view. The queue is bounded by
    /// [`AdmissionConfig::subscriber_buffer`]; see
    /// [`Subscription::try_recv`] for the lag contract.
    pub fn subscribe(&self, id: ViewId) -> Subscription {
        self.subs.subscribe(id, self.subscriber_buffer)
    }

    /// [`query_as`](Self::query_as) billed to [`DEFAULT_TENANT`].
    pub fn query(&self, text: &str) -> Result<Arc<QueryOutput>, ServeError> {
        self.query_as(DEFAULT_TENANT, text)
    }

    /// Admits, routes and executes one query for `tenant`.
    ///
    /// Subject-bound queries go to the owning partition's replica
    /// (plan/result caches included); everything else plans and
    /// executes once over the merged view captured under the epoch
    /// barrier. Either way the answer is byte-identical to a monolithic
    /// [`QueryService`] over the unpartitioned KB.
    pub fn query_as(&self, tenant: &str, text: &str) -> Result<Arc<QueryOutput>, ServeError> {
        let route_span = self.metrics.span(&self.metrics.route_us);
        if let Err(over) = self.admission.admit(tenant) {
            self.metrics.shed.inc();
            return Err(ServeError::Overloaded(over));
        }
        let parsed = kb_query::parse(text)?;
        let decision = routing_decision(&parsed);
        route_span.stop();
        match decision {
            RoutingDecision::SubjectBound { subject } => {
                let partition = subject_partition(&subject, self.services.len());
                let _permit = match self.admission.acquire(&[partition]) {
                    Ok(permit) => permit,
                    Err(over) => {
                        self.metrics.shed.inc();
                        return Err(ServeError::Overloaded(over));
                    }
                };
                self.metrics.admitted.inc();
                self.metrics.routed_single.inc();
                let _span = self.metrics.span(&self.metrics.single_us);
                Ok(self.services[partition].query(text)?)
            }
            RoutingDecision::Scatter => {
                let all: Vec<usize> = (0..self.services.len()).collect();
                let _permit = match self.admission.acquire(&all) {
                    Ok(permit) => permit,
                    Err(over) => {
                        self.metrics.shed.inc();
                        return Err(ServeError::Overloaded(over));
                    }
                };
                self.metrics.admitted.inc();
                self.metrics.scattered.inc();
                let _span = self.metrics.span(&self.metrics.scatter_us);
                // Capture view + stats together under the read lock:
                // the query's whole execution sees one epoch.
                let (view, stats) = {
                    let st = read(&self.state);
                    (Arc::clone(&st.view), Arc::clone(&st.stats))
                };
                let plan = kb_query::plan(&parsed, view.as_ref(), &stats)?;
                Ok(Arc::new(kb_query::execute(&plan, view.as_ref())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::{KbBuilder, KbRead, SegmentedSnapshot};

    fn sample() -> Arc<KbSnapshot> {
        let mut b = KbBuilder::new();
        for i in 0..20 {
            b.assert_str(&format!("p{i}"), "bornIn", &format!("c{}", i % 4));
            b.assert_str(&format!("c{}", i % 4), "locatedIn", "X");
        }
        b.freeze().into_shared()
    }

    fn isolated(partitions: usize, config: AdmissionConfig) -> (KbRouter, Registry) {
        let registry = Registry::new();
        let router = KbRouter::with_config(sample(), partitions, config, &registry);
        (router, registry)
    }

    #[test]
    fn routed_single_and_scatter_match_the_oracle() {
        let snap = sample();
        let oracle = QueryService::with_instrumentation(Arc::clone(&snap), 64, &Registry::new());
        let oview = oracle.snapshot();
        for n in [1usize, 2, 4] {
            let (router, registry) = isolated(n, AdmissionConfig::default());
            let view = router.view();
            for q in [
                "p3 bornIn ?c",                   // subject-bound
                "p3 bornIn ?c . p3 ?r ?x",        // subject-bound, two patterns
                "?p bornIn ?c",                   // scatter
                "?p bornIn ?c . ?c locatedIn ?n", // scatter join
                "SELECT DISTINCT ?c WHERE { ?p bornIn ?c } ORDER BY ?c LIMIT 3",
                "SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c",
            ] {
                let got = router.query(q).expect("router query");
                let want = oracle.query(q).expect("oracle query");
                assert_eq!(got.render(view.as_ref()), want.render(oview.as_ref()), "{q} at n={n}");
            }
            assert_eq!(registry.counter("serve.routed_single").get(), 2);
            assert_eq!(registry.counter("serve.scattered").get(), 4);
            assert_eq!(registry.counter("serve.shed").get(), 0);
        }
    }

    #[test]
    fn subject_bound_queries_touch_only_the_owning_partition() {
        let (router, registry) = isolated(4, AdmissionConfig::default());
        // Query several distinct subjects; each must hit exactly its
        // owner — the other replicas' caches never see a miss.
        let mut expected = [0u64; 4];
        for i in 0..8 {
            let subject = format!("p{i}");
            router.query(&format!("{subject} bornIn ?c")).unwrap();
            expected[subject_partition(&subject, 4)] += 1;
        }
        assert_eq!(registry.counter("serve.routed_single").get(), 8);
        for (p, want) in expected.iter().enumerate() {
            let stats = router.service(p).cache_stats();
            assert_eq!(
                stats.result_hits + stats.result_misses,
                *want,
                "partition {p} served the wrong share"
            );
        }
    }

    #[test]
    fn delta_fanout_keeps_all_partitions_aligned() {
        let base = sample();
        let registry = Registry::new();
        let router =
            KbRouter::with_config(Arc::clone(&base), 3, AdmissionConfig::default(), &registry);
        let before = router.query("?p worksAt ?o").unwrap();
        assert!(before.rows.is_empty());
        let mut b = KbBuilder::new();
        b.assert_str("p1", "worksAt", "NewCo");
        b.assert_str("p2", "worksAt", "NewCo");
        b.retract_str("p1", "bornIn", "c1");
        // Freeze against the monolithic view: the router's replicated
        // dictionary is id-identical to it, so the delta installs on
        // both sides unchanged.
        let delta = Arc::new(b.freeze_delta(&SegmentedSnapshot::from_base(base)));
        router.apply_delta(delta);
        assert_eq!(router.epoch(), 1);
        let after = router.query("?p worksAt ?o").unwrap();
        assert_eq!(after.rows.len(), 2);
        let gone = router.query("p1 bornIn ?c").unwrap();
        assert!(gone.rows.is_empty(), "tombstone must reach the owning partition");
        // New term resolvable everywhere (replicated ext tables).
        let v = router.view();
        for p in 0..3 {
            assert!(v.part(p).term("NewCo").is_some(), "partition {p} missing the new term");
        }
    }

    /// Standing views at the router are byte-identical to a monolithic
    /// service's, at 1 and 4 partitions, across a chain of deltas with
    /// retractions — the IVM analogue of the scatter-gather oracle
    /// test.
    #[test]
    fn partitioned_standing_views_match_the_monolith() {
        let queries = [
            "SELECT ?p ?c WHERE { ?p bornIn ?c . ?c locatedIn X }",
            "SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c ORDER BY ?c",
        ];
        for n in [1usize, 4] {
            let (router, _registry) = isolated(n, AdmissionConfig::default());
            let mono = QueryService::with_instrumentation(sample(), 64, &Registry::new());
            let router_ids: Vec<_> =
                queries.iter().map(|q| router.register_view(q).unwrap()).collect();
            let mono_ids: Vec<_> = queries.iter().map(|q| mono.register_view(q).unwrap()).collect();

            for round in 0..3 {
                let mut b = KbBuilder::new();
                b.assert_str(&format!("new{round}"), "bornIn", "c1");
                b.assert_str(&format!("new{round}"), "bornIn", &format!("fresh{round}"));
                b.retract_str(&format!("p{round}"), "bornIn", &format!("c{round}"));
                let mono_view = mono.snapshot();
                let delta = Arc::new(b.freeze_delta(&mono_view));
                router.apply_delta(Arc::clone(&delta));
                mono.apply_delta(delta);
                let rv = router.view();
                let mv = mono.snapshot();
                for (rid, mid) in router_ids.iter().zip(&mono_ids) {
                    let got = router.view_result(*rid).unwrap();
                    let want = mono.view_result(*mid).unwrap();
                    assert_eq!(
                        got.render(rv.as_ref()),
                        want.render(mv.as_ref()),
                        "n={n} round={round}"
                    );
                }
            }
        }
    }

    /// Satellite regression: a subscriber that never drains cannot
    /// block the epoch barrier — the queue sheds its oldest updates,
    /// `view.lagged` counts them, and the next receive reports a typed
    /// `ViewLag` before delivery resumes from a full-answer update.
    #[test]
    fn stalled_subscriber_sheds_instead_of_blocking_installs() {
        let cfg = AdmissionConfig { subscriber_buffer: 2, ..Default::default() };
        let (router, registry) = isolated(2, cfg);
        let id = router.register_view("SELECT ?p WHERE { ?p bornIn c1 }").unwrap();
        let sub = router.subscribe(id);

        // Five installs against a 2-slot queue; the subscriber stalls.
        // Deltas freeze against a monolithic shadow of the router's
        // state (replicated dictionaries make the term spaces equal).
        let mut shadow = SegmentedSnapshot::from_base(sample());
        for round in 0..5 {
            let mut b = KbBuilder::new();
            b.assert_str(&format!("late{round}"), "bornIn", "c1");
            let delta = Arc::new(b.freeze_delta(&shadow));
            shadow = shadow.with_delta(Arc::clone(&delta));
            router.apply_delta(delta);
        }
        assert_eq!(router.epoch(), 5, "installs must complete despite the stalled subscriber");
        assert_eq!(registry.counter("view.lagged").get(), 3);
        assert_eq!(registry.counter("view.pushed").get(), 5);

        // Lag reported exactly once, then the queued tail drains.
        match sub.try_recv() {
            Err(lag) => assert_eq!(lag.missed, 3),
            other => panic!("expected ViewLag, got {other:?}"),
        }
        let first = sub.try_recv().unwrap().expect("queued update");
        assert!(first.patched);
        // The retained update carries the full answer — a valid resync
        // point even though three diffs were dropped.
        assert_eq!(first.output.rows.len(), router.view_result(id).unwrap().rows.len() - 1);
        let second = sub.try_recv().unwrap().expect("newest update");
        assert_eq!(second.output.rows.len(), router.view_result(id).unwrap().rows.len());
        assert!(sub.try_recv().unwrap().is_none());

        // Dropping the handle unsubscribes on the next push.
        drop(sub);
        let mut b = KbBuilder::new();
        b.assert_str("after_drop", "bornIn", "c1");
        let delta = Arc::new(b.freeze_delta(&shadow));
        router.apply_delta(delta);
        assert_eq!(registry.counter("view.pushed").get(), 5, "no push after unsubscribe");
    }

    #[test]
    fn shedding_is_typed_and_counted() {
        // queue_depth 0 rejects everything at the queue gate.
        let cfg = AdmissionConfig {
            rate_per_sec: None,
            burst: 1.0,
            queue_depth: 0,
            ..Default::default()
        };
        let (router, registry) = isolated(2, cfg);
        match router.query("?p bornIn ?c") {
            Err(ServeError::Overloaded(Overloaded::QueueFull { partition: 0 })) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        match router.query("p1 bornIn ?c") {
            Err(ServeError::Overloaded(Overloaded::QueueFull { .. })) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(registry.counter("serve.shed").get(), 2);
        assert_eq!(registry.counter("serve.admitted").get(), 0);
        assert_eq!(registry.gauge("serve.queue_depth").get(), 0, "rolled back cleanly");
    }
}
